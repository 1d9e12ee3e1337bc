"""Exception types shared across the library."""

__all__ = [
    "MotivicError",
    "DivisionByZero",
    "PoleAtOne",
    "AmbientMismatch",
    "NotInPoset",
    "NotComparable",
    "TooLarge",
    "GuardError",
    "NotAbelian",
    "InternalInvariant",
    "ExprSyntaxError",
]


class MotivicError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(MotivicError, ZeroDivisionError):
    """Division by the zero rational function (or a zero class)."""


class PoleAtOne(MotivicError):
    """Evaluation at l = 1 hit a pole of the reduced denominator."""

    def __init__(self, message, offending_class=None):
        super().__init__(message)
        self.offending_class = offending_class


class AmbientMismatch(MotivicError):
    """Operands live in tori of different ambient rank."""


class NotInPoset(MotivicError):
    """A subgroup or index passed to a poset query is not in the poset."""


class NotComparable(MotivicError):
    """The two poset elements are not related by containment."""


class TooLarge(MotivicError):
    """A size guard was exceeded; the exact computation was refused."""


class GuardError(TooLarge):
    """A user-supplied parameter is outside the supported range."""


class NotAbelian(MotivicError):
    """Operation defined only for torus groups was applied to GL(m)."""


class InternalInvariant(MotivicError):
    """An identity the mathematics guarantees failed; signals a bug."""


class ExprSyntaxError(MotivicError):
    """Parse failure, carrying the byte offset and the expected tokens."""

    def __init__(self, position, expected, found=None):
        self.position = position
        self.expected = tuple(sorted(expected))
        self.found = found
        what = repr(found) if found is not None else "end of input"
        super().__init__(
            "syntax error at offset %d: expected %s, found %s"
            % (position, " | ".join(self.expected), what)
        )
