"""Exact arithmetic in the coefficient field Q(l).

`l` stands for the class of the affine line; every computation in the
library bottoms out here.  Values are immutable and always kept in a
canonical reduced form (denominator monic, gcd(num, den) = 1), so equality
is plain component comparison and results are reproducible across runs.

No floating point is used anywhere: coefficients are `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from operator import index

from .errors import DivisionByZero, PoleAtOne

__all__ = [
    "Polynomial",
    "RatFunc",
    "ELL",
    "ONE",
    "ZERO",
    "in_lambda_circ",
    "pi_eval",
    "specialize",
    "canonical_str",
]


def exact_fraction(c):
    """c as a Fraction: a Fraction is kept, anything else must be an
    integer (operator.index), so floats and strings raise TypeError."""
    return c if isinstance(c, Fraction) else Fraction(index(c))


class Polynomial:
    """Dense univariate polynomial over Q, coefficients indexed by degree.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial is the empty tuple and ``degree`` returns the sentinel -1
    for it (never fed into arithmetic shortcuts).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [exact_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def ell(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, k):
        return cls((0,) * k + (1,))

    @property
    def degree(self):
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the number it equals
        if self.degree > 0:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __repr__(self):
        return "Polynomial(%r)" % (self.coeffs,)

    def __str__(self):
        return _poly_str(self.coeffs, _l_monomial)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = exact_fraction(other)
            return Polynomial(tuple(c * a for a in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                c = rem[i] / lead
                q[i - d] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval_at(self, x):
        x = exact_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading
        if lead == 1:
            return self
        return Polynomial(tuple(c / lead for c in self.coeffs))


def poly_gcd(a, b):
    """Monic gcd of two rational polynomials (zero if both are zero)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class RatFunc:
    """A reduced ratio of two Polynomials; the elements of Q(l).

    Canonical form: denominator monic and nonzero, gcd(num, den) = 1, and
    the zero function stored as 0/1.  Equality and hashing rely on this.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,)) if not isinstance(num, (tuple, list)) else Polynomial(num)
        if den is None:
            den = Polynomial.one()
        elif not isinstance(den, Polynomial):
            den = Polynomial((den,)) if not isinstance(den, (tuple, list)) else Polynomial(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            self.num = Polynomial(())
            self.den = Polynomial.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(Polynomial(()))

    @classmethod
    def one(cls):
        return cls(Polynomial.one())

    @classmethod
    def ell(cls):
        return cls(Polynomial.ell())

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError("%s is not a constant" % self)
        if self.is_zero():
            return Fraction(0)
        return self.num.coeffs[0]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial hashes like its Polynomial, so a constant like its number
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num.coeffs, self.den.coeffs)

    def __str__(self):
        return canonical_str(self)

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return (RatFunc.one() / self) ** (-k)
        # coprime num and monic den stay coprime and monic under powers
        out = RatFunc.__new__(RatFunc)
        out.num = self.num**k
        out.den = self.den**k
        return out

    def to_json(self):
        """JSON form: coefficient lists by ascending degree, as strings."""
        return {
            "num": [str(c) for c in self.num.coeffs],
            "den": [str(c) for c in self.den.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        num = Polynomial([Fraction(c) for c in obj["num"]])
        den = Polynomial([Fraction(c) for c in obj["den"]])
        return cls(num, den)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc(Polynomial((x,)))
    if isinstance(x, Polynomial):
        return RatFunc(x)
    return NotImplemented


ELL = RatFunc.ell()
ONE = RatFunc.one()
ZERO = RatFunc.zero()


def in_lambda_circ(f):
    """Whether f is regular at l = 1 (reduced denominator nonzero there).

    This is the membership test for the subring on which the l = 1
    evaluation is defined; sums and products of members stay members.
    """
    return _coerce(f).den.eval_at(1) != 0


def pi_eval(f):
    """Evaluate f at l = 1, returning an exact Fraction.

    Raises PoleAtOne when the reduced denominator vanishes at 1.
    """
    f = _coerce(f)
    d = f.den.eval_at(1)
    if d == 0:
        raise PoleAtOne("pole at l = 1 in %s" % canonical_str(f))
    return f.num.eval_at(1) / d


# ---------------------------------------------------------------------------
# rendering


def _power(var, k):
    return var if k == 1 else "%s^%d" % (var, k)


def _l_monomial(k):
    return _power("l", k)


def _poly_str(coeffs, monomial):
    """Render a coefficient tuple as text, highest degree first; monomial(k)
    is the text of the degree-k monomial for k >= 1."""
    if not coeffs:
        return "0"
    pieces = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = monomial(k)
        else:
            body = "%s*%s" % (abs(c), monomial(k))
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


def _int_normalized(f):
    """Scale num and den of f by one positive rational so both have integer
    coefficients with overall content 1.  Returns two Fraction tuples."""
    coeffs = list(f.num.coeffs) + list(f.den.coeffs)
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // _int_gcd(denom_lcm, c.denominator)
    scaled = [c * denom_lcm for c in coeffs]
    content = 0
    for c in scaled:
        content = _int_gcd(content, int(c))
    if content == 0:
        content = 1
    s = Fraction(denom_lcm, content)
    num = tuple(c * s for c in f.num.coeffs)
    den = tuple(c * s for c in f.den.coeffs)
    return num, den


def _is_simple_term(text):
    return " " not in text and "*" not in text and "/" not in text


def _ratio_str(f, monomial):
    """The num/den text behind canonical_str and specialize; monomial(k)
    is the text of the image of l^k."""
    f = _coerce(f)
    if f.is_zero():
        return "0"
    num, den = _int_normalized(f)
    num_s = _poly_str(num, monomial)
    if len(den) == 1 and den[0] == 1:
        return num_s
    den_s = _poly_str(den, monomial)
    if not _is_simple_term(num_s):
        num_s = "(%s)" % num_s
    if not _is_simple_term(den_s):
        den_s = "(%s)" % den_s
    return "%s/%s" % (num_s, den_s)


def canonical_str(f):
    """Canonical text form num/den with integer coefficients, content 1 and
    the denominator a positive multiple of the stored monic one.  On a
    constant it agrees with str() of the Fraction."""
    return _ratio_str(f, _l_monomial)


# specialization target -> text of the image of l^k
_SPECIALIZATIONS = {
    "poincare_z": lambda k: _power("z", 2 * k),
    "hodge_xy": lambda k: "%s*%s" % (_power("x", k), _power("y", k)),
}


def specialize(f, target):
    """Render f under l -> z^2 ("poincare_z") or l -> xy ("hodge_xy").

    Both substitutions are exact; the result is returned as text in the
    target variables since the library itself stays univariate.
    """
    try:
        monomial = _SPECIALIZATIONS[target]
    except KeyError:
        raise ValueError("unknown specialization target %r" % (target,)) from None
    return _ratio_str(f, monomial)
