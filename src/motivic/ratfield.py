"""Exact arithmetic in the coefficient field Q(l).

`l` stands for the class of the affine line; every computation in the
library bottoms out here.  Values are immutable and always kept in a
canonical reduced form (denominator monic, gcd(num, den) = 1), so equality
is plain component comparison and results are reproducible across runs.

No floating point is used anywhere.  Coefficients are exact rationals
(`fractions.Fraction`) at rest, but the arithmetic runs on integer primitive
parts: a product is one big-integer product (Kronecker substitution), and
the gcd that keeps a quotient reduced is the heuristic gcd GCDHEU of Char,
Geddes and Gonnet (1989), with the primitive remainder sequence as its
fallback.
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
        ca, a = _primitive(self.coeffs)
        cb, b = _primitive(other.coeffs)
        return _scaled(ca * cb, _mul_ints(a, b))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def eval_at(self, x):
        x = exact_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# ---------------------------------------------------------------------------
# the integer kernel: coefficient lists of ints, lowest degree first, with a
# nonzero last entry


def _primitive(coeffs):
    """Split a nonzero Fraction coefficient sequence into (content, ints):
    coeffs = content * ints, where ints are integers with gcd 1 and a
    positive last (leading) entry, and content is a Fraction."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if den % d:
            den = den * d // _int_gcd(den, d)
    g, ints = _int_primitive([c.numerator * (den // c.denominator) for c in coeffs])
    return Fraction(g, den), ints


def _int_primitive(ints):
    """(g, ints / g) for the g = +-gcd(ints) that leaves the last entry
    positive."""
    g = _int_gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return g, (ints if g == 1 else [c // g for c in ints])


def _scaled(s, ints):
    """The Polynomial s * ints, for a nonzero Fraction s."""
    p, q = s.numerator, s.denominator
    out = Polynomial.__new__(Polynomial)
    if q == 1:
        out.coeffs = tuple(Fraction(p * c) for c in ints)
    else:
        out.coeffs = tuple(Fraction(p * c, q) for c in ints)
    return out


def _pack(ints, k):
    """The value at 2^k of the polynomial with coefficients ints: Horner on
    short runs, halves joined by one shift, so the cost stays near linear."""
    if len(ints) <= 8:
        v = 0
        for c in reversed(ints):
            v = (v << k) + c
        return v
    m = len(ints) // 2
    return _pack(ints[:m], k) + (_pack(ints[m:], k) << (k * m))


def _unpack(v, k, length):
    """The lowest `length` balanced base-2^k digits of v, each in
    [-2^(k-1), 2^(k-1)), lowest first; k is a multiple of 8."""
    n = k >> 3
    raw = (v & ((1 << (k * length)) - 1)).to_bytes(n * length, "little")
    half, full = 1 << (k - 1), 1 << k
    out = []
    carry = 0
    for i in range(0, n * length, n):
        d = int.from_bytes(raw[i : i + n], "little") + carry
        carry = d >= half
        out.append(d - full if carry else d)
    return out


def _mul_ints(a, b):
    """Product of two nonzero integer coefficient lists by Kronecker
    substitution: pack both at 2^k, multiply once, unpack.  Every product
    coefficient is at most max|a| * max|b| * min(len) in size, and k leaves
    room for that and its sign."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    k = (bound.bit_length() + 8) & ~7
    return _unpack(_pack(a, k) * _pack(b, k), k, len(a) + len(b) - 1)


def _interpolate(v, k):
    """The polynomial whose value at 2^k is v != 0 with balanced digits,
    trimmed; its leading coefficient has the sign of v."""
    out = _unpack(v, k, v.bit_length() // k + 2)
    while not out[-1]:
        out.pop()
    return out


# GCDHEU evaluation points tried before the remainder sequence
_HEU_TRIES = 6


def _gcd_parts(f, g):
    """(h, f/h, g/h) for primitive integer lists f and g with positive
    leading coefficients, where h is their gcd (primitive, positive
    leading coefficient).

    GCDHEU: evaluate at x = 2^k, take one integer gcd, interpolate its
    balanced digits into h and check h * (f/h) == f and h * (g/h) == g.
    With x >= 2 * min(max|f|, max|g|) + 2 a common divisor found this way is
    the gcd: a further common factor q would have q(x) dividing the content
    of the interpolant, which is at most x/2, while every common root lies
    within 1 + min(max|f|, max|g|) of 0, so |q(x)| > x/2.  The bound covers
    only one of f and g, so the other may vanish at x; such a point is
    skipped.  After six failed points the primitive remainder sequence gives
    the gcd.
    """
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    norm = min(max(map(abs, f)), max(map(abs, g)))
    k = ((2 * norm + 2).bit_length() + 7) & ~7
    for _ in range(_HEU_TRIES):
        fx, gx = _pack(f, k), _pack(g, k)
        if fx and gx:
            h = _int_primitive(_interpolate(_int_gcd(fx, gx), k))[1]
            if len(h) == 1:
                return h, f, g
            hx = _pack(h, k)
            cf = _interpolate(fx // hx, k)
            if _mul_ints(h, cf) == f:
                cg = _interpolate(gx // hx, k)
                if _mul_ints(h, cg) == g:
                    return h, cf, cg
        k += (k // 32) * 8 + 8
    h = _prs_gcd(f, g)
    return h, _exact_quo(f, h), _exact_quo(g, h)


def _prs_gcd(f, g):
    """gcd of primitive integer lists with positive leading coefficients by
    the primitive remainder sequence: each pseudo-remainder loses its
    content, so the coefficients stay small."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = list(f)
        lead = g[-1]
        while len(r) >= len(g):
            c = r[-1]
            shift = len(r) - len(g)
            r = [x * lead for x in r]
            for j, b in enumerate(g):
                r[shift + j] -= c * b
            while r and not r[-1]:
                r.pop()
        if not r:
            return g
        f, g = g, _int_primitive(r)[1]
    return [1]


def _exact_quo(f, h):
    """f / h for integer lists when h divides f exactly."""
    r = list(f)
    dh = len(h) - 1
    lead = h[-1]
    terms = [(j, b) for j, b in enumerate(h[:-1]) if b]
    q = [0] * (len(f) - dh)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dh] // lead
        q[i] = c
        for j, b in terms:
            r[i + j] -= c * b
    return q


def poly_gcd(a, b):
    """Monic gcd of two rational polynomials (zero if both are zero).

    No production path calls this: RatFunc reduces through `_gcd_parts`,
    which also returns the cofactors.  It stays as the polynomial-level gcd
    that `bench/tracer.py` wraps."""
    if a.is_zero() and b.is_zero():
        return a
    if a.is_zero() or b.is_zero():
        h = _primitive((a or b).coeffs)[1]
    else:
        h = _gcd_parts(_primitive(a.coeffs)[1], _primitive(b.coeffs)[1])[0]
    return _scaled(Fraction(1, h[-1]), h)


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
        cn, n = _primitive(num.coeffs)
        cd, d = _primitive(den.coeffs)
        if len(d) > 1:
            _, n, d = _gcd_parts(n, d)
        lead = d[-1]
        self.num = _scaled(cn / (cd * lead), n)
        self.den = _scaled(Fraction(1, lead), d)

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
        out.den = self.den if self.den.degree == 0 else self.den**k
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
        pieces.append((c < 0, body))
    return signed_sum(pieces)


def signed_sum(pieces):
    """Text of a sum from (negative, body) pairs: '-a + b - c', with the
    first sign glued to its body; '0' for no pieces."""
    if not pieces:
        return "0"
    text = " ".join(("- " if neg else "+ ") + body for neg, body in pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _int_normalized(f):
    """Scale num and den of f by one positive rational so both have integer
    coefficients with overall content 1.  Returns two integer lists."""
    cn, num = _primitive(f.num.coeffs)
    cd, den = _primitive(f.den.coeffs)  # cd > 0: the stored den is monic
    r = cn / cd
    return [r.numerator * c for c in num], [r.denominator * c for c in den]


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
