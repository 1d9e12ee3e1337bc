"""Exact arithmetic in the coefficient field Q(l).

`l` stands for the class of the affine line; every computation in the
library bottoms out here.  Values are immutable and always kept in a
canonical reduced form (denominator monic, gcd(num, den) = 1), so equality
is plain component comparison and results are reproducible across runs.

No floating point is used anywhere.  A value is a RatFunc: two
Polynomials, each stored as a rational content times a primitive integer
coefficient tuple.  Polynomial has no arithmetic; RatFunc's operators work on
the stored parts and hand every sum, difference, product and quotient to the
RatFunc constructor, so the reduction is written once.  A product of integer
tuples is one big-integer product (Kronecker substitution), and the gcd that
reduces is the heuristic gcd GCDHEU of Char, Geddes and Gonnet (1989), whose
evaluation point grows until its answer checks.  Both write coefficients
into k-bit slots of one integer; nearly all slots are 1 to 8 bytes, so runs
of more than 8 in a machine-word slot are converted as one array of unsigned
words.  Fraction coefficients are only derived for output, and JSON is
rendered without them.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm
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
    """Dense univariate polynomial over Q, stored as content * ints: the
    numerator or denominator of a RatFunc.

    `ints` is a tuple of integers indexed by degree, with gcd 1 and a
    positive last (leading) entry, and `content` is a nonzero Fraction.
    The zero polynomial is content 0 with ints (), and ``degree`` returns
    the sentinel -1 for it.  It has no ring operators: Q(l) arithmetic is
    RatFunc's, on these stored parts, so that every result is reduced by
    one constructor.  The Fraction coefficients are derived on demand, for
    output only.
    """

    __slots__ = ("content", "ints")

    def __init__(self, coeffs=()):
        cs = [exact_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self.content, self.ints = _primitive(
            Fraction(1, den), [c.numerator * (den // c.denominator) for c in cs]
        )

    @property
    def coeffs(self):
        """The coefficients as Fractions, lowest degree first."""
        p, q = self.content.numerator, self.content.denominator
        return tuple(Fraction(p * c, q) for c in self.ints)

    @property
    def degree(self):
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.content == other.content and self.ints == other.ints
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        # a constant has ints (1,) or (), so it hashes like the number it equals
        if self.degree > 0:
            return hash((self.content, self.ints))
        return hash(self.content)

    def __repr__(self):
        return "Polynomial(%r)" % (self.coeffs,)

    def eval_at(self, x):
        """The value at x, a Fraction: Horner over the integers on x = p/q,
        carrying q^k along so the one division comes last."""
        x = exact_fraction(x)
        acc, den = 0, 1
        for c in reversed(self.ints):
            acc, den = acc * x.numerator + c * den, den * x.denominator
        return self.content * Fraction(acc * x.denominator, den)


# ---------------------------------------------------------------------------
# the integer kernel: sequences of ints, lowest degree first, with a nonzero
# last entry


def _poly(content, ints):
    """The Polynomial with the stored parts content and ints, as given."""
    out = Polynomial.__new__(Polynomial)
    out.content, out.ints = content, tuple(ints)
    return out


def _primitive(scale, ints):
    """Stored parts (content, ints) of the polynomial scale * ints, for a
    nonzero Fraction scale and an integer list that may end in zeros, which
    are popped."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return Fraction(0), ()
    g, ints = _int_primitive(ints)
    return scale * g, tuple(ints)


def _int_primitive(ints):
    """(g, ints / g) for the g = +-gcd(ints) that leaves the last entry
    positive."""
    g = _int_gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return g, (ints if g == 1 else [c // g for c in ints])


# typecode of the unsigned machine word of each byte width; the slots are
# little-endian bytes, so a big-endian host converts every slot per digit
_WORDS = {array(c).itemsize: c for c in "BHILQ"} if sys.byteorder == "little" else {}


def _slot_bias(n, length):
    """2^(8n - 1) in each of `length` slots of n bytes: the sum of the biases."""
    return int.from_bytes((bytes(n - 1) + b"\x80") * length, "little")


def _pack(ints, k):
    """The value at 2^k of the polynomial with coefficients ints.  More than
    8 coefficients in [-2^(k-1), 2^(k-1)) and machine-word slots are biased
    to one array of unsigned words (which refuses any other coefficient)."""
    code = _WORDS.get(k >> 3) if len(ints) > 8 else None
    if code:
        half = 1 << (k - 1)
        try:
            words = array(code, [c + half for c in ints])
        except OverflowError:  # a coefficient outside the slot
            pass
        else:
            return int.from_bytes(words, "little") - _slot_bias(k >> 3, len(ints))
    return _pack_halves(ints, k)


def _pack_halves(ints, k):
    """`_pack` by Horner on short runs, halves joined by one shift, so the
    cost stays near linear for any slot and coefficient size."""
    if len(ints) <= 8:
        v = 0
        for c in reversed(ints):
            v = (v << k) + c
        return v
    m = len(ints) // 2
    return _pack_halves(ints[:m], k) + (_pack_halves(ints[m:], k) << (k * m))


def _unpack(v, k, length):
    """The lowest `length` balanced base-2^k digits of v, each in
    [-2^(k-1), 2^(k-1)), lowest first; k is a multiple of 8.  Adding
    2^(k-1) to every slot makes each digit unsigned, so the slots are read
    with no carry: more than 8 machine-word digits as one array, others one
    at a time."""
    n = k >> 3
    half = 1 << (k - 1)
    raw = ((v + _slot_bias(n, length)) & ((1 << (k * length)) - 1)).to_bytes(n * length, "little")
    code = _WORDS.get(n) if length > 8 else None
    if code:
        return [d - half for d in memoryview(raw).cast(code)]
    return [int.from_bytes(raw[i : i + n], "little") - half for i in range(0, n * length, n)]


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


def _gcd_parts(f, g):
    """(h, f/h, g/h) for primitive integer sequences f and g with positive
    leading coefficients, where h is their gcd (primitive, positive
    leading coefficient).

    Powers of l come off first: l^v, v the smaller of the two orders at 0,
    is the gcd's power of l, and the rest of them, on one side against a
    constant term 2^n * c on the other, would make 2^k a common factor of
    the two values at every point 2^k with k < n.  Then GCDHEU: evaluate at
    x = 2^k, take one integer gcd, interpolate its balanced digits into h
    and check h * (f/h) == f and h * (g/h) == g.  With
    x >= 2 * min(max|f|, max|g|) + 2 a common divisor found this way is the
    gcd: a further common factor q would have q(x) dividing the content of
    the interpolant, which is at most x/2, while every common root lies
    within 1 + min(max|f|, max|g|) of 0, so |q(x)| > x/2.  Each cofactor is
    one division at 2^(k + w), where w is how many bits wider its dividend's
    coefficients are than the other side's, so a lopsided pair needs no
    wider gcd.  A point where f or g vanishes is skipped, and one whose
    digits miss is followed by a point a quarter and 8 to 15 bits larger,
    as dup_zz_heu_gcd in sympy grows x, until one checks.  One does: with
    f = h*a and g = h*b, the integer gcd at any x is |h(x)| * c, where
    c = gcd(a(x), b(x)) divides the resultant Res(a, b) != 0.  So once
    x > 1 + max(max|f|, max|g|) and x/2 exceeds |Res(a, b)| * max|h|,
    max|a| and max|b|, the balanced digits are those of c * h, whose
    primitive part is h, and both cofactors interpolate exactly.  The
    Hadamard and Landau-Mignotte bounds give those sizes finitely many
    bits, which k passes in logarithmically many tries.
    """
    vf = next(i for i, c in enumerate(f) if c)
    vg = next(i for i, c in enumerate(g) if c)
    if vf or vg:
        v = min(vf, vg)
        h, cf, cg = _gcd_parts(f[vf:], g[vg:])
        return [0] * v + list(h), [0] * (vf - v) + list(cf), [0] * (vg - v) + list(cg)
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    f, g = list(f), list(g)  # stored tuples: a list never equals a tuple
    wf, wg = _slot_bits(f), _slot_bits(g)
    k = min(wf, wg)
    wf, wg = wf - k, wg - k  # how much wider each side's slots are
    while True:
        fx, gx = _pack(f, k), _pack(g, k)
        if fx and gx:
            h = _int_primitive(_interpolate(_int_gcd(fx, gx), k))[1]
            if len(h) == 1:
                return h, f, g
            cf = _cofactor(f, h, k + wf)
            cg = cf and _cofactor(g, h, k + wg)
            if cg:
                return h, cf, cg
        k = (k * 5 // 4 + 15) & ~7


def _slot_bits(ints):
    """The least multiple k of 8 with 2^k > 2 * max|ints| + 2."""
    return ((2 * max(map(abs, ints)) + 2).bit_length() + 7) & ~7


def _cofactor(f, h, k):
    """f/h by one division at 2^k, interpolated, for integer lists with
    positive leading coefficients and 2^k past the roots of both; None when
    the product does not check."""
    v = _pack(f, k) // _pack(h, k)
    if v:
        q = _interpolate(v, k)
        if _mul_ints(h, q) == f:
            return q
    return None


def poly_gcd(a, b):
    """Monic gcd of two rational polynomials (zero if both are zero).

    No production path calls this: RatFunc reduces through `_gcd_parts`,
    which also returns the cofactors.  It stays as the polynomial-level gcd
    that `bench/tracer.py` wraps."""
    if a.is_zero() or b.is_zero():
        h = (a or b).ints
    else:
        h = _gcd_parts(a.ints, b.ints)[0]
    return _poly(Fraction(1, h[-1]), h) if h else a


class RatFunc:
    """A reduced ratio of two Polynomials; the elements of Q(l).

    Canonical form: denominator monic and nonzero, gcd(num, den) = 1, and
    the zero function stored as 0/1.  Equality and hashing rely on this.
    The operators work on the stored parts (content, ints) of num and den,
    and each sum, difference, product and quotient is built by the
    constructor, so one reduction, the gcd of the numerator against the
    whole denominator, keeps every result canonical.  Negation and powers
    keep a reduced value reduced and skip it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,)) if not isinstance(num, (tuple, list)) else Polynomial(num)
        if not isinstance(den, Polynomial):
            den = Polynomial((den,)) if not isinstance(den, (tuple, list)) else Polynomial(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial((1,))  # zero is stored as 0/1
        n, d = num.ints, den.ints
        if len(d) > 1:
            _, n, d = _gcd_parts(n, d)
        lead = d[-1]
        self.num = _poly(num.content / (den.content * lead), n)
        self.den = _poly(Fraction(1, lead), d)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def ell(cls):
        return cls((0, 1))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError("%s is not a constant" % self)
        return self.num.content  # the ints of a constant are (1,) or ()

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
        out.num = _poly(-self.num.content, self.num.ints)
        out.den = self.den
        return out

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return _value(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(_times(self.num, other.num), _times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(_times(self.num, other.den), _times(self.den, other.num))

    def __rtruediv__(self, other):
        return _value(other) / self

    def __pow__(self, k):
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return (RatFunc.one() / self) ** (-k)
        # coprime num and monic den stay coprime and monic under powers
        out = RatFunc.__new__(RatFunc)
        out.num = _raised(self.num, k)
        out.den = _raised(self.den, k)
        return out

    def to_json(self):
        """JSON form: coefficient lists by ascending degree, as strings."""
        return {"num": _fraction_strs(self.num), "den": _fraction_strs(self.den)}

    @classmethod
    def from_json(cls, obj):
        num = Polynomial([Fraction(c) for c in obj["num"]])
        den = Polynomial([Fraction(c) for c in obj["den"]])
        return cls(num, den)


def _times(p, q):
    """The Polynomial p * q from stored parts; by Gauss's lemma a product
    of primitive parts is primitive."""
    if not (p.ints and q.ints):
        return _poly(Fraction(0), ())
    return _poly(p.content * q.content, _mul_ints(p.ints, q.ints))


def _sum(f, g, sign):
    """f + sign * g, as the constructor's reduction of the cross products
    a = f.num * g.den and c = g.num * f.den over f.den * g.den."""
    a, c = _times(f.num, g.den), _times(g.num, f.den)
    den = _times(f.den, g.den)
    if not a.ints:
        return RatFunc(_poly(sign * c.content, c.ints), den)
    # a + sign * c = (a.content / r.den) * (r.den * a.ints + r.num * c.ints)
    r = sign * c.content / a.content
    x = [r.denominator * v for v in a.ints]
    y = [r.numerator * v for v in c.ints]
    if len(x) < len(y):
        x, y = y, x
    for i, v in enumerate(y):
        x[i] += v
    return RatFunc(_poly(*_primitive(a.content / r.denominator, x)), den)


def _raised(p, k):
    """The Polynomial p^k for k >= 0: content^k times ints^k by repeated
    squaring, which Gauss's lemma keeps primitive."""
    if len(p.ints) <= 1:  # a constant's ints, (1,) or (), are their own powers
        return _poly(p.content**k, p.ints if k else (1,))
    out, base, e = [1], p.ints, k
    while e:
        if e & 1:
            out = _mul_ints(out, base)
        e >>= 1
        if e:
            base = _mul_ints(base, base)
    return _poly(p.content**k, out)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RatFunc(x)
    return NotImplemented


def _value(x):
    """x as a RatFunc; TypeError, as from RatFunc(0.1), for anything else."""
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError("not a value in Q(l): %r" % (x,))
    return out


ELL = RatFunc.ell()
ONE = RatFunc.one()
ZERO = RatFunc.zero()


def in_lambda_circ(f):
    """Whether f is regular at l = 1 (reduced denominator nonzero there).

    This is the membership test for the subring on which the l = 1
    evaluation is defined; sums and products of members stay members.
    """
    return _value(f).den.eval_at(1) != 0


def pi_eval(f):
    """Evaluate f at l = 1, returning an exact Fraction.

    Raises PoleAtOne when the reduced denominator vanishes at 1.
    """
    f = _value(f)
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
    coefficients with overall content 1.  Returns two integer lists, [] and
    [1] for zero."""
    r = f.num.content / f.den.content  # den.content > 0: the stored den is monic
    return [r.numerator * c for c in f.num.ints], [r.denominator * c for c in f.den.ints]


def _fraction_strs(p):
    """str() of each Fraction in p.coeffs: with content a/q in lowest terms,
    a * c / q is in lowest terms over q / gcd(c, q)."""
    a, q = p.content.numerator, p.content.denominator
    out = []
    for c in p.ints:
        g = _int_gcd(c, q)
        out.append(str(a * c // g) if g == q else "%d/%d" % (a * c // g, q // g))
    return out


def _is_simple_term(text):
    return " " not in text and "*" not in text and "/" not in text


def _ratio_str(f, monomial):
    """The num/den text behind canonical_str and specialize; monomial(k)
    is the text of the image of l^k."""
    num, den = _int_normalized(_value(f))
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
