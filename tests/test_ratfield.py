import itertools
import operator
import random
import sys
from array import array
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e_series import scalar_e_through
from motivic import ratfield
from motivic.coefficients import integer_partitions, type_weight
from motivic.errors import DivisionByZero, PoleAtOne
from motivic.groups import GeneralLinear, upsilon_group
from motivic.ratfield import (
    ELL,
    ONE,
    Polynomial,
    RatFunc,
    ZERO,
    _gcd_parts,
    _mul_ints,
    _pack,
    _unpack,
    canonical_str,
    in_lambda_circ,
    pi_eval,
    poly_gcd,
    specialize,
)

L = ELL


def test_difference_of_squares():
    assert (L - 1) * (L + 1) == L * L - 1


def test_cancellation():
    assert (L * L - 1) / (L - 1) == L + 1


def test_partial_fraction_sum():
    # 1/(l-1) + 1/(l+1), oracle by hand: common denominator l^2 - 1.
    got = ONE / (L - 1) + ONE / (L + 1)
    assert got == (2 * L) / (L * L - 1)


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / RatFunc.zero()


def test_canonical_form_monic_den_reduced():
    f = RatFunc(Polynomial((2, 2)), Polynomial((-4, 0, 4)))  # (2l+2)/(4l^2-4)
    assert f.den.coeffs[-1] == 1
    assert f == RatFunc(Polynomial((Fraction(1, 2),)), Polynomial((-1, 1)))
    # renormalizing a canonical value is the identity
    again = RatFunc(f.num, f.den)
    assert again.num == f.num and again.den == f.den


def test_in_lambda_circ_examples():
    assert in_lambda_circ(ONE / L)
    assert not in_lambda_circ(ONE / (L - 1))
    assert in_lambda_circ((L * L - 1) / (L - 1))


def test_pi_eval_examples():
    for k in range(7):
        assert pi_eval(L**k) == 1
    assert pi_eval((L**3 - 1) / (L - 1)) == 3
    with pytest.raises(PoleAtOne):
        pi_eval(ONE / (L - 1))


def test_specialize_examples():
    assert specialize(L - 1, "poincare_z") == "z^2 - 1"
    assert specialize(ONE, "poincare_z") == "1"
    assert specialize(L**2, "poincare_z") == "z^4"
    assert specialize(L - 1, "hodge_xy") == "x*y - 1"
    assert specialize(L**2, "hodge_xy") == "x^2*y^2"
    assert specialize(ONE / (L - 1), "poincare_z") == "1/(z^2 - 1)"


def test_canonical_str():
    assert canonical_str(L + 1) == "l + 1"
    assert canonical_str(ONE / (L - 1)) == "1/(l - 1)"
    half = RatFunc(Fraction(1, 2))
    assert canonical_str(half * L / (L + 1)) == "l/(2*l + 2)"
    assert canonical_str(RatFunc.zero()) == "0"
    e2 = (ONE / (L + 1)) * (-ONE / L - Fraction(1, 2))
    assert canonical_str(e2) == "(-l - 2)/(2*l^2 + 2*l)"


def test_json_round_trip():
    f = (L**3 - 2) / (3 * L + 1)
    assert RatFunc.from_json(f.to_json()) == f
    assert f.to_json()["den"][-1] == "1"  # stored monic


# coefficients of both signs over unrelated denominators, some far above a
# machine word, and zeros inside the lists
mixed_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**12),
    st.builds(lambda q, e: q * 10**e, st.fractions(max_denominator=10**6), st.integers(0, 30)),
)


def mixed_values():
    """Values in Q(l) with mixed coefficients, including zero and constants."""
    return st.builds(
        lambda num, den: RatFunc(Polynomial(num), Polynomial(den)),
        st.lists(mixed_coefficients, max_size=8),
        st.lists(mixed_coefficients, min_size=1, max_size=5).filter(any),
    )


@settings(max_examples=200, deadline=None)
@given(mixed_values())
def test_to_json_renders_the_fraction_coefficients(f):
    # the documented form: str() of each Fraction coefficient, ascending
    # degree, and it reads back as the same value
    want = {"num": [str(c) for c in f.num.coeffs], "den": [str(c) for c in f.den.coeffs]}
    assert f.to_json() == want
    assert RatFunc.from_json(f.to_json()) == f


coeffs = st.integers(min_value=-6, max_value=6)


def ratfuncs():
    def build(num, den):
        den_poly = Polynomial(den)
        if den_poly.is_zero():
            den_poly = Polynomial((1,))
        return RatFunc(Polynomial(num), den_poly)

    return st.builds(
        build,
        st.lists(coeffs, min_size=0, max_size=4),
        st.lists(coeffs, min_size=1, max_size=4),
    )


@settings(max_examples=150, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == RatFunc.zero()
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@settings(max_examples=150, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_pi_is_ring_morphism_where_defined(a, b):
    if in_lambda_circ(a) and in_lambda_circ(b):
        # closure under + and *
        assert in_lambda_circ(a + b)
        assert in_lambda_circ(a * b)
        assert pi_eval(a + b) == pi_eval(a) + pi_eval(b)
        assert pi_eval(a * b) == pi_eval(a) * pi_eval(b)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10**6).filter(bool))
def test_canonical_str_of_constant_is_fraction_str(q):
    # rational coefficients (after l = 1) render through canonical_str
    assert canonical_str(q) == str(q)
    assert canonical_str(RatFunc(q)) == str(q)


@settings(max_examples=100, deadline=None)
@given(ratfuncs())
def test_canonical_idempotent(a):
    assert RatFunc(a.num, a.den) == a
    assert a.den.coeffs[-1] == 1


def test_power_matches_repeated_product():
    rng = random.Random(17)
    for _ in range(30):
        num = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
        den = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]) or Polynomial((1,))
        f = RatFunc(num, den)
        product = ONE
        for k in range(7):
            # f**k skips the constructor, so == also checks its canonical form
            assert f**k == product
            if f:
                assert f ** (-k) == ONE / product
            product = product * f


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction Euclid it replaced


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def oracle_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists, long division."""
    rem = [Fraction(c) for c in a]
    d = len(b) - 1
    q = [Fraction(0)] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i]:
            c = rem[i] / b[-1]
            q[i - d] = c
            for j, x in enumerate(b):
                rem[i - d + j] -= c * x
    return _trimmed(q), _trimmed(rem)


def oracle_gcd(a, b):
    """Monic gcd by Euclid over Q with monic remainders."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        r = oracle_divmod(a, b)[1]
        a, b = b, [c / r[-1] for c in r]
    return [Fraction(c) / a[-1] for c in a]


def oracle_reduce(num, den):
    """(num, den) over their gcd with den monic, as Fraction tuples."""
    num, den = _trimmed(num), _trimmed(den)
    if not num:
        return (), (Fraction(1),)
    g = oracle_gcd(num, den)
    num, den = oracle_divmod(num, g)[0], oracle_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_power(a, k):
    out = [1]
    for _ in range(k):
        out = schoolbook(out, a)
    return out


def test_oracle_reduces_by_hand():
    # (l^2 - 1)/(2l - 2) = (l + 1)/2, stored as (l/2 + 1/2)/1
    assert oracle_reduce([-1, 0, 1], [-2, 2]) == ((Fraction(1, 2), Fraction(1, 2)), (1,))
    assert oracle_gcd([-1, 0, 1], [2, 3, 1]) == [1, 1]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def shared_factor_pairs(draw):
    """num and den sharing (l - 1)^k * (l^j - 1) * (l + 1)^i with k up to
    64, times small cofactors with rational coefficients."""
    common = poly_power([-1, 1], draw(st.integers(0, 64)))
    common = schoolbook(common, [-1] + [0] * (draw(st.integers(1, 16)) - 1) + [1])
    common = schoolbook(common, poly_power([1, 1], draw(st.integers(0, 8))))
    num = draw(st.lists(rationals, min_size=1, max_size=6).filter(lambda cs: any(cs)))
    den = draw(st.lists(rationals, min_size=1, max_size=6).filter(lambda cs: any(cs)))
    if draw(st.booleans()):
        num = schoolbook(num, poly_power([-1, 1], draw(st.integers(0, 64))))
    return schoolbook(num, common), schoolbook(den, common)


@settings(max_examples=30, deadline=None)
@given(shared_factor_pairs())
def test_reduction_matches_fraction_euclid(pair):
    num, den = pair
    f = RatFunc(Polynomial(num), Polynomial(den))
    assert (f.num.coeffs, f.den.coeffs) == oracle_reduce(num, den)


def signed_bits(bits):
    # integers of exactly `bits` bits, either sign
    return st.tuples(st.integers(1 << (bits - 1), (1 << bits) - 1), st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0]
    )


@st.composite
def late_point_pairs(draw):
    """num and den over a common factor l^i * (l - 1)^j * (l + 1)^m whose gcd
    a point 2^k chosen from the smaller side misses.  A lopsided pair has a
    cofactor with coefficients 100 to 400 bits above the other side's norm.
    In a resultant pair the cofactors l^8 - 1 and l^8 + 2^t - 2 share the
    factor 2^t - 1 at every point 2^k with t | 8k.  In a power pair one
    cofactor is 2^n + l * s(l), n from 100 to 400, and the other a multiple
    of l, so both values share 2^k at every point with k < n."""
    common = schoolbook(
        poly_power([-1, 1], draw(st.integers(1, 16))), poly_power([1, 1], draw(st.integers(0, 40)))
    )
    common = [0] * draw(st.integers(0, 3)) + common
    small = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(lambda cs: cs[-1]))
    kind = draw(st.sampled_from(("lopsided", "resultant", "power")))
    if kind == "lopsided":
        norm = max(map(abs, schoolbook(small, common)))
        bits = norm.bit_length() + draw(st.integers(100, 400))
        a = draw(st.lists(signed_bits(bits), min_size=1, max_size=6))
        b = small
    elif kind == "resultant":
        t = draw(st.sampled_from((8, 16, 32, 64)))
        a, b = [-1] + [0] * 7 + [1], [(1 << t) - 2] + [0] * 7 + [1]
    else:
        a = [1 << draw(st.integers(100, 400))] + small
        b = [0] * draw(st.integers(1, 8)) + small
    a, b = schoolbook(a, common), schoolbook(b, common)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=40, deadline=None)
@given(late_point_pairs())
def test_reduction_past_the_first_points_matches_fraction_euclid(pair):
    num, den = pair
    f = RatFunc(Polynomial(num), Polynomial(den))
    assert (f.num.coeffs, f.den.coeffs) == oracle_reduce(num, den)
    h, cf, cg = _gcd_parts(Polynomial(num).ints, Polynomial(den).ints)
    assert schoolbook(h, cf) == list(Polynomial(num).ints)
    assert schoolbook(h, cg) == list(Polynomial(den).ints)


def test_poly_gcd_is_monic_and_handles_zero():
    a = Polynomial(poly_power([-1, 1], 5))
    b = Polynomial(schoolbook(poly_power([-1, 1], 3), [Fraction(1, 3), 2]))
    assert poly_gcd(a, b) == Polynomial(poly_power([-1, 1], 3))
    assert poly_gcd(Polynomial((2, 4)), Polynomial(())) == Polynomial((Fraction(1, 2), 1))
    assert poly_gcd(Polynomial(()), Polynomial((3,))) == Polynomial((1,))
    assert poly_gcd(Polynomial(()), Polynomial(())) == Polynomial(())


def test_gcd_evaluation_point_clears_the_coefficients():
    # l - 255 is 1 at l = 2^8, so an evaluation point that small would lose
    # it from the integer gcd and report (l+1)(l-255), (l+2)(l-255) coprime
    f = schoolbook([-255, 1], [1, 1])
    g = schoolbook([-255, 1], [2, 1])
    assert poly_gcd(Polynomial(f), Polynomial(g)) == Polynomial((-255, 1))
    r = RatFunc(Polynomial(f), Polynomial(g))
    assert (r.num, r.den) == (Polynomial((1, 1)), Polynomial((2, 1)))
    # the first point is chosen from the smaller side alone, so it is 2^8
    # here and l - 256 vanishes there: that point is skipped, not used
    for den in ((-1, 1), (1, 1)):
        r = RatFunc(Polynomial((-256, 1)), Polynomial(den))
        assert (r.num, r.den) == (Polynomial((-256, 1)), Polynomial(den))
        r = RatFunc(Polynomial(den), Polynomial((-256, 1)))
        assert (r.num, r.den) == (Polynomial(den), Polynomial((-256, 1)))
        assert poly_gcd(Polynomial((-256, 1)), Polynomial(den)) == Polynomial((1,))


# roots at and next to the points GCDHEU evaluates at, and far beyond them
point_roots = st.one_of(
    st.sampled_from((1 << 8, 1 << 16, 1 << 24, (1 << 8) - 1, (1 << 8) + 1, (1 << 16) + 1)),
    st.integers(1 << 8, 1 << 80),
)


# small integer cofactors keep the first point at 2^8
cofactors = st.lists(st.one_of(st.integers(-20, 20), rationals), min_size=1, max_size=4).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    cofactors,
    cofactors,
    st.lists(st.tuples(point_roots, st.booleans(), st.sampled_from("nds")), min_size=1, max_size=3),
)
def test_reduction_with_roots_near_the_evaluation_point(num, den, roots):
    # each (l - c), c = +-root, goes into the numerator, the denominator or
    # both, so one side may vanish at the point chosen from the other
    for c, negative, side in roots:
        factor = [c if negative else -c, 1]
        if side in "ns":
            num = schoolbook(num, factor)
        if side in "ds":
            den = schoolbook(den, factor)
    f = RatFunc(Polynomial(num), Polynomial(den))
    assert (f.num.coeffs, f.den.coeffs) == oracle_reduce(num, den)


def near_bound(bits):
    # signed values at and just below the magnitude 2^bits
    top = 1 << bits
    return st.one_of(st.sampled_from((top, -top, top - 1, 1 - top)), st.integers(-top, top))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 70).flatmap(lambda b: st.tuples(
    st.lists(near_bound(b), min_size=1, max_size=40).filter(lambda cs: cs[-1]),
    st.lists(near_bound(b), min_size=1, max_size=40).filter(lambda cs: cs[-1]),
)))  # fmt: skip
def test_kronecker_product_matches_schoolbook(pair):
    a, b = pair
    assert _mul_ints(a, b) == schoolbook(a, b)


# ---------------------------------------------------------------------------
# Kronecker slots: the array conversions against the per-digit ones


def oracle_pack(ints, k):
    """The value at 2^k of the polynomial with coefficients ints: Horner on
    short runs, halves joined by one shift."""
    if len(ints) <= 8:
        v = 0
        for c in reversed(ints):
            v = (v << k) + c
        return v
    m = len(ints) // 2
    return oracle_pack(ints[:m], k) + (oracle_pack(ints[m:], k) << (k * m))


def oracle_unpack(v, k, length):
    """The lowest `length` balanced base-2^k digits of v, each read on its
    own and carried into the next."""
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


@st.composite
def slot_runs(draw):
    """(ints, k, length): 1 to 300 coefficients for slots of k bits, with
    digits at both ends of the slot, negative ones, sometimes coefficients
    far wider than the slot, and a length that may run past the digits."""
    k = draw(st.sampled_from((8, 16, 24, 32, 64, 72, 136)))
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 300)))
    rng = draw(st.randoms(use_true_random=False))
    wide = draw(st.booleans())
    half = 1 << (k - 1)

    def digit():
        r = rng.random()
        if r < 0.3:
            return rng.choice((-half, half - 1, -1, 0))
        if wide and r < 0.4:
            return rng.randrange(-(half << 40), half << 40)
        return rng.randrange(-half, half)

    return [digit() for _ in range(n)], k, n + draw(st.integers(0, 3))


@pytest.mark.parametrize("words", ("machine", "none"))
@settings(max_examples=200, deadline=None)
@given(slot_runs())
def test_slot_conversions_match_the_per_digit_oracles(words, run):
    # "none" empties the word table, so the per-digit paths stay covered
    # on a little-endian host
    ints, k, length = run
    with pytest.MonkeyPatch.context() as mp:
        if words == "none":
            mp.setattr(ratfield, "_WORDS", {})
        v = _pack(ints, k)
        assert v == oracle_pack(ints, k)
        for x in (v, -v, v * v + 1):
            assert _unpack(x, k, length) == oracle_unpack(x, k, length)


def test_word_table_is_keyed_by_itemsize():
    for width, code in ratfield._WORDS.items():
        assert array(code).itemsize == width
    if sys.byteorder == "little":
        assert sorted(ratfield._WORDS) == [1, 2, 4, 8]


def test_kronecker_product_at_the_packing_bound():
    # every middle coefficient reaches max|a| * max|b| * min(len), the
    # bound the packing width is chosen from, with either sign
    for bits in (0, 7, 8, 31, 64):
        m = (1 << bits) - 1 or 1
        for a, b in (([m] * 5, [m] * 5), ([-m] * 5, [m] * 3), ([m, -m] * 3, [-m] * 6)):
            assert _mul_ints(a, b) == schoolbook(a, b)


def test_gcd_point_grows_past_large_cofactors():
    # The smallest reduction known to defeat six points that each grew by
    # only about 3% plus 8 bits: the running sum of BGL(18)'s type terms, as
    # consistency_residual(18) takes it past CONSISTENCY_GUARD, at its 136th
    # term.  The denominator side has coefficients below 2^7, so the first
    # point is 2^8, while the numerator's cofactor needs one near 2^48.
    es = scalar_e_through(20)
    terms = []
    for sizes in itertools.islice(integer_partitions(18), 136):
        coeff = RatFunc(type_weight(sizes))
        for k in sizes:
            coeff = coeff * es[k - 1]
        terms.append(coeff / (L - 1) ** len(sizes))
    total = sum(terms[:-1], ZERO)
    last = terms[-1]
    f = (RatFunc(total.num) * RatFunc(last.den) + RatFunc(last.num) * RatFunc(total.den)).num.ints
    g = (RatFunc(total.den) * RatFunc(last.den)).num.ints
    h, cf, cg = _gcd_parts(f, g)
    assert (len(f), len(g), len(h)) == (325, 343, 48)
    assert max(map(abs, g)) < 2**7 and max(map(abs, cf)).bit_length() >= 45
    reduced = total + last
    assert (reduced.num.ints, reduced.den.ints) == (tuple(cf), tuple(cg))


def test_products_of_constants_and_zero():
    p = RatFunc((Fraction(-3, 2), 0, 5))
    zero = RatFunc(())
    assert p * zero == zero and zero * p == zero and zero * zero == zero
    assert p * RatFunc((Fraction(2, 3),)) == RatFunc((-1, 0, Fraction(10, 3)))
    assert RatFunc((7,)) * RatFunc((Fraction(-1, 7),)) == RatFunc((-1,))
    assert _mul_ints([5], [-3]) == [-15]


# ---------------------------------------------------------------------------
# the stored form (content, ints) against Fraction coefficient lists


def assert_stored_form(p):
    """content * ints with ints a tuple of ints, gcd 1 and a positive last
    entry, content a nonzero Fraction; the zero polynomial is (0, ())."""
    assert type(p.ints) is tuple and all(type(c) is int for c in p.ints)
    if not p.ints:
        assert p.content == 0
        return
    assert type(p.content) is Fraction and p.content != 0
    assert gcd(*p.ints) == 1 and p.ints[-1] > 0


def added(a, b):
    n = max(len(a), len(b))
    return _trimmed(x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b))))


mixed_coeffs = st.lists(rationals, max_size=6)


@st.composite
def polynomial_pairs(draw):
    """(a, b) as Fraction lists: unrelated, with the leading terms of a + b
    cancelling, or with a + b = 0."""
    a = draw(mixed_coeffs)
    kind = draw(st.sampled_from(("free", "cancel", "negated")))
    if kind == "negated":
        return a, [-c for c in a]
    b = draw(mixed_coeffs)
    if kind == "cancel" and a:
        b = (b + [Fraction(0)] * len(a))[: len(a)]
        b[-1] = -a[-1]
    return a, b


@settings(max_examples=150, deadline=None)
@given(polynomial_pairs(), st.integers(0, 4), rationals)
def test_polynomial_arithmetic_matches_fraction_lists(pair, k, x):
    # Q(l) arithmetic over denominator 1, so every result is a polynomial
    a, b = pair
    pa, pb = RatFunc(a), RatFunc(b)
    cases = (
        (pa, a),
        (pa + pb, added(a, b)),
        (pa - pb, added(a, [-c for c in b])),
        (-pa, [-c for c in a]),
        (pa * pb, schoolbook(a, b)),
        (pa * x, [c * x for c in a]),
        (pa**k, poly_power(a, k)),
    )
    for got, want in cases:
        assert_stored_form(got.num)
        assert got.num.coeffs == tuple(_trimmed(want)) and got.den.coeffs == (1,)
        assert got.num == Polynomial(want) and hash(got.num) == hash(Polynomial(want))
        assert hash(got) == hash(Polynomial(want))
    assert pa.num.eval_at(x) == sum(c * x**i for i, c in enumerate(a))
    assert Polynomial((x,)) == x and hash(Polynomial((x,))) == hash(x)


# ---------------------------------------------------------------------------
# RatFunc's operators at real widths, against Fraction lists


def cyclotomic(d):
    """Phi_d as an integer list: l^d - 1 over Phi_e for each proper divisor e."""
    out = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            out = oracle_divmod(out, cyclotomic(e))[0]
    return [int(c) for c in out]


# both signs, unrelated denominators up to 10^12, and magnitudes to 10^40
wide_rationals = st.one_of(
    st.fractions(max_denominator=10**12),
    st.builds(lambda q, e: q * 10**e, st.fractions(max_denominator=10**6), st.integers(10, 40)),
)


@st.composite
def shared_denominator_pairs(draw):
    """Two values (num, den) as Fraction lists whose denominators share
    l^i (l - 1)^j Phi_d^k, over cofactors with wide rational coefficients;
    a numerator may share some of it, or be zero."""
    common = [0] * draw(st.integers(0, 3)) + poly_power([-1, 1], draw(st.integers(0, 6)))
    phi = cyclotomic(draw(st.integers(2, 12)))
    common = schoolbook(common, poly_power(phi, draw(st.integers(0, 2))))

    def value():
        num = draw(st.lists(wide_rationals, max_size=4))
        if num and draw(st.booleans()):
            num = schoolbook(num, common[: draw(st.integers(1, len(common)))] or [1])
        den = draw(st.lists(wide_rationals, min_size=1, max_size=3).filter(any))
        return num, schoolbook(den, common)

    return value(), value()


@settings(max_examples=40, deadline=None)
@given(shared_denominator_pairs())
def test_operators_match_fraction_lists(pair):
    (a, b), (c, d) = pair
    f, g = RatFunc(Polynomial(a), Polynomial(b)), RatFunc(Polynomial(c), Polynomial(d))
    cases = [
        (f + g, added(schoolbook(a, d), schoolbook(c, b)), schoolbook(b, d)),
        (f - g, added(schoolbook(a, d), [-x for x in schoolbook(c, b)]), schoolbook(b, d)),
        (f * g, schoolbook(a, c), schoolbook(b, d)),
    ]
    if _trimmed(c):
        cases.append((f / g, schoolbook(a, d), schoolbook(b, c)))
    for got, num, den in cases:
        assert (got.num.coeffs, got.den.coeffs) == oracle_reduce(num, den)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__neg__")  # fmt: skip


def test_arithmetic_is_ratfunc_s_and_each_result_is_built_once(calls):
    # Polynomial keeps only the stored form.  A product or quotient is
    # reduced by exactly one constructor call; a sum or difference is built
    # directly by Henrici's rule from two gcds, of the denominators and then
    # of the numerator against theirs
    assert not set(ARITHMETIC) & set(vars(Polynomial))
    assert set(ARITHMETIC) <= set(vars(RatFunc))
    f, g = (L**2 + 1) / (L - 1), (L + 3) / (L**2 - 1)
    calls.watch(RatFunc, "__init__", "init")
    calls.watch(ratfield, "_gcd_parts", "gcd")
    for op in (operator.mul, operator.truediv):
        calls.clear()
        op(f, g)
        assert calls["init"] == 1, op
    for op in (operator.add, operator.sub):
        calls.clear()
        op(f, g)
        assert calls == {"gcd": 2}, op


# ---------------------------------------------------------------------------
# Henrici's rule for sums: each case also reaches the reduction of the
# numerator against the gcd of the denominators


def assert_canonical(f):
    """The stored form of a reduced value: primitive parts, a monic
    denominator and no common factor, with zero as 0/1."""
    assert_stored_form(f.num)
    assert_stored_form(f.den)
    assert f.den.coeffs[-1] == 1
    if f.num.ints:
        assert len(f.den.ints) == 1 or _gcd_parts(f.num.ints, f.den.ints)[0] == [1]
    else:
        assert (f.den.content, f.den.ints) == (1, (1,))


def old_sum(f, g, sign):
    """f + sign * g as the constructor's reduction of a*d + sign*c*b over
    b*d, the cross products taken on Fraction lists."""
    a, b, c, d = (list(p.coeffs) for p in (f.num, f.den, g.num, g.den))
    num = added(schoolbook(a, d), [sign * x for x in schoolbook(c, b)])
    return RatFunc(Polynomial(num), Polynomial(schoolbook(b, d)))


def test_sum_cancelling_exactly_is_stored_as_zero():
    f, g = (L**2 + 1) / (L - 1), (L + 3) / (L**2 - 1)
    for z in (f - f, f + (-f), (f + g) - (g + f)):
        assert (z.num.content, z.num.ints, z.den.content, z.den.ints) == (0, (), 1, (1,))
        assert z == ZERO and hash(z) == hash(0)
    assert (f + g) - g == f and (f - g) + g == f


def test_sum_where_one_denominator_divides_the_other():
    # [GL(12)] divides [GL(13)]; with l^12 on top of the second the
    # numerator takes l^12 of their gcd back
    gl12, gl13 = upsilon_group(GeneralLinear(12)), upsilon_group(GeneralLinear(13))
    for c in (ONE, L**12, -(L**12)):
        x, y = ONE / gl12, c / gl13
        got = x + y
        assert_canonical(got)
        assert got == old_sum(x, y, 1)
    assert ONE / gl12 + L**12 / gl13 == L**25 / gl13


def test_sum_over_coprime_denominators():
    # coprime outright, or once their gcd l - 1 comes off
    assert ONE / (L - 1) + ONE / (L + 1) == RatFunc((0, 2), (-1, 0, 1))
    got = ONE / (L**2 - 1) - ONE / ((L - 1) * (L**2 + 1))
    assert got == RatFunc((0, 1), (1, 1, 1, 1))
    assert (ONE / (L - 1) + ONE / (L + 1)) - ONE / (L + 1) == ONE / (L - 1)


def test_sum_of_a_polynomial_or_constant_and_a_fraction():
    f = (L + 3) / (L**2 - 1)
    for p in (L**2 + 1, RatFunc(Fraction(-2, 3)), ONE):
        got = p + f
        assert_canonical(got)
        assert got == old_sum(p, f, 1) and f + p == got
        assert got - f == p and p - got == -f
        assert got.den == f.den


def test_sum_whose_numerator_takes_all_of_the_shared_factor():
    # 1/(l - 1) - 1/(l(l - 1)) = (l - 1)/(l(l - 1)) = 1/l
    got = ONE / (L - 1) - ONE / (L * (L - 1))
    assert (got.num.ints, got.den.ints) == ((1,), (0, 1))
    assert got == ONE / L


@settings(max_examples=150, deadline=None)
@given(shared_denominator_pairs())
def test_sum_matches_the_constructor_reduction(pair):
    # with s = f + g, the sums s - g and s - f take back what the
    # numerator shares with the gcd of the denominators
    (a, b), (c, d) = pair
    f, g = RatFunc(Polynomial(a), Polynomial(b)), RatFunc(Polynomial(c), Polynomial(d))
    s = f + g
    for x, y in ((f, g), (s, g), (s, f)):
        for sign in (1, -1):
            got = x + y if sign > 0 else x - y
            assert_canonical(got)
            assert got == old_sum(x, y, sign)


def test_equal_values_built_differently_hash_and_render_alike():
    # 1/(l - 1) four ways, none of them a polynomial
    ways = [
        ONE / (L - 1),
        (L + 1) / (L * L - 1),
        RatFunc((1, 1), (-1, 0, 1)),
        RatFunc((2,), (-2, 2)),
    ]
    assert all(v == ways[0] and hash(v) == hash(ways[0]) for v in ways)
    assert len(dict.fromkeys(ways)) == 1
    assert {str(v) for v in ways} == {"1/(l - 1)"}
    assert str(RatFunc((1, 2), (3, 0, 1))) == "(2*l + 1)/(l^2 + 3)"
    assert str((2 * L + 1) / (L * L + 3)) == canonical_str(RatFunc((1, 2), (3, 0, 1)))
    # a polynomial over 1 and a ratio with a non-constant denominator differ
    assert len({L - 1, ONE / (L - 1)}) == 2
