import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import ratfield
from motivic.errors import DivisionByZero, PoleAtOne
from motivic.ratfield import (
    ELL,
    ONE,
    Polynomial,
    RatFunc,
    _exact_quo,
    _mul_ints,
    _primitive,
    _prs_gcd,
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
    assert f.den.leading == 1
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


coeffs = st.integers(min_value=-6, max_value=6)


def ratfuncs():
    def build(num, den):
        den_poly = Polynomial(den)
        if den_poly.is_zero():
            den_poly = Polynomial.one()
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
    assert a.den.leading == 1


def test_power_matches_repeated_product():
    rng = random.Random(17)
    for _ in range(30):
        num = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
        den = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]) or Polynomial.one()
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


@settings(max_examples=30, deadline=None)
@given(shared_factor_pairs())
def test_remainder_sequence_fallback_matches_fraction_euclid(pair):
    # GCDHEU almost never fails on these inputs, so the fallback is run
    # directly: the primitive remainder sequence alone, then the whole
    # reduction with no evaluation point tried
    num, den = pair
    _, f = _primitive(Polynomial(num).coeffs)
    _, g = _primitive(Polynomial(den).coeffs)
    h = _prs_gcd(f, g)
    assert [Fraction(c, h[-1]) for c in h] == oracle_gcd(num, den)
    assert schoolbook(h, _exact_quo(f, h)) == f
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratfield, "_HEU_TRIES", 0)
        r = RatFunc(Polynomial(num), Polynomial(den))
    assert (r.num.coeffs, r.den.coeffs) == oracle_reduce(num, den)


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
    st.lists(near_bound(b), min_size=1, max_size=12).filter(lambda cs: cs[-1]),
    st.lists(near_bound(b), min_size=1, max_size=12).filter(lambda cs: cs[-1]),
)))  # fmt: skip
def test_kronecker_product_matches_schoolbook(pair):
    a, b = pair
    assert _mul_ints(a, b) == schoolbook(a, b)


def test_kronecker_product_at_the_packing_bound():
    # every middle coefficient reaches max|a| * max|b| * min(len), the
    # bound the packing width is chosen from, with either sign
    for bits in (0, 7, 8, 31, 64):
        m = (1 << bits) - 1 or 1
        for a, b in (([m] * 5, [m] * 5), ([-m] * 5, [m] * 3), ([m, -m] * 3, [-m] * 6)):
            assert _mul_ints(a, b) == schoolbook(a, b)


def test_products_of_constants_and_zero():
    p = Polynomial((Fraction(-3, 2), 0, 5))
    zero = Polynomial(())
    assert p * zero == zero and zero * p == zero and zero * zero == zero
    assert p * Polynomial((Fraction(2, 3),)) == Polynomial((-1, 0, Fraction(10, 3)))
    assert Polynomial((7,)) * Polynomial((Fraction(-1, 7),)) == Polynomial((-1,))
    assert _mul_ints([5], [-3]) == [-15]
