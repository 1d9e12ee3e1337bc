import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic.errors import DivisionByZero, PoleAtOne
from motivic.ratfield import (
    ELL,
    ONE,
    Polynomial,
    RatFunc,
    canonical_str,
    in_lambda_circ,
    pi_eval,
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
