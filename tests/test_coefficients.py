import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from e_series import scalar_e_through
from motivic import coefficients
from motivic.coefficients import (
    ECoeffTable,
    _exp_coeffs,
    consistency_residual,
    e_coeff_gl,
    e_recursion_residual,
    f_recursion_residual,
    m_big_coeff,
)
from motivic.errors import InternalInvariant, NotInPoset, TooLarge
from motivic.groups import (
    GeneralLinear,
    SetPartition,
    enumerate_partitions,
    q_lattice_gl,
    upsilon_group,
)
from motivic.ratfield import ELL, ONE, RatFunc, ZERO, in_lambda_circ, pi_eval
from motivic.models import gl3_flag_model
from motivic.stackcalc import WeightFn, abelianize_bgl, upsilon_pi_mu
from motivic.subgroups import TorusSubgroup, poset_close

L = ELL

EXPECTED_E2 = (ONE / (L + 1)) * (-ONE / L - Fraction(1, 2))
EXPECTED_E3 = (ONE / (L * L + L + 1)) * (
    ONE / L**3 + ONE / L**2 + ONE / L + Fraction(1, 3)
)


def test_scalar_e_values():
    assert e_coeff_gl(SetPartition.one_block(1)) == ONE
    assert e_coeff_gl(SetPartition.one_block(2)) == EXPECTED_E2
    assert e_coeff_gl(SetPartition.one_block(3)) == EXPECTED_E3


def test_scalar_f_values():
    assert pi_eval(e_coeff_gl(SetPartition.one_block(1))) == 1
    assert pi_eval(e_coeff_gl(SetPartition.one_block(2))) == Fraction(-3, 4)
    assert pi_eval(e_coeff_gl(SetPartition.one_block(3))) == Fraction(10, 9)


def test_e_singletons_m2():
    # by hand: Upsilon(T) * (1/2) / Upsilon(T)
    assert e_coeff_gl(SetPartition.singletons(2)) == RatFunc(
        Fraction(1, 2)
    )


def test_e_guard():
    with pytest.raises(TooLarge):
        e_coeff_gl(SetPartition.one_block(8))


def _mobius_e(q):
    """Oracle for e_coeff_gl: the defining Mobius-weighted sum over the
    block-torus lattice.  Upsilon(Q) times the sum, over block tori Q'
    containing Q, of mu(Q, Q') / (WeylIndex(Q') * Upsilon(C(Q'))), with the
    terms grouped by (block-size multiset, mu) before any rational
    arithmetic."""
    m = q.m
    lat = q_lattice_gl(m)
    iq = lat.partitions.index(q)
    groups = Counter()
    for j, p in enumerate(lat.partitions):
        if lat.leq_by_index(iq, j):
            groups[p.block_sizes(), lat.mobius_by_index(iq, j)] += 1
    acc = ZERO
    for (sizes, mu), count in sorted(groups.items()):
        weyl = factorial(m) // prod(factorial(s) for s in sizes)
        ups = prod((upsilon_group(GeneralLinear(s)) for s in sizes), start=ONE)
        acc = acc + RatFunc(Fraction(count * mu, weyl)) / ups
    return (L - 1) ** q.n_blocks * acc


def test_product_formula_examples():
    assert e_coeff_gl(SetPartition.one_block(3)) == _mobius_e(
        SetPartition.one_block(3)
    )
    for e in (e_coeff_gl, _mobius_e):
        assert e(SetPartition.singletons(2)) == RatFunc(Fraction(1, 2))
        got = e(SetPartition(3, ((1, 2), (3,))))
        assert got == EXPECTED_E2 / 3


def test_product_formula_equals_direct_everywhere():
    for m in range(1, 6):
        for q in enumerate_partitions(m):
            assert e_coeff_gl(q) == _mobius_e(q)
    for m in (6, 7):
        q = SetPartition.one_block(m)
        assert e_coeff_gl(q) == _mobius_e(q)


def test_coefficient_layer_builds_no_lattice():
    q_lattice_gl.cache_clear()
    e_coeff_gl.cache_clear()
    ECoeffTable.build(7)
    abelianize_bgl(6)
    consistency_residual(4)
    upsilon_pi_mu(gl3_flag_model(), WeightFn.const_one())
    assert q_lattice_gl.cache_info().currsize == 0


def test_table_keeps_only_e_regular_at_one(monkeypatch):
    # build stores only what e_coeff_gl returns, and e_coeff_gl refuses an
    # E with a pole at l = 1; a doubled GL(1) class puts one in E(1)
    real = coefficients.upsilon_group
    monkeypatch.setattr(
        coefficients,
        "upsilon_group",
        lambda g: (L - 1) ** 2 if g == GeneralLinear(1) else real(g),
    )
    e_coeff_gl.cache_clear()
    try:
        with pytest.raises(InternalInvariant):
            ECoeffTable.build(1)
    finally:
        e_coeff_gl.cache_clear()


def test_lambda_circ_membership_all_partitions():
    for m in range(1, 7):
        for q in enumerate_partitions(m):
            assert in_lambda_circ(e_coeff_gl(q))


def _compositions(n):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _composition_sum(n, sign, w):
    """Oracle for _exp_coeffs: the sum over compositions c of n of
    sign^len(c) / len(c)! * prod of w[k] over the parts k of c."""
    total = 0
    for comp in _compositions(n):
        term = Fraction(sign ** len(comp), factorial(len(comp)))
        for k in comp:
            term = term * w[k]
        total = total + term
    return total


def test_exp_coeffs_match_composition_sum():
    assert sorted(_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert sum(1 for _ in _compositions(6)) == 32
    rng = random.Random(23)
    for n in range(9):
        for sign in (1, -1):
            w = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(1, n + 1)}
            signed = {k: sign * v for k, v in w.items()}
            assert _exp_coeffs(signed, n)[n] == _composition_sum(n, sign, w)
    w = {k: (L**k - 1) / (L - 1) * e_coeff_gl(SetPartition.one_block(k)) for k in range(1, 6)}
    assert _exp_coeffs(w, 5)[5] == _composition_sum(5, 1, w)
    assert _exp_coeffs({k: -v for k, v in w.items()}, 5)[5] == _composition_sum(5, -1, w)


def test_recursion_residuals_small():
    table = ECoeffTable.build(4)
    for m in range(1, 4):
        assert e_recursion_residual(m, table) == ZERO
        assert f_recursion_residual(m, table) == 0


def test_recursion_requires_populated_table():
    table = ECoeffTable.build(2)
    with pytest.raises(ValueError):
        e_recursion_residual(2, table)


def test_f_recursion_pins_down_values():
    # the m = 1 identity forces F(2), the m = 2 identity forces F(3)
    table = ECoeffTable.build(3)
    assert table.f(2) == Fraction(-3, 4)
    assert table.f(3) == Fraction(10, 9)
    assert f_recursion_residual(1, table) == 0
    assert f_recursion_residual(2, table) == 0


def test_consistency_residual_small():
    for m in range(1, 4):
        assert consistency_residual(m) == ZERO


def test_e_structure_past_the_guard():
    """E(1..20), past E_GUARD, against two facts observed for m <= 30 (24)
    and not proved here: F(m) = (-1)^(m-1) C(2m-1, m) / m^2, and the
    reduced denominator of E(m) is l^C(m,2) [m]_l, [m]_l = (l^m - 1)/(l - 1),
    so m l^C(m,2) [m]_l E(m) has integer coefficients.  E(1..20) took
    0.3 s cold; the budget is about three times that."""
    t0 = time.perf_counter()
    es = scalar_e_through(20)
    for m, e in enumerate(es, 1):
        assert pi_eval(e) == Fraction((-1) ** (m - 1) * comb(2 * m - 1, m), m * m)
        weight = m * L ** comb(m, 2) * (L**m - 1) / (L - 1)
        assert e.den == (weight / m).num
        scaled = weight * e
        assert scaled.den == ONE.den and all(c.denominator == 1 for c in scaled.num.coeffs)
    assert pi_eval(es[9]) == Fraction(-46189, 50)
    assert time.perf_counter() - t0 < 1.0


def test_table_invariants():
    table = ECoeffTable.build(4)
    for m in range(1, 5):
        assert in_lambda_circ(table.e(m))
        from motivic.ratfield import pi_eval

        assert table.f(m) == pi_eval(table.e(m))


# ---------------------------------------------------------------------------
# the double Mobius sum


def block_torus(m, *blocks):
    rows = []
    for b in blocks:
        b = sorted(b)
        for i in b[1:]:
            row = [0] * m
            row[b[0] - 1] = 1
            row[i - 1] = -1
            rows.append(tuple(row))
    return TorusSubgroup(m, tuple(rows))


def brute_force_pair_sum(p_poset, q_poset, P, Q, R):
    """Literal subset-pair sum: over A below P with P in A, B below Q with
    Q in B, whose combined meet is R, of (-1)^(|A| + |B|)."""
    downs_p = [p_poset.elements[i] for i in p_poset.down_set(P)]
    downs_q = [q_poset.elements[i] for i in q_poset.down_set(Q)]
    others_p = [x for x in downs_p if x != P]
    others_q = [x for x in downs_q if x != Q]
    total = 0
    for ka in range(len(others_p) + 1):
        for extra_a in itertools.combinations(others_p, ka):
            meet_a = P
            for x in extra_a:
                meet_a = meet_a.intersect(x)
            for kb in range(len(others_q) + 1):
                for extra_b in itertools.combinations(others_q, kb):
                    meet = meet_a.intersect(Q)
                    for y in extra_b:
                        meet = meet.intersect(y)
                    if meet == R:
                        total += (-1) ** (ka + 1 + kb + 1)
    return total


def test_m_big_trivial_case():
    top = TorusSubgroup.full_torus(2)
    p = poset_close([], top)
    assert m_big_coeff(p, p, p, top, top, top, Fraction(3, 7)) == Fraction(3, 7)


def test_m_big_matches_brute_force_on_partition_posets():
    m = 2
    top = TorusSubgroup.full_torus(m)
    scal = block_torus(m, [1, 2])
    p = poset_close([scal], top)
    for P in p.elements:
        for Q in p.elements:
            for R in p.elements:
                if not P.intersect(Q).contains(R):
                    continue
                got = m_big_coeff(p, p, p, P, Q, R, 1)
                assert got == brute_force_pair_sum(p, p, P, Q, R)


def test_m_big_vanishing_when_not_minimal():
    # P = full torus, Q = R = scalars: the scalars sit strictly between
    # P meet Q and P, so the coefficient has to vanish
    m = 2
    top = TorusSubgroup.full_torus(m)
    scal = block_torus(m, [1, 2])
    p = poset_close([scal], top)
    assert m_big_coeff(p, p, p, top, scal, scal, 1) == 0


def test_m_big_vanishing_randomized():
    rng = random.Random(17)
    found = 0
    while found < 25:
        m = rng.randint(2, 3)
        top = TorusSubgroup.full_torus(m)
        seeds = [random_subgroup(rng, m) for _ in range(rng.randint(1, 3))]
        p_poset = poset_close(seeds, top)
        q_poset = poset_close([random_subgroup(rng, m) for _ in range(rng.randint(1, 3))], top)
        if len(p_poset) * len(q_poset) > 150:
            continue
        r_elems = [
            a.intersect(b) for a in p_poset.elements for b in q_poset.elements
        ]
        r_poset = poset_close(r_elems, top)
        for P in p_poset.elements:
            for Q in q_poset.elements:
                meet = P.intersect(Q)
                smaller = [
                    x
                    for x in p_poset.elements
                    if x != P and P.contains(x) and x.contains(meet)
                ]
                if not smaller:
                    continue
                got = m_big_coeff(p_poset, q_poset, r_poset, P, Q, meet, Fraction(2, 3))
                assert got == 0
                found += 1
                break
            else:
                continue
            break


def random_subgroup(rng, m):
    rows = [
        tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(0, m))
    ]
    return TorusSubgroup(m, tuple(rows))


def test_m_big_membership_errors():
    top = TorusSubgroup.full_torus(2)
    p = poset_close([], top)
    stranger = block_torus(2, [1, 2])
    with pytest.raises(NotInPoset):
        m_big_coeff(p, p, p, stranger, top, top, 1)
