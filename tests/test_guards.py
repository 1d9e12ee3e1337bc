"""One edge case per size guard in motivic.guards.

Each case runs the costliest accepted input known for its guard within a
budget, about three times a measured cold run and at least 1 s, and checks
that guard + 1 is refused with the guard's exception type within
REFUSAL_S.  A case that misses its budget means the program is fixed or
the guard moves as a documented change; a budget is never loosened.
"""

import random
import time
from functools import reduce

import pytest

from e_series import scalar_e_through
from motivic import guards
from motivic.coefficients import (
    ECoeffTable,
    consistency_residual,
    e_coeff_gl,
    e_recursion_residual,
    f_recursion_residual,
    scalar_e,
)
from motivic.errors import GuardError, TooLarge
from motivic.expr import _bounds, eval_class, parse
from motivic.groups import (
    GeneralLinear,
    PartitionLattice,
    SetPartition,
    bell_number,
    enumerate_partitions,
    group_rank,
    torus,
    upsilon_group,
)
from motivic.guards import (
    CROSSCUT_GUARD,
    DEGREE_MAX,
    DIM_MAX,
    E_GUARD,
    GL_MAX,
    HEIGHT_MAX,
    MODEL_GL_GUARD,
    MODEL_TORUS_GUARD,
    NEST_MAX,
    PARTITION_GUARD,
    Q_LATTICE_GUARD,
    RECURSION_GUARD,
)
from motivic.ratfield import ELL, ONE, ZERO, pi_eval
from motivic.stackcalc import (
    StratifiedModel,
    WeightFn,
    abelianize_bgl,
    abelianize_model,
    gen_euler,
    upsilon_pi_mu,
)
from motivic.subgroups import TorusSubgroup, poset_close

REFUSAL_S = 0.5
GUARD_NAMES = sorted(n for n in vars(guards) if n.endswith(("_GUARD", "_MAX")))


def accepted(budget_s, fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, "%s took %.2f s, budget %.1f s" % (fn.__name__, elapsed, budget_s)
    return value


def refused(error, fn, *args):
    t0 = time.perf_counter()
    with pytest.raises(TooLarge) as caught:
        fn(*args)
    assert type(caught.value) is error
    assert time.perf_counter() - t0 < REFUSAL_S


def eval_text(text):
    return eval_class(parse(text))


def point_model(group):
    """The point with automorphisms group: one stratum, stabilizer the torus."""
    return StratifiedModel(group, ((TorusSubgroup.full_torus(group_rank(group)), ONE),))


def coordinate_model(m):
    """G_m^m on A^m: one stratum per set S of nonzero coordinates, with
    stabilizer t_i = 1 on S and class (l - 1)^|S|."""
    strata = []
    for mask in range(2**m):
        rows = tuple(tuple(int(i == j) for j in range(m)) for i in range(m) if mask >> i & 1)
        strata.append((TorusSubgroup(m, rows), (ELL - 1) ** len(rows)))
    return StratifiedModel(torus(m), tuple(strata))


def closure_of_size(size, rng):
    """A poset_close of one-row seeds in ranks 3-5 with exactly size
    elements, so the down-set of its top has size elements."""
    while True:
        m = rng.randint(3, 5)
        top = TorusSubgroup.full_torus(m)
        seeds, family = [], {top}
        while len(family) < size:
            s = TorusSubgroup(m, (tuple(rng.randint(-2, 2) for _ in range(m)),))
            seeds.append(s)
            family |= {f.intersect(s) for f in family}
        if len(family) == size:
            return poset_close(seeds, top)


def bottom_and_top(p):
    return reduce(TorusSubgroup.intersect, p.elements), p.top


EDGES = {}


def edge(name):
    def register(case):
        EDGES[name] = case
        return case

    return register


@edge("PARTITION_GUARD")
def _():
    parts = accepted(1.5, enumerate_partitions, PARTITION_GUARD)
    assert len(parts) == bell_number(PARTITION_GUARD) == 21147
    refused(TooLarge, enumerate_partitions, PARTITION_GUARD + 1)


@edge("Q_LATTICE_GUARD")
def _():
    lat = accepted(1.0, PartitionLattice, Q_LATTICE_GUARD)
    assert len(lat) == bell_number(Q_LATTICE_GUARD) == 877
    refused(TooLarge, PartitionLattice, Q_LATTICE_GUARD + 1)


@edge("E_GUARD")
def _():
    # the one guard of every E-based computation, checked in scalar_e before
    # the one-block partition is built; e_coeff_gl keeps its own check
    table = accepted(1.0, ECoeffTable.build, E_GUARD)
    assert table.max_m == E_GUARD
    assert accepted(1.0, consistency_residual, E_GUARD) == ZERO
    x = accepted(1.0, abelianize_bgl, E_GUARD)
    assert accepted(1.0, gen_euler, x)
    refused(TooLarge, ECoeffTable.build, E_GUARD + 1)
    refused(TooLarge, consistency_residual, E_GUARD + 1)
    refused(TooLarge, abelianize_bgl, E_GUARD + 1)
    refused(TooLarge, e_coeff_gl, SetPartition.one_block(E_GUARD + 1))
    refused(TooLarge, scalar_e, 4_000_000)


@edge("RECURSION_GUARD")
def _():
    es = scalar_e_through(RECURSION_GUARD + 1)
    table = ECoeffTable(len(es), es, tuple(pi_eval(e) for e in es))
    assert accepted(2.5, e_recursion_residual, RECURSION_GUARD, table) == ZERO
    assert accepted(1.0, f_recursion_residual, RECURSION_GUARD, table) == 0
    wider = ECoeffTable(len(es) + 1, table.scalar_e + (ZERO,), table.scalar_f + (0,))
    refused(TooLarge, e_recursion_residual, RECURSION_GUARD + 1, wider)
    refused(TooLarge, f_recursion_residual, RECURSION_GUARD + 1, wider)


@edge("MODEL_GL_GUARD")
def _():
    m = MODEL_GL_GUARD
    total = accepted(2.0, upsilon_pi_mu, point_model(GeneralLinear(m)), WeightFn.const_one())
    assert total == ONE / upsilon_group(GeneralLinear(m))
    refused(TooLarge, upsilon_pi_mu, point_model(GeneralLinear(m + 1)), WeightFn.const_one())
    refused(TooLarge, abelianize_model, point_model(GeneralLinear(m + 1)))


@edge("MODEL_TORUS_GUARD")
def _():
    m = MODEL_TORUS_GUARD
    total = accepted(1.0, upsilon_pi_mu, coordinate_model(m), WeightFn.const_one())
    assert total == ELL**m / (ELL - 1) ** m
    refused(TooLarge, upsilon_pi_mu, point_model(torus(m + 1)), WeightFn.const_one())
    refused(TooLarge, abelianize_model, point_model(torus(m + 1)))


@edge("CROSSCUT_GUARD")
def _():
    rng = random.Random(1)
    p = closure_of_size(CROSSCUT_GUARD, rng)
    ends = bottom_and_top(p)
    assert accepted(1.0, p.crosscut_coeff, *ends) == p.mobius(*ends)
    p = closure_of_size(CROSSCUT_GUARD + 1, rng)
    refused(TooLarge, p.crosscut_coeff, *bottom_and_top(p))


@edge("DIM_MAX")
def _():
    n = DIM_MAX
    for text in ("A^%d * P^%d * Gm^%d" % (n, n, n), "[P^%d / Gm^%d]" % (n, n)):
        accepted(1.0, eval_text, text)
    for text in ("A^%d", "P^%d", "Gm^%d", "[pt / Gm^%d]"):
        refused(GuardError, parse, text % (n + 1))


@edge("GL_MAX")
def _():
    m = GL_MAX
    for text in ("GL(%d)", "BGL(%d)", "[A^1 / GL(%d)]"):
        accepted(1.0, eval_text, text % m)
        refused(GuardError, parse, text % (m + 1))


@edge("NEST_MAX")
def _():
    n = NEST_MAX
    assert accepted(1.0, eval_text, "(" * n + "pt" + ")" * n) == ONE
    assert accepted(1.0, eval_text, "[" * n + "pt" + " / Gm]" * n) == ONE / (ELL - 1) ** n
    refused(GuardError, parse, "(" * (n + 1) + "pt" + ")" * (n + 1))


@edge("DEGREE_MAX")
def _():
    for text in ("(A^64)^12", "(GL(16))^3", "(A^64)^12 * Gm"):
        assert max(_bounds(parse(text))) == DEGREE_MAX + text.endswith("Gm")
    assert accepted(1.0, eval_text, "(A^64)^12") == ELL**DEGREE_MAX
    accepted(2.0, eval_text, "(GL(16))^3")
    accepted(2.5, eval_text, "[pt/GL(16)] * [pt/GL(15)] + [pt/GL(14)]")
    accepted(1.0, eval_text, "[P^64/Gm^64]^11 + [P^63/Gm^63]")
    accepted(1.0, eval_text, "[pt/Gm^64]^10 + [pt/GL(11)]")
    refused(GuardError, eval_text, "(A^64)^12 * Gm")


@edge("HEIGHT_MAX")
def _():
    # the gcd of the lopsided quotient needs a point past 2^2000; the last
    # three refusals would build 2^16384, 2^(2^30) and 2^(2^36), the first
    # past the 4300 digits str() converts
    lopsided = "[((A^64 * A^36 * ((pt+pt)^64)^31 * (pt+pt)^16 + pt) * (A^1 - pt)) / Gm^64]"
    assert max(_bounds(parse(lopsided), height=True)) == 2002
    assert max(_bounds(parse("[P^64/Gm^64]^11 + [P^63/Gm^63]"), height=True)) == 767
    assert max(_bounds(parse("((pt+pt)^64)^32"), height=True)) == HEIGHT_MAX
    assert accepted(1.0, eval_text, "((pt+pt)^64)^32") == 2**HEIGHT_MAX
    accepted(1.0, eval_text, lopsided)
    slowest = "[P^25 / GL(11)]^5 + [((pt+pt)^64)^29 * (pt+pt)^3 * Gm^8 / Gm^56] + [P^5 / Gm^17]^3"
    assert max(_bounds(parse(slowest), height=True)) == 1975
    accepted(1.0, eval_text, slowest)
    refused(GuardError, eval_text, "((pt+pt)^64)^32 * (pt+pt)")
    refused(GuardError, eval_text, "(((pt+pt)^64)^64)^4")
    for levels in (5, 6):
        refused(GuardError, eval_text, "(" * levels + "pt+pt" + ")^64" * levels)


def test_every_guard_has_an_edge_case():
    assert GUARD_NAMES
    assert sorted(EDGES) == GUARD_NAMES


def test_guards_module_holds_only_guards():
    public = sorted(n for n in vars(guards) if not n.startswith("_"))
    assert public == GUARD_NAMES
    assert all(type(getattr(guards, n)) is int for n in GUARD_NAMES)


@pytest.mark.parametrize("name", sorted(EDGES))
def test_guard_edge(name):
    EDGES[name]()
