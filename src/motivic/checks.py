"""Named invariant suites, shared by the command line and the test suite.

Every suite returns a CheckReport with the number of instances it actually
exercised; callers assert that count is positive so a suite can never pass
vacuously.  All randomness is seeded, so reruns are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .coefficients import (
    ECoeffTable,
    consistency_residual,
    e_recursion_residual,
    f_recursion_residual,
    m_big_coeff,
)
from .errors import GuardError
from .groups import (
    AbelianGroupClass,
    SetPartition,
    TorusSubgroup,
    partition_to_subgroup,
    torus,
    upsilon_group,
)
from .guards import E_GUARD
from .models import (
    gl2_flag_model,
    gl3_flag_model,
    gl3_free_model,
    torus_plane_model,
    torus_weighted_line_model,
)
from .ratfield import ONE, ZERO, RatFunc
from .stackcalc import (
    LambdaBarElem,
    WeightFn,
    abelianize_model,
    lbar_mul,
    model_total_upsilon,
    pi_mu_lbar,
    upsilon_pi_mu,
    weight_mul,
)

__all__ = ["CheckReport", "run_suite", "SUITES"]


@dataclass
class CheckReport:
    suite: str
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.instances > 0 and not self.failures

    def count(self):
        self.instances += 1

    def fail(self, message):
        self.failures.append(message)


def check_eff_recursion(max_m=6):
    """Both recursion residuals vanish for every level up to max_m."""
    report = CheckReport("eff-recursion")
    table = ECoeffTable.build(max_m + 1)
    for m in range(1, max_m + 1):
        report.count()
        if e_recursion_residual(m, table) != ZERO:
            report.fail("E recursion residual nonzero at m = %d" % m)
        report.count()
        if f_recursion_residual(m, table) != 0:
            report.fail("F recursion residual nonzero at m = %d" % m)
    return report


def check_consistency(max_m=5):
    """The group class inverse expands over block tori with E weights."""
    report = CheckReport("consistency")
    for m in range(1, max_m + 1):
        report.count()
        if consistency_residual(m) != ZERO:
            report.fail("consistency residual nonzero at m = %d" % m)
    return report


def _random_subgroup(rng, m):
    rows = tuple(
        tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(0, m))
    )
    return TorusSubgroup(m, rows)


def check_mobius_crosscut(max_m=4, n_random=200):
    """The literal subset sums agree with the Mobius function: Rota's
    product formula on block tori, the recursion on random closed posets."""
    from .subgroups import poset_close, q_lattice_gl  # loads numpy

    report = CheckReport("mobius-crosscut")
    for m in range(2, max_m + 1):
        lat = q_lattice_gl(m)
        for a in lat.elements:
            for b in lat.elements:
                if not lat.leq(a, b):
                    continue
                report.count()
                if lat.crosscut_coeff(a, b) != lat.mobius(a, b):
                    report.fail("crosscut != mobius on block tori of rank %d" % m)
    for m in range(2, max_m + 2):
        lat = q_lattice_gl(m)
        bottom = partition_to_subgroup(SetPartition.one_block(m))
        report.count()
        expected = (-1) ** (m - 1) * factorial(m - 1)
        if lat.mobius(bottom, TorusSubgroup.full_torus(m)) != expected:
            report.fail("corner Mobius value wrong for rank %d" % m)
    rng = random.Random(0)
    built = 0
    while built < n_random:
        m = rng.randint(2, 4)
        if built % 2 == 0:
            # seeded by random block tori
            seeds = []
            for _ in range(rng.randint(1, 3)):
                items = list(range(1, m + 1))
                rng.shuffle(items)
                cut = sorted(rng.sample(range(1, m), rng.randint(0, m - 1)))
                blocks = []
                prev = 0
                for c in cut + [m]:
                    blocks.append(items[prev:c])
                    prev = c
                seeds.append(partition_to_subgroup(SetPartition(m, tuple(blocks))))
        else:
            seeds = [_random_subgroup(rng, m) for _ in range(rng.randint(1, 3))]
        p = poset_close(seeds, TorusSubgroup.full_torus(m))
        if len(p) > 12:
            continue
        built += 1
        for a in p.elements:
            for b in p.elements:
                if not p.leq(a, b):
                    continue
                report.count()
                if p.crosscut_coeff(a, b) != p.mobius(a, b):
                    report.fail("crosscut != mobius on a random closed poset")
    return report


def _random_class(rng):
    torsion = tuple(rng.choice([2, 2, 3, 4]) for _ in range(rng.randint(0, 2)))
    return AbelianGroupClass(rng.randint(0, 3), torsion)


def _random_lbar(rng):
    terms = []
    for _ in range(rng.randint(0, 4)):
        coeff = RatFunc(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
        )
        terms.append((_random_class(rng), coeff))
    return LambdaBarElem(terms)


def _random_weight(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return WeightFn.const_one()
    if kind == 1:
        return WeightFn.virtual_rank(rng.randint(0, 3))
    if kind == 2:
        return WeightFn.iso_indicator(_random_class(rng))
    table = {_random_class(rng): Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))}
    return WeightFn.table(table, Fraction(rng.randint(-2, 2)))


def check_operator_algebra(n_random=500):
    """Identity weight, composition law and the virtual-rank family."""
    report = CheckReport("operator-algebra")
    rng = random.Random(0)
    for _ in range(n_random):
        report.count()
        x = _random_lbar(rng)
        m1 = _random_weight(rng)
        m2 = _random_weight(rng)
        if pi_mu_lbar(WeightFn.const_one(), x) != x:
            report.fail("constant weight is not the identity")
        if pi_mu_lbar(m1, pi_mu_lbar(m2, x)) != pi_mu_lbar(weight_mul(m1, m2), x):
            report.fail("composition differs from the product weight")
        n = rng.randint(0, 4)
        k = rng.randint(0, 4)
        pn = pi_mu_lbar(WeightFn.virtual_rank(n), x)
        if pi_mu_lbar(WeightFn.virtual_rank(n), pn) != pn:
            report.fail("virtual-rank projection is not idempotent")
        if k != n and pi_mu_lbar(WeightFn.virtual_rank(k), pn) != LambdaBarElem.zero():
            report.fail("virtual-rank projections are not orthogonal")
        total = LambdaBarElem.zero()
        for j in range(4):
            total = total + pi_mu_lbar(WeightFn.virtual_rank(j), x)
        if total != x:
            report.fail("virtual-rank projections do not sum to the identity")
        y = _random_lbar(rng)
        lhs = pi_mu_lbar(WeightFn.virtual_rank(n), lbar_mul(x, y))
        rhs = LambdaBarElem.zero()
        for j in range(n + 1):
            rhs = rhs + lbar_mul(
                pi_mu_lbar(WeightFn.virtual_rank(j), x),
                pi_mu_lbar(WeightFn.virtual_rank(n - j), y),
            )
        if lhs != rhs:
            report.fail("tensor convolution rule fails")
    return report


def check_model_pi1(max_m=3):
    """Constant-weight projection equals the plain class ratio on models."""
    report = CheckReport("model-pi1")
    ratio_models = [("GL(2) flag model", gl2_flag_model())]
    if max_m >= 3:
        ratio_models.append(("GL(3) flag model", gl3_flag_model()))
        ratio_models.append(("GL(3) free model", gl3_free_model()))
    ratio_models.append(("weighted line model", torus_weighted_line_model()))
    ratio_models.append(("coordinate plane model", torus_plane_model()))
    for name, model in ratio_models:
        report.count()
        got = upsilon_pi_mu(model, WeightFn.const_one())
        if got != model_total_upsilon(model) / upsilon_group(model.group):
            report.fail("%s: constant weight is not the class ratio" % name)
    pure = [
        ("GL(2) flag model", gl2_flag_model(), 2, ONE / upsilon_group(torus(2))),
        ("GL(3) flag model", gl3_flag_model(), 3, ONE / upsilon_group(torus(3))),
        ("GL(3) free model", gl3_free_model(), 0, ONE),
    ]
    for name, model, rank, expected in pure:
        x = abelianize_model(model)
        for n in range(0, 4):
            report.count()
            got = sum(pi_mu_lbar(WeightFn.virtual_rank(n), x).terms.values(), ZERO)
            want = expected if n == rank else ZERO
            if got != want:
                report.fail("%s: virtual rank %d projection wrong" % (name, n))
    return report


def check_m_vanishing(n_instances=200):
    """The double Mobius coefficient dies when minimality fails."""
    from .subgroups import poset_close  # loads numpy

    report = CheckReport("m-vanishing")
    rng = random.Random(0)
    while report.instances < n_instances:
        m = rng.randint(2, 3)
        top = TorusSubgroup.full_torus(m)
        p_poset = poset_close(
            [_random_subgroup(rng, m) for _ in range(rng.randint(1, 3))], top
        )
        q_poset = poset_close(
            [_random_subgroup(rng, m) for _ in range(rng.randint(1, 3))], top
        )
        if len(p_poset) * len(q_poset) > 200:
            continue
        r_elems = [a.intersect(b) for a in p_poset.elements for b in q_poset.elements]
        r_poset = poset_close(r_elems, top)
        weyl_inv = Fraction(1, rng.randint(1, 6))
        for P in p_poset.elements:
            for Q in q_poset.elements:
                meet = P.intersect(Q)
                p_violated = any(
                    x != P and P.contains(x) and x.contains(meet)
                    for x in p_poset.elements
                )
                q_violated = any(
                    x != Q and Q.contains(x) and x.contains(meet)
                    for x in q_poset.elements
                )
                if not (p_violated or q_violated):
                    continue
                candidates = [r for r in r_poset.elements if meet.contains(r)]
                R = rng.choice(candidates)
                report.count()
                if m_big_coeff(p_poset, q_poset, r_poset, P, Q, R, weyl_inv) != 0:
                    report.fail("nonzero coefficient despite a minimality violation")
                if report.instances >= n_instances:
                    break
            if report.instances >= n_instances:
                break
    return report


# suite name -> (largest size bound, runner); a bound above the limit is
# refused rather than clamped, so a report always covers the bound asked for
SUITES = {
    "eff-recursion": (E_GUARD - 1, check_eff_recursion),  # its table runs to max_m + 1
    "consistency": (E_GUARD, check_consistency),
    "mobius-crosscut": (4, lambda max_m: check_mobius_crosscut(max_m=max_m, n_random=25 * max_m)),
    "operator-algebra": (4, lambda max_m: check_operator_algebra(n_random=125 * max_m)),
    "model-pi1": (3, check_model_pi1),
    "m-vanishing": (4, lambda max_m: check_m_vanishing(n_instances=50 * max_m)),
}


def run_suite(name, max_m):
    try:
        limit, suite = SUITES[name]
    except KeyError:
        raise GuardError(
            "unknown suite %r; choose from %s" % (name, ", ".join(sorted(SUITES)))
        ) from None
    if max_m < 1:
        raise GuardError("size bound must be positive")
    if max_m > limit:
        raise GuardError("suite %s supports size bounds up to %d" % (name, limit))
    return suite(max_m)
