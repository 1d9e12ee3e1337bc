import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import checks, stackcalc
from motivic.errors import NotAbelian, PoleAtOne, TooLarge
from motivic.expr import eval_class, parse
from motivic.coefficients import e_coeff_gl
from motivic.groups import (
    GeneralLinear,
    SetPartition,
    enumerate_partitions,
    partition_to_subgroup,
    torus,
    upsilon_group,
)
from motivic.guards import MODEL_GL_GUARD, MODEL_TORUS_GUARD
from motivic.models import (
    gl2_flag_model,
    gl3_flag_model,
    gl3_free_model,
    torus_plane_model,
    torus_weighted_line_model,
)
from motivic.ratfield import (
    ELL,
    ONE,
    Polynomial,
    RatFunc,
    ZERO,
    canonical_str,
    in_lambda_circ,
    pi_eval,
    specialize,
)
from motivic.stackcalc import (
    LambdaBarElem,
    OmegaBarElem,
    StratifiedModel,
    WeightFn,
    abelianize_bgl,
    abelianize_model,
    gen_euler,
    lbar_mul,
    model_total_upsilon,
    pi_mu_lbar,
    pi_re_n,
    upsilon_pi_mu,
    weight_mul,
)
from motivic.subgroups import AbelianGroupClass, TorusSubgroup, poset_close

L = ELL

GM = AbelianGroupClass(1)
GM2 = AbelianGroupClass(2)
GM3 = AbelianGroupClass(3)
UNIT = AbelianGroupClass(0)

E2 = (ONE / (L + 1)) * (-ONE / L - Fraction(1, 2))
E3 = (ONE / (L * L + L + 1)) * (ONE / L**3 + ONE / L**2 + ONE / L + Fraction(1, 3))


def test_lbar_mul_examples():
    assert lbar_mul(LambdaBarElem.term(GM), LambdaBarElem.term(GM)) == LambdaBarElem.term(GM2)
    x = LambdaBarElem.term(GM2, L - 1) + LambdaBarElem.term(GM, 3)
    assert lbar_mul(LambdaBarElem.term(UNIT), x) == x
    got = lbar_mul(LambdaBarElem.term(GM, L - 1), LambdaBarElem.term(UNIT, 2))
    assert got == LambdaBarElem.term(GM, 2 * (L - 1))


def test_lbar_mul_with_torsion():
    a = LambdaBarElem.term(AbelianGroupClass(1, (2,)))
    b = LambdaBarElem.term(AbelianGroupClass(0, (3,)))
    assert lbar_mul(a, b) == LambdaBarElem.term(AbelianGroupClass(1, (6,)))


def test_abelianize_examples():
    assert abelianize_bgl(1) == LambdaBarElem.term(GM)
    got2 = abelianize_bgl(2)
    assert got2 == LambdaBarElem.term(GM2, Fraction(1, 2)) + LambdaBarElem.term(GM, E2)
    got3 = abelianize_bgl(3)
    expected3 = (
        LambdaBarElem.term(GM3, Fraction(1, 6))
        + LambdaBarElem.term(GM2, E2)
        + LambdaBarElem.term(GM, E3)
    )
    assert got3 == expected3
    with pytest.raises(TooLarge):
        abelianize_bgl(8)


def test_gen_euler_examples():
    got = gen_euler(abelianize_bgl(2))
    assert got == OmegaBarElem.term(GM2, Fraction(1, 2)) + OmegaBarElem.term(
        GM, Fraction(-3, 4)
    )
    assert gen_euler(LambdaBarElem.zero()) == OmegaBarElem.zero()
    assert gen_euler(LambdaBarElem.term(UNIT, L)) == OmegaBarElem.term(UNIT, 1)
    with pytest.raises(PoleAtOne) as err:
        gen_euler(LambdaBarElem.term(GM, ONE / (L - 1)))
    assert err.value.offending_class == GM


def test_pi_mu_examples():
    x = LambdaBarElem.term(GM2, Fraction(1, 2)) + LambdaBarElem.term(GM, E2)
    assert pi_mu_lbar(WeightFn.const_one(), x) == x
    assert pi_mu_lbar(WeightFn.virtual_rank(2), x) == LambdaBarElem.term(GM2, Fraction(1, 2))
    assert pi_mu_lbar(WeightFn.iso_indicator(GM), LambdaBarElem.term(GM2)) == LambdaBarElem.zero()


def test_weight_mul_examples():
    x = LambdaBarElem.term(GM2, 5) + LambdaBarElem.term(AbelianGroupClass(1, (2,)), L)
    w = WeightFn.table({GM2: Fraction(3)}, default=Fraction(1, 7))
    assert weight_mul(WeightFn.const_one(), w) == w
    z = weight_mul(WeightFn.virtual_rank(1), WeightFn.virtual_rank(2))
    assert pi_mu_lbar(z, x) == LambdaBarElem.zero()
    same = weight_mul(WeightFn.virtual_rank(2), WeightFn.virtual_rank(2))
    assert pi_mu_lbar(same, x) == pi_mu_lbar(WeightFn.virtual_rank(2), x)


def test_weight_refuses_a_class_or_rank_given_twice():
    # Z/2 x Z/3 and Z/6 are one class; a duplicate once kept the smaller
    # value after sorting, in either order
    z6, z2z3 = AbelianGroupClass(0, (6,)), AbelianGroupClass(0, (2, 3))
    for pairs in (((z2z3, 5), (z6, 1)), ((z6, 1), (z2z3, 5)), ((GM, 1), (GM, 1))):
        with pytest.raises(ValueError, match="given twice"):
            WeightFn(class_overrides=pairs)
    for pairs in (((1, 3), (1, 2)), ((1, 2), (True, 2))):
        with pytest.raises(ValueError, match="rank 1 given twice"):
            WeightFn(rank_weights=pairs)
    with pytest.raises(ValueError, match="class Z/6 given twice"):
        WeightFn.table(((z6, 1), (z2z3, 5)))
    w = WeightFn(class_overrides=((z2z3, 5), (GM, 1)), rank_weights=((1, 3), (0, 2)))
    assert (w.evaluate(z6), w.evaluate(GM), w.evaluate(GM2)) == (5, 1, 0)
    assert w.evaluate(AbelianGroupClass(0)) == 2


def classes():
    return st.builds(
        AbelianGroupClass,
        st.integers(min_value=0, max_value=3),
        st.lists(st.sampled_from([2, 3, 4]), max_size=2).map(tuple),
    )


def lbar_elems():
    coeff = st.integers(min_value=-4, max_value=4).map(Fraction)
    return st.lists(st.tuples(classes(), coeff), max_size=4).map(LambdaBarElem)


def weights():
    q = st.integers(min_value=-3, max_value=3).map(Fraction)
    consts = st.just(WeightFn.const_one())
    vranks = st.integers(min_value=0, max_value=3).map(WeightFn.virtual_rank)
    isos = classes().map(WeightFn.iso_indicator)
    tables = st.builds(
        WeightFn.table,
        st.dictionaries(classes(), q, max_size=3),
        q,
    )
    return st.one_of(consts, vranks, isos, tables)


@settings(max_examples=200, deadline=None)
@given(weights(), weights(), lbar_elems())
def test_operator_composition_property(m1, m2, x):
    assert pi_mu_lbar(m1, pi_mu_lbar(m2, x)) == pi_mu_lbar(weight_mul(m1, m2), x)
    assert pi_mu_lbar(WeightFn.const_one(), x) == x


@settings(max_examples=100, deadline=None)
@given(lbar_elems())
def test_virtual_rank_family(x):
    # idempotent, orthogonal, and summing to the identity in bounded rank
    for n in range(4):
        pn = pi_mu_lbar(WeightFn.virtual_rank(n), x)
        assert pi_mu_lbar(WeightFn.virtual_rank(n), pn) == pn
        for k in range(4):
            if k != n:
                assert pi_mu_lbar(WeightFn.virtual_rank(k), pn) == LambdaBarElem.zero()
    acc = LambdaBarElem.zero()
    for n in range(4):
        acc = acc + pi_mu_lbar(WeightFn.virtual_rank(n), x)
    assert acc == x


@settings(max_examples=80, deadline=None)
@given(lbar_elems(), lbar_elems(), st.integers(min_value=0, max_value=4))
def test_virtual_rank_tensor_convolution(a, b, n):
    lhs = pi_mu_lbar(WeightFn.virtual_rank(n), lbar_mul(a, b))
    rhs = LambdaBarElem.zero()
    for j in range(n + 1):
        rhs = rhs + lbar_mul(
            pi_mu_lbar(WeightFn.virtual_rank(j), a),
            pi_mu_lbar(WeightFn.virtual_rank(n - j), b),
        )
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(lbar_elems(), lbar_elems())
def test_gen_euler_ring_morphism(a, b):
    assert gen_euler(a + b) == gen_euler(a) + gen_euler(b)
    assert gen_euler(lbar_mul(a, b)) == lbar_mul(gen_euler(a), gen_euler(b))


@settings(max_examples=80, deadline=None)
@given(weights(), lbar_elems())
def test_gen_euler_commutes_with_weights(mu, x):
    # the projections are linear over both coefficient rings
    assert pi_mu_lbar(mu, gen_euler(x)) == gen_euler(pi_mu_lbar(mu, x))


# ---------------------------------------------------------------------------
# stratified models


def test_model_total_upsilon():
    empty = StratifiedModel(GeneralLinear(2), ())
    assert model_total_upsilon(empty) == ZERO
    m = gl2_flag_model()
    assert model_total_upsilon(m) == L * L + L
    assert model_total_upsilon(m) == upsilon_group(GeneralLinear(2)) / (L - 1) ** 2


def test_p_lattice_examples():
    # the intersection closure of a model's stabilizers, topped by the full torus
    def p_lattice(x):
        return poset_close([s for s, _ in x.strata], TorusSubgroup.full_torus(x.ambient_rank))

    single = StratifiedModel(GeneralLinear(2), ((TorusSubgroup.full_torus(2), ONE),))
    assert len(p_lattice(single)) == 1
    assert len(p_lattice(gl2_flag_model())) == 2
    assert len(p_lattice(torus_plane_model())) == 4


def test_gl2_model_projections():
    m = gl2_flag_model()
    expected = ONE / (L - 1) ** 2
    assert upsilon_pi_mu(m, WeightFn.const_one()) == expected
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(2)) == expected
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(1)) == ZERO


def test_gl3_flag_model_projections():
    m = gl3_flag_model()
    expected = ONE / (L - 1) ** 3
    assert model_total_upsilon(m) == L**3 * (L + 1) * (L * L + L + 1)
    assert upsilon_pi_mu(m, WeightFn.const_one()) == expected
    assert upsilon_pi_mu(m, WeightFn.const_one()) == model_total_upsilon(m) / upsilon_group(
        GeneralLinear(3)
    )
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(3)) == expected
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(2)) == ZERO
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(1)) == ZERO


def test_gl3_free_model_projections():
    m = gl3_free_model()
    assert upsilon_pi_mu(m, WeightFn.const_one()) == ONE
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(0)) == ONE
    for n in (1, 2, 3):
        assert upsilon_pi_mu(m, WeightFn.virtual_rank(n)) == ZERO


def test_random_gl_models_const_one_is_class_ratio():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(1, 4)
        n_strata = rng.randint(0, 3)
        stabs = set()
        strata = []
        for _ in range(40):
            if len(strata) >= n_strata:
                break
            rows = tuple(
                tuple(rng.randint(-1, 1) for _ in range(m)) for _ in range(rng.randint(0, m))
            )
            s = TorusSubgroup(m, rows)
            if s in stabs:
                continue
            stabs.add(s)
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            strata.append((s, RatFunc(tuple(coeffs))))
        model = StratifiedModel(GeneralLinear(m), tuple(strata))
        got = upsilon_pi_mu(model, WeightFn.const_one())
        assert got == model_total_upsilon(model) / upsilon_group(GeneralLinear(m))


def test_point_stack_model_matches_abelianization():
    # the single-point model with full-torus stabilizer realizes the point
    # stack; rank projections must agree with the torus-basis expansion
    # evaluated classwise through [pt over a rank-k torus] = 1/(l-1)^k; this
    # ties the projection's set-partition sum to the block-size-type terms
    for m in range(1, MODEL_GL_GUARD + 1):
        model = StratifiedModel(
            GeneralLinear(m), ((TorusSubgroup.full_torus(m), ONE),)
        )
        expansion = abelianize_bgl(m)
        # class by class, [Gm^n] carries the type-grouped coefficient over
        # the (l - 1)^n of the rank-n block torus
        assert abelianize_model(model) == LambdaBarElem(
            (cls, v / (L - 1) ** cls.torus_rank) for cls, v in expansion.terms.items()
        )
        for n in range(m + 2):
            got = upsilon_pi_mu(model, WeightFn.virtual_rank(n))
            coeff = expansion.coeff(AbelianGroupClass(n))
            assert got == coeff / (L - 1) ** n
        total = upsilon_pi_mu(model, WeightFn.const_one())
        assert total == ONE / upsilon_group(GeneralLinear(m))


def fused_upsilon_pi_mu(x, mu):
    """Oracle: the weighted projection as one double sum over block tori Q'
    and strata (P', c) of c * mu(P' meet Q') * E(GL(m), Q') / Upsilon(Q'),
    the weight evaluated on every pair and no class collected."""
    m = x.ambient_rank
    if isinstance(x.group, GeneralLinear):
        blocks = [
            (partition_to_subgroup(q), e_coeff_gl(q), q.n_blocks)
            for q in enumerate_partitions(m)
        ]
    else:
        blocks = [(TorusSubgroup.full_torus(m), ONE, m)]
    total = ZERO
    for sub_q, e_q, rank in blocks:
        e_over_ups = e_q / upsilon_group(torus(rank))
        for stab, cls in x.strata:
            w = mu.evaluate(stab.intersect(sub_q).iso_class())
            if w:
                total = total + cls * RatFunc(w) * e_over_ups
    return total


def seeded_weights(seed, count):
    """Weights with class overrides (torsion classes such as Z/2 among
    them), rank weights and a default, plus the rank and constant ones."""
    rng = random.Random(seed)

    def small():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def cls():
        return AbelianGroupClass(rng.randint(0, 3), rng.sample([2, 2, 3, 4], rng.randint(0, 2)))

    out = [WeightFn.const_one()] + [WeightFn.virtual_rank(n) for n in range(6)]
    for _ in range(count):
        overrides = {cls(): small() for _ in range(rng.randint(0, 3))}
        ranks = tuple((r, small()) for r in rng.sample(range(5), rng.randint(0, 3)))
        out.append(WeightFn(tuple(overrides.items()), ranks, small()))
    return out


def test_projection_matches_fused_double_sum():
    models = [make() for make in (gl2_flag_model, gl3_flag_model, gl3_free_model)]
    models += [torus_weighted_line_model(), torus_plane_model()]
    models += [
        StratifiedModel(GeneralLinear(m), ((TorusSubgroup.full_torus(m), ONE),))
        for m in range(1, MODEL_GL_GUARD + 1)
    ]
    weights = seeded_weights(29, 40)
    assert any(c.torsion for w in weights for c, _ in w.class_overrides)
    for model in models:
        for mu in weights:
            assert upsilon_pi_mu(model, mu) == fused_upsilon_pi_mu(model, mu)


def random_torus_model(rng, m):
    """A torus model of rank m with distinct random stabilizers, torsion
    among them, and small polynomial stratum classes."""
    stabs = {
        TorusSubgroup(m, tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(k)))
        for k in [rng.randint(0, m) for _ in range(rng.randint(1, 3))]
    }
    return StratifiedModel(
        torus(m),
        tuple((s, RatFunc(tuple(Fraction(rng.randint(-2, 2)) for _ in range(2)))) for s in stabs),
    )


def external_product(x, y):
    """X x Y under the product torus: block-diagonal stabilizers, stratum
    classes multiplied."""
    a, b = x.ambient_rank, y.ambient_rank

    def stab(p, q):
        rows = [r + (0,) * b for r in p.char_lattice] + [(0,) * a + r for r in q.char_lattice]
        return TorusSubgroup(a + b, tuple(rows))

    return StratifiedModel(
        torus(a + b),
        tuple((stab(p, q), c * d) for p, c in x.strata for q, d in y.strata),
    )


def test_abelianize_model_is_multiplicative():
    # the paper's Upsilon(X x Y) = Upsilon(X) Upsilon(Y), in the ring
    rng = random.Random(31)
    builtin = [torus_weighted_line_model(), torus_plane_model()]
    pairs = [(x, y) for x in builtin for y in builtin]
    while len(pairs) < 30:
        a = rng.randint(1, MODEL_TORUS_GUARD - 1)
        b = rng.randint(1, MODEL_TORUS_GUARD - a)
        pairs.append((random_torus_model(rng, a), random_torus_model(rng, b)))
    torsion = 0
    for x, y in pairs:
        got = abelianize_model(external_product(x, y))
        assert got == lbar_mul(abelianize_model(x), abelianize_model(y))
        torsion += any(c.torsion for c in got.terms)
    assert torsion >= 5


def test_model_pi1_abelianizes_each_model_once(calls):
    # once per model in each of the suite's two loops: 5 + 3 at --max 3
    for module in (stackcalc, checks):
        calls.watch(module, "abelianize_model", "abelianize")
    assert checks.check_model_pi1(3).ok
    assert calls["abelianize"] == 8


def test_torus_weighted_line_model():
    m = torus_weighted_line_model()
    assert upsilon_pi_mu(m, WeightFn.const_one()) == L / (L - 1)
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(1)) == ONE / (L - 1)
    assert upsilon_pi_mu(m, WeightFn.virtual_rank(0)) == ONE
    mu2 = AbelianGroupClass(0, (2,))
    assert upsilon_pi_mu(m, WeightFn.iso_indicator(mu2)) == ONE


def test_pi_re_examples():
    m = torus_plane_model()
    assert pi_re_n(m, 5).strata == ()
    kept = pi_re_n(m, 2)
    assert len(kept.strata) == 1
    assert model_total_upsilon(kept) == ONE
    # the rank filters partition the strata exactly
    recovered = []
    total = ZERO
    for n in range(3):
        sub = pi_re_n(m, n)
        recovered.extend(sub.strata)
        total = total + model_total_upsilon(sub)
    assert sorted(map(repr, recovered)) == sorted(map(repr, m.strata))
    assert total == model_total_upsilon(m)
    with pytest.raises(NotAbelian):
        pi_re_n(gl2_flag_model(), 1)


# ---------------------------------------------------------------------------
# the hand-made strata against point counts over F_q


def _support(v):
    return tuple(i for i, x in enumerate(v) if x)


def _normalized(v, q):
    """The vector on the line of v with first nonzero entry 1."""
    inv = pow(next(x for x in v if x), -1, q)
    return tuple(x * inv % q for x in v)


def _det_mod(rows, q):
    """Determinant mod q, by expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0] % q
    total = 0
    for j, a in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * a * _det_mod(minor, q)
    return total % q


def flag_points(n, q):
    """(points, action, support, stabilizer) for GL(n)/T: its F_q-points
    are the ordered n-tuples of independent lines, the diagonal torus moves
    each line, and t fixes the line of v iff t_i = t_j for all i, j in the
    support of v."""
    lines = sorted({_normalized(v, q) for v in product(range(q), repeat=n) if any(v)})
    points = [p for p in permutations(lines, n) if _det_mod(p, q)]

    def act(t, p):
        return tuple(_normalized([a * x for a, x in zip(t, v)], q) for v in p)

    def stabilizer(supports):
        rows = [tuple((i == s[0]) - (i == j) for i in range(n)) for s in supports for j in s[1:]]
        return TorusSubgroup(n, tuple(rows))

    return points, act, lambda p: tuple(map(_support, p)), stabilizer


def affine_points(weights, q):
    """(points, action, support, stabilizer) for the affine space on which
    the torus acts through the characters weights, one per coordinate: t
    fixes x iff every weight on the support of x is 1 at t."""

    def act(t, x):
        chars = [prod(pow(a, k, q) for a, k in zip(t, w)) for w in weights]
        return tuple(c * x_i % q for c, x_i in zip(chars, x))

    def stabilizer(support):
        return TorusSubgroup(len(weights[0]), tuple(weights[i] for i in support))

    return list(product(range(q), repeat=len(weights))), act, _support, stabilizer


def assert_strata_count_points(model, q, points, act, support, stabilizer):
    """Group the points by the exact stabilizer their support gives: each
    group has the size of its stratum class at l = q.  For one point of
    each support, the torus elements fixing it are as many as the F_q-points
    of that stabilizer, (q - 1)^rank * prod gcd(d, q - 1)."""
    by_support, example = Counter(), {}
    for p in points:
        by_support[support(p)] += 1
        example.setdefault(support(p), p)
    torus = list(product(range(1, q), repeat=model.ambient_rank))
    counts = Counter()
    for key, count in by_support.items():
        stab = stabilizer(key)
        counts[stab] += count
        iso = stab.iso_class()
        p = example[key]
        fixing = sum(act(t, p) == p for t in torus)
        assert fixing == (q - 1) ** iso.torus_rank * prod(gcd(d, q - 1) for d in iso.torsion)
    assert counts == {s: cls.num.eval_at(q) / cls.den.eval_at(q) for s, cls in model.strata}


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n, make", [(2, gl2_flag_model), (3, gl3_flag_model)])
def test_flag_model_strata_count_points(n, make, q):
    assert_strata_count_points(make(), q, *flag_points(n, q))


# odd q only: over F_2 the group mu_2 has one point, like the trivial group
@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize(
    "weights, make",
    [(((2,),), torus_weighted_line_model), (((1, 0), (0, 1)), torus_plane_model)],
)
def test_torus_model_strata_count_points(weights, make, q):
    assert_strata_count_points(make(), q, *affine_points(weights, q))


def point_count(cls, q):
    """A class in Q(l) at l = q."""
    return cls.num.eval_at(q) / cls.den.eval_at(q)


def class_points(q):
    """F_q-point counts of the grammar atoms and groups, by enumeration:
    invertible matrices for GL(m), lines of F_q^(n+1) for P^n."""
    vectors = {n: list(product(range(q), repeat=n)) for n in range(5)}
    counts = {"pt": 1, "Gm": q - 1}
    for n in range(4):
        counts["A^%d" % n] = len(vectors[n])
        counts["P^%d" % n] = len({_normalized(v, q) for v in vectors[n + 1] if any(v)})
        counts["Gm^%d" % n] = len(list(product(range(1, q), repeat=n)))
    for m in (1, 2, 3):
        counts["GL(%d)" % m] = sum(1 for rows in product(vectors[m], repeat=m) if _det_mod(rows, q))
    return counts


@pytest.mark.parametrize("q", [2, 3])
def test_classes_count_points(q):
    # a special group G has #[X/G](F_q) = #X(F_q) / #G(F_q); GL(m) and the
    # split tori are special
    counts = class_points(q)
    assert counts["GL(3)"] == (q**3 - 1) * (q**3 - q) * (q**3 - q**2)
    for text, count in counts.items():
        assert point_count(eval_class(parse(text)), q) == count, text
    spaces = [t for t in counts if t[0] in "AP"]
    groups = [t for t in counts if t.startswith("GL") or t.startswith("Gm^")]
    for x in spaces:
        for g in groups:
            text = "[%s / %s]" % (x, g)
            assert point_count(eval_class(parse(text)), q) == Fraction(counts[x], counts[g]), text
    for m in (1, 2, 3):
        assert point_count(eval_class(parse("BGL(%d)" % m)), q) == Fraction(1, counts["GL(%d)" % m])


def test_model_validation():
    dup = TorusSubgroup.full_torus(2)
    with pytest.raises(ValueError):
        StratifiedModel(GeneralLinear(2), ((dup, ONE), (dup, ONE)))
    with pytest.raises(ValueError):
        StratifiedModel(torus(2, (2,)), ())


def test_rank_zero_is_refused_at_construction():
    # GL(0) does not exist, and a model on the rank-0 torus has no
    # stabilizer subgroup (TorusSubgroup needs a positive ambient rank)
    for build in (
        lambda: SetPartition(0, ()),
        lambda: SetPartition.from_json([]),
        lambda: StratifiedModel(torus(0), ()),
    ):
        with pytest.raises(ValueError):
            build()


def test_rendering():
    x = LambdaBarElem.term(GM2, Fraction(1, 2)) + LambdaBarElem.term(GM, Fraction(-3, 4))
    assert str(x) == "1/2*[Gm^2] - 3/4*[Gm]"
    assert str(LambdaBarElem.zero()) == "0"
    y = OmegaBarElem.term(AbelianGroupClass(1, (2,)), 1)
    assert str(y) == "[Gm x Z/2]"
    z = LambdaBarElem.term(GM, E2)
    assert str(z) == "(-l - 2)/(2*l^2 + 2*l)*[Gm]"


def test_bar_elem_json():
    x = LambdaBarElem.term(GM2, Fraction(1, 2)) + LambdaBarElem.term(GM, E2)
    data = x.to_json()
    assert data[0]["class"] == {"rank": 2, "torsion": []}
    assert data[0]["coeff"] == "1/2"
    assert data[1]["coeff"] == "(-l - 2)/(2*l^2 + 2*l)"


def test_omega_coefficients_are_numbers():
    # a constant RatFunc coerces to its number; l has none
    half = OmegaBarElem.term(GM, Fraction(1, 2))
    assert OmegaBarElem.term(GM, RatFunc(Fraction(1, 2))) == half
    assert OmegaBarElem.term(GM, ONE / 2).coeff(GM) == Fraction(1, 2)
    with pytest.raises(ValueError, match="not a constant"):
        OmegaBarElem.term(GM, ELL)


def test_bar_elements_are_values():
    for make, c in ((LambdaBarElem, E2), (OmegaBarElem, Fraction(2, 3))):
        # the same element in another term order, with a cancelled term
        x = make.term(GM2, c) + make.term(GM, 1)
        y = make([(GM, Fraction(1, 2)), (GM3, 5), (GM2, c), (GM, Fraction(1, 2)), (GM3, -5)])
        assert x == y and hash(x) == hash(y)
        assert len({x: 1, y: 2}) == 1
        z = make.term(GM3, c) - make.term(GM, 3)
        for a, b in ((x, z), (z, x), (x, y), (z, make.zero())):
            assert a - b == a + (-b)
        assert (x - y).is_zero() and (-make.zero()).is_zero()
        assert not x.is_zero() and not (-z).is_zero() and -(-z) == z
        assert (z - x).coeff(GM) == -4 and (z - x).coeff(GM2) == -c


def test_values_are_exact_and_constants_hash_like_numbers():
    # floats and strings are refused wherever a Q(l) value is built
    refused = [
        lambda: RatFunc(0.1),
        lambda: RatFunc("1/3"),
        lambda: Polynomial((1, 0.5)),
        lambda: LambdaBarElem.term(GM, 0.1),
        lambda: OmegaBarElem.term(GM, 0.1),
        lambda: WeightFn.table({GM: 0.1}),
        lambda: WeightFn(default="1/2"),
        lambda: WeightFn(rank_weights=((1, 0.5),)),
        lambda: StratifiedModel(GeneralLinear(1), ((TorusSubgroup.full_torus(1), 0.5),)),
        lambda: in_lambda_circ(0.1),
        lambda: pi_eval("1/3"),
        lambda: canonical_str(None),
        lambda: specialize(0.5, "poincare_z"),
        lambda: 0.1 - ONE,
        lambda: 0.1 / ONE,
    ]
    for build in refused:
        with pytest.raises(TypeError):
            build()
    # the JSON form still parses its coefficient strings
    assert RatFunc.from_json({"num": ["1/3"], "den": ["1"]}) == Fraction(1, 3)
    # a constant equals its number and hashes like it
    for q in (0, 3, -2, Fraction(1, 2)):
        for v in (RatFunc(q), Polynomial((q,))):
            assert v == q and hash(v) == hash(q)
            assert len({q, v}) == 1
    assert len({Polynomial((0, 1)), RatFunc(Polynomial((0, 1)))}) == 1
