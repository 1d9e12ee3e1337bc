import json
import random
import time
from fractions import Fraction
from itertools import product
from math import factorial, gcd, prod
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import groups, subgroups
from motivic.errors import AmbientMismatch, NotComparable, NotInPoset, TooLarge
from motivic.groups import GeneralLinear, PartitionLattice, SetPartition
from motivic.stackcalc import WeightFn
from motivic.subgroups import (
    AbelianGroupClass,
    SubgroupPoset,
    TorusSubgroup,
    hnf,
    _down_key,
    _iso_class_cached,
    poset_close,
    snf_divisors,
)


def block_torus(m, *blocks):
    """Subgroup of G_m^m with coordinates equal within each given block."""
    rows = []
    for b in blocks:
        b = sorted(b)
        for i in b[1:]:
            row = [0] * m
            row[b[0] - 1] = 1
            row[i - 1] = -1
            rows.append(row)
    return TorusSubgroup(m, tuple(tuple(r) for r in rows))


def test_hnf_examples():
    assert hnf([[0, 1], [1, 0]]) == ((1, 0), (0, 1))
    assert hnf([[2, 4]]) == ((2, 4),)
    assert hnf([[2, 0], [3, 0]]) == ((1, 0),)


def test_hnf_span_preserved():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 4)
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(rng.randint(0, 4))
        ]
        h = hnf(rows)
        a = TorusSubgroup(m, tuple(rows))
        b = TorusSubgroup(m, h)
        assert a == b
        assert hnf(h) == h  # canonical form is a fixed point


def test_snf_examples():
    assert snf_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert snf_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert snf_divisors([[2, 0], [0, 2]]) == [2, 2]
    assert snf_divisors([[0, 0], [0, 0]]) == []
    divs = snf_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for x, y in zip(divs, divs[1:]):
        assert y % x == 0


def _minor_gcd(mat, k):
    """gcd of all k x k minors; the classic determinantal divisor."""
    import itertools
    from math import gcd

    n, m = len(mat), len(mat[0])
    g = 0
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(m), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, _det(sub))
    return abs(g)


def _det(a):
    a = [row[:] for row in a]
    n = len(a)
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            while a[i][c]:
                q = a[c][c] // a[i][c] if a[i][c] else 0
                a[c] = [x - q * y for x, y in zip(a[c], a[i])]
                a[c], a[i] = a[i], a[c]
                sign = -sign
    det = sign
    for i in range(n):
        det *= a[i][i]
    return det


def _check_determinantal(mat, divs):
    # d_1 ... d_k equals the gcd of all k x k minors
    prod = 1
    for k, d in enumerate(divs, start=1):
        prod *= d
        assert prod == _minor_gcd(mat, k), (mat, divs)
    if len(divs) < min(len(mat), len(mat[0])):
        assert _minor_gcd(mat, len(divs) + 1) == 0


def test_snf_against_determinantal_divisors():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        _check_determinantal(mat, snf_divisors(mat))


def test_snf_of_raw_matrices_is_fast():
    # raw (non-HNF) 3 x 6 matrices with large entries, inside a time budget
    rng = random.Random(23)
    mats = [
        [[rng.randint(-10**4, 10**4) for _ in range(6)] for _ in range(3)]
        for _ in range(40)
    ]
    start = time.perf_counter()
    all_divs = [snf_divisors(mat) for mat in mats]
    assert time.perf_counter() - start < 2.0
    for mat, divs in zip(mats, all_divs):
        _check_determinantal(mat, divs)


def test_non_integral_entries_are_refused():
    with pytest.raises(TypeError):
        TorusSubgroup(2, ((1.5, 0),))
    with pytest.raises(TypeError):
        TorusSubgroup(2, ((Fraction(1, 2), 1),))
    with pytest.raises(TypeError):
        AbelianGroupClass(1, (2.9,))
    with pytest.raises(TypeError):
        snf_divisors([[0.5, 3]])
    # ints, bools and numpy integers still convert
    assert TorusSubgroup(2, ((np.int64(2), True),)) == TorusSubgroup(2, ((2, 1),))
    assert AbelianGroupClass(1, (np.int32(4),)) == AbelianGroupClass(1, (4,))


def test_non_integral_ranks_are_refused():
    with pytest.raises(TypeError):
        AbelianGroupClass(1.5)
    with pytest.raises(TypeError):
        TorusSubgroup(2.5, ())
    with pytest.raises(TypeError):
        WeightFn(rank_weights=((1.5, 1),))
    with pytest.raises(TypeError):
        SetPartition(2, ((1.0,), (2.7,)))
    with pytest.raises(TypeError):
        GeneralLinear(2.5)
    for bad in (Fraction(2), "2"):
        with pytest.raises(TypeError):
            AbelianGroupClass(bad)
    # bools and numpy integers become plain ints
    rank = AbelianGroupClass(np.int64(2)).torus_rank
    assert type(rank) is int and rank == 2
    assert type(GeneralLinear(np.int32(3)).m) is int
    assert TorusSubgroup(True, ()) == TorusSubgroup(1, ())
    assert WeightFn(rank_weights=((np.int64(1), 1),)) == WeightFn.virtual_rank(1)
    assert SetPartition(2, ((np.int64(2), True),)) == SetPartition.one_block(2)


def test_non_subgroups_are_refused():
    # a TypeError, as from the constructors, not an AttributeError
    top = TorusSubgroup.full_torus(2)
    for bad in (None, 2, ((1, 0),)):
        with pytest.raises(TypeError):
            top.intersect(bad)
        with pytest.raises(TypeError):
            top.contains(bad)
        with pytest.raises(TypeError):
            poset_close([bad], top)
        with pytest.raises(TypeError):
            poset_close([], bad)
        with pytest.raises(TypeError):
            SubgroupPoset([bad], top)
        with pytest.raises(TypeError):
            SubgroupPoset([top], bad)


def test_hnf_invariant_under_unimodular_row_ops():
    rng = random.Random(29)
    for _ in range(80):
        m = rng.randint(1, 4)
        rows = [
            [rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(1, 4))
        ]
        base = hnf(rows)
        scrambled = [row[:] for row in rows]
        for _ in range(6):
            i = rng.randrange(len(scrambled))
            j = rng.randrange(len(scrambled))
            op = rng.randrange(3)
            if op == 0 and i != j:
                k = rng.randint(-3, 3)
                scrambled[i] = [
                    a + k * b for a, b in zip(scrambled[i], scrambled[j])
                ]
            elif op == 1:
                scrambled[i], scrambled[j] = scrambled[j], scrambled[i]
            else:
                scrambled[i] = [-a for a in scrambled[i]]
        assert hnf(scrambled) == base


def test_intersect_examples():
    full = TorusSubgroup.full_torus(3)
    a = block_torus(3, [1, 2])
    b = block_torus(3, [2, 3])
    assert full.intersect(a) == a
    assert a.intersect(b) == block_torus(3, [1, 2, 3])
    assert a.intersect(a) == a
    with pytest.raises(AmbientMismatch):
        a.intersect(TorusSubgroup.full_torus(2))


def test_contains_examples():
    full = TorusSubgroup.full_torus(2)
    diag = block_torus(2, [1, 2])
    assert full.contains(diag)
    assert diag.contains(block_torus(2, [1, 2]))
    assert not diag.contains(full)
    scalars3 = block_torus(3, [1, 2, 3])
    assert block_torus(3, [1, 2]).contains(scalars3)
    # the full torus holds every subgroup of its own ambient rank only
    assert full.contains(TorusSubgroup.trivial(2))
    with pytest.raises(AmbientMismatch):
        full.contains(TorusSubgroup.full_torus(3))


def test_row_length_checked_before_zero_rows_drop():
    # a zero row of the wrong length must not pass as the full torus
    with pytest.raises(ValueError):
        TorusSubgroup(3, ((0, 0),))
    with pytest.raises(ValueError):
        TorusSubgroup(2, ((1, 0), (0, 0, 0)))
    assert TorusSubgroup(3, ((0, 0, 0),)) == TorusSubgroup.full_torus(3)


def test_iso_class_examples():
    assert TorusSubgroup.full_torus(4).iso_class() == AbelianGroupClass(4)
    s = TorusSubgroup(2, ((2, 0), (0, 1)))
    assert s.iso_class() == AbelianGroupClass(0, (2,))
    assert block_torus(5, [1, 2], [3, 4, 5]).iso_class() == AbelianGroupClass(2)
    mu2 = TorusSubgroup(1, ((2,),))
    assert mu2.iso_class() == AbelianGroupClass(0, (2,))


def test_iso_class_rank_monotone_under_intersection():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(1, 4)
        a = random_subgroup(rng, m)
        b = random_subgroup(rng, m)
        c = a.intersect(b)
        assert c.iso_class().torus_rank <= min(a.iso_class().torus_rank, b.iso_class().torus_rank)


def fq_points(m, rows, q):
    """Points over F_q of the subgroup of G_m^m cut out by the characters
    rows, as exponent vectors: t = g^e for a generator g of the cyclic
    group F_q^*, so e in (Z/(q-1))^m with r . e = 0 mod q - 1 for each r."""
    return {
        e
        for e in product(range(q - 1), repeat=m)
        if all(sum(map(mul, r, e)) % (q - 1) == 0 for r in rows)
    }


def test_point_counts_over_finite_fields():
    # an oracle sharing no code with hnf or the Smith form: G_m^k x K has
    # (q - 1)^k * prod gcd(d, q - 1) points over F_q, and the points of an
    # intersection are the common points of the rows as drawn
    for q in (7, 13):
        rng = random.Random(q)
        for _ in range(150):
            m = rng.randint(1, 3)
            rows_a, rows_b = (
                tuple(random_row(rng, m, 4) for _ in range(rng.randint(1, m))) for _ in range(2)
            )
            a, b = TorusSubgroup(m, rows_a), TorusSubgroup(m, rows_b)
            c = a.intersect(b)
            pa, pb, pc = (fq_points(m, rows, q) for rows in (rows_a, rows_b, c.char_lattice))
            assert pc == pa & pb
            for s, pts in ((a, pa), (b, pb), (c, pc)):
                iso = s.iso_class()
                assert len(pts) == (q - 1) ** iso.torus_rank * prod(gcd(d, q - 1) for d in iso.torsion)


def test_poset_close_examples():
    top = TorusSubgroup.full_torus(3)
    only_top = poset_close([], top)
    assert len(only_top) == 1
    a = block_torus(3, [1, 2])
    b = block_torus(3, [2, 3])
    p = poset_close([a, b], top)
    assert len(p) == 4
    assert block_torus(3, [1, 2, 3]) in p
    again = poset_close(list(p.elements), top)
    assert set(again.elements) == set(p.elements)


def random_row(rng, m, bound=2):
    return tuple(rng.randint(-bound, bound) for _ in range(m))


def _pairwise_close(seed, top):
    """Oracle for poset_close: intersect every unordered pair of members of
    a list that grows as new intersections are appended, then sort by the
    module's one order."""
    family = {top}
    items = [top]
    for s in seed:
        if s not in family:
            family.add(s)
            items.append(s)
    for i, a in enumerate(items):
        for b in items[:i]:
            c = a.intersect(b)
            if c not in family:
                family.add(c)
                items.append(c)
    return sorted(items, key=lambda e: (_down_key(e.char_lattice), e.char_lattice))


def test_poset_close_matches_pairwise_oracle():
    rng = random.Random(29)
    for _ in range(40):
        m = rng.randint(2, 6)
        seeds = [
            TorusSubgroup(m, tuple(random_row(rng, m) for _ in range(rng.randint(1, 2))))
            for _ in range(rng.randint(1, 7))
        ]
        top = TorusSubgroup.full_torus(m)
        assert list(poset_close(seeds, top).elements) == _pairwise_close(seeds, top)


def test_poset_close_intersections_per_seed(calls):
    # seven generic one-row seeds in rank 6: every subset has its own meet
    rng = random.Random(31)
    seeds = [TorusSubgroup(6, (random_row(rng, 6),)) for _ in range(7)]
    calls.watch(TorusSubgroup, "intersect", "intersect")
    p = poset_close(seeds, TorusSubgroup.full_torus(6))
    assert len(p) == 128
    # one pass per distinct seed, one intersection per member: 127 here,
    # against C(128, 2) = 8128 for the all-pairs walk
    assert calls["intersect"] <= len(set(seeds)) * len(p)


def test_iterable_arguments_are_read_once():
    # a generator of rows is one subgroup, not the full torus
    assert TorusSubgroup(2, (r for r in [(1, 0)])) == TorusSubgroup(2, ((1, 0),))
    seeds = [TorusSubgroup(2, ((1, 0),)), TorusSubgroup(2, ((0, 1),))]
    assert len(poset_close(iter(seeds), TorusSubgroup.full_torus(2))) == 4


def test_top_must_contain_every_element():
    x, y = TorusSubgroup(2, ((1, 0),)), TorusSubgroup(2, ((0, 1),))
    trivial = x.intersect(y)
    with pytest.raises(ValueError, match="top does not contain every element"):
        SubgroupPoset([x, y, trivial], x)
    # a top below the full torus is fine when it holds everything
    p = SubgroupPoset([trivial, x], x)
    assert p.leq(trivial, x) and not p.leq(x, trivial)


def test_poset_validation():
    top = TorusSubgroup.full_torus(2)
    with pytest.raises(AmbientMismatch):
        poset_close([TorusSubgroup.full_torus(3)], top)
    p = poset_close([block_torus(2, [1, 2])], top)
    with pytest.raises(NotInPoset):
        p.mobius(block_torus(2, [1, 2]), TorusSubgroup.trivial(2))


def test_mobius_examples():
    lat = partition_poset(3)
    bottom = block_torus(3, [1, 2, 3])
    top = TorusSubgroup.full_torus(3)
    assert lat.mobius(bottom, bottom) == 1
    assert lat.mobius(bottom, top) == 2
    assert lat.mobius(block_torus(3, [1, 2]), top) == -1
    with pytest.raises(NotComparable):
        lat.mobius(block_torus(3, [1, 2]), block_torus(3, [1, 3]))


def test_crosscut_examples():
    lat = partition_poset(3)
    bottom = block_torus(3, [1, 2, 3])
    top = TorusSubgroup.full_torus(3)
    assert lat.crosscut_coeff(top, top) == 1
    assert lat.crosscut_coeff(bottom, top) == 2
    assert lat.crosscut_coeff(block_torus(3, [1, 2]), top) == -1


def partition_poset(m):
    """All block tori of G_m^m, intersection closed."""
    subs = [block_torus(m, *blocks) for blocks in set_partitions(m)]
    return poset_close(subs, TorusSubgroup.full_torus(m))


def set_partitions(m):
    if m == 0:
        yield []
        return
    for rest in set_partitions(m - 1):
        yield rest + [[m]]
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [m]] + rest[i + 1 :]


def random_subgroup(rng, m):
    return TorusSubgroup(m, tuple(random_row(rng, m) for _ in range(rng.randint(0, m))))


def test_partition_lattice_corner_values():
    # mu(scalars, full torus) over the block-torus lattice is the classic
    # alternating factorial; checked through the recursion itself
    for m in range(2, 6):
        lat = partition_poset(m)
        got = lat.mobius(block_torus(m, list(range(1, m + 1))), TorusSubgroup.full_torus(m))
        assert got == (-1) ** (m - 1) * factorial(m - 1)


def test_crosscut_equals_mobius_partition_lattices():
    for m in range(2, 5):
        lat = partition_poset(m)
        for a in lat.elements:
            for b in lat.elements:
                if lat.leq(a, b):
                    assert lat.crosscut_coeff(a, b) == lat.mobius(a, b)


def test_crosscut_equals_mobius_random_posets():
    rng = random.Random(11)
    done = 0
    while done < 40:
        m = rng.randint(2, 4)
        seeds = [random_subgroup(rng, m) for _ in range(rng.randint(1, 3))]
        p = poset_close(seeds, TorusSubgroup.full_torus(m))
        if len(p) > 12:
            continue
        for a in p.elements:
            for b in p.elements:
                if p.leq(a, b):
                    assert p.crosscut_coeff(a, b) == p.mobius(a, b)
        done += 1


def test_crosscut_names_the_missing_meet():
    # mobius reads containment off the rows and answers, but the subset sum
    # needs every meet; the first one missing is x1 meet x2
    x1, x2 = TorusSubgroup(3, ((1, 0, 0),)), TorusSubgroup(3, ((0, 1, 0),))
    mu2, mu3 = (TorusSubgroup(3, ((1, 0, 0), (0, 1, 0), (0, 0, d))) for d in (2, 3))
    top = TorusSubgroup.full_torus(3)
    p = SubgroupPoset([top, x1, x2, mu2, mu3], top)
    assert p.mobius(mu2, top) == 1
    with pytest.raises(NotInPoset) as caught:
        p.crosscut_coeff(mu2, top)
    message = str(caught.value)
    assert "not closed under intersection" in message
    assert str(x1) in message and str(x2) in message
    assert str(x1.intersect(x2)) not in message


def test_crosscut_guard():
    lat = partition_poset(5)  # 52 elements below the top
    with pytest.raises(TooLarge):
        lat.crosscut_coeff(block_torus(5, [1, 2, 3, 4, 5]), TorusSubgroup.full_torus(5))


def test_intersect_algebra_properties():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 4)
        a, b, c = (random_subgroup(rng, m) for _ in range(3))
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)
        assert a.intersect(a) == a
        # containment is a partial order
        assert a.contains(a)
        if a.contains(b) and b.contains(a):
            assert a == b
        if a.contains(b) and b.contains(c):
            assert a.contains(c)
        # intersection is the meet
        assert a.contains(a.intersect(b))
        assert b.contains(a.intersect(b))


def test_abelian_group_class_canonical():
    assert AbelianGroupClass(1, (2, 3)).torsion == (6,)
    assert AbelianGroupClass(0, (4, 2)).torsion == (2, 4)
    assert AbelianGroupClass(2).product(AbelianGroupClass(1, (2,))) == AbelianGroupClass(3, (2,))
    assert str(AbelianGroupClass(2, (2, 4))) == "Gm^2 x Z/2 x Z/4"
    assert str(AbelianGroupClass(0)) == "1"


def test_subgroup_json_round_trip():
    s = block_torus(3, [1, 3])
    assert TorusSubgroup.from_json(s.to_json()) == s
    c = AbelianGroupClass(2, (2, 6))
    assert AbelianGroupClass.from_json(c.to_json()) == c


def _json_round_trip(x):
    return type(x).from_json(json.loads(json.dumps(x.to_json())))


@st.composite
def raw_lattices(draw):
    """(m, rows): up to six integer rows of length m, not in HNF."""
    m = draw(st.integers(1, 5))
    return m, draw(st.lists(st.lists(st.integers(-60, 60), min_size=m, max_size=m), max_size=6))


@settings(max_examples=200, deadline=None)
@given(raw_lattices())
def test_subgroup_json_round_trip_from_raw_rows(m_rows):
    # raw rows, not in HNF: the subgroup stores their HNF, and its JSON
    # text reads back as the same subgroup
    m, rows = m_rows
    s = TorusSubgroup(m, tuple(map(tuple, rows)))
    assert s.char_lattice == hnf(rows)
    assert _json_round_trip(s) == s


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.lists(st.integers(2, 720), max_size=6))
def test_abelian_group_class_json_round_trip(rank, torsion):
    # any torsion list becomes a divisor chain of the same order, which
    # its JSON text keeps
    c = AbelianGroupClass(rank, tuple(torsion))
    assert prod(c.torsion) == prod(torsion)
    assert all(b % a == 0 for a, b in zip(c.torsion, c.torsion[1:]))
    assert _json_round_trip(c) == c
    assert AbelianGroupClass(rank, tuple(reversed(torsion))) == c


def assert_tables_match_definitions(p):
    """leq against contains(); mu(a, a) = 1 and mu(a, b) is minus the sum
    of mu(a, c) over a <= c < b, as a Python int."""
    n = len(p)
    for a in range(n):
        for b in range(n):
            assert p.leq_by_index(a, b) == p.elements[b].contains(p.elements[a])
    for a in range(n):
        for b in range(n):
            if not p.leq_by_index(a, b):
                continue
            mu = p.mobius_by_index(a, b)
            assert type(mu) is int
            below = [c for c in range(n) if c != b and p.leq_by_index(a, c) and p.leq_by_index(c, b)]
            assert mu == (1 if a == b else -sum(p.mobius_by_index(a, c) for c in below))


def test_incidence_and_mobius_match_definitions():
    lat = PartitionLattice(5)
    assert len(lat) == 52
    assert_tables_match_definitions(lat)
    rng = random.Random(23)
    for m in (3, 3, 4, 4, 4):
        # one-row seeds close to 25-32 elements here
        seeds = [TorusSubgroup(m, (tuple(rng.randint(-2, 2) for _ in range(m)),)) for _ in range(5)]
        assert_tables_match_definitions(poset_close(seeds, TorusSubgroup.full_torus(m)))
    # entries beyond the int64 range
    big = 2**62 + 3
    seeds = [
        TorusSubgroup(3, ((1, big, 0),)),
        TorusSubgroup(3, ((0, 1, -1),)),
        TorusSubgroup(3, ((2, 0, big),)),
    ]
    p = poset_close(seeds, TorusSubgroup.full_torus(3))
    assert max(abs(v) for e in p.elements for row in e.char_lattice for v in row) >= 2**62
    assert_tables_match_definitions(p)


def torsion_families(seed, count):
    """Seeded intersection-closed families in ranks 1-4 whose one- and
    two-row seeds have entries in [-4, 4], so most have torsion and strict
    containments at equal dimension; elements come in shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 4)
        seeds = [
            TorusSubgroup(m, tuple(random_row(rng, m, 4) for _ in range(rng.randint(1, 2))))
            for _ in range(rng.randint(1, 4))
        ]
        elements = list(poset_close(seeds, TorusSubgroup.full_torus(m)).elements)
        rng.shuffle(elements)
        yield elements


def test_incidence_and_mobius_match_definitions_on_torsion_families():
    with_torsion = 0
    for elements in torsion_families(41, 120):
        p = SubgroupPoset(elements, TorusSubgroup.full_torus(elements[0].ambient_rank))
        assert p.elements == tuple(elements)
        assert_tables_match_definitions(p)
        with_torsion += any(e.iso_class().torsion for e in elements)
    assert with_torsion >= 60


def test_tables_of_families_that_are_not_closed():
    # a direct poset reads containment off the lattices' rows, not meets;
    # mu2 and mu3 in the third coordinate meet in the trivial group, which
    # is missing here
    x1, x2 = TorusSubgroup(3, ((1, 0, 0),)), TorusSubgroup(3, ((0, 1, 0),))
    mu2, mu3 = (TorusSubgroup(3, ((1, 0, 0), (0, 1, 0), (0, 0, d))) for d in (2, 3))
    top = TorusSubgroup.full_torus(3)
    p = SubgroupPoset([top, x1, x2, mu2, mu3], top)
    assert not p.verify_intersection_closed()
    assert not p.leq(mu2, mu3) and not p.leq(mu3, mu2) and p.leq(mu2, x1)
    assert_tables_match_definitions(p)
    # seeded closures with each member but top dropped at random
    rng = random.Random(97)
    not_closed = 0
    for elements in torsion_families(97, 200):
        top = TorusSubgroup.full_torus(elements[0].ambient_rank)
        kept = [e for e in elements if e == top or rng.random() >= 0.4]
        p = SubgroupPoset(kept, top)
        assert_tables_match_definitions(p)
        not_closed += not p.verify_intersection_closed()
    assert not_closed >= 40


def _down_key_of(e):
    return _down_key(e.char_lattice)


def test_down_key_is_strict_on_containment():
    same_dim = 0
    for elements in torsion_families(43, 120):
        for a in elements:
            for b in elements:
                if a != b and b.contains(a):
                    assert _down_key_of(a) < _down_key_of(b)
                    same_dim += a.dim == b.dim
    assert same_dim >= 100
    # {x = 1} has index 2 in {x^2 = 1}, of the same dimension, so comes first
    assert _down_key_of(TorusSubgroup(2, ((1, 0),))) < _down_key_of(TorusSubgroup(2, ((2, 0),)))


def lattice_seeds(seed, count):
    """Seed lists like the benchmark's lattice closures: seven one-row
    subgroups of G_m^6 with entries in [-2, 2]."""
    rng = random.Random(seed)
    for _ in range(count):
        yield [TorusSubgroup(6, (random_row(rng, 6),)) for _ in range(7)]


def test_posets_need_no_smith_form(monkeypatch):
    # building a poset orders its members by _down_key, never by iso class;
    # the Smith form is patched where iso classes call it, in groups
    def refuse(mat):
        raise AssertionError("Smith form taken")

    _iso_class_cached.cache_clear()
    monkeypatch.setattr(groups, "snf_divisors", refuse)
    for elements in torsion_families(47, 40):
        poset_close(elements, TorusSubgroup.full_torus(elements[0].ambient_rank))
    for seeds in lattice_seeds(53, 3):
        poset_close(seeds, TorusSubgroup.full_torus(6))
    PartitionLattice(5)
    assert _iso_class_cached.cache_info().currsize == 0


def test_poset_close_lists_members_bottom_up():
    rng = random.Random(59)
    for seeds in [*torsion_families(61, 60), *lattice_seeds(67, 2)]:
        top = TorusSubgroup.full_torus(seeds[0].ambient_rank)
        p = poset_close(seeds, top)
        # a linear extension of containment: a inside b comes before b
        for b, big in enumerate(p.elements):
            assert not any(big.contains(a) for a in p.elements[b + 1 :])
        shuffled = list(seeds)
        rng.shuffle(shuffled)
        assert poset_close(shuffled, top).elements == p.elements


def closure_families(seed, count):
    """Seeded (seeds, top) pairs for poset_close in ranks 1-4: one- and
    two-row seeds with entries in [-4, 4] (so most have torsion), then a
    redundant seed (the meet of two earlier ones), a duplicate and the top
    itself, in shuffled order, with the redundant seed or None.  Every
    third top lies below the full torus, and the first family has no
    seeds."""
    rng = random.Random(seed)
    yield [], TorusSubgroup.full_torus(2), None
    for k in range(count):
        m = rng.randint(1, 4)
        top = TorusSubgroup(m, (random_row(rng, m, 4),) if k % 3 == 0 else ())
        seeds = [
            top.intersect(
                TorusSubgroup(m, tuple(random_row(rng, m, 4) for _ in range(rng.choice((1, 1, 2)))))
            )
            for _ in range(rng.randint(1, 5))
        ]
        extras = [rng.choice(seeds), top]
        meet = None
        if len(seeds) > 1:
            a, b = rng.sample(seeds, 2)
            meet = a.intersect(b)
            extras.append(meet)
        rng.shuffle(extras)
        yield seeds + extras, top, meet


def test_poset_close_tables_match_the_generic_walk():
    # oracle: the same members through SubgroupPoset's row table
    below_full = redundant = 0
    for seeds, top, meet in closure_families(71, 300):
        p = poset_close(seeds, top)
        generic = SubgroupPoset(p.elements, top)
        n = len(p)
        for j in range(n):
            for i in range(n):
                assert p.leq_by_index(i, j) == generic.leq_by_index(i, j)
                if p.leq_by_index(i, j):
                    assert p.mobius_by_index(i, j) == generic.mobius_by_index(i, j)
        below_full += top.dim < top.ambient_rank
        # a seed that is a member by its turn, and no duplicate of another
        redundant += meet is not None and meet != top and seeds.count(meet) == 1
    assert below_full >= 90 and redundant >= 100


def test_poset_close_makes_no_containment_test(calls):
    # the closure's incidence comes from its own meets; row tests run in
    # SubgroupPoset's generic table and in TorusSubgroup.contains (groups)
    calls.watch(subgroups, "_row_in_lattice", "row test")
    calls.watch(groups, "_row_in_lattice", "row test")
    for elements in torsion_families(73, 40):
        poset_close(elements, TorusSubgroup.full_torus(elements[0].ambient_rank))
    for seeds in lattice_seeds(79, 3):
        poset_close(seeds, TorusSubgroup.full_torus(6))
    assert calls["row test"] == 0
    # the counter sees the generic row table
    p = poset_close(seeds, TorusSubgroup.full_torus(6))
    SubgroupPoset(p.elements, p.top)
    assert calls["row test"] > 0
    # under a one-row top only the seed check tests containment: one
    # contains, and so one row test, per seed, however many members
    calls.clear()
    calls.watch(TorusSubgroup, "contains", "contains")
    n_seeds = n_members = 0
    for seeds in lattice_seeds(83, 3):
        top, seeds = seeds[0], [seeds[0].intersect(s) for s in seeds[1:]]
        n_members += len(poset_close(seeds, top))
        n_seeds += len(seeds)
    assert calls["contains"] == calls["row test"] == n_seeds
    assert n_members > 2 * n_seeds
