import random
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from motivic.errors import AmbientMismatch, NotComparable, NotInPoset, TooLarge
from motivic.groups import GeneralLinear, PartitionLattice, SetPartition
from motivic.stackcalc import WeightFn
from motivic.subgroups import (
    AbelianGroupClass,
    TorusSubgroup,
    hnf,
    _iso_class_cached,
    _order_key,
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


def random_row(rng, m):
    return tuple(rng.randint(-2, 2) for _ in range(m))


def _pairwise_close(seed, top):
    """Oracle for poset_close: intersect every unordered pair of members of
    a list that grows as new intersections are appended, then sort."""
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
    return sorted(items, key=_order_key)


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


def test_poset_close_intersections_per_seed(monkeypatch):
    # seven generic one-row seeds in rank 6: every subset has its own meet
    rng = random.Random(31)
    seeds = [TorusSubgroup(6, (random_row(rng, 6),)) for _ in range(7)]
    calls = []
    intersect_method = TorusSubgroup.intersect

    def counted(self, other):
        calls.append(1)
        return intersect_method(self, other)

    monkeypatch.setattr(TorusSubgroup, "intersect", counted)
    p = poset_close(seeds, TorusSubgroup.full_torus(6))
    assert len(p) == 128
    # one pass per distinct seed, one intersection per member: 127 here,
    # against C(128, 2) = 8128 for the all-pairs walk
    assert len(calls) <= len(set(seeds)) * len(p)


def test_iterable_arguments_are_read_once():
    # a generator of rows is one subgroup, not the full torus
    assert TorusSubgroup(2, (r for r in [(1, 0)])) == TorusSubgroup(2, ((1, 0),))
    seeds = [TorusSubgroup(2, ((1, 0),)), TorusSubgroup(2, ((0, 1),))]
    assert len(poset_close(iter(seeds), TorusSubgroup.full_torus(2))) == 4


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


def test_mobius_table_needs_no_smith_form():
    # the Mobius pass orders its columns by down-set size, not by iso class
    _iso_class_cached.cache_clear()
    PartitionLattice(5)
    assert _iso_class_cached.cache_info().currsize == 0
