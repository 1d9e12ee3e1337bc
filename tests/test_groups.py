import itertools
import json
import random
import time
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic import groups
from motivic.errors import TooLarge
from motivic.groups import (
    GeneralLinear,
    PartitionLattice,
    Product,
    SetPartition,
    bell_number,
    centralizer_gl,
    enumerate_partitions,
    group_from_json,
    group_rank,
    partition_to_subgroup,
    product,
    q_lattice_gl,
    torus,
    upsilon_group,
    weyl_index_gl,
)
from motivic.ratfield import ELL, ONE, in_lambda_circ
from motivic.subgroups import AbelianGroupClass, SubgroupPoset, TorusSubgroup

L = ELL


def test_upsilon_examples():
    assert upsilon_group(GeneralLinear(1)) == L - 1
    assert upsilon_group(GeneralLinear(2)) == L * (L - 1) * (L * L - 1)
    assert upsilon_group(torus(2)) == (L - 1) ** 2
    assert upsilon_group(torus(1, (2,))) == 2 * (L - 1)
    assert upsilon_group(product(GeneralLinear(2), torus(1))) == upsilon_group(
        GeneralLinear(2)
    ) * (L - 1)


def test_upsilon_gl_recursion_oracle():
    # the column fibration gives GL(m) = (l^m - 1) l^(m-1) GL(m-1)
    prev = ONE
    for m in range(1, 9):
        prev = (L**m - 1) * L ** (m - 1) * prev
        assert upsilon_group(GeneralLinear(m)) == prev


def test_enumerate_partitions_counts():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(4)) == 15
    for m in range(1, 7):
        assert len(enumerate_partitions(m)) == bell_number(m)
    with pytest.raises(TooLarge):
        enumerate_partitions(10)


def test_partitions_distinct_and_canonical():
    # enumerate_partitions skips validation, so the constructor is the oracle
    for m in range(1, 8):
        parts = enumerate_partitions(m)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert p == SetPartition(m, p.blocks)


def test_empty_block_is_a_value_error():
    # refused before the blocks are sorted by their least element
    with pytest.raises(ValueError, match="empty block"):
        SetPartition(2, ((1, 2), ()))
    with pytest.raises(ValueError, match="empty block"):
        SetPartition.from_json([[1, 2], []])


@st.composite
def raw_partitions(draw):
    """(m, blocks) for a set partition of {1..m}, blocks and their
    elements in drawn order."""
    m = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = {}
    for x in draw(st.permutations(range(1, m + 1))):
        blocks.setdefault(labels[x - 1], []).append(x)
    return m, draw(st.permutations(list(blocks.values())))


@settings(max_examples=200, deadline=None)
@given(raw_partitions())
def test_set_partition_json_round_trip(m_blocks):
    # JSON in any block and element order reads back canonical, and the
    # canonical JSON text reads back as the same partition
    m, blocks = m_blocks
    p = SetPartition.from_json(blocks)
    assert p == SetPartition(m, blocks)
    assert p.to_json() == sorted(sorted(b) for b in blocks)
    assert SetPartition.from_json(json.loads(json.dumps(p.to_json()))) == p


def test_partition_to_subgroup_examples():
    assert partition_to_subgroup(SetPartition.singletons(4)) == TorusSubgroup.full_torus(4)
    one = partition_to_subgroup(SetPartition.one_block(3))
    assert one.iso_class() == AbelianGroupClass(1)
    p = SetPartition(3, ((1, 2), (3,)))
    s = partition_to_subgroup(p)
    assert s.char_lattice == ((1, -1, 0),)
    assert s.iso_class() == AbelianGroupClass(2)


def test_q_lattice_examples():
    lat2 = q_lattice_gl(2)
    assert len(lat2) == 2
    lat3 = q_lattice_gl(3)
    assert len(lat3) == 5
    s12 = partition_to_subgroup(SetPartition(3, ((1, 2), (3,))))
    s123 = partition_to_subgroup(SetPartition.one_block(3))
    assert s12.contains(s123)
    with pytest.raises(TooLarge):
        q_lattice_gl(8)


def test_partition_lattice_carries_the_guard():
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        PartitionLattice(8)
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(TooLarge):
        q_lattice_gl(8)


@pytest.mark.parametrize("build", [enumerate_partitions, PartitionLattice, q_lattice_gl])
def test_non_integer_rank_is_refused_at_once(build):
    # 2.5 used to pass the guards and recurse until RecursionError
    t0 = time.perf_counter()
    with pytest.raises(TypeError):
        build(2.5)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("m", range(1, 8))
def test_partition_lattice_matches_the_generic_walk(m):
    # oracle: the same members through SubgroupPoset's row table
    lat = PartitionLattice(m)
    generic = SubgroupPoset(lat.elements, lat.top)
    assert generic.elements == lat.elements
    pairs = 0
    for b in lat.elements:
        down = lat.down_set(b)
        assert down == generic.down_set(b)
        j = lat.index_of(b)
        for i in down:
            assert lat.mobius_by_index(i, j) == generic.mobius_by_index(i, j)
        pairs += len(down)
    if m == 7:
        assert pairs == 19302


def test_partition_lattice_reads_its_tables_off_the_partitions(calls):
    # members and Mobius values come as given: one hnf (the top), no
    # SetPartition validation and no Mobius recursion
    calls.watch(groups, "hnf", "hnf")
    calls.watch(SetPartition, "__post_init__", "validate")
    calls.watch(SubgroupPoset, "_mobius_columns", "recursion")
    for m in range(1, 8):
        calls.clear()
        lat = PartitionLattice(m)
        assert calls["hnf"] <= 1
        assert calls["validate"] == calls["recursion"] == 0
    # the counters see the generic paths
    calls.clear()
    SubgroupPoset(lat.elements, TorusSubgroup(7, ()))
    SetPartition.singletons(7)
    assert calls == {"hnf": 1, "validate": 1, "recursion": 1}


def test_partition_to_subgroup_matches_hnf_of_first_element_rows():
    # oracle: the rows e_first - e_i of each block, reduced by hnf
    for m in range(1, 8):
        for p in enumerate_partitions(m):
            rows = []
            for b in p.blocks:
                for i in b[1:]:
                    row = [0] * m
                    row[b[0] - 1], row[i - 1] = 1, -1
                    rows.append(tuple(row))
            old = TorusSubgroup(m, tuple(rows))
            assert partition_to_subgroup(p).char_lattice == old.char_lattice


def test_q_lattice_sizes_are_bell_numbers():
    for m in range(1, 7):
        assert len(q_lattice_gl(m)) == bell_number(m)


def test_q_lattice_containment_is_refinement():
    lat = q_lattice_gl(4)
    for p in lat.partitions:
        for q in lat.partitions:
            finer = refines(p, q)
            sp = partition_to_subgroup(p)
            sq = partition_to_subgroup(q)
            assert sp.contains(sq) == finer  # finer partition = larger subgroup


def refines(p, q):
    """p refines q: every block of p sits inside a block of q."""
    lookup = {}
    for i, b in enumerate(q.blocks):
        for x in b:
            lookup[x] = i
    return all(len({lookup[x] for x in b}) == 1 for b in p.blocks)


def test_q_lattice_intersection_closed_and_joins():
    for m in (3, 4):
        lat = q_lattice_gl(m)
        assert lat.verify_intersection_closed()
        for p in lat.partitions:
            for q in lat.partitions:
                meet = partition_to_subgroup(p).intersect(partition_to_subgroup(q))
                assert meet == partition_to_subgroup(common_coarsening(p, q))


def common_coarsening(p, q):
    """Join of two partitions: connected components of the union relation."""
    m = p.m
    parent = list(range(m + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for b in itertools.chain(p.blocks, q.blocks):
        for x in b[1:]:
            union(b[0], x)
    groups = {}
    for x in range(1, m + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition(m, tuple(tuple(v) for v in groups.values()))


def test_centralizer_examples():
    assert centralizer_gl(SetPartition.singletons(3)) == product(
        GeneralLinear(1), GeneralLinear(1), GeneralLinear(1)
    )
    assert centralizer_gl(SetPartition.one_block(3)) == GeneralLinear(3)
    assert centralizer_gl(SetPartition(3, ((1, 2), (3,)))) == product(
        GeneralLinear(2), GeneralLinear(1)
    )


def test_weyl_index_examples():
    assert weyl_index_gl(SetPartition.singletons(4)) == factorial(4)
    assert weyl_index_gl(SetPartition.one_block(4)) == 1
    assert weyl_index_gl(SetPartition(3, ((1, 2), (3,)))) == 3


def test_weyl_index_against_permutation_enumeration():
    # count permutations of 1..m preserving each block, compare the index
    for m in range(1, 6):
        for p in enumerate_partitions(m):
            preserving = 0
            for perm in itertools.permutations(range(1, m + 1)):
                ok = all(
                    {perm[x - 1] for x in b} == set(b) for b in p.blocks
                )
                preserving += ok
            assert weyl_index_gl(p) == factorial(m) // preserving


def test_weyl_index_multiset_invariant_under_relabeling():
    rng = random.Random(2)
    for m in range(2, 6):
        base = Counter(weyl_index_gl(p) for p in enumerate_partitions(m))
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        relabeled = Counter(
            weyl_index_gl(
                SetPartition(m, tuple(tuple(perm[x - 1] for x in b) for b in p.blocks))
            )
            for p in enumerate_partitions(m)
        )
        assert base == relabeled


def test_centralizer_upsilon_divisibility():
    # the centralizer class is (l-1)^rank times a unit with value
    # prod |b|! at l = 1, and the quotient class GL(m)/C is regular there
    # with value the Weyl index: the special-group divisibility fact,
    # instantiated blockwise
    from math import prod

    from motivic.ratfield import pi_eval

    for m in range(1, 6):
        for p in enumerate_partitions(m):
            c = centralizer_gl(p)
            assert group_rank(c) == m
            ups = upsilon_group(c)
            unit = ups / (L - 1) ** m
            assert in_lambda_circ(unit)
            assert pi_eval(unit) == prod(factorial(len(b)) for b in p.blocks)
            ratio = upsilon_group(GeneralLinear(m)) / ups
            assert in_lambda_circ(ratio)
            assert pi_eval(ratio) == weyl_index_gl(p)


def test_group_json_round_trip():
    for g in (
        torus(2, (2,)),
        GeneralLinear(3),
        product(GeneralLinear(2), torus(1)),
    ):
        assert group_from_json(g.to_json()) == g


GROUP_LEAVES = st.integers(1, 5).map(GeneralLinear) | st.builds(
    torus, st.integers(0, 3), st.lists(st.integers(2, 60), max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        GROUP_LEAVES,
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda fs: Product(tuple(fs))),
        max_leaves=8,
    )
)
def test_group_json_round_trip_of_nested_products(g):
    # nested products flatten at construction, and the JSON text of any
    # product of GL(m)s and tori with torsion reads back as the same group
    back = group_from_json(json.loads(json.dumps(g.to_json())))
    assert back == g
    assert str(back) == str(g)
    assert upsilon_group(back) == upsilon_group(g)
