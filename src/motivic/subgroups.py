"""Posets of torus subgroups: incidence and Mobius tables, poset_close,
and the block-torus lattices of GL(m).

This is the only module that imports numpy, which stores the poset
tables, and no other module imports this one at load time, so only code
that builds a poset loads numpy; of the command line, that is the
mobius-crosscut and m-vanishing check suites.  The subgroups themselves
(TorusSubgroup, the Hermite and Smith forms, AbelianGroupClass) live in
groups and are importable from here too, TorusSubgroup by import and the
rest through the module __getattr__.

SubgroupPoset builds its incidence and Mobius tables eagerly, in exact
Python integers with down-sets as bitmasks; numpy arrays only store them.
The incidence is read off generators, subgroups such that each member is
top met with those containing it: _generator_masks takes the rows of the
members' lattices, each cutting out one such subgroup, and tests which
lattices hold which row; _mobius_columns runs the Mobius recursion up the
incidence.  A subclass that knows its generators may supply the masks
directly, as a poset_close result does with its seeds, and one that
knows a closed form for its Mobius function may supply the columns.
Queries are read-only afterwards.

poset_close lists members bottom-up by _down_key.  Building a poset
takes no Smith form; only iso_class does.

PartitionLattice is the poset of block tori of GL(m), indexed by set
partitions of {1..m}.  It reads both its tables off the partitions: its
incidence, since the block torus of p lies inside the torus of the single
2-block {i, j} iff i and j share a block of p, and its Mobius function,
by Rota's product formula.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import factorial, prod
from operator import and_, index

import numpy as np

from . import groups
from .errors import AmbientMismatch, NotComparable, NotInPoset, TooLarge
from .groups import (
    TorusSubgroup,
    _pivot_cols,
    _require_subgroups,
    _row_in_lattice,
    enumerate_partitions,
    partition_to_subgroup,
)
from .guards import CROSSCUT_GUARD, Q_LATTICE_GUARD

__all__ = [
    "hnf",
    "snf_divisors",
    "TorusSubgroup",
    "AbelianGroupClass",
    "SubgroupPoset",
    "poset_close",
    "PartitionLattice",
    "q_lattice_gl",
]

_FROM_GROUPS = frozenset(("hnf", "snf_divisors", "AbelianGroupClass", "_iso_class_cached"))


def __getattr__(name):
    if name in _FROM_GROUPS:
        return getattr(groups, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# poset helpers


def _down_key(rows):
    """(-rank, pivot product) of an HNF lattice, the order poset_close lists
    its members in: sorted by it, every subgroup comes after the subgroups
    inside it.  If a lies strictly inside b, L(b) is a proper sublattice of
    L(a): of lower rank, or of equal rank and so of the same Q-span and
    pivot columns, where projecting onto those is injective and the pivot
    product, the projected determinant, is [L(a):L(b)] times a's.  Either
    way a's key is the smaller."""
    return (-len(rows), prod(next(v for v in r if v) for r in rows))


def _bit_indices(mask):
    """Positions of the set bits of a nonnegative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# posets


class SubgroupPoset:
    """A finite family of torus subgroups ordered by containment, under a
    top that holds every member.

    Which members lie in which generators comes from _generator_masks, and
    the Mobius values from _mobius_columns.  Built directly, the poset tests
    which lattices hold which members' rows, so its tables are right for
    any family; a subclass whose generators are known overrides the first
    hook, as the closure of poset_close and PartitionLattice do, and one
    whose Mobius function has a closed form the second.  crosscut_coeff
    looks up meets, so it still needs the family closed under intersection
    (verify_intersection_closed checks it).  Both tables are built at
    construction, so all queries afterwards are read-only and safe to
    share across threads.
    """

    def __init__(self, elements, top):
        elements = tuple(elements)
        if not elements:
            raise ValueError("poset needs at least one element")
        _require_subgroups(elements + (top,))
        m = elements[0].ambient_rank
        if any(e.ambient_rank != m for e in elements):
            raise AmbientMismatch("mixed ambient ranks in poset")
        if top.ambient_rank != m:
            raise AmbientMismatch("top has wrong ambient rank")
        index = {}
        for i, e in enumerate(elements):
            if e in index:
                raise ValueError("duplicate poset element %s" % (e,))
            index[e] = i
        if top not in index:
            raise ValueError("top is not among the elements")
        self.ambient_rank = m
        self.elements = elements
        self.top = top
        self._index = index
        n = len(elements)
        downs = self._down_sets()
        self._leq = np.zeros((n, n), dtype=bool)
        for b, down in enumerate(downs):
            self._leq[down, b] = True
        mu = self._mu = np.zeros((n, n), dtype=object)
        for b, col in enumerate(self._mobius_columns(downs)):
            for a, v in col.items():
                mu[a, b] = v

    # -- construction helpers

    def _down_sets(self):
        """For each element b, the indices of the elements a inside b.

        over[b] masks generators containing b whose meet with top is b;
        top holds every element, so a <= b iff a lies in each of them: the
        down-set of b is the AND of their below-masks.
        """
        over, below = self._generator_masks()
        full = (1 << len(self.elements)) - 1
        downs = (reduce(and_, (below[j] for j in _bit_indices(m)), full) for m in over)
        return [_bit_indices(down) for down in downs]

    def _generator_masks(self):
        """(over, below) with the distinct rows of the members' lattices as
        generators, each cutting out one subgroup: over[e] masks the rows of
        e's HNF basis and below[j] the members whose lattice holds row j.
        So a lies in every generator over b iff L(b) lies in L(a), which is
        the definition of a <= b."""
        if not all(self.top.contains(e) for e in self.elements):
            raise ValueError("top does not contain every element")
        lattices = [e.char_lattice for e in self.elements]
        rows = {}
        over = [sum(1 << rows.setdefault(r, len(rows)) for r in lat) for lat in lattices]
        held = [(lat, _pivot_cols(lat)) for lat in lattices]
        below = [sum(1 << e for e, h in enumerate(held) if _row_in_lattice(r, *h)) for r in rows]
        return over, below

    def _mobius_columns(self, downs):
        """The Mobius table as one dict {a: mu(a, b)} per column b, over the
        a <= b: mu(b, b) = 1 and mu(a, b) = -sum of mu(a, c) over
        a <= c < b, in Python integers.  The columns go by down-set size:
        c < b has the smaller down-set, so its column is done before b's."""
        cols = [None] * len(downs)
        for b in sorted(range(len(downs)), key=lambda b: len(downs[b])):
            col = {b: 1}
            for c in downs[b]:
                if c != b:
                    for a, v in cols[c].items():
                        col[a] = col.get(a, 0) - v
            cols[b] = col
        return cols

    # -- queries

    def __len__(self):
        return len(self.elements)

    def __contains__(self, subgroup):
        return subgroup in self._index

    def index_of(self, subgroup):
        try:
            return self._index[subgroup]
        except KeyError:
            raise NotInPoset("%s is not in the poset" % (subgroup,)) from None

    def leq(self, a, b):
        """Whether subgroup a is contained in subgroup b."""
        return bool(self._leq[self.index_of(a), self.index_of(b)])

    def leq_by_index(self, i, j):
        return bool(self._leq[i, j])

    def mobius_by_index(self, i, j):
        if not self._leq[i, j]:
            raise NotComparable("elements are not nested")
        return int(self._mu[i, j])

    def mobius(self, a, b):
        """Mobius coefficient mu(a, b) for a contained in b."""
        return self.mobius_by_index(self.index_of(a), self.index_of(b))

    def down_set(self, b):
        j = self.index_of(b)
        return [int(i) for i in np.nonzero(self._leq[:, j])[0]]

    def up_set(self, a):
        i = self.index_of(a)
        return [int(j) for j in np.nonzero(self._leq[i, :])[0]]

    def crosscut_coeff(self, lower, upper):
        """Literal subset sum over B in the down-set of upper with upper in B
        and meet(B) = lower, of (-1)^(|B|-1).  Test oracle for mobius."""
        ilo = self.index_of(lower)
        iup = self.index_of(upper)
        if not self._leq[ilo, iup]:
            raise NotComparable("lower is not contained in upper")
        down = [int(i) for i in np.nonzero(self._leq[:, iup])[0]]
        if len(down) > CROSSCUT_GUARD:
            raise TooLarge(
                "down-set has %d elements; crosscut guard is %d" % (len(down), CROSSCUT_GUARD)
            )
        # meet table inside the down-set, by poset index, one intersection
        # per unordered pair
        els = self.elements
        meet = {(i, i): i for i in down}
        for k, i in enumerate(down):
            for j in down[k + 1 :]:
                try:
                    meet[(i, j)] = meet[(j, i)] = self._index[els[i].intersect(els[j])]
                except KeyError:
                    raise NotInPoset(
                        "family not closed under intersection: the meet of %s and %s is missing"
                        % (els[i], els[j])
                    ) from None
        others = [i for i in down if i != iup]
        total = 0

        def walk(pos, current, size):
            nonlocal total
            if pos == len(others):
                if current == ilo:
                    total += -1 if size % 2 == 0 else 1
                return
            walk(pos + 1, current, size)
            walk(pos + 1, meet[(current, others[pos])], size + 1)

        walk(0, iup, 1)
        return total

    def verify_intersection_closed(self):
        els = self.elements
        return all(a.intersect(b) in self._index for i, a in enumerate(els) for b in els[i + 1 :])


class _Closure(SubgroupPoset):
    """A poset_close result, whose generator masks come with it: the
    closure's seeds serve as generators, read off the meets it took."""

    def __init__(self, elements, top, over, below):
        self._masks = over, below
        super().__init__(elements, top)

    def _generator_masks(self):
        return self._masks


def poset_close(seed, top):
    """Smallest intersection-closed family containing seed and top.

    Every member is top met with a subset of the seeds, so starting from
    {top}, each seed not yet a member is met with every member; after seed
    j the family holds the meets over subsets of the first j seeds.  A pass
    costs one intersection per member and adds at least one member, so n
    members cost at most 1 + ... + (n-1) = C(n, 2) intersections.

    The same meets give the incidence, with no containment test.  With k
    passes, pass t records meets[t][i], the index of member i met with its
    seed s_t.  A member y born in a later pass as x met with s has
    y met with s_t = (x met with s_t) met with s, where x met with s_t was
    a member before that pass; so its entry is a lookup, and n members cost
    n*k lookups besides the intersections.  Member i lies in s_t iff
    meets[t][i] == i.  Since b is top met with the seeds containing it,
    a <= b iff a lies in every seed that contains b: the seeds, with those
    bits as masks, serve as the generators of SubgroupPoset.  A seed
    skipped as already a member is a meet of earlier seeds and needs no
    bit.

    Members are listed bottom-up by _down_key, that is by (dimension,
    pivot product of the HNF lattice), ties broken by the HNF rows: a
    member comes after every member inside it, and the order depends on
    the family only, not on the order of the seeds.
    """
    seed = tuple(seed)  # read an iterable once
    _require_subgroups((top,))
    # contains raises AmbientMismatch for a seed of another ambient rank
    # and TypeError for a non-subgroup
    if not all(top.contains(s) for s in seed):
        raise ValueError("top does not contain every seed element")
    members, ids, meets = [top], {top: 0}, []
    for s in seed:
        if s in ids:
            continue
        n = len(members)
        row, parents = [], []
        for x in range(n):
            meet = members[x].intersect(s)
            y = ids.setdefault(meet, len(members))
            if y == len(members):
                members.append(meet)
                parents.append(x)
            row.append(y)
        row.extend(range(n, len(members)))  # a member born here lies in s
        for old in meets:
            old.extend([row[old[x]] for x in parents])
        meets.append(row)

    order = sorted(
        range(len(members)),
        key=lambda i: (_down_key(members[i].char_lattice), members[i].char_lattice),
    )
    over, below = [0] * len(order), []
    for k, row in enumerate(meets):
        mask = 0
        for pos, i in enumerate(order):
            if row[i] == i:
                mask |= 1 << pos
                over[pos] |= 1 << k
        below.append(mask)
    return _Closure([members[i] for i in order], top, over, below)


# ---------------------------------------------------------------------------
# block tori of GL(m)


class PartitionLattice(SubgroupPoset):
    """The block-torus poset of GL(m) with its partition labels.

    Block tori are closed under intersection (intersecting imposes the
    union of the equalities, which is the common coarsening), so the
    family is a valid SubgroupPoset without an explicit closure pass.
    Its generators are the C(m, 2) tori with a single 2-block {i, j}, and
    their incidence is read off the partitions, with no containment test;
    so is the Mobius function, by Rota's product formula.
    """

    def __init__(self, m):
        m = index(m)
        if m > Q_LATTICE_GUARD:
            raise TooLarge("block-torus lattice guarded at m <= %d" % Q_LATTICE_GUARD)
        parts = enumerate_partitions(m)
        self.m = m
        self.partitions = tuple(parts)
        elements = [partition_to_subgroup(p) for p in parts]
        super().__init__(elements, TorusSubgroup.full_torus(m))

    def _generator_masks(self):
        """over[e] masks the pairs {i, j} inside a block of partition e,
        below[j] the partitions with pair j inside a block."""
        pairs = {ij: k for k, ij in enumerate(combinations(range(1, self.m + 1), 2))}
        over, below = [], [0] * len(pairs)
        for e, p in enumerate(self.partitions):
            inside = [pairs[ij] for b in p.blocks for ij in combinations(b, 2)]
            over.append(sum(1 << k for k in inside))
            for k in inside:
                below[k] |= 1 << e
        return over, below

    def _mobius_columns(self, downs):
        """Rota's product formula: for a <= b, that is a coarser than b,
        mu(a, b) = prod over the blocks A of a of f(|A & min(b)|), with
        f(k) = (-1)^(k-1) (k-1)! and min(b) the set of least elements of
        b's blocks.  Each block of b lies in one block A of a and adds its
        least element to A & min(b), so the interval [a, b] is the product
        over A of partition lattices of |A & min(b)| points.  A block of
        one element gives f(1) = 1 and is skipped."""
        f = [None] + [(-1) ** (k - 1) * factorial(k - 1) for k in range(1, self.m + 1)]
        masks = [
            [sum(1 << i for i in blk) for blk in p.blocks if len(blk) > 1]
            for p in self.partitions
        ]
        cols = []
        for p, down in zip(self.partitions, downs):
            least = sum(1 << blk[0] for blk in p.blocks)
            col = {}
            for a in down:
                v = 1
                for mask in masks[a]:
                    v *= f[(mask & least).bit_count()]
                col[a] = v
            cols.append(col)
        return cols


@lru_cache(maxsize=None)
def q_lattice_gl(m):
    """Poset of all block tori of GL(m); containment order, top = full torus."""
    return PartitionLattice(m)
