"""Posets of torus subgroups: incidence and Mobius tables, poset_close,
and the block-torus lattices of GL(m).

This is the only module that imports numpy, which stores the poset
tables, and no other module imports this one at load time, so only code
that builds a poset loads numpy; of the command line, that is the
mobius-crosscut and m-vanishing check suites.  The subgroups themselves
(TorusSubgroup, the Hermite and Smith forms, AbelianGroupClass) live in
groups and are importable from here too, TorusSubgroup by import and the
rest through the module __getattr__.

SubgroupPoset builds its incidence and Mobius tables eagerly, in one
pass from a bitmask per member, its down-set: _leq unpacks the masks
into a bool table and _mu scatters the Mobius value of each pair a <= b,
an exact Python integer, into a zero object table; numpy only stores
them.  Built directly, a poset reads its masks off the rows of the
members' lattices, each cutting out a subgroup, and runs the Mobius
recursion up the incidence (_mobius_columns).  A subclass that knows its
down-sets may supply them (_down_masks), as a poset_close result does
from its meets, and one with a closed form for its Mobius function may
supply the values (_mobius_values).  Queries are read-only afterwards.

poset_close lists members bottom-up by _down_key.  Building a poset
takes no Smith form; only iso_class does.

PartitionLattice is the poset of block tori of GL(m), indexed by set
partitions of {1..m}.  It reads both its tables off the partitions: its
down-sets, since the block torus of a lies inside that of b iff a is
coarser than b, and its Mobius function, by Rota's product formula.
"""

from __future__ import annotations

from functools import lru_cache, reduce
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


# ---------------------------------------------------------------------------
# posets


class SubgroupPoset:
    """A finite family of torus subgroups ordered by containment, under a
    top that holds every member.

    The down-set bitmasks come from _down_masks and the Mobius values of
    the pairs a <= b from _mobius_values.  Built directly, the poset tests
    which lattices hold which members' rows, so its tables are right for
    any family; a subclass whose down-sets are known overrides the first
    hook, as the closure of poset_close and PartitionLattice do, and one
    whose Mobius function has a closed form the second.  crosscut_coeff
    looks up meets, so it still needs the family closed under intersection
    (verify_intersection_closed checks it).  Both tables are built at
    construction, so all queries afterwards are read-only and safe to
    share across threads; by-index queries refuse indices outside the poset.
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
        # down[b, a] is bit a of b's down-set mask; the flat nonzero lists the
        # pairs a <= b by b, then a, read through one shared int per index
        n = len(elements)
        raw = b"".join(d.to_bytes((n + 7) // 8, "little") for d in self._down_masks())
        down = np.frombuffer(raw, np.uint8).reshape(n, -1)
        down = np.unpackbits(down, axis=1, count=n, bitorder="little").view(bool)
        self._leq = down.T
        cols, rows = np.divmod(np.flatnonzero(down), n)
        ids = np.arange(n, dtype=object)
        values = self._mobius_values(ids[rows].tolist(), ids[cols].tolist())
        mu = self._mu = np.zeros((n, n), dtype=object)
        mu[rows, cols] = values

    # -- construction hooks

    def _down_masks(self):
        """For each element b, the bitmask of the elements a inside b.

        The generators are the distinct rows of the members' lattices, each
        cutting out one subgroup: over[b] lists the rows of b's HNF basis
        and below[j] masks the members whose lattice holds row j.  So a
        lies in every generator over b iff L(b) lies in L(a), which is the
        definition of a <= b: the down-set of b is the AND of those masks.
        """
        if not all(self.top.contains(e) for e in self.elements):
            raise ValueError("top does not contain every element")
        lattices = [e.char_lattice for e in self.elements]
        rows = {}
        over = [[rows.setdefault(r, len(rows)) for r in lat] for lat in lattices]
        held = [(lat, _pivot_cols(lat)) for lat in lattices]
        below = [sum(1 << e for e, h in enumerate(held) if _row_in_lattice(r, *h)) for r in rows]
        full = (1 << len(lattices)) - 1
        return [reduce(and_, (below[j] for j in js), full) for js in over]

    def _mobius_values(self, rows, cols):
        """mu(a, b) for each pair a = rows[k] <= b = cols[k], the pairs
        listed by b: grouped into down-sets for _mobius_columns."""
        downs = [[] for _ in self.elements]
        for a, b in zip(rows, cols):
            downs[b].append(a)
        by_col = self._mobius_columns(downs)
        return [by_col[b][a] for a, b in zip(rows, cols)]

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

    def _at(self, i):
        """i as an element index, refused unless 0 <= i < len(self)."""
        i = index(i)
        if not 0 <= i < len(self.elements):
            raise NotInPoset("index %d is outside 0..%d" % (i, len(self.elements) - 1))
        return i

    def leq(self, a, b):
        """Whether subgroup a is contained in subgroup b."""
        return bool(self._leq[self.index_of(a), self.index_of(b)])

    def leq_by_index(self, i, j):
        return bool(self._leq[self._at(i), self._at(j)])

    def mobius_by_index(self, i, j):
        i, j = self._at(i), self._at(j)
        if not self._leq[i, j]:
            raise NotComparable("elements are not nested")
        return int(self._mu[i, j])

    def mobius(self, a, b):
        """Mobius coefficient mu(a, b) for a contained in b."""
        return self.mobius_by_index(self.index_of(a), self.index_of(b))

    def down_set(self, b):
        return np.flatnonzero(self._leq[:, self.index_of(b)]).tolist()

    def up_set(self, a):
        return np.flatnonzero(self._leq[self.index_of(a), :]).tolist()

    def crosscut_coeff(self, lower, upper):
        """Literal subset sum over B in the down-set of upper with upper in B
        and meet(B) = lower, of (-1)^(|B|-1).  Test oracle for mobius."""
        ilo = self.index_of(lower)
        iup = self.index_of(upper)
        if not self._leq[ilo, iup]:
            raise NotComparable("lower is not contained in upper")
        down = self.down_set(upper)
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
    """A poset_close result, whose down-set masks come with it, read off
    the meets the closure took."""

    def __init__(self, elements, top, downs):
        self._downs = downs
        super().__init__(elements, top)

    def _down_masks(self):
        return self._downs


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
    a <= b iff a lies in every seed that contains b: the down-set mask of
    b is the AND of the masks of those seeds.  A seed skipped as already a
    member is a meet of earlier seeds and needs no mask.

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
    downs = [(1 << len(order)) - 1] * len(order)
    for row in meets:
        inside = [pos for pos, i in enumerate(order) if row[i] == i]
        mask = sum(1 << pos for pos in inside)
        for pos in inside:
            downs[pos] &= mask
    return _Closure([members[i] for i in order], top, downs)


# ---------------------------------------------------------------------------
# block tori of GL(m)


class PartitionLattice(SubgroupPoset):
    """The block-torus poset of GL(m) with its partition labels.

    Block tori are closed under intersection (intersecting imposes the
    union of the equalities, which is the common coarsening), so the
    family is a valid SubgroupPoset without an explicit closure pass.
    Its down-sets are read off the partitions, with no containment test,
    and so are its Mobius values, by Rota's product formula.
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

    def _down_masks(self):
        """a <= b iff a is coarser than b, that is iff each block of b lies
        in a block of a: iff the least element of each block B of b shares
        a block of a with every other element of B.  same[i][j] masks the
        partitions with i and j in one block, and b's down-set is the AND
        of those masks over b's star pairs, m minus its block count."""
        m = self.m
        same = [[0] * (m + 1) for _ in range(m + 1)]
        for e, p in enumerate(self.partitions):
            for blk in p.blocks:
                for k, i in enumerate(blk):
                    for j in blk[k + 1 :]:
                        same[i][j] |= 1 << e
        full = (1 << len(self.partitions)) - 1
        return [
            reduce(and_, (same[blk[0]][j] for blk in p.blocks for j in blk[1:]), full)
            for p in self.partitions
        ]

    def _mobius_values(self, rows, cols):
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
        least = [sum(1 << blk[0] for blk in p.blocks) for p in self.partitions]
        out = []
        for a, b in zip(rows, cols):
            v, lb = 1, least[b]
            for mask in masks[a]:
                v *= f[(mask & lb).bit_count()]
            out.append(v)
        return out


@lru_cache(maxsize=None)
def q_lattice_gl(m):
    """Poset of all block tori of GL(m); containment order, top = full torus."""
    return PartitionLattice(m)
