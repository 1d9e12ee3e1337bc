"""Closed subgroups of a torus as integer character lattices.

A closed subgroup S of the m-torus is stored through the lattice L(S) of
characters vanishing on it, kept in row Hermite normal form.  Containment
of subgroups reverses lattice inclusion and intersection of subgroups is
lattice sum, so everything reduces to integer row reduction and the
canonical forms make equality, poset construction and Mobius tables
deterministic.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, prod
from operator import and_, index

import numpy as np

from .errors import AmbientMismatch, NotComparable, NotInPoset, TooLarge
from .guards import CROSSCUT_GUARD

__all__ = [
    "hnf",
    "snf_divisors",
    "TorusSubgroup",
    "AbelianGroupClass",
    "SubgroupPoset",
    "poset_close",
]


# ---------------------------------------------------------------------------
# integer matrix normal forms


def hnf(mat):
    """Unique row Hermite normal form of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are dropped.  The row span over Z is preserved.
    Entries convert with operator.index, so a non-integral one raises
    TypeError instead of being truncated.
    """
    rows = [list(map(index, r)) for r in mat]
    if not rows:
        return ()
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    r = 0
    for c in range(ncols):
        nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        while len(nz) > 1:
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = rows[i][c] // rows[i0][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
            nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not nz:
            continue
        if nz[0] != r:
            rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def snf_divisors(mat):
    """Elementary divisors of an integer matrix (Smith normal form diagonal,
    zeros excluded), each dividing the next.

    Row HNF of the matrix and of its transpose alternate until every row
    holds a single entry, its positive pivot.  The loop ends: the top-left
    pivot of a pass divides the one before it, so it never grows, and once
    it stops shrinking it divides its whole row, so the next pass clears
    its row and column and they stay clear; the pivots below it follow in
    turn.  A diagonal form need not be a divisibility chain, so the
    pivots go through _divisor_chain.
    """
    rows = hnf(mat)
    while any(sum(1 for v in r if v) > 1 for r in rows):
        rows = hnf(list(zip(*rows)))
    return _divisor_chain([max(r) for r in rows])


def _divisor_chain(divisors):
    """Invariant factors of the diagonal matrix with these positive entries:
    a chain with the same product, each dividing the next.

    Once entry i has met every later entry it is their gcd with it, and the
    later entries stay multiples of it, so one pass gives the chain.
    """
    d = list(divisors)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def _pivot_cols(rows):
    return tuple(next(j for j, v in enumerate(r) if v != 0) for r in rows)


def _row_in_lattice(row, rows, pivots):
    """Exact Z-rowspan membership against an HNF basis."""
    v = list(row)
    for r, c in zip(rows, pivots):
        if v[c]:
            q = v[c] // r[c]
            if q:
                v = [a - q * b for a, b in zip(v, r)]
    return all(x == 0 for x in v)


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
# abelian group classes


@dataclass(frozen=True, order=True)
class AbelianGroupClass:
    """Isomorphism class of G_m^k x K with K finite abelian.

    torsion is the chain of elementary divisors > 1, each dividing the
    next; construction recanonicalizes arbitrary torsion lists.
    """

    torus_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "torus_rank", index(self.torus_rank))
        if self.torus_rank < 0:
            raise ValueError("negative torus rank")
        tors = tuple(map(index, self.torsion))
        if any(t < 2 for t in tors):
            raise ValueError("torsion invariants must be >= 2")
        chain = tuple(d for d in _divisor_chain(tors) if d > 1)
        object.__setattr__(self, "torsion", chain)

    def torsion_order(self):
        return prod(self.torsion) if self.torsion else 1

    def product(self, other):
        return AbelianGroupClass(self.torus_rank + other.torus_rank, self.torsion + other.torsion)

    def __str__(self):
        parts = []
        if self.torus_rank == 1:
            parts.append("Gm")
        elif self.torus_rank > 1:
            parts.append("Gm^%d" % self.torus_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " x ".join(parts) if parts else "1"

    def to_json(self):
        return {"rank": self.torus_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["rank"], tuple(obj["torsion"]))


# ---------------------------------------------------------------------------
# torus subgroups


@dataclass(frozen=True)
class TorusSubgroup:
    """Closed subgroup of G_m^ambient_rank, by its vanishing-character
    lattice in canonical HNF.  Equality compares (ambient_rank, lattice)."""

    ambient_rank: int
    char_lattice: tuple

    def __post_init__(self):
        object.__setattr__(self, "ambient_rank", index(self.ambient_rank))
        if self.ambient_rank < 1:
            raise ValueError("ambient rank must be positive")
        rows = tuple(self.char_lattice)  # read an iterable once
        # check the raw rows: hnf drops zero rows, whatever their length
        if any(len(r) != self.ambient_rank for r in rows):
            raise ValueError("lattice row length differs from ambient rank")
        rows = hnf(rows)
        if len(rows) > self.ambient_rank:
            raise ValueError("lattice rank exceeds ambient rank")
        object.__setattr__(self, "char_lattice", rows)

    @classmethod
    def full_torus(cls, m):
        return cls(m, ())

    @classmethod
    def trivial(cls, m):
        return cls(m, tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))

    @property
    def dim(self):
        return self.ambient_rank - len(self.char_lattice)

    def _same_ambient(self, other):
        _require_subgroups((other,))
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch(
                "ambient ranks differ: %d vs %d" % (self.ambient_rank, other.ambient_rank)
            )

    def intersect(self, other):
        self._same_ambient(other)
        return TorusSubgroup(self.ambient_rank, self.char_lattice + other.char_lattice)

    def contains(self, other):
        """True iff other is a subgroup of self (lattice inclusion reversed)."""
        self._same_ambient(other)
        if not self.char_lattice:
            return True  # the full torus holds every subgroup
        pivots = _pivot_cols(other.char_lattice)
        return all(
            _row_in_lattice(row, other.char_lattice, pivots) for row in self.char_lattice
        )

    def iso_class(self):
        return _iso_class_cached(self)

    def to_json(self):
        return {"ambient": self.ambient_rank, "lattice": [list(r) for r in self.char_lattice]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["ambient"], tuple(tuple(r) for r in obj["lattice"]))

    def __str__(self):
        return "Subgroup(%d, %s)" % (self.ambient_rank, list(map(list, self.char_lattice)))


def _subgroup(m, rows):
    """The TorusSubgroup of the m-torus with these lattice rows, already in
    HNF, as given."""
    out = TorusSubgroup.__new__(TorusSubgroup)
    object.__setattr__(out, "ambient_rank", m)
    object.__setattr__(out, "char_lattice", rows)
    return out


def _require_subgroups(items):
    """TypeError, like the other constructors raise, for a non-subgroup."""
    for x in items:
        if not isinstance(x, TorusSubgroup):
            raise TypeError("not a torus subgroup: %r" % (x,))


@lru_cache(maxsize=None)
def _iso_class_cached(s):
    tors = tuple(d for d in snf_divisors(s.char_lattice) if d > 1)
    return AbelianGroupClass(s.dim, tors)


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
