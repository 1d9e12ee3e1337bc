"""Closed subgroups of a torus as integer character lattices.

A closed subgroup S of the m-torus is stored through the lattice L(S) of
characters vanishing on it, kept in row Hermite normal form.  Containment
of subgroups reverses lattice inclusion and intersection of subgroups is
lattice sum, so everything reduces to integer row reduction and the
canonical forms make equality, poset construction and Mobius tables
deterministic.

SubgroupPoset builds its incidence and Mobius tables eagerly; queries are
read-only afterwards.  Both tables are computed in exact Python integers,
with down-sets as bitmasks; numpy arrays only store the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from operator import index

import numpy as np

from .errors import AmbientMismatch, NotComparable, NotInPoset, TooLarge

__all__ = [
    "hnf",
    "snf_divisors",
    "TorusSubgroup",
    "AbelianGroupClass",
    "SubgroupPoset",
    "poset_close",
]

CROSSCUT_GUARD = 20  # max down-set size for the literal subset sum


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

    def intersect(self, other):
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch(
                "ambient ranks differ: %d vs %d" % (self.ambient_rank, other.ambient_rank)
            )
        return TorusSubgroup(self.ambient_rank, self.char_lattice + other.char_lattice)

    def contains(self, other):
        """True iff other is a subgroup of self (lattice inclusion reversed)."""
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch(
                "ambient ranks differ: %d vs %d" % (self.ambient_rank, other.ambient_rank)
            )
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


@lru_cache(maxsize=None)
def _iso_class_cached(s):
    tors = tuple(d for d in snf_divisors(s.char_lattice) if d > 1)
    return AbelianGroupClass(s.dim, tors)


# ---------------------------------------------------------------------------
# posets


class SubgroupPoset:
    """A finite family of torus subgroups ordered by containment.

    The caller guarantees the family is closed under pairwise intersection
    (poset_close produces such families); verify_intersection_closed is
    available for tests.  Incidence and the full Mobius table are built at
    construction, so all queries afterwards are read-only and safe to share
    across threads.
    """

    def __init__(self, elements, top):
        elements = tuple(elements)
        if not elements:
            raise ValueError("poset needs at least one element")
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
        self._top_idx = index[top]
        n = len(elements)
        downs = self._down_sets()
        if len(downs[self._top_idx]) != n:
            raise ValueError("top does not contain every element")
        self._leq = np.zeros((n, n), dtype=bool)
        for b, down in enumerate(downs):
            self._leq[down, b] = True
        self._mu = self._build_mobius(downs)

    # -- construction helpers

    def _down_sets(self):
        """For each element b, the indices of the elements a inside b.

        a lies in b iff every row of L(b) lies in L(a).  Each distinct row
        is tested once against every lattice, giving the bitmask of the
        lattices that hold it; the down-set of b is the AND of the masks
        of its rows (everything, when L(b) is zero).
        """
        elements = self.elements
        pivots = [_pivot_cols(e.char_lattice) for e in elements]
        holders = {}
        for e in elements:
            for row in e.char_lattice:
                if row not in holders:
                    holders[row] = sum(
                        1 << a
                        for a, f in enumerate(elements)
                        if _row_in_lattice(row, f.char_lattice, pivots[a])
                    )
        everything = (1 << len(elements)) - 1
        downs = []
        for e in elements:
            mask = everything
            for row in e.char_lattice:
                mask &= holders[row]
            downs.append(_bit_indices(mask))
        return downs

    def _build_mobius(self, downs):
        """Mobius table column by column, in Python integers:
        mu(b, b) = 1 and mu(a, b) = -sum of mu(a, c) over a <= c < b.  The
        columns go by down-set size, a linear extension of containment."""
        n = len(self.elements)
        mu = np.zeros((n, n), dtype=object)
        cols = [None] * n
        for b in sorted(range(n), key=lambda i: len(downs[i])):
            col = {b: 1}
            for c in downs[b]:
                if c != b:
                    for a, v in cols[c].items():
                        col[a] = col.get(a, 0) - v
            cols[b] = col
            for a, v in col.items():
                mu[a, b] = v
        return mu

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
        # meet table inside the down-set, by poset index
        meet = {}
        for i in down:
            for j in down:
                s = self.elements[i].intersect(self.elements[j])
                meet[(i, j)] = self.index_of(s)
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
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1 :]:
                if a.intersect(b) not in self._index:
                    return False
        return True


def _order_key(e):
    # a subgroup strictly inside another has strictly smaller (dim, torsion
    # order), so sorting by this key gives a linear extension of containment
    c = e.iso_class()
    return (c.torus_rank, c.torsion_order(), e.char_lattice)


def poset_close(seed, top):
    """Smallest intersection-closed family containing seed and top.

    Every member is top met with a subset of the seeds, so starting from
    {top}, each seed not yet a member is met with every member; after seed
    j the family holds the meets over subsets of the first j seeds.  A pass
    costs one intersection per member and adds at least one member, so n
    members cost at most 1 + ... + (n-1) = C(n, 2) intersections.

    Elements are ordered deterministically (dimension, torsion order,
    lattice entries), so the resulting poset is reproducible.
    """
    seed = tuple(seed)  # read an iterable once
    m = top.ambient_rank
    for s in seed:
        if s.ambient_rank != m:
            raise AmbientMismatch("seed ambient rank differs from top")
        if not top.contains(s):
            raise ValueError("top does not contain every seed element")
    family = {top}
    for s in seed:
        if s not in family:
            family |= {f.intersect(s) for f in family}

    ordered = sorted(family, key=_order_key)
    return SubgroupPoset(ordered, top)
