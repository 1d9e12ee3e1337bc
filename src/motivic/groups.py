"""Torus subgroups as integer character lattices, and descriptors for the
groups the calculator works with.

A closed subgroup S of the m-torus is stored through the lattice L(S) of
characters vanishing on it, kept in row Hermite normal form.  Containment
of subgroups reverses lattice inclusion and intersection of subgroups is
lattice sum, so everything reduces to integer row reduction, and the
canonical forms make equality deterministic.  Only iso_class takes a
Smith form.

Covered groups: tori (possibly with finite abelian component group),
GL(m), and finite products of those.  The block tori of GL(m)'s diagonal
torus are indexed by set partitions of {1..m}: a finer partition
corresponds to a larger subgroup, so the singleton partition labels the
full torus and a coarser partition a smaller subgroup.

Everything here is exact Python integers and needs no numpy.  The posets
of subgroups live in subgroups, which imports numpy; PartitionLattice and
q_lattice_gl, the block-torus posets, stay reachable from here through
the module __getattr__, which loads subgroups on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, prod
from operator import index

from .errors import AmbientMismatch, TooLarge
from .guards import PARTITION_GUARD
from .ratfield import ELL, ONE

__all__ = [
    "hnf",
    "snf_divisors",
    "TorusSubgroup",
    "AbelianGroupClass",
    "SetPartition",
    "GroupDesc",
    "Torus",
    "GeneralLinear",
    "Product",
    "product",
    "torus",
    "upsilon_group",
    "group_rank",
    "enumerate_partitions",
    "bell_number",
    "partition_to_subgroup",
    "centralizer_gl",
    "weyl_index_gl",
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
# set partitions


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..m} into blocks; canonical form is blocks sorted,
    each block sorted, blocks ordered by least element."""

    m: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", index(self.m))
        if self.m < 1:
            raise ValueError("set partitions need m >= 1")
        blocks = tuple(tuple(sorted(index(x) for x in b)) for b in self.blocks)
        if any(not b for b in blocks):
            raise ValueError("empty block")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        seen = [x for b in blocks for x in b]
        if sorted(seen) != list(range(1, self.m + 1)):
            raise ValueError("blocks must partition 1..%d" % self.m)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def singletons(cls, m):
        return cls(m, tuple((i,) for i in range(1, m + 1)))

    @classmethod
    def one_block(cls, m):
        return cls(m, (tuple(range(1, m + 1)),))

    @property
    def n_blocks(self):
        return len(self.blocks)

    def block_sizes(self):
        return tuple(sorted(len(b) for b in self.blocks))

    def to_json(self):
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, obj):
        m = sum(len(b) for b in obj)
        return cls(m, tuple(tuple(b) for b in obj))

    def __str__(self):
        return "".join("{%s}" % ",".join(map(str, b)) for b in self.blocks)


def _partition(m, blocks):
    """The SetPartition of {1..m} with these blocks, already canonical, as
    given."""
    out = SetPartition.__new__(SetPartition)
    object.__setattr__(out, "m", m)
    object.__setattr__(out, "blocks", blocks)
    return out


def bell_number(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_partitions(m):
    """All set partitions of {1..m}, canonical order; Bell(m) of them."""
    m = index(m)
    if m < 1:
        raise ValueError("m must be positive")
    if m > PARTITION_GUARD:
        raise TooLarge("partition enumeration guarded at m <= %d" % PARTITION_GUARD)

    def grow(k):
        # k joins a block or starts one at the end: each block stays sorted
        # and the blocks stay ordered by least element, so canonical
        if k == 0:
            yield ()
            return
        for rest in grow(k - 1):
            yield rest + ((k,),)
            for i in range(len(rest)):
                yield rest[:i] + (rest[i] + (k,),) + rest[i + 1 :]

    return [_partition(m, blocks) for blocks in sorted(grow(m))]


# ---------------------------------------------------------------------------
# group descriptors


class GroupDesc:
    """Base for the tagged union Torus | GeneralLinear | Product."""

    __slots__ = ()


@dataclass(frozen=True)
class Torus(GroupDesc):
    cls: AbelianGroupClass

    def __str__(self):
        k = self.cls.torus_rank
        torsion = "".join(" x Z/%d" % d for d in self.cls.torsion)
        return ("Gm" if k == 1 else "Gm^%d" % k) + torsion

    def to_json(self):
        return {"kind": "torus", "rank": self.cls.torus_rank, "torsion": list(self.cls.torsion)}


@dataclass(frozen=True)
class GeneralLinear(GroupDesc):
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", index(self.m))
        if self.m < 1:
            raise ValueError("GL rank must be >= 1")

    def __str__(self):
        return "GL(%d)" % self.m

    def to_json(self):
        return {"kind": "gl", "m": self.m}


@dataclass(frozen=True)
class Product(GroupDesc):
    factors: tuple

    def __post_init__(self):
        flat = []
        for f in self.factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            elif isinstance(f, GroupDesc):
                flat.append(f)
            else:
                raise TypeError("not a group descriptor: %r" % (f,))
        if not flat:
            raise ValueError("empty product")
        object.__setattr__(self, "factors", tuple(flat))

    def __str__(self):
        return " * ".join(str(f) for f in self.factors)

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


def product(*factors):
    """Product descriptor, collapsed when there is a single factor."""
    p = Product(tuple(factors))
    if len(p.factors) == 1:
        return p.factors[0]
    return p


def torus(rank, torsion=()):
    return Torus(AbelianGroupClass(rank, tuple(torsion)))


def group_from_json(obj):
    kind = obj["kind"]
    if kind == "torus":
        return torus(obj["rank"], tuple(obj["torsion"]))
    if kind == "gl":
        return GeneralLinear(obj["m"])
    if kind == "product":
        return Product(tuple(group_from_json(f) for f in obj["factors"]))
    raise ValueError("unknown group kind %r" % (kind,))


@lru_cache(maxsize=None)
def upsilon_group(g):
    """Motivic class of the group: multiplicative, and for GL(m) the
    standard product of l-power and (l^k - 1) factors."""
    if isinstance(g, Torus):
        order = g.cls.torsion_order()
        return order * (ELL - 1) ** g.cls.torus_rank
    if isinstance(g, GeneralLinear):
        m = g.m
        return prod((ELL**k - 1 for k in range(1, m + 1)), start=ELL ** (m * (m - 1) // 2))
    if isinstance(g, Product):
        return prod((upsilon_group(f) for f in g.factors), start=ONE)
    raise TypeError("not a group descriptor: %r" % (g,))


def group_rank(g):
    """Dimension of a maximal torus."""
    if isinstance(g, Torus):
        return g.cls.torus_rank
    if isinstance(g, GeneralLinear):
        return g.m
    if isinstance(g, Product):
        return sum(group_rank(f) for f in g.factors)
    raise TypeError("not a group descriptor: %r" % (g,))


# ---------------------------------------------------------------------------
# block tori of GL(m)


def partition_to_subgroup(p):
    """Block torus of the diagonal: coordinates equal within each block.

    Its vanishing characters are spanned by e_i - e_last(b) for the other
    i of each block b.  Sorted by i these rows are already in Hermite
    normal form: pivot 1 at i, and the -1 in a column no row pivots on.
    So the subgroup takes them as given, with no hnf pass.
    """
    rows = []
    for i, last in sorted((i, b[-1]) for b in p.blocks for i in b[:-1]):
        row = [0] * p.m
        row[i - 1], row[last - 1] = 1, -1
        rows.append(tuple(row))
    return _subgroup(p.m, tuple(rows))


def centralizer_gl(p):
    """Centralizer in GL(m) of the block torus of p: one GL factor per block."""
    return product(*(GeneralLinear(len(b)) for b in p.blocks))


def weyl_index_gl(p):
    """Index of the block-preserving permutations inside S_m.

    A monomial matrix centralizes the block torus exactly when its
    permutation maps each block to itself, so the index is the multinomial
    m! / prod |b|!.
    """
    return factorial(p.m) // prod(factorial(len(b)) for b in p.blocks)


def __getattr__(name):
    # every CLI command imports this module; only the posets load numpy
    if name in ("PartitionLattice", "q_lattice_gl"):
        from . import subgroups

        return getattr(subgroups, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
