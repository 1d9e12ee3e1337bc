"""Descriptors for the groups the calculator works with.

Covered: tori (possibly with finite abelian component group), GL(m), and
finite products of those.  The block tori of GL(m)'s diagonal torus are
indexed by set partitions of {1..m}: a finer partition corresponds to a
larger subgroup, so the singleton partition labels the full torus.  All
poset questions go through subgroup containment rather than partition
refinement, which keeps the order direction in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from operator import index

from .errors import TooLarge
from .ratfield import Polynomial, RatFunc
from .subgroups import AbelianGroupClass, SubgroupPoset, TorusSubgroup

__all__ = [
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
    "q_lattice_gl",
    "PartitionLattice",
    "centralizer_gl",
    "weyl_index_gl",
]

PARTITION_GUARD = 9  # Bell(9) = 21147
Q_LATTICE_GUARD = 7  # Bell(7) = 877


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
        blocks = tuple(tuple(sorted(index(x) for x in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        seen = [x for b in blocks for x in b]
        if sorted(seen) != list(range(1, self.m + 1)):
            raise ValueError("blocks must partition 1..%d" % self.m)
        if any(not b for b in blocks):
            raise ValueError("empty block")
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
    if m < 1:
        raise ValueError("m must be positive")
    if m > PARTITION_GUARD:
        raise TooLarge("partition enumeration guarded at m <= %d" % PARTITION_GUARD)

    def grow(k):
        if k == 0:
            yield []
            return
        for rest in grow(k - 1):
            yield rest + [[k]]
            for i in range(len(rest)):
                yield rest[:i] + [rest[i] + [k]] + rest[i + 1 :]

    parts = [SetPartition(m, tuple(tuple(b) for b in blocks)) for blocks in grow(m)]
    parts.sort(key=lambda p: p.blocks)
    return parts


# ---------------------------------------------------------------------------
# group descriptors


class GroupDesc:
    """Base for the tagged union Torus | GeneralLinear | Product."""

    __slots__ = ()


@dataclass(frozen=True)
class Torus(GroupDesc):
    cls: AbelianGroupClass

    def __str__(self):
        return str(self.cls)

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
        return " x ".join(str(f) for f in self.factors)

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
        return RatFunc(order) * (RatFunc.ell() - 1) ** g.cls.torus_rank
    if isinstance(g, GeneralLinear):
        m = g.m
        acc = RatFunc(Polynomial.monomial(m * (m - 1) // 2))
        for k in range(1, m + 1):
            acc = acc * (RatFunc(Polynomial.monomial(k)) - 1)
        return acc
    if isinstance(g, Product):
        acc = RatFunc.one()
        for f in g.factors:
            acc = acc * upsilon_group(f)
        return acc
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

    Its vanishing characters are spanned by e_i - e_j for i, j in a block.
    """
    rows = []
    for b in p.blocks:
        base = b[0]
        for i in b[1:]:
            row = [0] * p.m
            row[base - 1] = 1
            row[i - 1] = -1
            rows.append(tuple(row))
    return TorusSubgroup(p.m, tuple(rows))


class PartitionLattice(SubgroupPoset):
    """The block-torus poset of GL(m) with its partition labels.

    Block tori are closed under intersection (intersecting imposes the
    union of the equalities, which is the common coarsening), so the
    family is a valid SubgroupPoset without an explicit closure pass.
    Ranks above Q_LATTICE_GUARD are refused before any enumeration.
    """

    def __init__(self, m):
        if m > Q_LATTICE_GUARD:
            raise TooLarge("block-torus lattice guarded at m <= %d" % Q_LATTICE_GUARD)
        parts = enumerate_partitions(m)
        elements = [partition_to_subgroup(p) for p in parts]
        super().__init__(elements, TorusSubgroup.full_torus(m))
        self.m = m
        self.partitions = tuple(parts)


@lru_cache(maxsize=None)
def q_lattice_gl(m):
    """Poset of all block tori of GL(m); containment order, top = full torus."""
    return PartitionLattice(m)


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
