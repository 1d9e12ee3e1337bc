"""The abelianized class ring over a point and its projection operators.

Elements are finite sums of isomorphism classes [G_m^k x K] with exact
rational-function (or, after evaluating at l = 1, rational) coefficients.
Weight functions act diagonally on that basis; the virtual-rank family is
the special case of indicator weights on the torus dimension.

A G-variety enters only through its stratification by exact diagonal-torus
stabilizer, as a StratifiedModel.  abelianize_model writes the quotient
stack as an element of the ring, combining the stratum classes with
block-torus data and the E coefficients; a weighted projection is a weight
applied to that element, its coefficients summed.  abelianize_bgl gives the
point stack BGL(m) the same way, grouped by block-size type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .coefficients import bgl_type_terms, e_coeff_gl
from .errors import NotAbelian, PoleAtOne, TooLarge
from .groups import (
    AbelianGroupClass,
    GeneralLinear,
    Torus,
    TorusSubgroup,
    enumerate_partitions,
    group_rank,
    partition_to_subgroup,
    torus,
    upsilon_group,
)
from .guards import MODEL_GL_GUARD, MODEL_TORUS_GUARD
from .ratfield import (
    ONE,
    ZERO,
    RatFunc,
    canonical_str,
    exact_fraction,
    in_lambda_circ,
    pi_eval,
    signed_sum,
)

__all__ = [
    "LambdaBarElem",
    "OmegaBarElem",
    "WeightFn",
    "StratifiedModel",
    "lbar_mul",
    "abelianize_bgl",
    "abelianize_model",
    "gen_euler",
    "pi_mu_lbar",
    "weight_mul",
    "model_total_upsilon",
    "upsilon_pi_mu",
    "pi_re_n",
]


def _sorted_terms(terms):
    return tuple(sorted(terms.items(), key=lambda kv: (kv[0].torus_rank, kv[0].torsion), reverse=True))


class _BarElem:
    """Shared finite-support mapping class -> coefficient.

    Subclasses fix the coefficient ring through the one hook _coerce;
    coefficients render through canonical_str in both rings.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for cls, coeff in items:
            coeff = self._coerce(coeff)
            acc[cls] = acc[cls] + coeff if cls in acc else coeff
        self.terms = {c: v for c, v in acc.items() if v}

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def term(cls, group_class, coeff=1):
        return cls(((group_class, coeff),))

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, _sorted_terms(self.terms)))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def coeff(self, cls):
        return self.terms.get(cls, self._coerce(0))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)({c: -v for c, v in self.terms.items()})

    def __str__(self):
        pieces = []
        for cls, coeff in _sorted_terms(self.terms):
            cstr = canonical_str(coeff)
            neg = cstr.startswith("-") and "(" not in cstr
            body = cstr[1:] if neg else cstr
            pieces.append((neg, "[%s]" % cls if body == "1" else "%s*[%s]" % (body, cls)))
        return signed_sum(pieces)

    def to_json(self):
        return [
            {"class": cls.to_json(), "coeff": canonical_str(coeff)}
            for cls, coeff in _sorted_terms(self.terms)
        ]


class LambdaBarElem(_BarElem):
    """Finite sum of classes [G_m^k x K] with rational-function coefficients."""

    @staticmethod
    def _coerce(v):
        if isinstance(v, RatFunc):
            return v
        return RatFunc(exact_fraction(v))


class OmegaBarElem(_BarElem):
    """Finite sum of classes with exact rational coefficients."""

    @staticmethod
    def _coerce(v):
        if isinstance(v, RatFunc):
            return v.as_fraction()
        return exact_fraction(v)


def lbar_mul(a, b):
    """Bilinear product: [T][T'] = [T x T'] on basis classes; the result
    has the coefficient ring of a."""
    return type(a)(
        (ca.product(cb), va * vb) for ca, va in a.terms.items() for cb, vb in b.terms.items()
    )


def gen_euler(x):
    """Evaluate every coefficient at l = 1, landing in the rational ring.

    Raises PoleAtOne naming the offending class if some coefficient is not
    regular there.
    """
    out = {}
    for cls, v in x.terms.items():
        if not in_lambda_circ(v):
            raise PoleAtOne(
                "coefficient of [%s] has a pole at l = 1: %s" % (cls, canonical_str(v)),
                offending_class=cls,
            )
        out[cls] = pi_eval(v)
    return OmegaBarElem(out)


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFn:
    """Rational weight on isomorphism classes of groups G_m^k x K.

    Internally a finite set of per-class overrides, a finite set of
    per-torus-rank weights and a default.  All four public rules embed in
    this carrier, and it is closed under pointwise product, which keeps
    composite weights exact and finite.
    """

    class_overrides: tuple = ()
    rank_weights: tuple = ()
    default: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(
            self,
            "class_overrides",
            tuple(sorted((c, exact_fraction(v)) for c, v in self.class_overrides)),
        )
        object.__setattr__(
            self,
            "rank_weights",
            tuple(sorted((index(r), exact_fraction(v)) for r, v in self.rank_weights)),
        )
        object.__setattr__(self, "default", exact_fraction(self.default))

    @classmethod
    def const_one(cls):
        return cls(default=Fraction(1))

    @classmethod
    def virtual_rank(cls, n):
        if n < 0:
            raise ValueError("rank must be nonnegative")
        return cls(rank_weights=((n, Fraction(1)),))

    @classmethod
    def iso_indicator(cls, target):
        return cls(class_overrides=((target, Fraction(1)),))

    @classmethod
    def table(cls, mapping, default=0):
        return cls(
            class_overrides=tuple(mapping.items()) if isinstance(mapping, dict) else tuple(mapping),
            default=default,
        )

    def _rank_value(self, rank):
        return next((v for r, v in self.rank_weights if r == rank), self.default)

    def evaluate(self, group_class):
        """Value on an isomorphism class; depends only on the class."""
        for c, v in self.class_overrides:
            if c == group_class:
                return v
        return self._rank_value(group_class.torus_rank)


def weight_mul(a, b):
    """Pointwise product of two weight functions."""
    classes = {c for c, _ in a.class_overrides} | {c for c, _ in b.class_overrides}
    ranks = {r for r, _ in a.rank_weights} | {r for r, _ in b.rank_weights}
    overrides = tuple((c, a.evaluate(c) * b.evaluate(c)) for c in sorted(classes))
    rank_weights = tuple((r, a._rank_value(r) * b._rank_value(r)) for r in sorted(ranks))
    return WeightFn(
        class_overrides=overrides,
        rank_weights=rank_weights,
        default=a.default * b.default,
    )


def pi_mu_lbar(mu, x):
    """Apply the weight diagonally: c*[T] becomes mu([T])*c*[T], in the
    coefficient ring of x."""
    out = {}
    for cls, v in x.terms.items():
        w = mu.evaluate(cls)
        if w:
            out[cls] = v * w
    return type(x)(out)


def abelianize_bgl(m):
    """Class of the point stack with GL(m) automorphisms, written in the
    torus basis: sum over block tori Q of E(GL(m), Q) * [G_m^blocks],
    collected by block-size type (bgl_type_terms)."""
    if m < 1:
        raise ValueError("m must be positive")
    return LambdaBarElem(
        (AbelianGroupClass(rank), coeff) for rank, coeff in bgl_type_terms(m)
    )


# ---------------------------------------------------------------------------
# stratified quotient models


@dataclass(frozen=True)
class StratifiedModel:
    """A quotient of a variety by GL(m) or by the rank-m torus, recorded as
    the list of (exact diagonal-torus stabilizer, class of that stratum).

    Stabilizers are pairwise distinct subgroups of the model's torus; the
    sum of the stratum classes is the class of the whole variety.
    """

    group: object
    strata: tuple

    @property
    def ambient_rank(self):
        return group_rank(self.group)

    def __post_init__(self):
        if not isinstance(self.group, (GeneralLinear, Torus)):
            raise ValueError("model group must be GL(m) or a torus")
        if isinstance(self.group, Torus) and self.group.cls.torsion:
            raise ValueError("model torus must be split")
        if self.ambient_rank < 1:
            raise ValueError("model group must have positive rank")
        strata = []
        seen = set()
        for stab, cls in self.strata:
            if not isinstance(stab, TorusSubgroup):
                raise TypeError("stabilizer must be a TorusSubgroup")
            if stab.ambient_rank != self.ambient_rank:
                raise ValueError("stabilizer ambient rank mismatch")
            if stab in seen:
                raise ValueError("duplicate exact stabilizer %s" % (stab,))
            seen.add(stab)
            if not isinstance(cls, RatFunc):
                cls = RatFunc(exact_fraction(cls))
            strata.append((stab, cls))
        object.__setattr__(self, "strata", tuple(strata))


def model_total_upsilon(x):
    """Class of the underlying variety: the sum over strata."""
    return sum((cls for _, cls in x.strata), ZERO)


def pi_re_n(x, n):
    """Sub-model of strata whose stabilizer has torus dimension n.

    Only defined for torus models: the stratification sees diagonal
    stabilizers only, which for a nonabelian group is not the stabilizer
    rank of the quotient's points.
    """
    if not isinstance(x.group, Torus):
        raise NotAbelian("real-rank projection needs an abelian model group")
    kept = tuple((s, c) for s, c in x.strata if s.dim == n)
    return StratifiedModel(x.group, kept)


def abelianize_model(x):
    """Class of the quotient stack in the torus basis: the sum over block
    tori Q' and strata (P', c) of
      c * E(GL(m), Q') / Upsilon(Q') * [iso(P' meet Q')],
    with Upsilon(Q') = (l - 1)^rank(Q').  A torus model has the single
    block torus Q' = full torus with E = 1."""
    m = x.ambient_rank
    if isinstance(x.group, GeneralLinear):
        if m > MODEL_GL_GUARD:
            raise TooLarge("GL models guarded at rank <= %d" % MODEL_GL_GUARD)
        blocks = [
            (partition_to_subgroup(q), e_coeff_gl(q) / upsilon_group(torus(q.n_blocks)))
            for q in enumerate_partitions(m)
        ]
    else:
        if m > MODEL_TORUS_GUARD:
            raise TooLarge("torus models guarded at rank <= %d" % MODEL_TORUS_GUARD)
        blocks = [(TorusSubgroup.full_torus(m), ONE / upsilon_group(torus(m)))]
    return LambdaBarElem(
        (stab.intersect(sub_q).iso_class(), cls * e_over_ups)
        for sub_q, e_over_ups in blocks
        for stab, cls in x.strata
    )


def upsilon_pi_mu(x, mu):
    """Scalar class of the weighted projection of the quotient stack: the
    coefficient sum of the weight applied to abelianize_model(x)."""
    return sum(pi_mu_lbar(mu, abelianize_model(x)).terms.values(), ZERO)
