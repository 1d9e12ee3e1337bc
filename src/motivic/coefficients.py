"""The rational-function coefficients attached to GL(m) block tori.

Production path: E(m), the scalar coefficient, is the x^m coefficient of
(l - 1) * log G, G(x) = sum_n x^n / Upsilon(GL(n)), by the log recurrence;
every other block-torus coefficient is the product form: prod over blocks
of E(|b|), over the Weyl index.  Neither builds the block-torus lattice; the
defining Mobius-weighted sum over it is the test oracle.  Consistency is
E = (l - 1) * log G itself, so it checks the block-size-type products
(bgl_type_terms) against the recurrence; the E recursion (both sides exp
coefficients of the library's own E) and the Mobius oracle check E
independently.  scalar_e is the layer's one size gate: tables, block-size
terms and residuals all reach E through it.  The same sum over every set
partition lives on as the point-stack model's abelianization
(stackcalc.abelianize_model), which projections weight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .errors import InternalInvariant, NotComparable, TooLarge
from .groups import GeneralLinear, SetPartition, torus, upsilon_group, weyl_index_gl
from .guards import E_GUARD
from .ratfield import ELL, ONE, ZERO, RatFunc, in_lambda_circ, pi_eval

__all__ = [
    "e_coeff_gl",
    "ECoeffTable",
    "e_recursion_residual",
    "f_recursion_residual",
    "consistency_residual",
    "bgl_type_terms",
    "m_big_coeff",
]


# No caller is left, but bench/tracer.py reads its cache_info(); it goes
# with the next benchmark change (ROADMAP direction 1).
@lru_cache(maxsize=None)
def _upsilon_gl_blocks(sizes):
    acc = ONE
    for s in sizes:
        acc = acc * upsilon_group(GeneralLinear(s))
    return acc


def integer_partitions(m, largest=None):
    """Block-size types of the set partitions of {1..m}: the partitions of
    m as nonincreasing tuples, with no part above largest."""
    if m == 0:
        yield ()
    for first in range(min(m, largest or m), 0, -1):
        for rest in integer_partitions(m - first, first):
            yield (first,) + rest


def type_weight(sizes):
    """1 / prod of mult_j!, mult_j the number of blocks of size j: the count
    of set partitions with these block sizes over their Weyl index."""
    return Fraction(1, prod(factorial(n) for n in Counter(sizes).values()))


@lru_cache(maxsize=None)
def e_coeff_gl(q):
    """Coefficient E of the block torus of q inside GL(m), m = q.m.

    By definition Upsilon(Q) times the sum, over block tori Q' containing
    Q, of mu(Q, Q') / (WeylIndex(Q') * Upsilon(C(Q'))).  Above the scalar
    torus (one block) the block tori form a partition lattice with
    mu = (-1)^(k-1) (k-1)! on a Q' of k blocks, and that sum, grouped by
    block sizes, is the multinomial expansion of the x^m coefficient of
    (l - 1) * log G, which the log recurrence gives in O(m^2).  Any other
    Q gets the product form: prod over blocks of E(|b|), divided by the
    Weyl index m! / prod |b|!.
    """
    m = q.m
    if m > E_GUARD:
        raise TooLarge("E coefficients guarded at m <= %d" % E_GUARD)
    if q.n_blocks == 1:
        acc = ZERO
        for k in range(1, m):
            acc = acc + k * scalar_e(k) / upsilon_group(GeneralLinear(m - k))
        result = (ELL - 1) / upsilon_group(GeneralLinear(m)) - acc / m
    else:
        result = ONE / weyl_index_gl(q)
        for b in q.blocks:
            result = result * scalar_e(len(b))
    if not in_lambda_circ(result):
        raise InternalInvariant(
            "E(GL(%d), %s) left the subring regular at l = 1" % (m, q)
        )
    return result


def scalar_e(m):
    """E(m): the coefficient of the scalar torus in GL(m)."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > E_GUARD:
        raise TooLarge("E coefficients guarded at m <= %d" % E_GUARD)
    return e_coeff_gl(SetPartition.one_block(m))


def _e_rows(n):
    """E(1..n) as a tuple, for tables and the recursion residuals."""
    # from the top down: scalar_e(n) refuses a size past E_GUARD before any
    # work, and on an accepted size its recurrence caches every smaller row
    top = scalar_e(n)
    return tuple(scalar_e(m) for m in range(1, n)) + (top,)


def bgl_type_terms(m):
    """The torus-basis terms of BGL(m), one per block-size type.

    The sum over block tori Q of E(GL(m), Q) * [G_m^blocks(Q)], with the
    block tori of type lambda (an integer partition of m) taken together:
    they share one E and together give the pair
    (len(lambda), type_weight(lambda) * prod_i E(lambda_i)).  The first
    type is (m,), so E(m) refuses a size past E_GUARD before any other row.
    """
    if m < 1:
        raise ValueError("m must be positive")
    for sizes in integer_partitions(m):
        coeff = RatFunc(type_weight(sizes))
        for k in sizes:
            coeff = coeff * scalar_e(k)
        yield len(sizes), coeff


@dataclass(frozen=True)
class ECoeffTable:
    """Scalar E(m) and F(m) for 1 <= m <= max_m, built by the log recurrence.

    Every E(m) is regular at l = 1 (e_coeff_gl raises InternalInvariant
    otherwise) and F(m) is its value there.
    """

    max_m: int
    scalar_e: tuple
    scalar_f: tuple

    @classmethod
    def build(cls, max_m):
        es = _e_rows(max_m)
        return cls(max_m, es, tuple(pi_eval(e) for e in es))

    def e(self, m):
        return self.scalar_e[m - 1]

    def f(self, m):
        return self.scalar_f[m - 1]


def _exp_coeffs(a, n):
    """c_0..c_n of exp(sum_k a[k] x^k), by c_0 = 1 and
    j * c_j = sum over k of k * a[k] * c_(j-k); a[k] is RatFunc or Fraction."""
    c = [1]
    for j in range(1, n + 1):
        c.append(sum(k * a[k] * c[j - k] for k in range(1, j + 1)) / j)
    return c


def _recursion_residual(m, weight, scale):
    """[x^(m+1)] exp(W) - scale * [x^m] exp(-W) with W = sum_k weight(k, E(k))
    x^k over the library's own E(1..m + 1); E(m + 1) bounds the level by
    E_GUARD - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    w = {k: weight(k, e) for k, e in enumerate(_e_rows(m + 1), 1)}
    right = _exp_coeffs({k: -v for k, v in w.items()}, m)[m]
    return _exp_coeffs(w, m + 1)[m + 1] - scale * right


def e_recursion_residual(m):
    """Left minus right side of the E recursion at level m; must vanish:
    weights (l^k - 1)/(l - 1) * E(k) and the right side scaled by l^(-m)."""
    return _recursion_residual(m, lambda k, e: (ELL**k - 1) / (ELL - 1) * e, ONE / ELL**m)


def f_recursion_residual(m):
    """Rational-number shadow of the E recursion (weights k * F(k), F(k) =
    pi_eval(E(k))); must vanish."""
    return _recursion_residual(m, lambda k, e: k * pi_eval(e), 1)


def consistency_residual(m):
    """1/Upsilon(GL(m)) minus the sum over block tori Q of
    E(GL(m), Q)/Upsilon(Q), summed by block-size type; identically zero."""
    total = ZERO
    for rank, coeff in bgl_type_terms(m):
        total = total + coeff / upsilon_group(torus(rank))
    return ONE / upsilon_group(GeneralLinear(m)) - total


def m_big_coeff(p_poset, q_poset, r_poset, P, Q, R, weyl_inverse):
    """Double Mobius sum over the two stabilizer posets.

    weyl_inverse * sum over P' in p_poset below P and Q' in q_poset below Q
    with P' meet Q' = R of mu(P', P) * mu(Q', Q).  Vanishes unless P is the
    least p_poset element over P meet Q and likewise for Q.
    """
    ip = p_poset.index_of(P)
    iq = q_poset.index_of(Q)
    r_poset.index_of(R)  # membership check only
    meet_pq = P.intersect(Q)
    if not meet_pq.contains(R):
        raise NotComparable("R is not contained in the intersection of P and Q")
    total = 0
    for a in p_poset.down_set(P):
        Pp = p_poset.elements[a]
        mu_p = p_poset.mobius_by_index(a, ip)
        if mu_p == 0:
            continue
        for b in q_poset.down_set(Q):
            Qp = q_poset.elements[b]
            if Pp.intersect(Qp) != R:
                continue
            mu_q = q_poset.mobius_by_index(b, iq)
            total += mu_p * mu_q
    return Fraction(weyl_inverse) * total
