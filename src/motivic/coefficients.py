"""The rational-function coefficients attached to GL(m) block tori.

e_coeff_gl is the authoritative path: the Mobius-weighted sum over the
block-torus lattice.  The product form, the two recursions and the
consistency identity are kept as independent formulas so that agreement
between them is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import InternalInvariant, NotComparable, TooLarge
from .groups import GeneralLinear, SetPartition, q_lattice_gl, upsilon_group
from .ratfield import Polynomial, RatFunc, in_lambda_circ, pi_eval

__all__ = [
    "e_coeff_gl",
    "e_product_formula",
    "f_coeff_gl",
    "ECoeffTable",
    "e_recursion_residual",
    "f_recursion_residual",
    "consistency_residual",
    "m_big_coeff",
    "compositions",
]

E_GUARD = 7          # block-torus lattice bound, Bell(7) = 877
RECURSION_GUARD = 8  # 2^m ordered compositions on the left side
CONSISTENCY_GUARD = 6

L = RatFunc.ell()


@lru_cache(maxsize=None)
def _upsilon_gl_blocks(sizes):
    acc = RatFunc.one()
    for s in sizes:
        acc = acc * upsilon_group(GeneralLinear(s))
    return acc


@lru_cache(maxsize=None)
def e_coeff_gl(m, q):
    """Coefficient E of the block torus of q inside GL(m).

    Direct evaluation: Upsilon(Q) times the sum, over block tori Q'
    containing Q, of  mu(Q, Q') / (WeylIndex(Q') * Upsilon(C(Q'))).
    Terms are grouped by (block-size multiset, mu) before any rational
    arithmetic; the grouping is bookkeeping only.
    """
    if not isinstance(q, SetPartition) or q.m != m:
        raise ValueError("partition does not match m = %d" % m)
    if m > E_GUARD:
        raise TooLarge("E coefficients guarded at m <= %d" % E_GUARD)
    lat = q_lattice_gl(m)
    iq = lat.index_of_partition(q)
    groups = {}
    for j in range(len(lat)):
        if not lat.leq_by_index(iq, j):
            continue
        mu = lat.mobius_by_index(iq, j)
        if mu == 0:
            continue
        p = lat.partitions[j]
        key = (p.block_sizes(), mu)
        groups[key] = groups.get(key, 0) + 1
    acc = RatFunc.zero()
    for (sizes, mu), count in sorted(groups.items()):
        weyl = factorial(m)
        for s in sizes:
            weyl //= factorial(s)
        scalar = Fraction(count * mu, weyl)
        acc = acc + RatFunc.from_fraction(scalar) / _upsilon_gl_blocks(sizes)
    result = (L - 1) ** q.n_blocks * acc
    if not in_lambda_circ(result):
        raise InternalInvariant(
            "E(GL(%d), %s) left the subring regular at l = 1" % (m, q)
        )
    return result


def scalar_e(m):
    """E(m): the coefficient of the scalar torus in GL(m)."""
    return e_coeff_gl(m, SetPartition.one_block(m))


def e_product_formula(m, q):
    """Product form: (1/m!) * prod over blocks of |b|! * E(|b|)."""
    if not isinstance(q, SetPartition) or q.m != m:
        raise ValueError("partition does not match m = %d" % m)
    if max(len(b) for b in q.blocks) > E_GUARD:
        raise TooLarge("scalar E guarded at block size <= %d" % E_GUARD)
    coeff = Fraction(1, factorial(m))
    acc = RatFunc.from_fraction(coeff)
    for b in q.blocks:
        acc = acc * factorial(len(b)) * scalar_e(len(b))
    return acc


def f_coeff_gl(m, q):
    """Value of the E coefficient at l = 1; equals the product of block
    contributions (1/m!) * prod |b|! * F(|b|)."""
    return pi_eval(e_coeff_gl(m, q))


@dataclass(frozen=True)
class ECoeffTable:
    """Scalar E(m) and F(m) for 1 <= m <= max_m, built from the direct sum.

    Construction re-checks the two stored invariants: every E(m) is regular
    at l = 1 and F(m) is its value there.
    """

    max_m: int
    scalar_e: tuple
    scalar_f: tuple

    @classmethod
    def build(cls, max_m):
        if max_m < 1:
            raise ValueError("max_m must be positive")
        if max_m > E_GUARD:
            raise TooLarge("E table guarded at m <= %d" % E_GUARD)
        es = []
        fs = []
        for m in range(1, max_m + 1):
            e = scalar_e(m)
            if not in_lambda_circ(e):
                raise InternalInvariant("E(%d) not regular at l = 1" % m)
            es.append(e)
            fs.append(pi_eval(e))
        return cls(max_m, tuple(es), tuple(fs))

    def e(self, m):
        return self.scalar_e[m - 1]

    def f(self, m):
        return self.scalar_f[m - 1]


def compositions(n):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def _ell_cyclotomic_like(k):
    # (l^k - 1)/(l - 1) = l^(k-1) + ... + 1
    return RatFunc(Polynomial((1,) * k))


def e_recursion_residual(m, table):
    """Left minus right side of the E recursion at level m; must vanish.

    Left: compositions of m+1 weighted by 1/n!.  Right: compositions of m
    weighted by (-1)^n/n!, all times l^(-m); every factor carries
    (l^k - 1)/(l - 1) * E(k).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > RECURSION_GUARD:
        raise TooLarge("recursion residual guarded at m <= %d" % RECURSION_GUARD)
    if table.max_m < m + 1:
        raise ValueError("table must be populated through m + 1 = %d" % (m + 1))
    lhs = RatFunc.zero()
    for comp in compositions(m + 1):
        term = RatFunc.from_fraction(Fraction(1, factorial(len(comp))))
        for k in comp:
            term = term * _ell_cyclotomic_like(k) * table.e(k)
        lhs = lhs + term
    rhs = RatFunc.zero()
    for comp in compositions(m):
        n = len(comp)
        term = RatFunc.from_fraction(Fraction((-1) ** n, factorial(n)))
        for k in comp:
            term = term * _ell_cyclotomic_like(k) * table.e(k)
        rhs = rhs + term
    rhs = rhs / L**m
    return lhs - rhs


def f_recursion_residual(m, table):
    """Rational-number shadow of the E recursion; must vanish."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > RECURSION_GUARD:
        raise TooLarge("recursion residual guarded at m <= %d" % RECURSION_GUARD)
    if table.max_m < m + 1:
        raise ValueError("table must be populated through m + 1 = %d" % (m + 1))
    lhs = Fraction(0)
    for comp in compositions(m + 1):
        term = Fraction(1, factorial(len(comp)))
        for k in comp:
            term *= k * table.f(k)
        lhs += term
    rhs = Fraction(0)
    for comp in compositions(m):
        n = len(comp)
        term = Fraction((-1) ** n, factorial(n))
        for k in comp:
            term *= k * table.f(k)
        rhs += term
    return lhs - rhs


def consistency_residual(m):
    """1/Upsilon(GL(m)) minus the sum over block tori Q of
    E(GL(m), Q)/Upsilon(Q); identically zero."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > CONSISTENCY_GUARD:
        raise TooLarge("consistency residual guarded at m <= %d" % CONSISTENCY_GUARD)
    lat = q_lattice_gl(m)
    total = RatFunc.zero()
    for q in lat.partitions:
        total = total + e_coeff_gl(m, q) / (L - 1) ** q.n_blocks
    return RatFunc.one() / upsilon_group(GeneralLinear(m)) - total


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
