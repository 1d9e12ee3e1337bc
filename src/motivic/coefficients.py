"""The rational-function coefficients attached to GL(m) block tori.

Production path: the scalar coefficient E(m) is a closed sum over the
integer partitions of m, and every other block-torus coefficient is the
product form (1/m!) * prod over blocks of |b|! * E(|b|).  Neither builds
the block-torus lattice.  The defining Mobius-weighted sum over that
lattice is the oracle the tests compare this path with.  The two
recursions and the consistency identity are independent formulas, so
agreement between them is a genuine cross-check rather than a tautology.
Consistency is checked through the block-size-type terms of BGL(m)
(bgl_type_terms); the same sum over every set partition lives on as the
projection of the point-stack model (stackcalc.upsilon_pi_mu).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .errors import InternalInvariant, NotComparable, TooLarge
from .groups import GeneralLinear, SetPartition, upsilon_group
from .ratfield import Polynomial, RatFunc, in_lambda_circ, pi_eval

__all__ = [
    "e_coeff_gl",
    "f_coeff_gl",
    "ECoeffTable",
    "e_recursion_residual",
    "f_recursion_residual",
    "consistency_residual",
    "bgl_type_terms",
    "m_big_coeff",
    "compositions",
]

E_GUARD = 7  # eff-table --max 8 is a documented refusal, pinned by tests and bench goldens
RECURSION_GUARD = 8  # 2^m ordered compositions on the left side
CONSISTENCY_GUARD = 6

L = RatFunc.ell()


@lru_cache(maxsize=None)
def _upsilon_gl_blocks(sizes):
    acc = RatFunc.one()
    for s in sizes:
        acc = acc * upsilon_group(GeneralLinear(s))
    return acc


def integer_partitions(m):
    """Block-size types of the set partitions of {1..m}: the compositions
    of m with nondecreasing parts."""
    return [c for c in compositions(m) if list(c) == sorted(c)]


def type_weight(sizes):
    """1 / prod of mult_j!, mult_j the number of blocks of size j: the count
    of set partitions with these block sizes over their Weyl index."""
    return Fraction(1, prod(factorial(n) for n in Counter(sizes).values()))


@lru_cache(maxsize=None)
def e_coeff_gl(m, q):
    """Coefficient E of the block torus of q inside GL(m).

    By definition Upsilon(Q) times the sum, over block tori Q' containing
    Q, of mu(Q, Q') / (WeylIndex(Q') * Upsilon(C(Q'))).  Above the scalar
    torus (one block) the block tori form a partition lattice with
    mu = (-1)^(k-1) (k-1)! on a Q' of k blocks, so grouping the Q' by block
    sizes gives E(m) as a sum over the integer partitions of m.  Any other
    Q gets the product form (1/m!) * prod over blocks of |b|! * E(|b|).
    """
    if not isinstance(q, SetPartition) or q.m != m:
        raise ValueError("partition does not match m = %d" % m)
    if m > E_GUARD:
        raise TooLarge("E coefficients guarded at m <= %d" % E_GUARD)
    if q.n_blocks == 1:
        acc = RatFunc.zero()
        for sizes in integer_partitions(m):
            k = len(sizes)
            scalar = (-1) ** (k - 1) * factorial(k - 1) * type_weight(sizes)
            acc = acc + RatFunc.from_fraction(scalar) / _upsilon_gl_blocks(sizes)
        result = (L - 1) * acc
    else:
        result = RatFunc.from_fraction(Fraction(1, factorial(m)))
        for b in q.blocks:
            result = result * factorial(len(b)) * scalar_e(len(b))
    if not in_lambda_circ(result):
        raise InternalInvariant(
            "E(GL(%d), %s) left the subring regular at l = 1" % (m, q)
        )
    return result


def scalar_e(m):
    """E(m): the coefficient of the scalar torus in GL(m)."""
    return e_coeff_gl(m, SetPartition.one_block(m))


def bgl_type_terms(m):
    """The torus-basis terms of BGL(m), one per block-size type.

    The sum over block tori Q of E(GL(m), Q) * [G_m^blocks(Q)], with the
    block tori of type lambda (an integer partition of m) taken together:
    they share one E and together give the pair
    (len(lambda), type_weight(lambda) * prod_i E(lambda_i)).
    """
    for sizes in integer_partitions(m):
        coeff = RatFunc.from_fraction(type_weight(sizes))
        for k in sizes:
            coeff = coeff * scalar_e(k)
        yield len(sizes), coeff


def f_coeff_gl(m, q):
    """Value of the E coefficient at l = 1; equals the product of block
    contributions (1/m!) * prod |b|! * F(|b|)."""
    return pi_eval(e_coeff_gl(m, q))


@dataclass(frozen=True)
class ECoeffTable:
    """Scalar E(m) and F(m) for 1 <= m <= max_m, built from the closed form.

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


def _check_level(m, table):
    if m < 1:
        raise ValueError("m must be positive")
    if m > RECURSION_GUARD:
        raise TooLarge("recursion residual guarded at m <= %d" % RECURSION_GUARD)
    if table.max_m < m + 1:
        raise ValueError("table must be populated through m + 1 = %d" % (m + 1))


def _composition_sum(n, sign, w):
    """Sum over compositions c of n of sign^len(c) / len(c)! * prod of w[k]
    over the parts k of c."""
    total = 0
    for comp in compositions(n):
        term = Fraction(sign ** len(comp), factorial(len(comp)))
        for k in comp:
            term = term * w[k]
        total = total + term
    return total


def e_recursion_residual(m, table):
    """Left minus right side of the E recursion at level m; must vanish.

    Left: compositions of m+1 weighted by 1/n!.  Right: compositions of m
    weighted by (-1)^n/n!, all times l^(-m); every factor carries
    (l^k - 1)/(l - 1) * E(k).
    """
    _check_level(m, table)
    w = {k: _ell_cyclotomic_like(k) * table.e(k) for k in range(1, m + 2)}
    return _composition_sum(m + 1, 1, w) - _composition_sum(m, -1, w) / L**m


def f_recursion_residual(m, table):
    """Rational-number shadow of the E recursion; must vanish."""
    _check_level(m, table)
    w = {k: k * table.f(k) for k in range(1, m + 2)}
    return _composition_sum(m + 1, 1, w) - _composition_sum(m, -1, w)


def consistency_residual(m):
    """1/Upsilon(GL(m)) minus the sum over block tori Q of
    E(GL(m), Q)/Upsilon(Q), summed by block-size type; identically zero."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > CONSISTENCY_GUARD:
        raise TooLarge("consistency residual guarded at m <= %d" % CONSISTENCY_GUARD)
    total = RatFunc.zero()
    for rank, coeff in bgl_type_terms(m):
        total = total + coeff / (L - 1) ** rank
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
