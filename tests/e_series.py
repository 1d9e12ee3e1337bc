"""E(m) past E_GUARD, for the tests that check structure no accepted input
reaches yet: the guard edge cases, the E(m) oracles and the GCDHEU
regression in the consistency sum."""

from functools import lru_cache

from motivic.coefficients import ECoeffTable
from motivic.groups import GeneralLinear, upsilon_group
from motivic.guards import E_GUARD
from motivic.ratfield import ELL, ZERO


@lru_cache(maxsize=None)
def scalar_e_through(n):
    """E(1..n) by the log recurrence, past E_GUARD, as a tuple.  The terms
    are taken over the common denominator Upsilon(GL(m)), which keeps them
    polynomial."""
    es = list(ECoeffTable.build(min(n, E_GUARD)).scalar_e)
    for m in range(E_GUARD + 1, n + 1):
        ups = upsilon_group(GeneralLinear(m))
        acc = ZERO
        for k in range(1, m):
            acc = acc + k * es[k - 1] * (ups / upsilon_group(GeneralLinear(m - k)))
        es.append((ELL - 1 - acc / m) / ups)
    return tuple(es)
