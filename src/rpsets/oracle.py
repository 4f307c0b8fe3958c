"""Ground truth from the definitions alone: the gcd and the cardinality of
every nonempty subset of the interval, tallied by a dynamic program over the
elements instead of by enumeration. No Mobius function, sieve or closed
form is used. It accepts intervals up to HARD_WIDTH_CAP wide."""

from functools import lru_cache
from math import gcd

from .counting import Family, _check_cell

HARD_WIDTH_CAP = 30


@lru_cache(maxsize=64)
def _profile(m: int, n: int) -> dict[tuple[int, int], int]:
    """(gcd, cardinality) -> count over all nonempty subsets of {m+1, ..., n}.

    Each element x is added in turn: every subset counted so far stays, and
    with x it moves from (g, c) to (gcd(g, x), c + 1). The empty set starts
    as (0, 0), since gcd(0, x) = x. One profile serves every family and
    every k for the interval. Cached results are shared; callers must not
    mutate them.
    """
    profile = {(0, 0): 1}
    for x in range(m + 1, n + 1):
        for (g, card), count in list(profile.items()):
            key = (gcd(g, x), card + 1)
            profile[key] = profile.get(key, 0) + count
    del profile[0, 0]
    return profile


def oracle_count(family: Family, m: int, n: int, k: int | None = None) -> int:
    """Count straight from the definitions, by the gcd profile of the
    interval's subsets; k is the cardinality for FK and PHIK."""
    family = Family(family)  # _check_cell formats family.value
    _check_cell(family, m, n, k)
    if n - m > HARD_WIDTH_CAP:
        raise ValueError(f"interval width {n - m} exceeds oracle width cap {HARD_WIDTH_CAP}")
    # F and FK keep gcd 1, PHI and PHIK a gcd coprime to n; gcd(g, 0) = g
    coprime_to = n if family in (Family.PHI, Family.PHIK) else 0
    return sum(count for (g, card), count in _profile(m, n).items()
               if gcd(g, coprime_to) == 1 and k in (None, card))
