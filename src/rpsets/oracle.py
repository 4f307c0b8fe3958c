"""Brute-force ground truth: enumerate every nonempty subset of the interval
and apply the definitions directly. Exponential in the interval width, so a
width guard keeps it honest."""

from functools import lru_cache
from math import gcd

from .counting import Family, _check_cell, _check_interval

HARD_WIDTH_CAP = 30


def _check_max_width(max_width: int) -> None:
    if not 1 <= max_width <= HARD_WIDTH_CAP:
        raise ValueError(f"max_width must be in 1..{HARD_WIDTH_CAP}, got {max_width}")


def _check_width(m: int, n: int, max_width: int) -> None:
    """The guard on the enumeration, which visits 2**(n-m) subsets."""
    _check_max_width(max_width)
    if n - m > max_width:
        raise ValueError(
            f"interval width {n - m} exceeds oracle width cap {max_width}"
        )


@lru_cache(maxsize=64)
def _profile(m: int, n: int) -> dict[tuple[int, int], int]:
    """(gcd, cardinality) -> count over all nonempty subsets of {m+1, ..., n}.

    One enumeration serves every family and every k for the interval. Cached
    results are shared; callers must not mutate them.
    """
    values = list(range(m + 1, n + 1))
    profile: dict[tuple[int, int], int] = {}
    for mask in range(1, 1 << (n - m)):
        g = 0
        rest = mask
        while rest:
            low = rest & -rest
            g = gcd(g, values[low.bit_length() - 1])
            if g == 1:
                break  # gcd of a superset of elements stays 1
            rest ^= low
        key = (g, mask.bit_count())
        profile[key] = profile.get(key, 0) + 1
    return profile


def oracle_count(
    family: Family, m: int, n: int, k: int | None = None, max_width: int = 24
) -> int:
    """Count by direct enumeration, straight from the definitions; k is the
    cardinality for FK and PHIK."""
    family = Family(family)  # a plain "F" would match no branch below
    _check_cell(family, m, n, k)
    _check_width(m, n, max_width)
    profile = _profile(m, n)
    if family is Family.F:
        return sum(c for (g, _), c in profile.items() if g == 1)
    if family is Family.FK:
        return sum(c for (g, card), c in profile.items() if g == 1 and card == k)
    if family is Family.PHI:
        return sum(c for (g, _), c in profile.items() if gcd(g, n) == 1)
    return sum(
        c for (g, card), c in profile.items() if gcd(g, n) == 1 and card == k
    )


def oracle_gcd_class_counts(m: int, n: int, max_width: int = 24) -> dict[int, int]:
    """Subset count per exact gcd value; the values sum to 2**(n-m) - 1.

    Only classes that actually occur appear as keys.
    """
    _check_interval(m, n)
    _check_width(m, n, max_width)
    out: dict[int, int] = {}
    for (g, _), c in _profile(m, n).items():
        out[g] = out.get(g, 0) + c
    return out
