"""Brute-force ground truth: enumerate every nonempty subset of the interval
and apply the definitions directly. Exponential in the interval width, so a
width guard keeps it honest."""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .counting import CountQuery, Family, _check_interval

HARD_WIDTH_CAP = 30


@dataclass(frozen=True)
class OracleConfig:
    """Width guard for the enumeration (2**(n-m) subsets per interval)."""

    max_width: int = 24

    def __post_init__(self) -> None:
        if not 1 <= self.max_width <= HARD_WIDTH_CAP:
            raise ValueError(
                f"max_width must be in 1..{HARD_WIDTH_CAP}, got {self.max_width}"
            )


DEFAULT_CONFIG = OracleConfig()


def _check_width(m: int, n: int, config: OracleConfig) -> None:
    width = n - m
    if width > config.max_width:
        raise ValueError(
            f"interval width {width} exceeds oracle width cap {config.max_width}"
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


def oracle_count(query: CountQuery, config: OracleConfig = DEFAULT_CONFIG) -> int:
    """Count by direct enumeration, straight from the definitions."""
    _check_width(query.m, query.n, config)
    profile = _profile(query.m, query.n)
    n, k = query.n, query.k
    if query.family is Family.F:
        return sum(c for (g, _), c in profile.items() if g == 1)
    if query.family is Family.FK:
        return sum(c for (g, card), c in profile.items() if g == 1 and card == k)
    if query.family is Family.PHI:
        return sum(c for (g, _), c in profile.items() if gcd(g, n) == 1)
    return sum(
        c for (g, card), c in profile.items() if gcd(g, n) == 1 and card == k
    )


def oracle_gcd_class_counts(
    m: int, n: int, config: OracleConfig = DEFAULT_CONFIG
) -> dict[int, int]:
    """Subset count per exact gcd value; the values sum to 2**(n-m) - 1.

    Only classes that actually occur appear as keys.
    """
    _check_interval(m, n)
    _check_width(m, n, config)
    out: dict[int, int] = {}
    for (g, _), c in _profile(m, n).items():
        out[g] = out.get(g, 0) + c
    return out
