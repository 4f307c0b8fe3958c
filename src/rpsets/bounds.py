"""Exact checks of the proven inequalities and partition identities.

Each check_* evaluates one theorem instance as a gap: the dominant term minus
the correction term minus the exact count. The theorems assert 0 <= gap and
gap <= upper for an explicit upper; both comparisons are exact integer
arithmetic, and a False flag in a report is a bug detector, not a tolerance.
"""

from dataclasses import dataclass

from .counting import (
    _check_interval,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from .exactmath import binomial
from .sieve import SieveTable, smallest_prime_divisor


@dataclass(frozen=True)
class BoundReport:
    """Exact gap record for one theorem instance.

    tight_upper_holds is observational only: for T2 it tracks a strictly
    tighter unproven candidate bound and is never asserted; for the other
    theorems it stays None.
    """

    theorem: str
    m: int
    n: int
    k: int | None
    gap: int
    upper: int
    holds_lower: bool
    holds_upper: bool
    tight_upper_holds: bool | None = None


def check_f(m: int, n: int, table: SieveTable) -> BoundReport:
    """Gap of f(m, n) below 2^(n-m) - 2^(floor(n/2) - floor(m/2))."""
    gap = (1 << (n - m)) - (1 << (n // 2 - m // 2)) - f_interval(m, n, table)
    upper = (2 * n) << ((n - m) // 3)
    return BoundReport("T1", m, n, None, gap, upper, gap >= 0, gap <= upper)


def check_fk(m: int, n: int, k: int, table: SieveTable) -> BoundReport:
    """Gap of fk(m, n, k) below C(n-m, k) - C(floor(n/2) - floor(m/2), k)."""
    gap = binomial(n - m, k) - binomial(n // 2 - m // 2, k) - fk_interval(m, n, k, table)
    upper = n * binomial((n - m) // 3 + 2, k)
    tight = n * binomial((n - m) // 3, k)
    return BoundReport(
        "T2", m, n, k, gap, upper, gap >= 0, gap <= upper,
        tight_upper_holds=gap <= tight,
    )


def check_phi(m: int, n: int, table: SieveTable) -> BoundReport:
    """Gap of phi(m, n) below 2^(n-m) - 2^(n/p - floor(m/p)), p the least
    prime divisor of n. Requires n >= 2."""
    p = smallest_prime_divisor(n)
    gap = (1 << (n - m)) - (1 << (n // p - m // p)) - phi_interval(m, n, table)
    upper = (2 * n) << ((n - m) // (p + 1))
    return BoundReport("T3", m, n, None, gap, upper, gap >= 0, gap <= upper)


def check_phik(m: int, n: int, k: int, table: SieveTable) -> BoundReport:
    """Gap of phik(m, n, k) below C(n-m, k) - C(n/p - floor(m/p), k)."""
    p = smallest_prime_divisor(n)
    gap = binomial(n - m, k) - binomial(n // p - m // p, k) - phik_interval(m, n, k, table)
    upper = n * binomial((n - m) // (p + 1) + 1, k)
    return BoundReport("T4", m, n, k, gap, upper, gap >= 0, gap <= upper)


def _partition_sum(m: int, n: int, count_fn) -> int:
    """Sum over d of count_fn(floor(m/d), floor(n/d)), each distinct pair
    counted once. The d = 1 term is count_fn(m, n), which checks k."""
    _check_interval(m, n)
    cache: dict[tuple[int, int], int] = {}
    total = 0
    for d in range(1, n + 1):
        md, nd = m // d, n // d
        if nd <= md:
            continue
        key = (md, nd)
        val = cache.get(key)
        if val is None:
            val = cache[key] = count_fn(md, nd)
        total += val
    return total


def partition_sum_f(m: int, n: int, table: SieveTable) -> int:
    """Sum over d of f(floor(m/d), floor(n/d)), the gcd-class decomposition
    of all nonempty subsets of {m+1, ..., n}."""
    return _partition_sum(m, n, lambda a, b: f_interval(a, b, table))


def partition_identity_f(m: int, n: int, table: SieveTable) -> bool:
    """Whether the gcd classes add back up to 2^(n-m) - 1."""
    return partition_sum_f(m, n, table) == (1 << (n - m)) - 1


def partition_sum_fk(m: int, n: int, k: int, table: SieveTable) -> int:
    """Cardinality-k slice of partition_sum_f."""
    return _partition_sum(m, n, lambda a, b: fk_interval(a, b, k, table))


def partition_identity_fk(m: int, n: int, k: int, table: SieveTable) -> bool:
    """Whether the k-element gcd classes add back up to C(n-m, k)."""
    return partition_sum_fk(m, n, k, table) == binomial(n - m, k)
