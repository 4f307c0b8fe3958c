"""Exact checks of the proven inequalities and partition identities.

Each check_* evaluates one theorem instance as a gap: the dominant term minus
the correction term minus the exact count. The theorems assert 0 <= gap and
gap <= upper for an explicit upper; both comparisons are exact integer
arithmetic, and a False flag in a report is a bug detector, not a tolerance.

The checks take the exact count, and the partition sums a count function
(a, b) -> count over {a+1, ..., b}, so they work with any source of counts:
the *_interval kernel or the planes of counting.count_plane.
"""

from typing import NamedTuple

from .counting import _check_interval, _check_k
from .exactmath import binomial


class BoundReport(NamedTuple):
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


def check_f(m: int, n: int, f: int) -> BoundReport:
    """Gap of f = f(m, n) below 2^(n-m) - 2^(floor(n/2) - floor(m/2))."""
    _check_interval(m, n)
    gap = (1 << (n - m)) - (1 << (n // 2 - m // 2)) - f
    upper = (2 * n) << ((n - m) // 3)
    return BoundReport("T1", m, n, None, gap, upper, gap >= 0, gap <= upper)


def check_fk(m: int, n: int, k: int, fk: int) -> BoundReport:
    """Gap of fk = fk(m, n, k) below C(n-m, k) - C(floor(n/2) - floor(m/2), k)."""
    _check_interval(m, n)
    _check_k(k)
    gap = binomial(n - m, k) - binomial(n // 2 - m // 2, k) - fk
    upper = n * binomial((n - m) // 3 + 2, k)
    tight = n * binomial((n - m) // 3, k)
    return BoundReport(
        "T2", m, n, k, gap, upper, gap >= 0, gap <= upper,
        tight_upper_holds=gap <= tight,
    )


def _check_p(n: int, p: int) -> None:
    if p < 2 or n % p:
        raise ValueError(f"p must be >= 2 and divide n, got p = {p} for n = {n}")


def check_phi(m: int, n: int, phi: int, p: int) -> BoundReport:
    """Gap of phi = phi(m, n) below 2^(n-m) - 2^(n/p - floor(m/p)), p the
    least prime divisor of n, from the caller; n = 1 has none."""
    _check_interval(m, n)
    _check_p(n, p)
    gap = (1 << (n - m)) - (1 << (n // p - m // p)) - phi
    upper = (2 * n) << ((n - m) // (p + 1))
    return BoundReport("T3", m, n, None, gap, upper, gap >= 0, gap <= upper)


def check_phik(m: int, n: int, k: int, phik: int, p: int) -> BoundReport:
    """Gap of phik = phik(m, n, k) below C(n-m, k) - C(n/p - floor(m/p), k),
    p as for check_phi."""
    _check_interval(m, n)
    _check_k(k)
    _check_p(n, p)
    gap = binomial(n - m, k) - binomial(n // p - m // p, k) - phik
    upper = n * binomial((n - m) // (p + 1) + 1, k)
    return BoundReport("T4", m, n, k, gap, upper, gap >= 0, gap <= upper)


def partition_sum_f(m: int, n: int, f) -> int:
    """Sum over d of f(floor(m/d), floor(n/d)), the gcd-class decomposition
    of all nonempty subsets of {m+1, ..., n}; f(a, b) counts the relatively
    prime subsets of {a+1, ..., b}, and only the d with floor(n/d) >
    floor(m/d) count. Both quotients are constant on blocks of consecutive
    d, so f is called once per block, O(sqrt(n)) times."""
    _check_interval(m, n)
    total = 0
    d = 1
    while d <= n:
        md, nd = m // d, n // d
        end = min(n // nd, m // md if md else n)
        if nd > md:
            total += (end - d + 1) * f(md, nd)
        d = end + 1
    return total


def partition_identity_f(m: int, n: int, f) -> bool:
    """Whether the gcd classes add back up to 2^(n-m) - 1."""
    return partition_sum_f(m, n, f) == (1 << (n - m)) - 1


def partition_sum_fk(m: int, n: int, k: int, fk) -> int:
    """Cardinality-k slice of partition_sum_f; fk(a, b) counts the
    relatively prime k-element subsets of {a+1, ..., b}."""
    _check_k(k)
    return partition_sum_f(m, n, fk)


def partition_identity_fk(m: int, n: int, k: int, fk) -> bool:
    """Whether the k-element gcd classes add back up to C(n-m, k)."""
    return partition_sum_fk(m, n, k, fk) == binomial(n - m, k)
