"""Exact checks of the proven inequalities and partition identities.

Each check_* evaluates one theorem instance as a gap: the dominant term minus
the correction term minus the exact count. The theorems assert 0 <= gap and
gap <= upper for an explicit upper; both comparisons are exact integer
arithmetic, and a False flag in a report is a bug detector, not a tolerance.

The checks take the exact counts, those of fk and phik as one row over k
per interval, and the partition sums a count function (a, b) -> count, or
row of counts, over {a+1, ..., b}, so they work with any source of counts:
the *_interval kernel or the planes of counting.count_plane.
"""

from itertools import repeat
from operator import add
from typing import NamedTuple

from .counting import _check_interval
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


def _choose(rows, x: int, size: int) -> list[int]:
    """C(x, k) for k = 1 .. size, from rows[x] = [C(x, 0), C(x, 1), ...],
    which stops at C(x, x) or at C(x, size) or past it; C(x, k) = 0 for
    k > x."""
    row = rows[x]
    return row[1 : size + 1] + [0] * (size + 1 - len(row))


def _row_checks(theorem: str, m: int, n: int, counts: list[int], p: int, lift: int, rows, tight):
    """The reports of check_fk (p = 2, lift = 2) and check_phik (lift = 1):
    the upper is n*C(floor((n-m)/(p+1)) + lift, k), and tight yields T2's
    candidate binomial, or None, for each k."""
    size, w = len(counts) - 1, n - m
    binomials = (_choose(rows, x, size) for x in (w, n // p - m // p, w // (p + 1) + lift))
    reports = []
    for k, f, c, t, b, u in zip(range(1, size + 1), counts[1:], tight, *binomials):
        gap, u = t - b - f, n * u
        reports.append(BoundReport(theorem, m, n, k, gap, u, gap >= 0, gap <= u,
                                   c if c is None else gap <= n * c))
    return reports


def check_fk(m: int, n: int, fk: list[int], rows) -> list[BoundReport]:
    """Gap of fk[k] = fk(m, n, k) below C(n-m, k) - C(floor(n/2) -
    floor(m/2), k), one report per k = 1 .. len(fk) - 1: fk is laid out as
    a row of count_plane, and fk[0] is not read. The binomials come from
    rows, as for _choose, so rows = pascal_rows(n + 2) serves every cell up
    to n."""
    _check_interval(m, n)
    return _row_checks("T2", m, n, fk, 2, 2, rows, _choose(rows, (n - m) // 3, len(fk) - 1))


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


def check_phik(m: int, n: int, phik: list[int], p: int, rows) -> list[BoundReport]:
    """Gap of phik[k] = phik(m, n, k) below C(n-m, k) - C(n/p - floor(m/p),
    k), one report per k = 1 .. len(phik) - 1; p as for check_phi, phik and
    rows as for check_fk."""
    _check_interval(m, n)
    _check_p(n, p)
    return _row_checks("T4", m, n, phik, p, 1, rows, repeat(None))


def partition_sum_f(m: int, n: int, f) -> int:
    """Sum over d of f(floor(m/d), floor(n/d)), the gcd-class decomposition
    of all nonempty subsets of {m+1, ..., n}; f(a, b) counts the relatively
    prime subsets of {a+1, ..., b}. It is partition_sum_fk of one-entry
    rows."""
    return partition_sum_fk(m, n, lambda a, b: [f(a, b)])[0]


def partition_identity_f(m: int, n: int, f) -> bool:
    """Whether the gcd classes add back up to 2^(n-m) - 1."""
    return partition_sum_f(m, n, f) == (1 << (n - m)) - 1


def partition_sum_fk(m: int, n: int, fk) -> list[int]:
    """partition_sum_f entry by entry: fk(a, b) is a row whose entry k
    counts the relatively prime k-element subsets of {a+1, ..., b}, and
    entry k of the sum is the k-element slice of the decomposition. A
    shorter row counts as 0 past its end, so the sum is as long as the
    longest row. Only the d with floor(n/d) > floor(m/d) count, and both
    quotients are constant on blocks of consecutive d, so fk is called once
    per block, O(sqrt(n)) times."""
    _check_interval(m, n)
    total: list[int] = []
    d = 1
    while d <= n:
        md, nd = m // d, n // d
        end = min(n // nd, m // md if md else n)
        if nd > md:
            row = fk(md, nd)
            if end > d:
                row = [(end - d + 1) * x for x in row]
            if len(row) > len(total):
                total += [0] * (len(row) - len(total))
            total[: len(row)] = map(add, total, row)
        d = end + 1
    return total


def partition_identity_fk(m: int, n: int, fk) -> bool:
    """Whether every k-element slice, k = 1 .. len(sum) - 1, adds back up
    to C(n-m, k); entry 0 of the rows is not compared."""
    total = partition_sum_fk(m, n, fk)
    return total[1:] == [binomial(n - m, k) for k in range(1, len(total))]
