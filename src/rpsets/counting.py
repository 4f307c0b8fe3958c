"""The four interval counting functions, evaluated as Mobius-weighted sums.

For the integer interval {m+1, ..., n} with 0 <= m < n:

  f(m, n)       nonempty subsets whose elements have gcd 1
  fk(m, n, k)   the same, restricted to cardinality k
  phi(m, n)     nonempty subsets whose gcd is relatively prime to n
  phik(m, n, k) the same, restricted to cardinality k

All four are one sum, Sigma mu(d) * g(floor(n/d) - floor(m/d)), with
g(w) = C(w, k) for fk and phik and g(w) = 2^w - 1 for phi. f takes
g(w) = 2^w - 1 - w, the sets of two or more elements, plus the singleton {1}
when m = 0. f and fk stop at their _reach, past which every width is below
2 or k. Past sqrt(n) both take the d in blocks with common quotients,
weighted by differences of the Mertens function M. phi and phik sum over
the squarefree divisors of n only. Each family reads every k of a cell from
one width -> Sigma mu(d) map. Every value is an exact int.

count_plane(n) gives all four counts for every m < n and every k at once,
from a recurrence in m instead of the sums.
"""

from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from itertools import islice, repeat
from math import comb, isqrt
from operator import add, floordiv, getitem, mul, sub
from typing import NamedTuple

from .exactmath import FACTOR_PAD, FACTOR_SLOPE, binomial, pascal_rows
from .sieve import SieveTable, prime_factors, squarefree_by_sign


class Family(str, Enum):
    F = "F"
    FK = "FK"
    PHI = "PHI"
    PHIK = "PHIK"


K_FAMILIES = (Family.FK, Family.PHIK)
# The families whose sums read the Mobius/Mertens table; phi and phik need
# only the factorization of n.
SIEVED_FAMILIES = (Family.F, Family.FK)


def _check_interval(m: int, n: int) -> None:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m >= n:
        raise ValueError(f"m < n required (got m={m}, n={n})")


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _check_cell(family: Family, m: int, n: int, k: int | None) -> None:
    """The interval, and a k exactly when the family takes one."""
    _check_interval(m, n)
    if family in K_FAMILIES:
        if k is None:
            raise ValueError(f"family {family.value} requires k")
        _check_k(k)
    elif k is not None:
        raise ValueError(f"family {family.value} does not take k")


def _mobius_sum(
    m: int, n: int, weights: dict[int, int], k: int | None, total: int = 0
) -> int:
    """total plus the sum of weight * g(width) over a width -> summed-mu map,
    with g(w) = 2^w - 1, the nonempty sets, when k is None and g(w) = C(w, k)
    otherwise.

    Widths are taken in ascending order, so the (possibly huge) accumulator
    stays small while most of the terms are added. The C(w, k) come from
    math.comb directly when k*k < FACTOR_SLOPE * FACTOR_PAD, as binomial
    would send every width to it anyway, which saves a Python call per
    width; fk at n = 10^6 sums about 1,250 widths. 2^w - 1 takes one shift
    per width, and the total first drops the sum of the weights, one C-level
    pass.
    """
    choose = comb if k is not None and k * k < FACTOR_SLOPE * FACTOR_PAD else binomial
    if k is None:
        total -= sum(weights.values())
    for width in sorted(weights):
        weight = weights[width]
        if weight:
            total += weight << width if k is None else weight * choose(width, k)
    if total < 0:
        raise RuntimeError(f"negative count {total} for m={m}, n={n}")
    return total


def _mertens(
    x: int, table: SieveTable, memo: dict[int, int], signs: tuple[list[int], list[int]]
) -> int:
    """M(x) = mu(1) + ... + mu(x), from the table when x is inside it, else
    from the split of Sigma_{d<=x} M(floor(x/d)) = 1 at t = min(2*isqrt(x),
    table.limit): with D = floor(x/(t+1)),

        M(x) = 1 + D*M(t) - Sigma_{d=2..D} M(floor(x/d))
                 - Sigma_{q<=t} mu(q)*floor(x/q),

    since the d > D have floor(x/d) <= t and each q <= t is counted by
    floor(x/q) - D of them. Only the d with floor(x/d) past the table, at
    most x/limit of them, recurse, in blocks of a common quotient; the other
    M are a single pass over the table. The q-sum is the floor(x/q) of the
    q with mu(q) = 1 less those of the q with mu(q) = -1, read from signs =
    squarefree_by_sign(top, table) for a top >= 2*isqrt(x). A q-term costs
    less than a read of M, hence t = 2*isqrt(x) rather than isqrt(x): M(10^8)
    from a table of 10^4 took 0.38 s against 0.46 s. memo keeps the values
    found above the table."""
    if x <= table.limit:
        return table.mertens[x]
    value = memo.get(x)
    if value is None:
        limit, mertens = table.limit, table.mertens
        t = min(2 * isqrt(x), limit)
        top = x // (t + 1)
        deep = x // (limit + 1)  # floor(x/d) > limit exactly when d <= deep
        plus, minus = (islice(qs, bisect_right(qs, t)) for qs in signs)
        value = (
            1
            + top * mertens[t]
            - sum(map(getitem, repeat(mertens), map(floordiv, repeat(x), range(deep + 1, top + 1))))
            - sum(map(floordiv, repeat(x), plus))
            + sum(map(floordiv, repeat(x), minus))
        )
        d = 2
        while d <= deep:
            q = x // d
            end = x // q
            value -= (end - d + 1) * _mertens(q, table, memo, signs)
            d = end + 1
        memo[x] = value
    return value


def _interval_weights(m: int, n: int, d_hi: int, table: SieveTable) -> dict[int, int]:
    """width -> Sigma mu(d) over 1 <= d <= d_hi with n//d - m//d = width.

    Up to isqrt(n), where a block of common quotients seldom holds more than
    one d, d runs one at a time through the table's mu values. Past that,
    the d with common quotients n//d and m//d form blocks, each weighted by
    a difference of Mertens values, so there are O(sqrt(n)) steps.
    """
    weights: dict[int, int] = {}
    mobius = table.mobius
    single = min(d_hi, isqrt(n), table.limit)
    for d in range(1, single + 1):
        mu = mobius[d]
        if mu:
            width = n // d - m // d
            weights[width] = weights.get(width, 0) + mu
    limit, mertens = table.limit, table.mertens
    # only a table shorter than d_hi needs _mertens, whose q-sums read mu(q)
    # for q <= 2*isqrt(x) <= 2*isqrt(d_hi)
    signs = squarefree_by_sign(2 * isqrt(d_hi), table) if d_hi > limit else None
    memo: dict[int, int] = {}
    below = mertens[single]
    d = single + 1
    while d <= d_hi:
        nq, mq = n // d, m // d
        end = min(n // nq, m // mq if mq else n, d_hi)
        upto = mertens[end] if end <= limit else _mertens(end, table, memo, signs)
        if upto != below:
            width = nq - mq
            weights[width] = weights.get(width, 0) + upto - below
        below = upto
        d = end + 1
    return weights


@lru_cache(maxsize=256)
def _squarefree_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for every squarefree divisor d of n."""
    pairs = [(1, 1)]
    for p, _ in prime_factors(n):
        pairs += [(d * p, -mu) for d, mu in pairs]
    return tuple(pairs)


@lru_cache(maxsize=1)
def _divisor_weights(m: int, n: int) -> dict[int, int]:
    """width -> Sigma mu(d) over the divisors d of n with that width. The
    last cell's map is kept, so phi and every k of phik share it; no caller
    changes it."""
    weights: dict[int, int] = {}
    for d, mu in _squarefree_divisors(n):
        width = n // d - m // d
        weights[width] = weights.get(width, 0) + mu
    return weights


def _reach(m: int, n: int, k: int | None) -> int:
    """The d up to which fk, and f (k None) as at k = 2, read mu and M: 0 when
    k = 1 or k > n - m, where the sum over the sets of 2 or k elements is empty."""
    j = 2 if k is None else k
    # floor(n/d) - floor(m/d) <= floor((n-m)/d) + 1, so once d*(j-1) > n-m
    # every width is below j and the terms are all zero.
    d_hi = (n - m) // (j - 1) if 1 < j <= n - m else 0
    # Raised to the end of its block of n//d: the added d are past the cut
    # and add nothing, and M(d_hi) is then one of the points M(n//i) that
    # the blocks read anyway, not a third family of memo points d_hi//i.
    return d_hi and n // (n // d_hi)


# The last F or FK cell's (m, n, reach, weights). Keyed on (m, n) alone:
# every correct table holds the same mu and M, so the map does not depend on
# which one built it. A map read past a count's own reach serves it too, as
# the d past that reach only add widths below its k (2 for f), whose terms
# are 0.
_last_cell: tuple[int, int, int, dict[int, int]] = (0, 0, 0, {})


def _cell_weights(m: int, n: int, d_hi: int, table: SieveTable) -> dict[int, int]:
    """_interval_weights(m, n, d_hi, table), or the last cell's map when it
    is (m, n) and reaches d_hi, so every k of a cell shares one map."""
    global _last_cell
    last_m, last_n, reach, weights = _last_cell
    if (last_m, last_n) != (m, n) or reach < d_hi:
        weights = _interval_weights(m, n, d_hi, table)
        _last_cell = m, n, d_hi, weights
    return weights


def f_interval(m: int, n: int, table: SieveTable) -> int:
    """Number of nonempty relatively prime subsets of {m+1, ..., n}.

    The cell's width -> weight map stays in memory after the call, for the
    next f or fk of the same cell, until a count of another cell replaces
    it: at m = 0 it holds about 2*sqrt(n) widths."""
    _check_interval(m, n)
    d_hi = _reach(m, n, None)
    if not d_hi:
        return int(m == 0)  # n - m = 1, where the only set of gcd 1 is {1}
    weights = _cell_weights(m, n, d_hi, table)
    # g(w) = 2^w - 1 - w: the kernel's 2^w - 1 less the singletons, and {1}
    return _mobius_sum(m, n, weights, None, (m == 0) - sum(map(mul, weights, weights.values())))


def fk_interval(m: int, n: int, k: int, table: SieveTable) -> int:
    """Number of relatively prime k-element subsets of {m+1, ..., n}.
    Keeps the cell's weight map after the call, as f_interval does."""
    _check_interval(m, n)
    _check_k(k)
    d_hi = _reach(m, n, k)
    if not d_hi:
        return int(m == 0 and k == 1)  # {1} is the one coprime singleton
    return _mobius_sum(m, n, _cell_weights(m, n, d_hi, table), k)


def phi_interval(m: int, n: int, table: SieveTable) -> int:
    """Number of nonempty subsets of {m+1, ..., n} whose gcd is coprime to n.
    Needs only n's factorization; the table is not used."""
    _check_interval(m, n)
    return _mobius_sum(m, n, _divisor_weights(m, n), None)


def phik_interval(m: int, n: int, k: int, table: SieveTable) -> int:
    """Number of k-element subsets of {m+1, ..., n} whose gcd is coprime to n.
    Needs only n's factorization; the table is not used."""
    _check_interval(m, n)
    _check_k(k)
    if k > n - m:
        return 0
    return _mobius_sum(m, n, _divisor_weights(m, n), k)


class CountPlane(NamedTuple):
    """Every count over the intervals {m+1, ..., n} of one n.

    f[m] and phi[m] for 0 <= m < n, and fk[m][k] and phik[m][k] for
    0 <= k <= n - m, where k = 0 counts nothing: fk[m][0] = phik[m][0] = 0.
    """

    n: int
    f: list[int]
    fk: list[list[int]]
    phi: list[int]
    phik: list[list[int]]


def count_plane(n: int) -> CountPlane:
    """All four counts of every interval {m+1, ..., n}, 0 <= m < n, and
    every k, from one pass down m = n-1, ..., 0.

    The subsets of {a, ..., n}, a = m+1, that hold a are {a} + B with B a
    subset of {a+1, ..., n}. There are n//d - a/d multiples of d in that
    range, so by Mobius inversion over the squarefree d | a
        f(m, n) = f(m+1, n) + Sigma_{d|a} mu(d) 2^(n//d - a/d),  f(n, n) = 0,
    and fk takes C(n//d - a/d, k-1) in place of the power of 2. phi and
    phik keep only the d that also divide n. Each step adds one row
    C(x, .) per squarefree d | a. pascal_rows gives the rows of all x < n
    up front, as d = 1 reads every one; no sieve or Mertens value is needed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rows = pascal_rows(n - 1)
    f, phi = [0] * n, [0] * n
    fk: list[list[int]] = [[]] * n
    phik: list[list[int]] = [[]] * n
    f_m = phi_m = 0
    fk_m = phik_m = [0]  # the empty interval {n+1, ..., n}
    for m in range(n - 1, -1, -1):
        a = m + 1
        fk_m, phik_m = fk_m + [0], phik_m + [0]
        for d, mu in _squarefree_divisors(a):
            x = n // d - a // d
            row = rows[x]
            step = add if mu > 0 else sub
            f_m = step(f_m, 1 << x)
            fk_m[1 : x + 2] = map(step, fk_m[1 : x + 2], row)
            if n % d == 0:
                phi_m = step(phi_m, 1 << x)
                phik_m[1 : x + 2] = map(step, phik_m[1 : x + 2], row)
        f[m], fk[m], phi[m], phik[m] = f_m, fk_m, phi_m, phik_m
    return CountPlane(n, f, fk, phi, phik)
