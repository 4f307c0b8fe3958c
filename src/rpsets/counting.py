"""The four interval counting functions, evaluated as Mobius-weighted sums.

For the integer interval {m+1, ..., n} with 0 <= m < n:

  f(m, n)       nonempty subsets whose elements have gcd 1
  fk(m, n, k)   the same, restricted to cardinality k
  phi(m, n)     nonempty subsets whose gcd is relatively prime to n
  phik(m, n, k) the same, restricted to cardinality k

All four are one sum, Sigma mu(d) * g(floor(n/d) - floor(m/d)), with
g(w) = 2^w - 1 (the nonempty subsets of a w-element set) for f and phi and
g(w) = C(w, k) for fk and phik. f and fk sum over all d up to n, taken in
blocks of d with common quotients and weighted by differences of the Mertens
function M; phi and phik sum over the squarefree divisors of n only. Every
value is an exact int.
"""

from enum import Enum
from functools import lru_cache
from math import isqrt

from .exactmath import binomial
from .sieve import SieveTable, prime_factors


class Family(str, Enum):
    F = "F"
    FK = "FK"
    PHI = "PHI"
    PHIK = "PHIK"


K_FAMILIES = (Family.FK, Family.PHIK)


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


def _mobius_sum(m: int, n: int, weights: dict[int, int], g) -> int:
    """Sum of weight * g(width) over a width -> summed-mu map.

    Widths are taken in ascending order, so the (possibly huge) accumulator
    stays small while most of the terms are added.
    """
    total = 0
    for width in sorted(weights):
        weight = weights[width]
        if weight:
            total += weight * g(width)
    if total < 0:
        raise RuntimeError(f"negative count {total} for m={m}, n={n}")
    return total


def _mertens(x: int, table: SieveTable, memo: dict[int, int]) -> int:
    """M(x) = mu(1) + ... + mu(x), from the table when x is inside it, else
    by M(x) = 1 - Sigma_{d=2..x} M(floor(x/d)), summed over the blocks of d
    with a common quotient. memo keeps the values found above the table."""
    if x <= table.limit:
        return table.mertens[x]
    value = memo.get(x)
    if value is None:
        value = 1
        d = 2
        while d <= x:
            q = x // d
            end = x // q
            value -= (end - d + 1) * _mertens(q, table, memo)
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
    memo: dict[int, int] = {}
    below = table.mertens[single]
    d = single + 1
    while d <= d_hi:
        nq, mq = n // d, m // d
        end = min(n // nq, m // mq if mq else n, d_hi)
        upto = _mertens(end, table, memo)
        if upto != below:
            width = nq - mq
            weights[width] = weights.get(width, 0) + upto - below
        below = upto
        d = end + 1
    return weights


@lru_cache(maxsize=4096)
def _squarefree_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for every squarefree divisor d of n."""
    pairs = [(1, 1)]
    for p, _ in prime_factors(n):
        pairs += [(d * p, -mu) for d, mu in pairs]
    return tuple(pairs)


def _divisor_weights(m: int, n: int) -> dict[int, int]:
    """width -> Sigma mu(d) over the divisors d of n with that width."""
    weights: dict[int, int] = {}
    for d, mu in _squarefree_divisors(n):
        width = n // d - m // d
        weights[width] = weights.get(width, 0) + mu
    return weights


def _nonempty(width: int) -> int:
    return (1 << width) - 1


def f_interval(m: int, n: int, table: SieveTable) -> int:
    """Number of nonempty relatively prime subsets of {m+1, ..., n}."""
    _check_interval(m, n)
    return _mobius_sum(m, n, _interval_weights(m, n, n, table), _nonempty)


def fk_interval(m: int, n: int, k: int, table: SieveTable) -> int:
    """Number of relatively prime k-element subsets of {m+1, ..., n}."""
    _check_interval(m, n)
    _check_k(k)
    if k > n - m:
        return 0  # an (n-m)-element set has no k-subsets
    # floor(n/d) - floor(m/d) <= floor((n-m)/d) + 1, so once d*(k-1) > n-m
    # every binomial argument is below k and the terms are all zero.
    d_hi = n if k == 1 else min(n, (n - m) // (k - 1))
    weights = _interval_weights(m, n, d_hi, table)
    return _mobius_sum(m, n, weights, lambda w: binomial(w, k))


def phi_interval(m: int, n: int, table: SieveTable) -> int:
    """Number of nonempty subsets of {m+1, ..., n} whose gcd is coprime to n.
    Needs only n's factorization; the table is not used."""
    _check_interval(m, n)
    return _mobius_sum(m, n, _divisor_weights(m, n), _nonempty)


def phik_interval(m: int, n: int, k: int, table: SieveTable) -> int:
    """Number of k-element subsets of {m+1, ..., n} whose gcd is coprime to n.
    Needs only n's factorization; the table is not used."""
    _check_interval(m, n)
    _check_k(k)
    if k > n - m:
        return 0
    return _mobius_sum(m, n, _divisor_weights(m, n), lambda w: binomial(w, k))
