"""The four interval counting functions, evaluated as Mobius-weighted sums.

For the integer interval {m+1, ..., n} with 0 <= m < n:

  f(m, n)       nonempty subsets whose elements have gcd 1
  fk(m, n, k)   the same, restricted to cardinality k
  phi(m, n)     nonempty subsets whose gcd is relatively prime to n
  phik(m, n, k) the same, restricted to cardinality k

All four are one sum, Sigma mu(d) * g(floor(n/d) - floor(m/d)), with
g(w) = 2^w - 1 (the nonempty subsets of a w-element set) for f and phi and
g(w) = C(w, k) for fk and phik. f and fk sum over all d up to n, phi and
phik over the divisors of n only. Every value is an exact int.
"""

from dataclasses import dataclass
from enum import Enum

from .exactmath import binomial
from .sieve import SieveTable, divisors


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


def _check_table(n: int, table: SieveTable) -> None:
    if n > table.limit:
        raise ValueError(f"n={n} exceeds sieve limit {table.limit}")


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


@dataclass(frozen=True)
class CountQuery:
    """One counting request; k is required for FK/PHIK and forbidden otherwise."""

    family: Family
    m: int
    n: int
    k: int | None = None

    def __post_init__(self) -> None:
        _check_interval(self.m, self.n)
        if self.family in K_FAMILIES:
            if self.k is None:
                raise ValueError(f"family {self.family.value} requires k")
            _check_k(self.k)
        elif self.k is not None:
            raise ValueError(f"family {self.family.value} does not take k")


def _mobius_sum(m: int, n: int, ds, mobius: list[int], g) -> int:
    """Sum of mu(d) * g(n//d - m//d) over d in ds.

    The Mobius weights are first added up per width, so g is called and its
    (possibly huge) value added once per distinct width, not once per d.
    """
    weights: dict[int, int] = {}
    for d in ds:
        mu = mobius[d]
        if mu:
            width = n // d - m // d
            weights[width] = weights.get(width, 0) + mu
    total = 0
    for width, weight in weights.items():
        if weight:
            total += weight * g(width)
    if total < 0:
        raise RuntimeError(f"negative count {total} for m={m}, n={n}")
    return total


def _nonempty(width: int) -> int:
    return (1 << width) - 1


def f_interval(m: int, n: int, table: SieveTable) -> int:
    """Number of nonempty relatively prime subsets of {m+1, ..., n}."""
    _check_interval(m, n)
    _check_table(n, table)
    return _mobius_sum(m, n, range(1, n + 1), table.mobius, _nonempty)


def fk_interval(m: int, n: int, k: int, table: SieveTable) -> int:
    """Number of relatively prime k-element subsets of {m+1, ..., n}."""
    _check_interval(m, n)
    _check_table(n, table)
    _check_k(k)
    if k > n - m:
        return 0  # an (n-m)-element set has no k-subsets
    # floor(n/d) - floor(m/d) <= floor((n-m)/d) + 1, so once d*(k-1) > n-m
    # every binomial argument is below k and the terms are all zero.
    d_hi = n if k == 1 else min(n, (n - m) // (k - 1))
    return _mobius_sum(m, n, range(1, d_hi + 1), table.mobius, lambda w: binomial(w, k))


def phi_interval(m: int, n: int, table: SieveTable) -> int:
    """Number of nonempty subsets of {m+1, ..., n} whose gcd is coprime to n."""
    _check_interval(m, n)
    _check_table(n, table)
    return _mobius_sum(m, n, divisors(n, table), table.mobius, _nonempty)


def phik_interval(m: int, n: int, k: int, table: SieveTable) -> int:
    """Number of k-element subsets of {m+1, ..., n} whose gcd is coprime to n."""
    _check_interval(m, n)
    _check_table(n, table)
    _check_k(k)
    if k > n - m:
        return 0
    return _mobius_sum(m, n, divisors(n, table), table.mobius, lambda w: binomial(w, k))


def f_upto(n: int, table: SieveTable) -> int:
    """f over the full interval {1, ..., n}."""
    return f_interval(0, n, table)


def euler_phi_via_phik(n: int, table: SieveTable) -> int:
    """Euler's totient of n recovered as phik(0, n, 1); requires n >= 2.

    Singletons {a} with 1 <= a <= n and gcd(a, n) = 1 are exactly the
    totatives of n, so the k = 1 slice of phik is the classical phi.
    """
    if n < 2:
        raise ValueError(f"totient cross-check requires n >= 2, got {n}")
    return phik_interval(0, n, 1, table)


def count(query: CountQuery, table: SieveTable) -> int:
    """Evaluate one counting query."""
    if query.family is Family.F:
        return f_interval(query.m, query.n, table)
    if query.family is Family.FK:
        assert query.k is not None
        return fk_interval(query.m, query.n, query.k, table)
    if query.family is Family.PHI:
        return phi_interval(query.m, query.n, table)
    assert query.k is not None
    return phik_interval(query.m, query.n, query.k, table)
