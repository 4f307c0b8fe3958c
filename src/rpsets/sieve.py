"""Linear sieve tables for the Mobius function, smallest prime factors, and
Euler's totient, plus divisor enumeration on top of them."""

from dataclasses import dataclass

DEFAULT_LIMIT_CAP = 10**7


class CapacityError(Exception):
    """Requested sieve limit exceeds the configured memory cap."""


@dataclass(frozen=True)
class SieveTable:
    """Read-only multiplicative-function tables for 1..limit.

    Lists are indexed directly by n (index 0 is a dead slot): mobius[n] is
    mu(n), spf[n] is the smallest prime factor (0 for n < 2), totient[n] is
    Euler's phi.
    """

    limit: int
    mobius: list[int]
    spf: list[int]
    totient: list[int]


def build_sieve(limit: int, cap: int = DEFAULT_LIMIT_CAP) -> SieveTable:
    """Build all three tables in one linear pass.

    Each composite is written exactly once, through its smallest prime
    factor, so the loop is O(limit) rather than O(limit log log limit).
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds capacity cap {cap}")
    mobius = [0] * (limit + 1)
    spf = [0] * (limit + 1)
    totient = [0] * (limit + 1)
    mobius[1] = 1
    totient[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            mobius[i] = -1
            totient[i] = i - 1
        for p in primes:
            c = i * p
            if c > limit:
                break
            spf[c] = p
            if i % p == 0:
                # p already divides i, so c is not squarefree
                mobius[c] = 0
                totient[c] = totient[i] * p
                break
            mobius[c] = -mobius[i]
            totient[c] = totient[i] * (p - 1)
    return SieveTable(limit=limit, mobius=mobius, spf=spf, totient=totient)


def smallest_prime_divisor(n: int, table: SieveTable) -> int:
    if n < 2:
        raise ValueError(f"smallest prime divisor undefined for n={n}")
    if n > table.limit:
        raise ValueError(f"n={n} exceeds sieve limit {table.limit}")
    return table.spf[n]


def divisors(n: int, table: SieveTable) -> list[int]:
    """All positive divisors of n in increasing order, via the spf table."""
    if n < 1:
        raise ValueError(f"divisors defined for n >= 1, got {n}")
    if n > table.limit:
        raise ValueError(f"n={n} exceeds sieve limit {table.limit}")
    divs = [1]
    rest = n
    while rest > 1:
        p = table.spf[rest]
        power = 1
        powers = []
        while rest % p == 0:
            rest //= p
            power *= p
            powers.append(power)
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return divs
