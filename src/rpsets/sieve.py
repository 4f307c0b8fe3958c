"""Mobius and Mertens tables from a linear sieve, and factorization of single
integers by trial division."""

from itertools import accumulate
from typing import NamedTuple

DEFAULT_LIMIT_CAP = 10**7


class CapacityError(Exception):
    """Requested sieve limit exceeds the configured memory cap."""


class SieveTable(NamedTuple):
    """Read-only Mobius and Mertens tables for 1..limit.

    Lists are indexed directly by n: mobius[n] is mu(n) and mertens[n] is
    M(n) = mu(1) + ... + mu(n), with mobius[0] = mertens[0] = 0. The counting
    functions use the table only as a cache of these values, so it may be
    shorter than the n they are asked about.
    """

    limit: int
    mobius: list[int]
    mertens: list[int]


def build_sieve(limit: int, cap: int = DEFAULT_LIMIT_CAP) -> SieveTable:
    """Build both tables in one linear pass.

    Each composite is marked exactly once, through its smallest prime
    factor, so the loop is O(limit) rather than O(limit log log limit).
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds capacity cap {cap}")
    mobius = [0] * (limit + 1)
    mobius[1] = 1
    composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mobius[i] = -1
        mu = mobius[i]
        for p in primes:
            c = i * p
            if c > limit:
                break
            composite[c] = 1
            if i % p == 0:
                # p already divides i, so c is not squarefree: mobius[c] stays 0
                break
            mobius[c] = -mu
    return SieveTable(limit=limit, mobius=mobius, mertens=list(accumulate(mobius)))


def prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n, p ascending; [] for 1."""
    if n < 1:
        raise ValueError(f"factorization defined for n >= 1, got {n}")
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def smallest_prime_divisor(n: int) -> int:
    """Least prime dividing n, which is n's smallest divisor above 1."""
    if n < 2:
        raise ValueError(f"smallest prime divisor undefined for n={n}")
    return divisors(n)[1]


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in prime_factors(n):
        powers = [p**i for i in range(1, e + 1)]
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return divs
