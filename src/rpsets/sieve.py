"""Mobius and Mertens tables and the list of primes they come from, and
factorization of single integers by trial division."""

import math
from bisect import bisect_right
from itertools import accumulate, compress
from operator import neg
from typing import NamedTuple

DEFAULT_LIMIT_CAP = 10**7

# (size, primes): every prime below size, ascending. _primes_upto regrows it
# on demand, so importing the module sieves nothing; build_sieve and
# exactmath.binomial share it. size is kept because the last prime falls
# short of what the store covers.
_prime_store: tuple[int, list[int]] = (0, [])


class CapacityError(Exception):
    """A request exceeds a cap: the sieve limit cap, or a work cap."""


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


def _primes_upto(n: int) -> list[int]:
    """Every prime up to n, ascending, and maybe some above it, from a sieve
    of Eratosthenes that is rebuilt at least twice as long whenever it is
    too short."""
    global _prime_store
    size, primes = _prime_store
    if size <= n:
        size = max(n + 1, 2 * size)
        flags = bytearray([1]) * size
        flags[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(size - 1) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, size, p)))
        primes = list(compress(range(size), flags))
        _prime_store = size, primes
    return primes


def build_sieve(limit: int, cap: int = DEFAULT_LIMIT_CAP) -> SieveTable:
    """Build both tables from the shared list of primes.

    mu starts at 1 on 1..limit; each prime p flips the sign on the multiples
    of p and zeroes the multiples of p*p, which leaves mu(n) = (-1)^r for
    n squarefree with r prime factors and 0 otherwise.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds capacity cap {cap}")
    mobius = [0] + [1] * limit
    primes = _primes_upto(limit)
    for p in primes[: bisect_right(primes, limit)]:
        mobius[p::p] = map(neg, mobius[p::p])
        if p * p <= limit:
            mobius[p * p :: p * p] = [0] * len(range(p * p, limit + 1, p * p))
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
