"""Checks of single counts, written from the definitions, not from rpsets.

Each value is checked twice: against the T1-T4 gap bounds of the theorems,
and against a recount modulo the Mersenne prime P = 2^61 - 1. The recount
uses the Mobius sums that define the four families,

    f(m, n)       = sum over d <= n  of mu(d) (2^a(d) - 1)
    fk(m, n, k)   = sum over d <= n  of mu(d) C(a(d), k)
    phi(m, n)     = sum over d | n   of mu(d) 2^a(d)        (n >= 2)
    phik(m, n, k) = sum over d | n   of mu(d) C(a(d), k)    (n >= 2)

with a(d) = floor(n/d) - floor(m/d). The sums over all d <= n run over
blocks of d on which both quotients stay the same, weighted by differences
of the Mertens function, so a recount costs O(sqrt(n)) terms. The divisors
of n come from trial division, so for phik with k = 1 the recount is the
trial-division count of the totatives of n in {m+1, ..., n}. A wrong value
passes only if its error is a multiple of P.
"""

import math
from array import array
from functools import cache
from itertools import accumulate

P = (1 << 61) - 1
SMALL_LIMIT = 1 << 17  # Mertens values below this come from one sieve


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def comb_mod(a: int, k: int) -> int:
    """C(a, k) mod P; a < P, so every factor of k! is invertible."""
    if not 0 <= k <= a:
        return 0
    k = min(k, a - k)
    num = den = 1
    for i in range(k):
        num = num * (a - i) % P
        den = den * (i + 1) % P
    return num * pow(den, P - 2, P) % P


def prime_factors(n: int) -> list[int]:
    """Distinct primes of n, ascending, by trial division."""
    primes, rest, p = [], n, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        primes.append(rest)
    return primes


@cache
def _small_mertens() -> array:
    """M(x) = sum of mu(d) for d <= x, for every x < SMALL_LIMIT."""
    limit = SMALL_LIMIT - 1
    mu = [1] * (limit + 1)
    mu[0] = 0
    composite = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p::p] = b"\x01" * len(range(p * p, limit + 1, p))
        for j in range(p, limit + 1, p):
            mu[j] = -mu[j]
        for j in range(p * p, limit + 1, p * p):
            mu[j] = 0
    return array("i", accumulate(mu))


_large_mertens: dict[int, int] = {}


def mertens(x: int) -> int:
    """M(x), from M(x) = 1 - sum over 2 <= d <= x of M(floor(x/d))."""
    small = _small_mertens()
    if x < len(small):
        return small[x]
    value = _large_mertens.get(x)
    if value is None:
        value, d = 1, 2
        while d <= x:
            q = x // d
            last = x // q
            value -= (last - d + 1) * mertens(q)
            d = last + 1
        _large_mertens[x] = value
    return value


def mobius_sum_mod(m: int, n: int, term) -> int:
    """sum over 1 <= d <= n of mu(d) term(a(d)) mod P; term(0) must be 0."""
    total, d, before = 0, 1, 0  # before = M(d - 1)
    while d <= n:
        qn, qm = n // d, m // d
        last = n // qn if qm == 0 else min(n // qn, m // qm)
        through = mertens(last)
        if through != before:
            total += (through - before) * term(qn - qm)
        before, d = through, last + 1
    return total % P


def count_mod(family: str, m: int, n: int, k: int | None) -> int:
    """f, fk, phi or phik of {m+1, ..., n} mod P."""
    if family == "f":
        return mobius_sum_mod(m, n, lambda a: pow(2, a, P) - 1)
    if family == "fk":
        return mobius_sum_mod(m, n, lambda a: comb_mod(a, k))
    if n == 1:  # {1} is the only nonempty subset
        return 1 if family == "phi" or k == 1 else 0
    term = (lambda a: pow(2, a, P)) if family == "phi" else (lambda a: comb_mod(a, k))
    divisors = [(1, 1)]  # (squarefree d | n, mu(d))
    for p in prime_factors(n):
        divisors += [(d * p, -mu) for d, mu in divisors]
    return sum(mu * term(n // d - m // d) for d, mu in divisors) % P


def bound_error(family: str, m: int, n: int, k: int | None, value: int) -> str | None:
    """The T1-T4 gap of one value: None when 0 <= gap <= upper."""
    w = n - m
    if family == "f":  # T1
        gap = (1 << w) - (1 << (n // 2 - m // 2)) - value
        upper = 2 * n << (w // 3)
    elif family == "fk":  # T2
        gap = _comb(w, k) - _comb(n // 2 - m // 2, k) - value
        upper = n * _comb(w // 3 + 2, k)
    else:
        p = prime_factors(n)[0]
        if family == "phi":  # T3
            gap = (1 << w) - (1 << (n // p - m // p)) - value
            upper = 2 * n << (w // (p + 1))
        else:  # phik, T4
            gap = _comb(w, k) - _comb(n // p - m // p, k) - value
            upper = n * _comb(w // (p + 1) + 1, k)
    if gap < 0:
        return "value above the theorem's main term (gap < 0)"
    if gap > upper:
        return "gap above the theorem's upper bound"
    return None


def check_value(family: str, m: int, n: int, k: int | None, value: int) -> tuple[int, str | None]:
    """One checked cell, or the reason the value is wrong."""
    error = bound_error(family, m, n, k, value)
    if error is None and value % P != count_mod(family, m, n, k):
        error = "value differs from the Mobius recount mod 2^61 - 1"
    return 1, error
