"""Exact integer helpers shared by the counting and bound modules.

Counts are plain Python ints (arbitrary precision already). The helpers pin
down the edge conventions the sums rely on, and keep the two big-integer
steps that CPython does in quadratic time, C(n, k) for k near n/2 and the
int-to-decimal conversion, on subquadratic paths.
"""

import functools
import math
from bisect import bisect_right
from itertools import compress, repeat
from operator import add, lt, mod

from .sieve import _primes_upto

# binomial builds C(n, k) from its prime factors when j*j >= FACTOR_SLOPE *
# (n + FACTOR_PAD), j = min(k, n - k), and calls math.comb below that, so
# every n takes math.comb when k*k < FACTOR_SLOPE * FACTOR_PAD.
FACTOR_SLOPE, FACTOR_PAD = 64, 4096


def binomial(n: int, k: int) -> int:
    """C(n, k) with C(n, 0) = 1 and 0 whenever n < 0 or k > n.

    With j = min(k, n - k), math.comb divides big numbers at every level of
    its recursion, which costs time quadratic in the result's size, about
    j*log(n/j) bits. Building C(n, j) from its prime factorization divides
    no big numbers, but pays about 25 us even for small n. Measured on
    CPython 3.11, the two cost the same between j*j = 32*n and 64*n at n
    from 10^4 to 10^6, and math.comb stays faster up to j*j = 128*n at
    n = 1000. When j*j >= 64*(n + 4096) the factorization is the faster one
    at every size tried (n from 1200 to 10^6), and math.comb is kept below
    that.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 0 or k > n:
        return 0
    j = min(k, n - k)
    if j * j >= FACTOR_SLOPE * (n + FACTOR_PAD):
        return _binomial_by_factors(n, j)
    return math.comb(n, k)


def _binomial_by_factors(n: int, j: int) -> int:
    """C(n, j) for 0 <= 2*j <= n, as the product of p**e over the primes
    p <= n, e being the exponent of p in C(n, j) by Legendre's formula,
    e = Sigma_i floor(n/p^i) - floor(j/p^i) - floor((n-j)/p^i).

    Above sqrt(n) the sum has one term, so e is 1 when n mod p < j mod p
    and 0 otherwise; that makes e = 0 for n/2 < p <= n - j and e = 1 for
    n - j < p <= n. The primes are slices of the shared list, cut at sqrt(n),
    n/2, n - j and n by bisection, so no integer that is not a prime is
    visited, and the middle slice is filtered in one C-level pass.
    """
    primes = _primes_upto(n)
    root, half, low, top = (bisect_right(primes, x) for x in (math.isqrt(n), n // 2, n - j, n))
    factors = []
    for p in primes[:root]:
        e, q = 0, p
        while q <= n:
            e += n // q - j // q - (n - j) // q
            q *= p
        if e:
            factors.append(p**e)
    middle = primes[root:half]
    factors += compress(middle, map(lt, map(mod, repeat(n), middle), map(mod, repeat(j), middle)))
    factors += primes[low:top]
    # Neighbours have similar sizes, so multiplying them pairwise, level by
    # level, keeps both operands of every product balanced.
    while len(factors) > 1:
        pairs = iter(factors)
        factors = [a * b for a, b in zip(pairs, pairs)] + factors[len(factors) & ~1 :]
    return factors[0] if factors else 1


def pascal_rows(top: int, width: int | None = None) -> list[list[int]]:
    """The rows C(x, 0), C(x, 1), ... for x = 0 .. top, from Pascal's rule,
    one addition per entry, each row cut to its first width entries (whole
    when width is None). Row x of a cut triangle needs only the first width
    entries of row x - 1, so the cut rows cost no more than they hold."""
    rows = [[1][:width]]
    for _ in range(top):
        row = rows[-1]
        rows.append([1, *map(add, row, row[1:]), 1][:width])
    return rows


def decimal_string(x: int) -> str:
    """The decimal digits of x, like str(x) but for any size.

    str(int) takes time quadratic in the number of digits, and CPython
    refuses it above 4300 digits. Large x is converted by divide and conquer
    instead, as in CPython 3.12's Lib/_pylong.py: x is split at a bit
    position, each half converted to a Decimal, and the halves recombined
    with a power of two, all in libmpdec's exact arithmetic, whose string
    form is linear in the digits.
    """
    if x.bit_length() <= 8192:  # below 2467 digits
        return str(x)
    import decimal

    two = decimal.Decimal(2)

    @functools.cache
    def power_of_two(w: int) -> decimal.Decimal:
        return two**w if w <= 128 else power_of_two(w >> 1) * power_of_two(w - (w >> 1))

    def convert(v: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return decimal.Decimal(v)
        half = w >> 1
        hi = v >> half
        lo = v - (hi << half)
        return convert(lo, half) + convert(hi, w - half) * power_of_two(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(x), x.bit_length()))
    return "-" + digits if x < 0 else digits


def ceil_cbrt(x: int) -> int:
    """Least r >= 0 with r**3 >= x, for x >= 0, found one bit at a time."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    below = 0  # the largest r with r**3 < x, built from its top bit down
    for bit in reversed(range(x.bit_length() // 3 + 1)):
        if (below | 1 << bit) ** 3 < x:
            below |= 1 << bit
    return below + 1 if x else 0
