"""Exact integer helpers shared by the counting and bound modules.

Counts are plain Python ints (arbitrary precision already). The helpers pin
down the edge conventions the sums rely on, and keep the two big-integer
steps that CPython does in quadratic time, C(n, k) for k near n/2 and the
int-to-decimal conversion, on subquadratic paths.
"""

import math
from itertools import compress

# _prime_flags[i] is 1 when i is prime; grown on demand by _prime_flags_upto,
# so importing the module sieves nothing.
_prime_flags = bytearray()


def binomial(n: int, k: int) -> int:
    """C(n, k) with C(n, 0) = 1 and 0 whenever n < 0 or k > n.

    With j = min(k, n - k), math.comb divides big numbers at every level of
    its recursion, which costs time quadratic in the result's size, about
    j*log(n/j) bits. Building C(n, j) from its prime factorization divides
    no big numbers but visits every prime up to n. Measured on CPython 3.11,
    the two cost the same near j*j = 128*n; when j*j >= 256*n the
    factorization is the faster one at every size tried (j from 600 to
    32000, n up to 6*10^6), and math.comb is kept below that.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 0 or k > n:
        return 0
    j = min(k, n - k)
    if j * j >= 256 * n:
        return _binomial_by_factors(n, j)
    return math.comb(n, k)


def _prime_flags_upto(n: int) -> bytearray:
    """Prime flags for 0..n at least, from a sieve of Eratosthenes that is
    rebuilt at least twice as long whenever it is too short."""
    global _prime_flags
    flags = _prime_flags
    if len(flags) <= n:
        size = max(n + 1, 2 * len(flags))
        flags = bytearray([1]) * size
        flags[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(size - 1) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, size, p)))
        _prime_flags = flags
    return flags


def _binomial_by_factors(n: int, j: int) -> int:
    """C(n, j) for 0 <= 2*j <= n, as the product of p**e over the primes
    p <= n, e being the exponent of p in C(n, j) by Legendre's formula,
    e = Sigma_i floor(n/p^i) - floor(j/p^i) - floor((n-j)/p^i).

    Above sqrt(n) the sum has one term, so e is 1 when n mod p < j mod p
    and 0 otherwise; that makes e = 0 for n/2 < p <= n - j and e = 1 for
    n - j < p <= n.
    """
    flags = _prime_flags_upto(n)
    root, half = math.isqrt(n), n // 2
    factors = []
    for p in compress(range(2, root + 1), flags[2 : root + 1]):
        e, q = 0, p
        while q <= n:
            e += n // q - j // q - (n - j) // q
            q *= p
        if e:
            factors.append(p**e)
    middle = range(root + 1, half + 1)
    factors += [p for p in compress(middle, flags[root + 1 : half + 1]) if n % p < j % p]
    factors += compress(range(n - j + 1, n + 1), flags[n - j + 1 : n + 1])
    # Neighbours have similar sizes, so multiplying them pairwise, level by
    # level, keeps both operands of every product balanced.
    while len(factors) > 1:
        pairs = iter(factors)
        factors = [a * b for a, b in zip(pairs, pairs)] + factors[len(factors) & ~1 :]
    return factors[0] if factors else 1


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
    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= 128:
                result = two**w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                half = w >> 1
                # the smaller half first, so that w - half can often take
                # the doubling branch above
                result = power_of_two(half) * power_of_two(w - half)
            powers[w] = result
        return result

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
