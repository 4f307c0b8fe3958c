"""Mobius and Mertens tables, the list of primes, and factorization of
single integers by trial division.

mu is sieved by cofactors: with r = isqrt(limit), each n <= limit has at
most one prime factor above r, found as the least divisor of n above r,
and the primes up to r do the rest. So a table needs only the primes up to
r, and O(r) Python steps per block of 2^20 entries. The tables are typed
arrays, one signed byte per mu(n) and two per M(n), so a table of the
default cap of 10^8 entries, which is ceil(n^(2/3)) for n = 10^12, holds
300 MB.
"""

import math
import sys
from array import array
from itertools import compress
from typing import NamedTuple

# Admits the ceil(n^(2/3)) table of every n up to 10^12.
DEFAULT_LIMIT_CAP = 10**8

# mu(n) mod 256 as a byte: swaps 1 and -1, keeps 0; keeps only 1; keeps
# only -1.
_FLIP = bytes.maketrans(b"\x01\xff", b"\xff\x01")
_ONLY_PLUS = bytes.maketrans(b"\xff", b"\x00")
_ONLY_MINUS = bytes.maketrans(b"\x01", b"\x00")
# mu(n) + 1 from mu(n) mod 256; and a 16-bit lane's high byte with its top
# bit flipped, which takes v + 2^15 to v in two's complement.
_PLUS_ONE = bytes.maketrans(b"\xff\x00\x01", b"\x00\x01\x02")
_TOP_BIT = bytes(b ^ 0x80 for b in range(256))
# M is summed in runs of this many entries, so no temporary spans the table
# (each is a 16 KB big integer or smaller), and no run comes near the 2^15
# that _mertens_run refuses. Runs of 2^12 to 2^14 build at the same speed.
_RUN = 1 << 13
_ONES = int.from_bytes(b"\x01\x00" * _RUN, "little")  # 1 in each of _RUN lanes
# mu is sieved in blocks of this many entries, so that the strided writes
# into a block stay in cache: at 10^8, blocks of 2^20 take the cofactor
# writes from 6.9 s to 1.7 s and the sign flips from 2.4 s to 0.8 s.
# Blocks of 2^19 to 2^22 build at about the same speed. The sieve of
# Eratosthenes marks the primes in the same blocks.
_BLOCK = 1 << 20

# (size, primes): every prime below size, ascending. _primes_upto regrows it
# on demand, so importing the module sieves nothing; exactmath.binomial
# reads the primes up to its n. size is kept because the last prime falls
# short of what the store covers.
_prime_store: tuple[int, list[int]] = (0, [])


class CapacityError(Exception):
    """A request exceeds a cap: the sieve limit cap, or a work cap."""


class SieveTable(NamedTuple):
    """Read-only Mobius and Mertens tables for 1..limit.

    Arrays indexed directly by n: mobius[n] is mu(n), typecode 'b', and
    mertens[n] is M(n) = mu(1) + ... + mu(n), typecode 'h', with mobius[0] =
    mertens[0] = 0. |M(n)| <= 3448 for n <= 10^8. M is summed _RUN = 2^13
    entries at a time, and a run that starts at an |M| of 2^15 - 2^13 or
    more raises OverflowError, so a value that does not fit 16 bits never
    wraps. The counting functions use the table only as a cache of these
    values, so it may be shorter than the n they are asked about.
    """

    limit: int
    mobius: array
    mertens: array


def _strike_composites(flags: bytearray, composite: int) -> bytearray:
    """flags with the byte composite at every composite index, by the sieve
    of Eratosthenes, block by block of _BLOCK entries so that the writes
    stay in cache: in each block, each p from 2 to sqrt of the block's last
    index whose flag is not composite is prime, and one C-level slice write
    marks its multiples in the block from p*p on. Its flag is final when it
    is read: p lies in an earlier block, or in this one after every prime
    below sqrt(p) has marked it. Indexes 0 and 1 are left as they are."""
    size = len(flags)
    mark = bytes([composite])
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        for p in range(2, math.isqrt(hi - 1) + 1):
            if flags[p] != composite:
                start = max(p * p, lo + -lo % p)
                flags[start:hi:p] = mark * len(range(start, hi, p))
    return flags


def _primes_upto(n: int) -> list[int]:
    """Every prime up to n, ascending, and maybe some above it, from a sieve
    of Eratosthenes that is rebuilt at least twice as long whenever it is
    too short."""
    global _prime_store
    size, primes = _prime_store
    if size <= n:
        size = max(n + 1, 2 * size)
        flags = _strike_composites(bytearray([1]) * size, 0)
        flags[:2] = b"\x00\x00"
        primes = list(compress(range(size), flags))
        _prime_store = size, primes
    return primes


def build_sieve(limit: int, cap: int = DEFAULT_LIMIT_CAP) -> SieveTable:
    """Build both tables from one Eratosthenes pass, which also gives the
    primes up to r = isqrt(limit).

    mu is sieved as bytes mod 256. Every n <= limit has at most one prime
    factor q > r, and it has one exactly when its least divisor above r is
    prime; that divisor is then q. So the bytes start as -1 at the primes
    above r and 1 elsewhere, and for each cofactor c = 1 .. limit // (r+1),
    ascending, one C-level slice write copies the byte of j > r to c*j;
    the last write to n comes from its least divisor above r. Each prime
    p <= r then flips the sign on the multiples of p and zeroes the
    multiples of p*p, which leaves mu(n) = (-1)^k for n squarefree with k
    prime factors and 0 otherwise. The writes and flips go block by block
    of _BLOCK entries, O(r) Python steps per block, and the shared prime
    list is left as it is. M is then summed in runs of _RUN entries, each a
    few big-integer passes (see _mertens_run) written straight into the
    bytes of the 'h' array. Both arrays are allocated at their exact
    length.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds capacity cap {cap}")
    root = math.isqrt(limit)
    signs = _strike_composites(bytearray(b"\xff") * (limit + 1), 0x01)
    # the primes up to r are the marks there still at 0xFF, that is -1
    primes = list(compress(range(2, root + 1), signs[2 : root + 1].translate(_ONLY_MINUS)))
    signs[: root + 1] = b"\x01" * (root + 1)
    signs[0] = 0
    # the write for c = 1 would copy signs onto itself; later writes read
    # the marks of j <= limit // 2 as they were before any of them
    marks = signs[: limit // 2 + 1]
    step = root + 1
    for lo in range(0, limit + 1, _BLOCK):
        hi = min(lo + _BLOCK, limit + 1)
        for c in range(2, (hi - 1) // step + 1):
            j = max(step, -(-lo // c))
            signs[c * j : hi : c] = marks[j : (hi - 1) // c + 1]
        for p in primes:
            start = max(p, lo + -lo % p)
            signs[start:hi:p] = signs[start:hi:p].translate(_FLIP)
            square = p * p
            start = max(square, lo + -lo % square)
            signs[start:hi:square] = bytes(len(range(start, hi, square)))
    del marks
    mobius = array("b", [0]) * (limit + 1)
    memoryview(mobius).cast("B")[:] = signs
    del signs
    mertens = array("h", [0]) * (limit + 1)
    lanes = memoryview(mertens).cast("B")
    carry = 0
    for lo in range(1, limit + 1, _RUN):
        hi = min(lo + _RUN, limit + 1)
        lanes[2 * lo : 2 * hi], carry = _mertens_run(mobius[lo:hi].tobytes(), carry)
    if sys.byteorder == "big":
        mertens.byteswap()
    return SieveTable(limit=limit, mobius=mobius, mertens=mertens)


def _mertens_run(mu: bytes, carry: int) -> tuple[bytearray, int]:
    """The sums carry + mu[0] + ... + mu[i], i < R = len(mu) <= _RUN, as
    16-bit little-endian two's complement lanes, and the last of them, T;
    mu holds mu(n) mod 256 as bytes.

    With X = 2^16, the lanes of mu + 1, less 1 in every lane, plus carry,
    give S = carry + Sigma mu[i] X^i, and the sums are the lanes of
    Q = (T X^R - S) / (X - 1), as Q (X - 1) telescopes to T X^R - S. With
    divmod(S, X - 1) = (q, r), r is T read as a signed residue, as
    X = 1 mod X - 1, and Q = T * ones - q, less one more when T < 0.
    2^15 added to every lane keeps each in 0..X - 1, so none borrows when Q
    is written out, and flipping the top bits takes it off again. Each step
    is linear in R. A lane can reach |carry| + R, so once that is 2^15 or
    more this raises OverflowError rather than risk a wrap.
    """
    size = len(mu)
    if abs(carry) + size >= 1 << 15:
        raise OverflowError(f"Mertens values from {carry} over {size} entries may not fit 16 bits")
    spread = bytearray(2 * size)
    spread[::2] = mu.translate(_PLUS_ONE)
    ones = _ONES >> 16 * (_RUN - size)
    q, r = divmod(int.from_bytes(spread, "little") - ones + carry, 0xFFFF)
    last = r if r < 1 << 15 else r - 0xFFFF
    lanes = bytearray(((last + (1 << 15)) * ones - q - (last < 0)).to_bytes(2 * size, "little"))
    lanes[1::2] = lanes[1::2].translate(_TOP_BIT)
    return lanes, last


def squarefree_by_sign(top: int, table: SieveTable) -> tuple[list[int], list[int]]:
    """The q <= min(top, table.limit) with mu(q) = 1, and those with
    mu(q) = -1, each ascending."""
    head = table.mobius[: min(top, table.limit) + 1].tobytes()
    return (
        list(compress(range(len(head)), head.translate(_ONLY_PLUS))),
        list(compress(range(len(head)), head.translate(_ONLY_MINUS))),
    )


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


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in prime_factors(n):
        powers = [p**i for i in range(1, e + 1)]
        divs += [d * q for d in divs for q in powers]
    divs.sort()
    return divs
