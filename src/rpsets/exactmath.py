"""Exact integer helpers shared by the counting and bound modules.

Counts are plain Python ints (arbitrary precision already). The helpers pin
down the edge conventions the sums rely on.
"""

import math


def pow2(e: int) -> int:
    """2**e for e >= 0."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return 1 << e


def binomial(n: int, k: int) -> int:
    """C(n, k) with C(n, 0) = 1 and 0 whenever n < 0 or k > n."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 0 or k > n:
        return 0
    return math.comb(n, k)


def ceil_cbrt(x: int) -> int:
    """Least r >= 0 with r**3 >= x, for x >= 0, found one bit at a time."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    below = 0  # the largest r with r**3 < x, built from its top bit down
    for bit in reversed(range(x.bit_length() // 3 + 1)):
        if (below | 1 << bit) ** 3 < x:
            below |= 1 << bit
    return below + 1 if x else 0
