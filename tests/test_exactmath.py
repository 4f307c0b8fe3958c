import random

import pytest

from rpsets.exactmath import binomial, ceil_cbrt, pow2


def test_pow2_frozen_values():
    assert pow2(0) == 1
    assert pow2(1) == 2
    assert pow2(10) == 1024
    assert pow2(70) == 1180591620717411303424


def test_pow2_matches_repeated_doubling():
    acc = 1
    for e in range(301):
        assert pow2(e) == acc
        acc *= 2


def test_pow2_rejects_negative_exponent():
    with pytest.raises(ValueError):
        pow2(-1)


def test_pow2_additivity_sampled():
    rng = random.Random(20260822)
    for _ in range(200):
        a = rng.randrange(0, 1000)
        b = rng.randrange(0, 1000)
        assert pow2(a) * pow2(b) == pow2(a + b)


def test_binomial_frozen_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(3, 7) == 0
    assert binomial(-1, 0) == 0
    assert binomial(60, 30) == 118264581564861424


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        binomial(5, -1)


def test_binomial_matches_pascal_triangle():
    # row-by-row recurrence, an independent construction
    row = [1]
    for n in range(41):
        for k in range(46):
            expected = row[k] if k < len(row) else 0
            assert binomial(n, k) == expected
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def test_binomial_symmetry_sampled():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(0, 200)
        k = rng.randrange(0, n + 1)
        assert binomial(n, k) == binomial(n, n - k)


def test_floor_difference_inequality_exhaustive_small():
    # floor(x/d) - floor(y/d) <= floor((x-y)/d) + 1, the step that justifies
    # truncating the fk summation
    for x in range(61):
        for y in range(x + 1):
            for d in range(1, x + 2):
                assert x // d - y // d <= (x - y) // d + 1


def test_floor_difference_inequality_sampled_large():
    rng = random.Random(99)
    for _ in range(2000):
        x = rng.randrange(0, 10**4)
        y = rng.randrange(0, x + 1)
        d = rng.randrange(1, 10**3)
        assert x // d - y // d <= (x - y) // d + 1


def test_hockey_stick_small():
    # C(N,k) - sum_{j=1..M} C(N-j,k-1) = C(N-M,k)
    for n_top in range(25):
        for m_cut in range(n_top + 1):
            for k in range(1, n_top + 1):
                lhs = binomial(n_top, k) - sum(
                    binomial(n_top - j, k - 1) for j in range(1, m_cut + 1)
                )
                assert lhs == binomial(n_top - m_cut, k)


def test_ceil_cbrt_against_linear_search():
    r = 0
    for x in range(20_000):
        while r**3 < x:
            r += 1
        assert ceil_cbrt(x) == r, x
    rng = random.Random(3)
    for x in [10**16, 10**30 - 1, 10**30, 10**30 + 1] + [rng.getrandbits(400) for _ in range(200)]:
        r = ceil_cbrt(x)
        assert r**3 >= x > (r - 1) ** 3, x
    with pytest.raises(ValueError):
        ceil_cbrt(-1)
