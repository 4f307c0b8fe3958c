import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsets.exactmath import _binomial_by_factors, binomial, ceil_cbrt, decimal_string, pascal_rows


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


def test_pascal_rows_whole_and_cut():
    for width in (None, 1, 2, 5, 50):
        rows = pascal_rows(40, width)
        assert len(rows) == 41
        for x, row in enumerate(rows):
            assert row == [math.comb(x, k) for k in range(x + 1)][:width], (x, width)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 2))))
def test_binomial_matches_math_comb(cell):
    # k runs over the whole row, so both sides of the switch to the prime
    # factorization (at min(k, n - k)**2 >= 64 * (n + 4096)) are drawn
    n, k = cell
    assert binomial(n, k) == (math.comb(n, k) if k <= n else 0)


def test_binomial_at_the_method_switch_and_edges():
    for n in (2000, 6000, 40_000):
        j0 = math.isqrt(64 * (n + 4096))  # the least j factored is j0 or j0 + 1
        for j in range(j0 - 2, j0 + 3):
            assert binomial(n, j) == math.comb(n, j)
            assert binomial(n, n - j) == math.comb(n, j)
        assert binomial(n, 0) == binomial(n, n) == 1
        assert binomial(n, n + 1) == 0
        assert binomial(-n, 3) == 0
        with pytest.raises(ValueError):
            binomial(n, -1)


def test_binomial_by_factors_on_every_small_row():
    # binomial only factors large j; this covers the method on its own,
    # including n below 4, where sqrt(n) and n/2 meet, and every n whose
    # slice bounds sqrt(n), n/2, n - j or n fall on a prime up to 400
    for n in range(401):
        half_row = range(n // 2 + 1)
        factored = [_binomial_by_factors(n, j) for j in half_row]
        assert factored == [math.comb(n, j) for j in half_row], n


@pytest.mark.parametrize(
    "n, k",
    [
        (95_000, 47_000),
        (100_000, 10_000),
        (30_000, 3_000),
        # primes on the bounds that cut the factorization's prime slices
        (10_007, 4_998),  # n, n/2 and n - k prime
        (49_999, 24_986),  # n, sqrt(n) and n - k prime
        (99_991, 49_992),  # n and n - k prime
        (10_201, 3_200),  # sqrt(n) = 101 and n - k prime
        (97_969, 27_968),  # sqrt(n) = 313 and n - k prime
        (99_998, 49_999),  # n/2 = n - k prime
    ],
)
def test_binomial_large_rows(n, k):
    assert binomial(n, k) == math.comb(n, k)


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


def _parse_in_chunks(digits: str) -> int:
    """The int a decimal string spells, halving the string down to chunks of
    at most 1000 digits, each well inside the interpreter's str limit."""
    if len(digits) <= 1000:
        return int(digits)
    tail = len(digits) // 2
    return _parse_in_chunks(digits[:-tail]) * 10**tail + _parse_in_chunks(digits[-tail:])


@pytest.mark.parametrize("bits", [10**4, 10**5, 10**6])
def test_decimal_string_matches_a_chunked_parse(bits):
    x = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
    digits = decimal_string(x)
    assert digits.isdigit() and digits[0] != "0"
    assert _parse_in_chunks(digits) == x
    assert decimal_string(-x) == "-" + digits


def test_decimal_string_near_powers_of_ten_and_two():
    # 10**e - 1 is all nines and 10**e + 1 carries into zeros, across the
    # halves of every split; e spans the switch from str at 8192 bits
    for e in (2465, 2466, 2467, 4300, 4301, 30103):
        assert decimal_string(10**e - 1) == "9" * e
        assert decimal_string(10**e) == "1" + "0" * e
        assert decimal_string(10**e + 1) == "1" + "0" * (e - 1) + "1"
    # powers of two put a one bit just above a split point and zeros below
    for b in (8191, 8192, 8193, 16_384, 65_536, 100_000):
        for x in (2**b - 1, 2**b, 2**b + 1):
            assert _parse_in_chunks(decimal_string(x)) == x
    for x in (0, 1, -1, 10**2466 - 1, -(2**8192)):
        assert decimal_string(x) == str(x)
