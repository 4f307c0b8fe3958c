import math
import sys
from array import array
from itertools import accumulate

import pytest

from rpsets import sieve
from rpsets.exactmath import binomial, ceil_cbrt
from rpsets.sieve import (
    DEFAULT_LIMIT_CAP,
    CapacityError,
    build_sieve,
    divisors,
    prime_factors,
    squarefree_by_sign,
)

LIMIT = 2000
TABLE = build_sieve(LIMIT)


def mobius_by_trial_division(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors_by_trial(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def totient_by_euler_product(n: int) -> int:
    # n * product over the primes p | n of (1 - 1/p)
    for p, _ in prime_factors(n):
        n = n // p * (p - 1)
    return n


def test_base_cases():
    t = build_sieve(1)
    assert t.limit == 1
    assert t.mobius.tolist() == [0, 1]
    assert t.mertens.tolist() == [0, 1]
    assert prime_factors(1) == []


def test_mobius_frozen_values():
    assert TABLE.mobius[1] == 1
    assert TABLE.mobius[2] == -1
    assert TABLE.mobius[6] == 1
    assert TABLE.mobius[12] == 0
    assert TABLE.mobius[30] == -1


def tables_from_every_flag_state(monkeypatch):
    """build_sieve(LIMIT) from a cold prime store, from a store that a
    factored binomial grew far past LIMIT, and from a store that holds some
    primes but not all up to sqrt(LIMIT)."""
    monkeypatch.setattr(sieve, "_prime_store", (0, []))
    yield "cold", build_sieve(LIMIT)
    binomial(100_000, 50_000)
    assert sieve._prime_store[0] > 50 * LIMIT
    yield "grown", build_sieve(LIMIT)
    monkeypatch.setattr(sieve, "_prime_store", (0, []))
    sieve._primes_upto(math.isqrt(LIMIT) // 2)
    assert 0 < sieve._prime_store[0] <= math.isqrt(LIMIT)
    yield "short", build_sieve(LIMIT)


def test_mobius_against_trial_division(monkeypatch):
    expected = [0] + [mobius_by_trial_division(n) for n in range(1, LIMIT + 1)]
    assert TABLE.mobius.tolist() == expected
    for state, table in tables_from_every_flag_state(monkeypatch):
        assert table == TABLE, state
        assert table.mobius.tolist() == expected, state


def test_tables_of_every_small_limit_are_prefixes():
    # every limit up to 299 puts r = isqrt(limit) at each value up to 17,
    # each with and without primes in (r, limit] and cofactors past 1
    for limit in range(1, 300):
        table = build_sieve(limit)
        assert table.mobius == TABLE.mobius[: limit + 1], limit
        assert table.mertens == TABLE.mertens[: limit + 1], limit


def test_tables_at_the_square_root_seams():
    # build_sieve splits n at r = isqrt(limit): at most one prime factor
    # above r, the rest below. p*p - 1, p*p and p*p + 1 move r across p,
    # and p*q ends the table on a product whose larger prime is above r.
    primes = [p for p in range(2, 111) if prime_factors(p) == [(p, 1)]]
    pairs = zip(primes, primes[1:])
    limits = sorted({x for p, q in pairs for x in (p * p - 1, p * p, p * p + 1, p * q)})
    expected = [0] + [mobius_by_trial_division(n) for n in range(1, limits[-1] + 1)]
    for limit in limits:
        table = build_sieve(limit)
        assert table.mobius.tolist() == expected[: limit + 1], limit
        assert table.mertens.tolist() == list(accumulate(expected[: limit + 1])), limit
        if limit <= LIMIT:
            assert table.mobius == TABLE.mobius[: limit + 1], limit
            assert table.mertens == TABLE.mertens[: limit + 1], limit


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_blocks_of_any_size_give_the_same_tables(monkeypatch, block):
    # blocks only group the writes for the cache, so splitting a cofactor's
    # writes, a prime's multiples or the sieve of Eratosthenes at any point
    # changes nothing, in the tables or in the shared prime list
    monkeypatch.setattr(sieve, "_BLOCK", block)
    for limit in (1, 2, 63, 64, 65, 999, 1000, 1001, LIMIT):
        table = build_sieve(limit)
        assert table.mobius == TABLE.mobius[: limit + 1], limit
        assert table.mertens == TABLE.mertens[: limit + 1], limit
        monkeypatch.setattr(sieve, "_prime_store", (0, []))
        primes = sieve._primes_upto(limit)
        size = sieve._prime_store[0]
        assert primes == [p for p in range(2, size) if prime_factors(p) == [(p, 1)]], limit


def test_a_cold_build_grows_the_prime_store_only_to_its_square_root(monkeypatch):
    # the tables read the primes up to isqrt(limit) from their own sieve of
    # Eratosthenes, so a build leaves the store as it found it, cold or not
    for store, limit in (((0, []), 10**6), ((12, [2, 3, 5, 7, 11]), LIMIT)):
        monkeypatch.setattr(sieve, "_prime_store", store)
        build_sieve(limit)
        assert sieve._prime_store is store, limit


def test_binomial_after_a_small_sieve(monkeypatch):
    # build_sieve leaves the store as it found it, here empty, so the
    # factored binomial (j*j >= 64*(n + 4096) in each of these) grows it
    monkeypatch.setattr(sieve, "_prime_store", (0, []))
    build_sieve(64)
    for n, j in ((3000, 1500), (40_000, 20_000), (100_000, 50_000)):
        assert binomial(n, j) == math.comb(n, j), (n, j)


def test_mobius_divisor_sum_collapses():
    # sum of mu over the divisors of n is 1 for n = 1 and 0 otherwise
    assert sum(TABLE.mobius[d] for d in divisors_by_trial(1)) == 1
    for n in range(2, LIMIT + 1):
        assert sum(TABLE.mobius[d] for d in divisors_by_trial(n)) == 0, n


def test_mobius_multiplicative_on_coprime_pairs():
    for a in range(1, LIMIT + 1):
        for b in range(1, LIMIT // a + 1):
            if math.gcd(a, b) == 1:
                assert TABLE.mobius[a * b] == TABLE.mobius[a] * TABLE.mobius[b]


def test_mertens_is_the_prefix_sum_of_mobius():
    running = 0
    for n in range(LIMIT + 1):
        running += TABLE.mobius[n]
        assert TABLE.mertens[n] == running, n


@pytest.mark.parametrize(
    "limit", [1, 2, sieve._RUN - 1, sieve._RUN, sieve._RUN + 1, 2 * sieve._RUN + 1]
)
def test_mertens_runs_match_accumulate_at_run_edges(limit):
    table = build_sieve(limit)
    assert table.mertens.tolist() == list(accumulate(table.mobius))


def test_mertens_run_sums_from_its_carry():
    mu = bytes([1, 255, 255, 0, 1, 255])  # mu(n) mod 256
    lanes, last = sieve._mertens_run(mu, -7)
    assert array("h", lanes).tolist() == [-6, -7, -8, -8, -7, -8] == list(accumulate(
        [1, -1, -1, 0, 1, -1], initial=-7))[1:]
    assert last == -8


@pytest.mark.parametrize("carry", [2**15 - 6, -(2**15) + 6, 2**15 + 100])
def test_mertens_run_refuses_sums_that_may_not_fit_16_bits(carry):
    # |carry| + R >= 2^15 for R = 6 entries, though the sums of zeros from
    # 2^15 - 6 would fit
    with pytest.raises(OverflowError):
        sieve._mertens_run(bytes(6), carry)


def test_mertens_run_keeps_sums_just_inside_16_bits():
    lanes, last = sieve._mertens_run(b"\x01" * 6, 2**15 - 7)
    assert array("h", lanes).tolist() == list(range(2**15 - 6, 2**15)) and last == 2**15 - 1
    lanes, last = sieve._mertens_run(b"\xff" * 6, -(2**15) + 7)
    assert array("h", lanes)[-1] == last == -(2**15) + 1


def test_squarefree_by_sign_splits_the_table():
    plus, minus = squarefree_by_sign(LIMIT, TABLE)
    assert plus == [q for q in range(1, LIMIT + 1) if TABLE.mobius[q] == 1]
    assert minus == [q for q in range(1, LIMIT + 1) if TABLE.mobius[q] == -1]
    # a top past the table stops at its end
    plus, minus = squarefree_by_sign(10**6, build_sieve(30))
    assert (plus, minus) == ([1, 6, 10, 14, 15, 21, 22, 26], [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 30])


def test_smallest_prime_divisor_against_trial_division():
    # verify bounds reads n's least prime as its least divisor above 1
    for n in range(2, LIMIT + 1):
        p = divisors(n)[1]
        assert n % p == 0
        assert all(n % q != 0 for q in range(2, p))
        assert prime_factors(n)[0][0] == p


def test_prime_factors_against_trial_division():
    for n in range(1, LIMIT + 1):
        factors = prime_factors(n)
        primes = [p for p, _ in factors]
        # ascending distinct primes whose powers multiply back to n
        assert primes == sorted(set(primes)), n
        assert all(divisors_by_trial(p) == [1, p] for p in primes), n
        assert math.prod(p**e for p, e in factors) == n, n
    assert prime_factors(2**31 - 1) == [(2**31 - 1, 1)]
    assert prime_factors(10**8) == [(2, 8), (5, 8)]


def test_totient_frozen_values():
    assert totient_by_euler_product(1) == 1
    assert totient_by_euler_product(2) == 1
    assert totient_by_euler_product(6) == 2
    assert totient_by_euler_product(97) == 96
    assert totient_by_euler_product(360) == 96


def test_totient_against_gcd_loop():
    for n in range(1, 501):
        direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert totient_by_euler_product(n) == direct, n


def test_totient_mobius_divisor_identity():
    # phi(n) = sum over d | n of mu(d) * n / d
    for n in range(1, LIMIT + 1):
        val = sum(TABLE.mobius[d] * (n // d) for d in divisors_by_trial(n))
        assert totient_by_euler_product(n) == val, n


def test_divisors_frozen_values():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_divisors_against_trial_sweep():
    for n in range(1, 1001):
        assert divisors(n) == divisors_by_trial(n), n


def test_divisors_rejects_out_of_range():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-6)


def test_smallest_prime_divisor_values():
    for n, p in ((2, 2), (6, 2), (15, 3), (97, 97), (10**8 + 7, 10**8 + 7)):
        assert divisors(n)[1] == p, n


def test_build_sieve_validates_limit():
    with pytest.raises(ValueError):
        build_sieve(0)


def test_build_sieve_enforces_capacity_cap():
    with pytest.raises(CapacityError):
        build_sieve(101, cap=100)
    assert build_sieve(100, cap=100).limit == 100


def test_tables_are_signed_bytes_and_16_bit_mertens():
    assert TABLE.mobius.typecode == "b"
    assert TABLE.mertens.typecode == "h"
    assert (TABLE.mobius.itemsize, TABLE.mertens.itemsize) == (1, 2)


def test_tables_take_three_bytes_per_entry():
    # both arrays are allocated at their exact length, with no spare room
    limit = 10**6
    table = build_sieve(limit)
    size = sys.getsizeof(table.mobius) + sys.getsizeof(table.mertens)
    assert size <= 3 * (limit + 1) + sys.getsizeof(array("b")) + sys.getsizeof(array("h"))
    assert table.mertens[limit] == 212  # M(10^6), OEIS A084237


def test_default_cap_admits_the_table_of_n_10_12():
    # checked before anything is allocated, so neither table is built here
    assert ceil_cbrt((10**12) ** 2) == DEFAULT_LIMIT_CAP == 10**8
    with pytest.raises(CapacityError, match="sieve limit 100000001 exceeds capacity cap 100000000"):
        build_sieve(ceil_cbrt((10**12 + 1) ** 2))

