import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsets.cli import main
from rpsets.counting import (
    Family,
    _check_cell,
    _mertens,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from rpsets.exactmath import binomial, ceil_cbrt
from rpsets.sieve import build_sieve, prime_factors

TABLE = build_sieve(3000)


def subsets_brute(m, n):
    values = range(m + 1, n + 1)
    for size in range(1, n - m + 1):
        yield from combinations(values, size)


def brute_f(m, n, k=None):
    return sum(
        1
        for s in subsets_brute(m, n)
        if math.gcd(*s, 0) == 1 and (k is None or len(s) == k)
    )


def brute_phi(m, n, k=None):
    return sum(
        1
        for s in subsets_brute(m, n)
        if math.gcd(math.gcd(*s, 0), n) == 1 and (k is None or len(s) == k)
    )


@pytest.mark.parametrize(
    "m,n,expected",
    [(0, 1, 1), (1, 2, 0), (0, 2, 2), (0, 3, 5), (1, 3, 1), (0, 4, 11),
     (0, 5, 26), (0, 6, 53), (2, 6, 9)],
)
def test_f_frozen_values(m, n, expected):
    assert f_interval(m, n, TABLE) == expected


@pytest.mark.parametrize(
    "m,n,k,expected",
    [(0, 1, 1, 1), (0, 5, 1, 1), (0, 4, 2, 5), (0, 2, 2, 1), (2, 6, 2, 4),
     (2, 6, 3, 4), (2, 6, 5, 0)],
)
def test_fk_frozen_values(m, n, k, expected):
    assert fk_interval(m, n, k, TABLE) == expected


@pytest.mark.parametrize(
    "m,n,expected",
    [(0, 1, 1), (0, 2, 2), (0, 3, 6), (2, 6, 10)],
)
def test_phi_frozen_values(m, n, expected):
    assert phi_interval(m, n, TABLE) == expected


@pytest.mark.parametrize(
    "m,n,k,expected",
    [(0, 2, 1, 1), (0, 6, 1, 2), (2, 6, 2, 4), (2, 6, 5, 0)],
)
def test_phik_frozen_values(m, n, k, expected):
    assert phik_interval(m, n, k, TABLE) == expected


def test_all_families_match_brute_force_small():
    for n in range(1, 13):
        for m in range(n):
            assert f_interval(m, n, TABLE) == brute_f(m, n), (m, n)
            assert phi_interval(m, n, TABLE) == brute_phi(m, n), (m, n)
            for k in range(1, n - m + 1):
                assert fk_interval(m, n, k, TABLE) == brute_f(m, n, k), (m, n, k)
                assert phik_interval(m, n, k, TABLE) == brute_phi(m, n, k), (m, n, k)


def naive_f(m, n):
    # full d loop, no pruning of zero terms
    return sum(
        TABLE.mobius[d] * ((1 << (n // d - m // d)) - 1) for d in range(1, n + 1)
    )


def naive_fk(m, n, k):
    return sum(
        TABLE.mobius[d] * binomial(n // d - m // d, k) for d in range(1, n + 1)
    )


def test_pruned_sums_equal_naive_sums():
    for n in range(1, 41):
        for m in range(n):
            assert f_interval(m, n, TABLE) == naive_f(m, n), (m, n)
            for k in range(1, n - m + 1):
                assert fk_interval(m, n, k, TABLE) == naive_fk(m, n, k), (m, n, k)
    # wide cells, where many d share a width
    for n in (1500, 1729, 2000):
        for m in (0, 1, n // 3, n // 2, n - 7):
            assert f_interval(m, n, TABLE) == naive_f(m, n), (m, n)
            for k in (1, 2, 3):
                assert fk_interval(m, n, k, TABLE) == naive_fk(m, n, k), (m, n, k)


def test_fk_is_zero_above_interval_width():
    for n in (3, 7, 12, 30):
        for m in (0, 1, n - 2):
            for k in range(n - m + 1, n - m + 4):
                assert fk_interval(m, n, k, TABLE) == 0
                assert phik_interval(m, n, k, TABLE) == 0


def test_cardinality_slices_partition_the_counts():
    for n in range(1, 41):
        for m in range(n):
            width = n - m
            assert sum(fk_interval(m, n, k, TABLE) for k in range(1, width + 1)) \
                == f_interval(m, n, TABLE), (m, n)
            assert sum(phik_interval(m, n, k, TABLE) for k in range(1, width + 1)) \
                == phi_interval(m, n, TABLE), (m, n)


def test_f_monotone_in_n():
    # growing the interval on the right can only add subsets
    for m in range(0, 10):
        prev = 0
        for n in range(m + 1, 40):
            cur = f_interval(m, n, TABLE)
            assert cur >= prev, (m, n)
            prev = cur


def test_n_equals_one_edge():
    assert f_interval(0, 1, TABLE) == 1
    assert phi_interval(0, 1, TABLE) == 1
    assert phik_interval(0, 1, 1, TABLE) == 1
    assert phik_interval(0, 1, 2, TABLE) == 0


def test_euler_phi_cross_check():
    # the singletons {a} with gcd(a, n) = 1 are the totatives of n
    assert phik_interval(0, 2, 1, TABLE) == 1
    assert phik_interval(0, 6, 1, TABLE) == 2
    assert phik_interval(0, 97, 1, TABLE) == 96
    for n in range(2, 2001):
        product = n
        for p, _ in prime_factors(n):
            product = product // p * (p - 1)
        assert phik_interval(0, n, 1, TABLE) == product, n


@pytest.mark.parametrize("func", [f_interval, phi_interval])
def test_interval_validation(func):
    with pytest.raises(ValueError, match="m < n required"):
        func(3, 3, TABLE)
    with pytest.raises(ValueError, match="m < n required"):
        func(5, 2, TABLE)
    with pytest.raises(ValueError):
        func(-1, 2, TABLE)


def test_k_validation():
    with pytest.raises(ValueError):
        fk_interval(0, 4, 0, TABLE)
    with pytest.raises(ValueError):
        phik_interval(0, 4, -1, TABLE)


@pytest.mark.parametrize("limit", [1, 10])
def test_mertens_recursion_matches_sieve_prefix(limit):
    small = build_sieve(limit)
    for x in range(2001):
        assert _mertens(x, small, {}) == TABLE.mertens[x], x


def test_mertens_published_values():
    small = build_sieve(1000)
    memo: dict[int, int] = {}
    for x, expected in ((10**4, -23), (10**5, -48), (10**6, 212), (10**7, 1037)):
        assert _mertens(x, small, memo) == expected, x


def all_families(m, n, k, table):
    return (
        f_interval(m, n, table),
        fk_interval(m, n, k, table),
        phi_interval(m, n, table),
        phik_interval(m, n, k, table),
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3000).flatmap(
    lambda n: st.tuples(st.integers(0, n - 1), st.just(n), st.integers(1, 8))
))
def test_table_size_does_not_change_counts(cell):
    m, n, k = cell
    full = all_families(m, n, k, TABLE)
    assert all_families(m, n, k, build_sieve(1)) == full
    assert all_families(m, n, k, build_sieve(ceil_cbrt(n * n))) == full


def test_count_query_validation():
    with pytest.raises(ValueError):
        _check_cell(Family.F, 3, 3, None)
    with pytest.raises(ValueError):
        _check_cell(Family.FK, 0, 4, None)
    with pytest.raises(ValueError):
        _check_cell(Family.PHIK, 0, 4, 0)
    with pytest.raises(ValueError):
        _check_cell(Family.F, 0, 4, 2)
    _check_cell(Family.FK, 0, 4, 2)


def test_count_dispatch_matches_functions(capsys):
    # compute dispatches on the family to its own count function
    for argv, expected in (
        (("f",), f_interval(2, 6, TABLE)),
        (("fk", "--k", "2"), fk_interval(2, 6, 2, TABLE)),
        (("phi",), phi_interval(2, 6, TABLE)),
        (("phik", "--k", "2"), phik_interval(2, 6, 2, TABLE)),
    ):
        assert main(["compute", *argv, "--m", "2", "--n", "6"]) == 0, argv
        assert capsys.readouterr().out == f"{expected}\n", argv
