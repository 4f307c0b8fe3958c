import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsets import counting
from rpsets.cli import main
from rpsets.counting import (
    K_FAMILIES,
    Family,
    _check_cell,
    _mertens,
    _reach,
    _squarefree_divisors,
    count_plane,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from rpsets.exactmath import binomial, ceil_cbrt
from rpsets.oracle import oracle_count
from rpsets.sieve import build_sieve, prime_factors, squarefree_by_sign

TABLE = build_sieve(3000)
# long enough that every M(x) the tests below ask for is a table read
FULL = build_sieve(300_000)


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


def test_squarefree_divisor_cache_stays_bounded():
    # each distinct n it keeps costs about 0.8 KB, and a long run of phik
    # counts asks for a new n every time
    for n in range(10**6, 10**6 + 1000):
        phik_interval(n - 10, n, 2, TABLE)
    assert _squarefree_divisors.cache_info().currsize <= 256


def test_k_validation():
    with pytest.raises(ValueError):
        fk_interval(0, 4, 0, TABLE)
    with pytest.raises(ValueError):
        phik_interval(0, 4, -1, TABLE)


def mertens_by_split(x, table, memo, top=None):
    """_mertens(x) with the signed squarefree lists it reads, built up to
    2*isqrt(top) for top = x unless given, as the kernel builds them."""
    top = x if top is None else top
    return _mertens(x, table, memo, squarefree_by_sign(2 * math.isqrt(top), table))


@pytest.mark.parametrize("limit", [1, 10])
def test_mertens_recursion_matches_sieve_prefix(limit):
    small = build_sieve(limit)
    for x in range(2001):
        assert mertens_by_split(x, small, {}) == TABLE.mertens[x], x


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200_000), st.integers(1, 2000))
def test_mertens_split_matches_the_table(x, limit):
    # the split point is 2*isqrt(x) when the table reaches it and the whole
    # table when it does not; both must give the sieved M(x)
    assert mertens_by_split(x, build_sieve(limit), {}) == FULL.mertens[x]


def fresh(count, *args):
    """count(*args) with no weight map kept from an earlier cell, so that f
    and fk read the table they are given: the kept map is reused whichever
    table built it."""
    counting._last_cell = (0, 0, 0, {})
    return count(*args)


@pytest.mark.parametrize("n", [229_999, 300_000])
def test_recursion_and_cut_off_match_a_table_to_n(n):
    # a table of n^(2/3) finds M above it by the split and rounds the
    # reach to its block; a table reaching n needs no recursion
    short = build_sieve(ceil_cbrt(n * n))
    for m in (0, 1, n // 3, n - 5000):
        assert fresh(f_interval, m, n, short) == fresh(f_interval, m, n, FULL), m
        for k in (1, 2, 3, 7):
            assert (fresh(fk_interval, m, n, k, short)
                    == fresh(fk_interval, m, n, k, FULL)), (m, k)


def test_mertens_published_values():
    small = build_sieve(1000)
    memo: dict[int, int] = {}
    for x, expected in ((10**4, -23), (10**5, -48), (10**6, 212), (10**7, 1037)):
        assert mertens_by_split(x, small, memo, top=10**7) == expected, x


def all_families(m, n, k, table):
    return (
        fresh(f_interval, m, n, table),
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


@st.composite
def far_cells(draw):
    """(family, m, n, k) of width at most 24 at n up to 10^18, or 10^9 for
    PHI and PHIK, which factor n by trial division."""
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(1, 10**9 if family in (Family.PHI, Family.PHIK) else 10**18))
    m = n - draw(st.integers(1, min(n, 24)))
    return family, m, n, draw(st.integers(1, 4)) if family in K_FAMILIES else None


SHORT = build_sieve(100)


@settings(max_examples=400, deadline=None)
@given(far_cells())
def test_counts_far_out_equal_the_gcd_state_dp(cell):
    # a table of 100 is short of every n past it, and of the reach of most
    family, m, n, k = cell
    count = getattr(counting, f"{family.value.lower()}_interval")
    args = (m, n, SHORT) if k is None else (m, n, k, SHORT)
    assert count(*args) == oracle_count(family, m, n, k)


def test_the_widest_cell_reaches_furthest():
    # the table of a grid is sized by the reach of (m_lo, n_hi), as f: no F
    # or FK cell m_lo <= m < n <= n_hi, at any k, reaches further
    top = 80
    furthest = [[0] * (top + 1) for _ in range(top + 2)]  # over cells m >= a, n <= b
    for a in range(top - 1, -1, -1):
        for b in range(a + 1, top + 1):
            own = max(_reach(a, b, k) for k in (None, *range(1, b - a + 2)))
            furthest[a][b] = max(own, furthest[a + 1][b], furthest[a][b - 1])
            assert furthest[a][b] == _reach(a, b, None), (a, b)
    assert _reach(0, top, None) == top and _reach(10, 11, None) == 0


def test_every_k_of_a_cell_reads_one_kept_map():
    # f and fk keep the last cell's weight map, built by whichever table its
    # first call was given and read as far as that call's k needed, and phi
    # and phik the last cell's divisor map. Runs of k up, down and mixed with
    # other cells, on a full table and on one that sends every block to
    # _mertens, must all give the plane's values.
    rng = random.Random(24)
    tables = (build_sieve(60), build_sieve(1))
    planes = [None] + [count_plane(n) for n in range(1, 61)]
    cells = rng.sample([(m, n) for n in range(1, 61) for m in range(n)], 120)
    # k None is f and phi, and k = n - m + 1 fits no set
    ups = [[(m, n, k) for k in (None, *range(1, n - m + 2))] for m, n in cells]
    runs = ups + [run[::-1] for run in ups]
    rng.shuffle(runs)
    mixed = [call for run in ups for call in run]
    rng.shuffle(mixed)
    for i, (m, n, k) in enumerate([call for run in runs for call in run] + mixed):
        table, plane = tables[i % 2], planes[n]
        if k is None:
            found = f_interval(m, n, table), phi_interval(m, n, table)
            expected = plane.f[m], plane.phi[m]
        else:
            found = fk_interval(m, n, k, table), phik_interval(m, n, k, table)
            expected = (plane.fk[m][k], plane.phik[m][k]) if k <= n - m else (0, 0)
        assert found == expected, (m, n, k, i % 2)


@pytest.mark.parametrize("k", [511, 512, 513])
def test_fk_on_both_sides_of_the_math_comb_switch(k, monkeypatch):
    # binomial(w, k) calls math.comb at every w when k*k < 64*4096 = 512^2,
    # so the sum calls math.comb itself for k = 511, and binomial from 512
    widths = []

    def counted(w, j):
        widths.append(w)
        return binomial(w, j)

    monkeypatch.setattr(counting, "binomial", counted)
    for m, n in ((0, 2000), (700, 2900)):
        expected = sum(TABLE.mobius[d] * math.comb(n // d - m // d, k) for d in range(1, n + 1))
        assert fk_interval(m, n, k, TABLE) == expected, (m, n)
    assert bool(widths) == (k >= 512)


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


def plane_matches_kernel(plane, m, k):
    n = plane.n
    return (
        plane.f[m] == f_interval(m, n, TABLE)
        and plane.phi[m] == phi_interval(m, n, TABLE)
        and plane.fk[m][k] == fk_interval(m, n, k, TABLE)
        and plane.phik[m][k] == phik_interval(m, n, k, TABLE)
    )


def test_plane_equals_the_kernel_on_every_cell():
    for n in range(1, 65):
        plane = count_plane(n)
        for m in range(n):
            assert len(plane.fk[m]) == len(plane.phik[m]) == n - m + 1
            assert plane.fk[m][0] == plane.phik[m][0] == 0
            assert sum(plane.fk[m]) == plane.f[m], (m, n)
            assert sum(plane.phik[m]) == plane.phi[m], (m, n)
            for k in range(1, n - m + 1):
                assert plane_matches_kernel(plane, m, k), (m, n, k)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 500), st.data())
def test_plane_cells_match_the_kernel(n, data):
    plane = count_plane(n)
    for _ in range(5):
        m = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(1, n - m))
        assert plane_matches_kernel(plane, m, k), (m, n, k)


def test_plane_validation():
    with pytest.raises(ValueError, match="n must be >= 1"):
        count_plane(0)
