import pytest

from rpsets.bounds import (
    BoundReport,
    check_f,
    check_fk,
    check_phi,
    check_phik,
    partition_identity_f,
    partition_identity_fk,
    partition_sum_f,
    partition_sum_fk,
)
from rpsets.counting import f_interval, fk_interval, phi_interval, phik_interval
from rpsets.exactmath import binomial, ceil_cbrt, decimal_string, pascal_rows
from rpsets.sieve import build_sieve, prime_factors

TABLE = build_sieve(400)
ROWS = pascal_rows(62)  # the binomials of every cell up to n = 60


# The checks take exact counts, fk and phik as rows over k, and the
# partition sums count functions; here both come from the kernel.
def f(a, b):
    return f_interval(a, b, TABLE)


def fk_row(m, n, k_max):
    """[0, fk(m, n, 1), ..., fk(m, n, k_max)]"""
    return [0, *(fk_interval(m, n, k, TABLE) for k in range(1, k_max + 1))]


def phik_row(m, n, k_max):
    return [0, *(phik_interval(m, n, k, TABLE) for k in range(1, k_max + 1))]


def fk_upto(k_max):
    return lambda a, b: fk_row(a, b, min(b - a, k_max))


def t1(m, n):
    return check_f(m, n, f(m, n))


def t2(m, n, k):
    return check_fk(m, n, fk_row(m, n, k), ROWS)[k - 1]


def t3(m, n):
    return check_phi(m, n, phi_interval(m, n, TABLE), prime_factors(n)[0][0])


def t4(m, n, k):
    return check_phik(m, n, phik_row(m, n, k), prime_factors(n)[0][0], ROWS)[k - 1]


def test_check_f_frozen_reports():
    r = t1(2, 6)
    assert (r.theorem, r.gap, r.upper) == ("T1", 3, 24)
    assert r.holds_lower and r.holds_upper
    assert r.k is None and r.tight_upper_holds is None
    assert t1(0, 1).gap == 0
    assert t1(1, 2).gap == 0
    assert t1(1, 2).upper == 4


def test_check_fk_frozen_reports():
    r = t2(0, 4, 2)
    assert (r.theorem, r.gap, r.upper) == ("T2", 0, 12)
    assert r.holds_lower and r.holds_upper
    r = t2(2, 6, 2)
    assert (r.gap, r.upper) == (1, 18)
    assert t2(0, 1, 1).gap == 0


def test_check_phi_frozen_reports():
    r = t3(2, 6)
    assert (r.theorem, r.gap, r.upper) == ("T3", 2, 24)
    assert r.holds_lower and r.holds_upper
    assert t3(0, 2).gap == 0
    assert t3(0, 3).gap == 0


def test_check_phik_frozen_reports():
    r = t4(2, 6, 2)
    assert (r.theorem, r.gap, r.upper) == ("T4", 1, 6)
    assert r.holds_lower and r.holds_upper
    assert t4(0, 2, 1).gap == 0
    assert t4(0, 6, 1).gap == 1


def test_phi_checks_require_n_at_least_2():
    # no p >= 2 divides n = 1
    with pytest.raises(ValueError, match="p = 2 for n = 1"):
        check_phi(0, 1, 1, 2)
    with pytest.raises(ValueError, match="p = 2 for n = 1"):
        check_phik(0, 1, [0, 1], 2, ROWS)


def test_phi_checks_require_p_to_divide_n():
    # p = 4 at n = 6 used to report a gap for the wrong p
    for p in (4, 1, 0, -2):
        with pytest.raises(ValueError, match=f"p = {p} for n = 6"):
            check_phi(2, 6, phi_interval(2, 6, TABLE), p)
        with pytest.raises(ValueError, match=f"p = {p} for n = 6"):
            check_phik(2, 6, phik_row(2, 6, 2), p, ROWS)


def test_even_endpoints_make_the_gap_formula_exact():
    # with m, n both even the correction exponent is exactly (n - m) / 2
    for m in range(0, 20, 2):
        for n in range(m + 2, 40, 2):
            r = t1(m, n)
            direct = 2 ** (n - m) - 2 ** ((n - m) // 2) - f_interval(m, n, TABLE)
            assert r.gap == direct


def test_bounds_hold_on_moderate_sweep():
    for n in range(1, 61):
        p = prime_factors(n)[0][0] if n >= 2 else None
        for m in range(n):
            w = n - m
            r = t1(m, n)
            assert r.holds_lower and r.holds_upper, (m, n)
            reports = check_fk(m, n, fk_row(m, n, w), ROWS)
            if p is not None:
                r = t3(m, n)
                assert r.holds_lower and r.holds_upper, (m, n)
                reports += check_phik(m, n, phik_row(m, n, w), p, ROWS)
            assert [r.k for r in reports] == [*range(1, w + 1)] * (1 if p is None else 2)
            for r in reports:
                assert r.holds_lower and r.holds_upper, (r.theorem, m, n, r.k)


def test_row_checks_report_each_k_as_its_single_check_did():
    # the T2 and T4 figures of every k, from the closed forms
    for n in range(2, 25):
        p = prime_factors(n)[0][0]
        for m in range(n):
            w = n - m
            for r in check_fk(m, n, fk_row(m, n, w + 2), ROWS):
                k = r.k
                gap = binomial(w, k) - binomial(n // 2 - m // 2, k) - fk_interval(m, n, k, TABLE)
                upper = n * binomial(w // 3 + 2, k)
                assert r == ("T2", m, n, k, gap, upper, gap >= 0, gap <= upper,
                             gap <= n * binomial(w // 3, k)), r
            for r in check_phik(m, n, phik_row(m, n, w + 2), p, ROWS):
                k = r.k
                gap = binomial(w, k) - binomial(n // p - m // p, k) - phik_interval(m, n, k, TABLE)
                upper = n * binomial(w // (p + 1) + 1, k)
                assert r == ("T4", m, n, k, gap, upper, gap >= 0, gap <= upper, None), r


def test_tight_candidate_is_recorded_but_only_for_t2():
    assert t2(0, 4, 2).tight_upper_holds is not None
    assert t1(0, 4).tight_upper_holds is None
    assert t3(0, 4).tight_upper_holds is None
    assert t4(0, 4, 2).tight_upper_holds is None


def test_partition_identity_f_frozen_cases():
    assert partition_sum_f(0, 4, f) == 2**4 - 1
    assert partition_identity_f(0, 1, f)
    assert partition_identity_f(0, 4, f)
    assert partition_identity_f(2, 6, f)


def test_partition_identity_fk_frozen_cases():
    assert partition_sum_fk(0, 4, fk_upto(2)) == [0, binomial(4, 1), binomial(4, 2)]
    assert partition_identity_fk(0, 2, fk_upto(2))
    assert partition_identity_fk(0, 4, fk_upto(2))
    assert partition_identity_fk(2, 6, fk_upto(3))
    # rows of any lengths add entry by entry, the shorter ones as if padded with 0
    rows = {(0, 6): [1, 2, 3], (0, 3): [10], (0, 2): [100, 200, 300, 400], (0, 1): [1000, 1]}
    assert partition_sum_fk(0, 6, lambda a, b: rows[a, b]) == [3111, 205, 303, 400]
    assert not partition_identity_fk(0, 4, lambda a, b: [0, 99] if b == 4 else fk_row(a, b, 1))


def test_partition_identities_moderate_sweep():
    for n in range(1, 41):
        for m in range(n):
            assert partition_identity_f(m, n, f), (m, n)
            assert partition_identity_fk(m, n, fk_upto(8)), (m, n)


def test_partition_sums_validate_arguments():
    with pytest.raises(ValueError, match="m < n required"):
        partition_sum_f(4, 4, f)
    with pytest.raises(ValueError, match="m < n required"):
        partition_sum_fk(5, 4, fk_upto(1))


def test_report_big_values_stay_decimal_strings():
    # verify prints a failed report's values through decimal_string
    r = t1(0, 80)
    assert decimal_string(r.gap) == str(r.gap)
    assert int(decimal_string(r.upper)) == r.upper == 2 * 80 * 2 ** (80 // 3)


def test_bound_report_is_plain_data():
    r = BoundReport("T1", 0, 4, None, 1, 16, True, True)
    assert r.gap == 1
    with pytest.raises(AttributeError):
        r.gap = 2


@pytest.mark.parametrize("n", [10**7, 10**8])
def test_t2_holds_at_scale_with_a_two_thirds_table(n):
    # far beyond any enumeration; the table holds only n^(2/3) Mertens values
    table = build_sieve(ceil_cbrt(n * n))

    class Binomials(dict):
        # C(x, 0..3), made for the four x that check_fk reads
        def __missing__(self, x):
            return [binomial(x, j) for j in range(4)]

    m = n // 4
    row = [0, *(fk_interval(m, n, k, table) for k in (1, 2, 3))]
    for r in check_fk(m, n, row, Binomials()):
        assert r.holds_lower and r.holds_upper, (n, r.k, r.gap, r.upper)
