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
from rpsets.exactmath import binomial, ceil_cbrt, decimal_string
from rpsets.sieve import build_sieve, prime_factors

TABLE = build_sieve(400)


# The checks take exact counts and the partition sums count functions; here
# both come from the kernel.
def f(a, b):
    return f_interval(a, b, TABLE)


def fk_of(k):
    return lambda a, b: fk_interval(a, b, k, TABLE)


def t1(m, n):
    return check_f(m, n, f(m, n))


def t2(m, n, k):
    return check_fk(m, n, k, fk_interval(m, n, k, TABLE))


def t3(m, n):
    return check_phi(m, n, phi_interval(m, n, TABLE), prime_factors(n)[0][0])


def t4(m, n, k):
    return check_phik(m, n, k, phik_interval(m, n, k, TABLE), prime_factors(n)[0][0])


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
        check_phik(0, 1, 1, 1, 2)


def test_phi_checks_require_p_to_divide_n():
    # p = 4 at n = 6 used to report a gap for the wrong p
    for p in (4, 1, 0, -2):
        with pytest.raises(ValueError, match=f"p = {p} for n = 6"):
            check_phi(2, 6, phi_interval(2, 6, TABLE), p)
        with pytest.raises(ValueError, match=f"p = {p} for n = 6"):
            check_phik(2, 6, 2, phik_interval(2, 6, 2, TABLE), p)


def test_even_endpoints_make_the_gap_formula_exact():
    # with m, n both even the correction exponent is exactly (n - m) / 2
    for m in range(0, 20, 2):
        for n in range(m + 2, 40, 2):
            r = t1(m, n)
            direct = 2 ** (n - m) - 2 ** ((n - m) // 2) - f_interval(m, n, TABLE)
            assert r.gap == direct


def test_bounds_hold_on_moderate_sweep():
    for n in range(1, 61):
        for m in range(n):
            r = t1(m, n)
            assert r.holds_lower and r.holds_upper, (m, n)
            for k in range(1, n - m + 1):
                r = t2(m, n, k)
                assert r.holds_lower and r.holds_upper, (m, n, k)
            if n >= 2:
                r = t3(m, n)
                assert r.holds_lower and r.holds_upper, (m, n)
                for k in range(1, n - m + 1):
                    r = t4(m, n, k)
                    assert r.holds_lower and r.holds_upper, (m, n, k)


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
    assert partition_sum_fk(0, 4, 2, fk_of(2)) == binomial(4, 2)
    assert partition_identity_fk(0, 2, 2, fk_of(2))
    assert partition_identity_fk(0, 4, 2, fk_of(2))
    assert partition_identity_fk(2, 6, 3, fk_of(3))


def test_partition_identities_moderate_sweep():
    for n in range(1, 41):
        for m in range(n):
            assert partition_identity_f(m, n, f), (m, n)
            for k in range(1, min(n - m, 8) + 1):
                assert partition_identity_fk(m, n, k, fk_of(k)), (m, n, k)


def test_partition_sums_validate_arguments():
    with pytest.raises(ValueError, match="m < n required"):
        partition_sum_f(4, 4, f)
    with pytest.raises(ValueError, match="m < n required"):
        partition_sum_fk(5, 4, 1, fk_of(1))
    with pytest.raises(ValueError, match="k must be >= 1"):
        partition_sum_fk(0, 4, 0, fk_of(0))


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
    for k in (2, 3):
        r = check_fk(n // 4, n, k, fk_interval(n // 4, n, k, table))
        assert r.holds_lower and r.holds_upper, (n, k, r.gap, r.upper)
