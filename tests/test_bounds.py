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
from rpsets.counting import f_interval
from rpsets.exactmath import binomial, ceil_cbrt, decimal_string
from rpsets.sieve import build_sieve

TABLE = build_sieve(400)


def test_check_f_frozen_reports():
    r = check_f(2, 6, TABLE)
    assert (r.theorem, r.gap, r.upper) == ("T1", 3, 24)
    assert r.holds_lower and r.holds_upper
    assert r.k is None and r.tight_upper_holds is None
    assert check_f(0, 1, TABLE).gap == 0
    assert check_f(1, 2, TABLE).gap == 0
    assert check_f(1, 2, TABLE).upper == 4


def test_check_fk_frozen_reports():
    r = check_fk(0, 4, 2, TABLE)
    assert (r.theorem, r.gap, r.upper) == ("T2", 0, 12)
    assert r.holds_lower and r.holds_upper
    r = check_fk(2, 6, 2, TABLE)
    assert (r.gap, r.upper) == (1, 18)
    assert check_fk(0, 1, 1, TABLE).gap == 0


def test_check_phi_frozen_reports():
    r = check_phi(2, 6, TABLE)
    assert (r.theorem, r.gap, r.upper) == ("T3", 2, 24)
    assert r.holds_lower and r.holds_upper
    assert check_phi(0, 2, TABLE).gap == 0
    assert check_phi(0, 3, TABLE).gap == 0


def test_check_phik_frozen_reports():
    r = check_phik(2, 6, 2, TABLE)
    assert (r.theorem, r.gap, r.upper) == ("T4", 1, 6)
    assert r.holds_lower and r.holds_upper
    assert check_phik(0, 2, 1, TABLE).gap == 0
    assert check_phik(0, 6, 1, TABLE).gap == 1


def test_phi_checks_require_n_at_least_2():
    with pytest.raises(ValueError):
        check_phi(0, 1, TABLE)
    with pytest.raises(ValueError):
        check_phik(0, 1, 1, TABLE)


def test_even_endpoints_make_the_gap_formula_exact():
    # with m, n both even the correction exponent is exactly (n - m) / 2
    for m in range(0, 20, 2):
        for n in range(m + 2, 40, 2):
            r = check_f(m, n, TABLE)
            direct = 2 ** (n - m) - 2 ** ((n - m) // 2) - f_interval(m, n, TABLE)
            assert r.gap == direct


def test_bounds_hold_on_moderate_sweep():
    for n in range(1, 61):
        for m in range(n):
            r = check_f(m, n, TABLE)
            assert r.holds_lower and r.holds_upper, (m, n)
            for k in range(1, n - m + 1):
                r = check_fk(m, n, k, TABLE)
                assert r.holds_lower and r.holds_upper, (m, n, k)
            if n >= 2:
                r = check_phi(m, n, TABLE)
                assert r.holds_lower and r.holds_upper, (m, n)
                for k in range(1, n - m + 1):
                    r = check_phik(m, n, k, TABLE)
                    assert r.holds_lower and r.holds_upper, (m, n, k)


def test_tight_candidate_is_recorded_but_only_for_t2():
    assert check_fk(0, 4, 2, TABLE).tight_upper_holds is not None
    assert check_f(0, 4, TABLE).tight_upper_holds is None
    assert check_phi(0, 4, TABLE).tight_upper_holds is None
    assert check_phik(0, 4, 2, TABLE).tight_upper_holds is None


def test_partition_identity_f_frozen_cases():
    assert partition_sum_f(0, 4, TABLE) == 2**4 - 1
    assert partition_identity_f(0, 1, TABLE)
    assert partition_identity_f(0, 4, TABLE)
    assert partition_identity_f(2, 6, TABLE)


def test_partition_identity_fk_frozen_cases():
    assert partition_sum_fk(0, 4, 2, TABLE) == binomial(4, 2)
    assert partition_identity_fk(0, 2, 2, TABLE)
    assert partition_identity_fk(0, 4, 2, TABLE)
    assert partition_identity_fk(2, 6, 3, TABLE)


def test_partition_identities_moderate_sweep():
    for n in range(1, 41):
        for m in range(n):
            assert partition_identity_f(m, n, TABLE), (m, n)
            for k in range(1, min(n - m, 8) + 1):
                assert partition_identity_fk(m, n, k, TABLE), (m, n, k)


def test_partition_sums_validate_arguments():
    with pytest.raises(ValueError, match="m < n required"):
        partition_sum_f(4, 4, TABLE)
    with pytest.raises(ValueError, match="m < n required"):
        partition_sum_fk(5, 4, 1, TABLE)
    with pytest.raises(ValueError, match="k must be >= 1"):
        partition_sum_fk(0, 4, 0, TABLE)


def test_report_big_values_stay_decimal_strings():
    # verify prints a failed report's values through decimal_string
    r = check_f(0, 80, TABLE)
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
        r = check_fk(n // 4, n, k, table)
        assert r.holds_lower and r.holds_upper, (n, k, r.gap, r.upper)
