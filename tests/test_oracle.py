import pytest

from rpsets.counting import Family, f_interval
from rpsets.oracle import HARD_WIDTH_CAP, oracle_count, oracle_gcd_class_counts
from rpsets.sieve import build_sieve

TABLE = build_sieve(64)


def test_oracle_frozen_values():
    assert oracle_count(Family.F, 0, 3) == 5
    assert oracle_count(Family.F, 1, 2) == 0
    assert oracle_count(Family.F, 2, 6) == 9
    assert oracle_count(Family.FK, 0, 4, 2) == 5
    assert oracle_count(Family.PHI, 2, 6) == 10
    assert oracle_count(Family.PHIK, 2, 6, 2) == 4
    assert oracle_count("F", 2, 6) == 9
    assert oracle_count("PHIK", 2, 6, 2) == 4


def test_gcd_class_counts_frozen_values():
    assert oracle_gcd_class_counts(0, 1) == {1: 1}
    assert oracle_gcd_class_counts(0, 2) == {1: 2, 2: 1}
    assert oracle_gcd_class_counts(2, 6) == {1: 9, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}


def test_gcd_class_counts_total_is_all_nonempty_subsets():
    for n in range(1, 15):
        for m in range(n):
            classes = oracle_gcd_class_counts(m, n)
            assert sum(classes.values()) == 2 ** (n - m) - 1, (m, n)
            assert all(v > 0 for v in classes.values())


def test_gcd_classes_scale_to_smaller_intervals():
    # subsets with gcd exactly d correspond to relatively prime subsets of
    # the floor-scaled interval
    for n in range(1, 17):
        for m in range(n):
            classes = oracle_gcd_class_counts(m, n)
            for d in range(1, n + 1):
                md, nd = m // d, n // d
                expected = f_interval(md, nd, TABLE) if nd > md else 0
                assert classes.get(d, 0) == expected, (m, n, d)
            assert all(d <= n for d in classes)


def test_oracle_agrees_with_closed_forms_quick():
    for n in range(1, 11):
        for m in range(n):
            assert oracle_count(Family.F, m, n) == f_interval(m, n, TABLE)


def test_width_cap_enforced():
    with pytest.raises(ValueError, match="width cap 8"):
        oracle_count(Family.F, 0, 9, max_width=8)
    with pytest.raises(ValueError, match="width cap 8"):
        oracle_gcd_class_counts(0, 9, max_width=8)
    # 2^8 - 1 subsets minus the gcd >= 2 classes (11 + 5 + 2 + 5 ones)
    assert oracle_count(Family.F, 1, 9, max_width=8) == 232


def test_default_width_cap_is_24():
    with pytest.raises(ValueError, match="width cap 24"):
        oracle_count(Family.F, 0, 25)


def test_config_rejects_widths_beyond_hard_cap():
    assert HARD_WIDTH_CAP == 30
    for max_width in (31, 0):
        with pytest.raises(ValueError, match="max_width must be in 1..30"):
            oracle_count(Family.F, 0, 1, max_width=max_width)
        with pytest.raises(ValueError, match="max_width must be in 1..30"):
            oracle_gcd_class_counts(0, 1, max_width=max_width)
    assert oracle_count(Family.F, 0, 1, max_width=30) == 1


def test_class_counts_validation():
    with pytest.raises(ValueError, match="m < n required"):
        oracle_gcd_class_counts(4, 4)
    with pytest.raises(ValueError):
        oracle_gcd_class_counts(-1, 4)


def test_oracle_count_validation():
    with pytest.raises(ValueError):
        oracle_count("X", 0, 4)
    with pytest.raises(ValueError, match="m < n required"):
        oracle_count(Family.F, 4, 4)
    with pytest.raises(ValueError, match="family FK requires k"):
        oracle_count(Family.FK, 0, 4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        oracle_count(Family.PHIK, 0, 4, 0)
    with pytest.raises(ValueError, match="family PHI does not take k"):
        oracle_count(Family.PHI, 0, 4, 2)
