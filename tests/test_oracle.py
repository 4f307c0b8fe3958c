from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsets.cli import main
from rpsets.counting import Family, count_plane, f_interval
from rpsets.oracle import HARD_WIDTH_CAP, _profile, oracle_count
from rpsets.sieve import build_sieve

TABLE = build_sieve(64)


def enumerated_profile(m, n):
    """(gcd, cardinality) -> count, by visiting all 2^(n-m) - 1 nonempty
    subsets of {m+1, ..., n} as bit masks; bit i stands for m+1+i, and a
    mask's gcd is that of the mask without its lowest bit and that bit's
    element."""
    gcds = [0] * (1 << (n - m))
    profile = {}
    for mask in range(1, 1 << (n - m)):
        low = mask & -mask
        g = gcds[mask] = gcd(gcds[mask ^ low], m + low.bit_length())
        key = (g, mask.bit_count())
        profile[key] = profile.get(key, 0) + 1
    return profile


def gcd_classes(m, n):
    """Subset count per exact gcd of {m+1, ..., n}: the profile summed over
    cardinality."""
    classes = {}
    for (g, _), c in _profile(m, n).items():
        classes[g] = classes.get(g, 0) + c
    return classes


def test_profile_equals_the_enumeration():
    intervals = [(m, n) for n in range(1, 17) for m in range(n)]
    intervals += [(m, m + 16) for m in (30, 209, 4080, 720720 - 8)]
    intervals += [(m, m + w) for m in (97, 1000) for w in range(1, 16)]
    for m, n in intervals:
        assert _profile(m, n) == enumerated_profile(m, n), (m, n)


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
    assert gcd_classes(0, 1) == {1: 1}
    assert gcd_classes(0, 2) == {1: 2, 2: 1}
    assert gcd_classes(2, 6) == {1: 9, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}


def test_gcd_class_counts_total_is_all_nonempty_subsets():
    for n in range(1, 15):
        for m in range(n):
            classes = gcd_classes(m, n)
            assert sum(classes.values()) == 2 ** (n - m) - 1, (m, n)
            assert all(v > 0 for v in classes.values())


def test_gcd_classes_scale_to_smaller_intervals():
    # subsets with gcd exactly d correspond to relatively prime subsets of
    # the floor-scaled interval
    for n in range(1, 17):
        for m in range(n):
            classes = gcd_classes(m, n)
            for d in range(1, n + 1):
                md, nd = m // d, n // d
                expected = f_interval(md, nd, TABLE) if nd > md else 0
                assert classes.get(d, 0) == expected, (m, n, d)
            assert all(d <= n for d in classes)


def test_one_filter_serves_every_family():
    # each family by its definition, over the enumerated subsets
    kept = {
        "F": lambda g, card, n, k: g == 1,
        "FK": lambda g, card, n, k: g == 1 and card == k,
        "PHI": lambda g, card, n, k: gcd(g, n) == 1,
        "PHIK": lambda g, card, n, k: gcd(g, n) == 1 and card == k,
    }
    for n in range(1, 11):
        for m in range(n):
            profile = enumerated_profile(m, n)
            for name, keep in kept.items():
                ks = range(1, n - m + 2) if name.endswith("K") else (None,)
                for k in ks:
                    expected = sum(c for (g, card), c in profile.items() if keep(g, card, n, k))
                    assert oracle_count(name, m, n, k) == expected, (name, m, n, k)
                    assert oracle_count(Family(name), m, n, k) == expected, (name, m, n, k)


def test_oracle_agrees_with_closed_forms_quick():
    for n in range(1, 11):
        for m in range(n):
            assert oracle_count(Family.F, m, n) == f_interval(m, n, TABLE)


def test_width_cap_enforced():
    for family, k in ((Family.F, None), (Family.FK, 2), (Family.PHI, None), (Family.PHIK, 2)):
        with pytest.raises(ValueError, match="width 31 exceeds oracle width cap 30"):
            oracle_count(family, 0, 31, k)
    # 2^8 - 1 subsets minus the gcd >= 2 classes (11 + 5 + 2 + 5 ones)
    assert oracle_count(Family.F, 1, 9) == 232


def test_default_width_cap_is_24(capsys):
    # the default belongs to verify oracle, which skips the one interval
    # (0, 25) wider than 24 at n-max 25
    assert main(["verify", "oracle", "--n-max", "25"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("0 failures; skipped 1 intervals wider than 24\n")


def test_config_rejects_widths_beyond_hard_cap(capsys):
    assert HARD_WIDTH_CAP == 30
    assert oracle_count(Family.F, 0, 30) == f_interval(0, 30, TABLE)
    for width_cap, err in ((31, "width_cap must be <= 30, got 31"),
                           (0, "width_cap must be >= 1, got 0")):
        assert main(["verify", "oracle", "--n-max", "4", "--width-cap", str(width_cap)]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"


def test_class_counts_validation():
    # every family reads the same gcd-class profile, so each must refuse an
    # empty or negative interval before the profile is built
    for family, k in ((Family.F, None), (Family.FK, 1), (Family.PHI, None), (Family.PHIK, 1)):
        with pytest.raises(ValueError, match="m < n required"):
            oracle_count(family, 4, 4, k)
        with pytest.raises(ValueError, match="m must be >= 0"):
            oracle_count(family, -1, 4, k)


def test_oracle_count_validation():
    with pytest.raises(ValueError, match="'X' is not a valid Family"):
        oracle_count("X", 0, 4)
    with pytest.raises(ValueError, match="m < n required"):
        oracle_count(Family.F, 4, 4)
    with pytest.raises(ValueError, match="m < n required"):
        oracle_count(Family.F, 5, 4)
    with pytest.raises(ValueError, match="m must be >= 0"):
        oracle_count(Family.F, -1, 4)
    with pytest.raises(ValueError, match="family FK requires k"):
        oracle_count(Family.FK, 0, 4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        oracle_count(Family.PHIK, 0, 4, 0)
    with pytest.raises(ValueError, match="family PHI does not take k"):
        oracle_count(Family.PHI, 0, 4, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.integers(max(0, n - 16), n - 1), st.just(n))
))
def test_oracle_equals_the_plane(cell):
    # neither side sieves: the DP takes gcds, the plane divisors of m + 1
    m, n = cell
    plane = count_plane(n)
    assert oracle_count(Family.F, m, n) == plane.f[m]
    assert oracle_count(Family.PHI, m, n) == plane.phi[m]
    for k in range(1, n - m + 1):
        assert oracle_count(Family.FK, m, n, k) == plane.fk[m][k], k
        assert oracle_count(Family.PHIK, m, n, k) == plane.phik[m][k], k
