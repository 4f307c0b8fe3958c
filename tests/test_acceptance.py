"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
even under pytest's output capture."""

import math
import time

import pytest

from rpsets.bounds import (
    check_f,
    check_fk,
    check_phi,
    check_phik,
    partition_identity_f,
    partition_identity_fk,
)
from rpsets.cli import main
from rpsets.counting import (
    Family,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from rpsets.exactmath import binomial
from rpsets.oracle import oracle_count
from rpsets.sieve import build_sieve, divisors, prime_factors

TABLE_200 = build_sieve(200)
TABLE_10K = build_sieve(10**4)


@pytest.fixture
def report(capsys):
    def _report(criterion: str, ok: bool, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")

    return _report


def test_criterion_01_oracle_equivalence(report):
    bad = []
    for n in range(1, 21):
        for m in range(n):
            if f_interval(m, n, TABLE_200) != oracle_count(Family.F, m, n):
                bad.append(("F", m, n, None))
            if phi_interval(m, n, TABLE_200) != oracle_count(Family.PHI, m, n):
                bad.append(("PHI", m, n, None))
            for k in range(1, n - m + 1):
                if fk_interval(m, n, k, TABLE_200) != oracle_count(Family.FK, m, n, k):
                    bad.append(("FK", m, n, k))
                if phik_interval(m, n, k, TABLE_200) != oracle_count(Family.PHIK, m, n, k):
                    bad.append(("PHIK", m, n, k))
    report("criterion 1 (oracle equivalence, n <= 20)", not bad)
    assert not bad, f"closed form vs oracle mismatches: {bad[:10]}"


def test_criterion_02_t1_bounds(report):
    bad = []
    for n in range(1, 201):
        for m in range(n):
            r = check_f(m, n, TABLE_200)
            if not (r.holds_lower and r.holds_upper):
                bad.append((m, n, r.gap, r.upper))
    report("criterion 2 (T1 bounds, n <= 200)", not bad)
    assert not bad, f"T1 violations: {bad[:10]}"


def test_criterion_03_t2_bounds(report):
    bad = []
    for n in range(1, 121):
        for m in range(n):
            for k in range(1, n - m + 1):
                r = check_fk(m, n, k, TABLE_200)
                if not (r.holds_lower and r.holds_upper):
                    bad.append((m, n, k, r.gap, r.upper))
    report("criterion 3 (T2 bounds, n <= 120)", not bad)
    assert not bad, f"T2 violations: {bad[:10]}"


def test_criterion_04_t3_t4_bounds(report):
    bad = []
    for n in range(2, 201):
        for m in range(n):
            r = check_phi(m, n, TABLE_200)
            if not (r.holds_lower and r.holds_upper):
                bad.append(("T3", m, n, None, r.gap, r.upper))
            for k in range(1, n - m + 1):
                r = check_phik(m, n, k, TABLE_200)
                if not (r.holds_lower and r.holds_upper):
                    bad.append(("T4", m, n, k, r.gap, r.upper))
    report("criterion 4 (T3/T4 bounds, n <= 200)", not bad)
    assert not bad, f"T3/T4 violations: {bad[:10]}"


def test_criterion_05_partition_identities(report):
    bad = []
    for n in range(1, 101):
        for m in range(n):
            if not partition_identity_f(m, n, TABLE_200):
                bad.append(("F", m, n, None))
            for k in range(1, min(n - m, 10) + 1):
                if not partition_identity_fk(m, n, k, TABLE_200):
                    bad.append(("FK", m, n, k))
    report("criterion 5 (partition identities, n <= 100)", not bad)
    assert not bad, f"identity failures: {bad[:10]}"


def test_criterion_06_totient_consistency(report):
    bad = []
    for n in range(2, 10**4 + 1):
        via_phik = phik_interval(0, n, 1, TABLE_10K)
        product = n
        for p, _ in prime_factors(n):
            product = product // p * (p - 1)
        direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        if not (via_phik == product == direct):
            bad.append((n, via_phik, product, direct))
    report("criterion 6 (totient consistency, n <= 10^4)", not bad)
    assert not bad, f"totient mismatches: {bad[:10]}"


def test_criterion_07_hockey_stick(report):
    bad = []
    for n_top in range(65):
        for k in range(1, n_top + 1):
            running = binomial(n_top, k)
            for m_cut in range(n_top + 1):
                if m_cut > 0:
                    running -= binomial(n_top - m_cut, k - 1)
                if running != binomial(n_top - m_cut, k):
                    bad.append((n_top, m_cut, k))
    report("criterion 7 (hockey-stick identity, N <= 64)", not bad)
    assert not bad, f"hockey-stick failures: {bad[:10]}"


def test_criterion_08_n_equals_one_edge(report):
    definitional = phi_interval(0, 1, TABLE_200)
    closed_form = sum(
        TABLE_200.mobius[d] * 2 ** (1 // d - 0 // d) for d in divisors(1)
    )
    ok = definitional == 1 and closed_form == 2
    report(
        "criterion 8 (n = 1 edge)", ok,
        f"definitional count {definitional}, divisor-sum form gives {closed_form}",
    )
    assert definitional == 1
    # recorded, not asserted equal: the divisor-sum form counts the empty set
    assert closed_form == 2


def test_criterion_09_performance_smoke(report):
    start = time.perf_counter()
    value = f_interval(0, 10**4, TABLE_10K)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0 and 9990 <= value.bit_length() <= 10000
    report(
        "criterion 9 (performance smoke)", ok,
        f"{elapsed:.3f}s, bit length {value.bit_length()}",
    )
    assert elapsed < 5.0
    assert 9990 <= value.bit_length() <= 10000


def test_criterion_10_determinism(report, tmp_path):
    runs = []
    for i in range(2):
        paths = []
        for fmt in ("json", "csv"):
            out = tmp_path / f"run{i}.{fmt}"
            code = main([
                "table", "--families", "F,FK,PHI,PHIK", "--m", "0..6",
                "--n", "1..12", "--k", "1..4", "--format", fmt,
                "--out", str(out),
            ])
            assert code == 0
            paths.append(out.read_bytes())
        runs.append(paths)
    ok = runs[0] == runs[1]
    report("criterion 10 (table determinism)", ok)
    assert ok
