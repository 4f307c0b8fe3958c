"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import rpsets  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import bound_error, check_value, mertens  # noqa: E402
from rpsets import counting  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TINY = {
    "bigval": workloads.BigvalSize(strata=((600, 120), (1_200, 500)), table_limit=2_000),
    "bign": workloads.BignSize(strata=(1_000, 2_000, 3_000, 4_000, 5_000)),
    "sweep": workloads.SweepSize(
        table_n=12, table_slices=2, bounds_n=(8, 9), oracle_n=8, identities_n=(8, 9)
    ),
}
FK_OPS = {"bigval": 2, "bign": 2, "sweep": 2}  # ops per tiny pass that return an fk value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_is_checked_and_passes(workload):
    result = worker.run(workload, TINY[workload], seed=3, seconds=0, pass_count=2)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
    assert sum(sum(p["cells"]) for p in result["passes"]) >= result["attempted"]
    assert result["probes"] == (2 if workload == "bign" else 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_value_is_a_failed_op(workload, monkeypatch):
    right = counting.fk_interval

    def wrong(*args):
        return 2 * right(*args) + 1

    monkeypatch.setattr(counting, "fk_interval", wrong)
    monkeypatch.setattr(rpsets, "fk_interval", wrong)
    result = worker.run(workload, TINY[workload], seed=3, seconds=0, pass_count=1)
    assert result["failed"] == FK_OPS[workload], result["errors"]


def test_traced_run_matches_untraced_and_adds_up():
    size = TINY["sweep"]
    plain = worker.run("sweep", size, seed=5, seconds=0, pass_count=1)
    tracer = Tracer().install()
    try:
        # every alias of a wrapped function points at the one wrapper
        assert counting.binomial is rpsets.bounds.binomial is rpsets.cli.binomial
        assert hasattr(counting.binomial, "__wrapped__")
        traced = worker.run("sweep", size, seed=5, seconds=0, pass_count=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(counting.binomial, "__wrapped__")
    assert traced["passes"][0]["digest"] == plain["passes"][0]["digest"]
    layers = traced["layers"]
    total = sum(layers[f"{name}.self_s"] for name in (*LAYERS, "harness"))
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    for name in ("sieve.build_calls", "sieve.divisors_calls", "counting.calls",
                 "exactmath.binomial_calls", "bounds.reports", "oracle.calls",
                 "cli.output_bytes"):
        assert layers[name] > 0, name
    # Self time excludes children: binomial is called from fk/phik, and
    # every layer's self time is at most the traced wall.
    assert 0 < layers["exactmath.binomial_s"] < layers["trace.wall_s"]
    assert all(layers[f"{name}.self_s"] >= 0 for name in LAYERS)


def test_checks_reject_wrong_values():
    assert check_value("phik", 0, 10, 1, 4) == (1, None)
    assert check_value("phik", 0, 10, 1, 5)[1] is not None
    assert check_value("phik", 3, 10, 1, 2) == (1, None)  # {7, 9}
    assert check_value("phik", 3, 10, 1, 3)[1] is not None
    assert check_value("f", 0, 6, None, 53) == (1, None)
    assert check_value("f", 0, 6, None, 57)[1] is not None  # above 2^6 - 2^3
    assert workloads.parse_decimal("1" * 9000) == (10**9000 - 1) // 9


def test_recount_catches_small_errors_the_bounds_allow():
    table = rpsets.build_sieve(200_000)
    m, n = 95_000, 190_000
    f = rpsets.f_interval(m, n, table)
    assert check_value("f", m, n, None, f) == (1, None)
    assert bound_error("f", m, n, None, f - 1) is None
    assert check_value("f", m, n, None, f - 1)[1] is not None
    fk = rpsets.fk_interval(m, n, 2, table)
    assert check_value("fk", m, n, 2, fk) == (1, None)
    assert bound_error("fk", m, n, 2, fk + 1) is None
    assert check_value("fk", m, n, 2, fk + 1)[1] is not None
    # Mertens values above the sieved range, against rpsets' Mobius table
    assert mertens(199_999) == sum(table.mobius[1:200_000])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no rpsets package" in done.stderr
