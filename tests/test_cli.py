import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpsets import cli, counting, sieve
from rpsets.cli import (
    EXIT_CAPACITY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    UsageError,
    build_table_records,
    main,
    parse_families,
    parse_range,
    render_records,
)
from rpsets.counting import Family, count_plane, f_interval, fk_interval
from rpsets.exactmath import decimal_string
from rpsets.oracle import _profile, oracle_count
from rpsets.sieve import build_sieve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_examples(capsys):
    code, out, _ = run_cli(capsys, "compute", "f", "--m", "2", "--n", "6")
    assert (code, out.strip()) == (EXIT_OK, "9")
    code, out, _ = run_cli(capsys, "compute", "phik", "--m", "0", "--n", "6", "--k", "1")
    assert (code, out.strip()) == (EXIT_OK, "2")
    code, out, _ = run_cli(capsys, "compute", "phi", "--m", "0", "--n", "1")
    assert (code, out.strip()) == (EXIT_OK, "1")


def test_compute_beyond_the_default_sieve_cap(capsys):
    # n is ten times the default cap; compute sieves only to n^(2/3)
    code, out, err = run_cli(
        capsys, "compute", "fk", "--m", "250000000", "--n", "1000000000", "--k", "3"
    )
    assert code == EXIT_OK, err
    assert int(out) == 58493486967126233457309653


def test_default_sieve_cap_admits_compute_up_to_n_10_12(capsys, monkeypatch):
    # ceil((10^12)^(2/3)) = 10^8 is the cap itself. The table is not built
    # here: the stand-in records the request and runs out of memory.
    requests = []

    def record(limit, cap):
        requests.append((limit, cap))
        raise MemoryError

    monkeypatch.setattr(cli, "build_sieve", record)
    argv = ["compute", "fk", "--m", "250000000000", "--n", "1000000000000", "--k", "2"]
    assert run_cli(capsys, *argv) == (EXIT_CAPACITY, "", "error: out of memory\n")
    assert requests == [(10**8, 10**8)]
    monkeypatch.undo()
    argv[-3] = "1000000000001"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err == "error: sieve limit 100000001 exceeds capacity cap 100000000\n"


def test_compute_fk_sieves_only_up_to_its_cut_off(capsys, monkeypatch):
    limits = []

    def record(limit, cap):
        limits.append(limit)
        return build_sieve(limit, cap)

    monkeypatch.setattr(cli, "build_sieve", record)
    m, n = 999_999_999_000, 10**12
    argv = ["compute", "fk", "--m", str(m), "--n", str(n), "--k", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    # every d past (n - m) // 2 = 500 has a width below 3, so its term is 0
    assert limits == [500]
    # the cell's kept weight map is reused whichever table built it, so drop
    # it for the short table to run its own Mertens sums
    monkeypatch.setattr(counting, "_last_cell", (0, 0, 0, {}))
    assert int(out) == fk_interval(m, n, 3, build_sieve(50))
    # k > n - m: the count is 0 and there is nothing to sieve
    argv[-1] = "1001"
    assert run_cli(capsys, *argv) == (EXIT_OK, "0\n", "")
    assert limits == [500]


def test_compute_sieves_to_twice_n_to_the_two_thirds_inside_its_cap(capsys, monkeypatch, tmp_path):
    limits = []

    def record(limit, cap):
        limits.append(limit)
        return build_sieve(limit, cap)

    monkeypatch.setattr(cli, "build_sieve", record)
    # ceil((10^6)^(2/3)) = 10^4, and fk's reach at k = 2 is n itself
    argv = ["compute", "fk", "--m", "250000", "--n", "1000000", "--k", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert limits == [20_000]
    # a cap between the two is the limit; the table's size leaves the value as it is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 15_000}))
    assert run_cli(capsys, "--config", str(cfg), *argv) == (EXIT_OK, out, "")
    assert limits == [20_000, 15_000]
    # a cap below 10^4 refuses, naming 10^4
    cfg.write_text(json.dumps({"sieve_cap": 9_999}))
    assert run_cli(capsys, "--config", str(cfg), *argv) == (
        EXIT_CAPACITY, "", "error: sieve limit 10000 exceeds capacity cap 9999\n"
    )
    # the cap-15000 run kept the cell's weight map; drop it so the short
    # table runs its own Mertens sums
    monkeypatch.setattr(counting, "_last_cell", (0, 0, 0, {}))
    assert int(out) == fk_interval(250_000, 10**6, 2, build_sieve(1000))


def test_table_sieves_to_its_largest_n_or_as_compute_does_past_the_cap(
    capsys, monkeypatch, tmp_path
):
    limits = []

    def record(limit, cap):
        limits.append(limit)
        return build_sieve(limit, cap)

    monkeypatch.setattr(cli, "build_sieve", record)
    # inside the cap, one table up to the largest n
    argv = ["table", "--families", "F", "--m", "0..3", "--n", "30..64", "--format", "csv"]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert limits == [64]
    # past it, the table compute would build for that n, 2 * ceil((10^6)^(2/3))
    # = 20,000, cut at the reach of the widest cell: n // (n // 60) = 60
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 20_000}))
    argv = ["--config", str(cfg), "table", "--families", "F,FK", "--m", "999940",
            "--n", "1000000", "--k", "2", "--format", "csv"]
    out = ("family,m,n,k,value\n"
           "F,999940,1000000,,1152921503532052987\n"
           "FK,999940,1000000,2,1087\n")
    assert run_cli(capsys, *argv) == (EXIT_OK, out, "")
    assert limits == [64, 60]
    # the values compute prints
    for value, family, *k in (("1152921503532052987", "f"), ("1087", "fk", "--k", "2")):
        argv_compute = ["compute", family, "--m", "999940", "--n", "1000000", *k]
        assert run_cli(capsys, *argv_compute) == (EXIT_OK, value + "\n", ""), family
    # a cap below 10^4 admits that reach, but refuses a wide window, naming 10^4
    cfg.write_text(json.dumps({"sieve_cap": 9_999}))
    assert run_cli(capsys, *argv) == (EXIT_OK, out, "")
    argv[6] = "0..1"
    assert run_cli(capsys, *argv) == (
        EXIT_CAPACITY, "", "error: sieve limit 10000 exceeds capacity cap 9999\n"
    )


def record_sieves(monkeypatch) -> list[int]:
    """The limits cli asks build_sieve for, in order, each table built once
    per (limit, cap)."""
    limits, tables = [], {}

    def record(limit, cap):
        limits.append(limit)
        if (limit, cap) not in tables:
            tables[limit, cap] = build_sieve(limit, cap)
        return tables[limit, cap]

    monkeypatch.setattr(cli, "build_sieve", record)
    return limits


def test_a_one_count_table_sieves_as_compute_does(capsys, monkeypatch):
    limits = record_sieves(monkeypatch)
    # one F count: its reach n // (n // 10) = 10, not the 10^8 entries up to n
    # nor the 2 * ceil((10^8)^(2/3)) = 430,888 that a wide window would take
    argv = ["table", "--families", "F", "--m", "99999990", "--n", "100000000", "--format", "csv"]
    assert run_cli(capsys, *argv) == (EXIT_OK, "family,m,n,k,value\nF,99999990,100000000,,981\n", "")
    # PHI reads no table, so F,PHI on one cell is one count too; and so is F
    # over m past n, as those m add no cell, and its one cell of width 1
    # reaches no d at all
    argv[2:7] = ["F,PHI", "--m", "999990", "--n", "1000000"]
    assert run_cli(capsys, *argv) == (EXIT_OK, "family,m,n,k,value\nF,999990,1000000,,981\n"
                                      "PHI,999990,1000000,,990\n", "")
    argv[2:5] = ["F", "--m", "999999..1000005"]
    assert run_cli(capsys, *argv) == (EXIT_OK, "family,m,n,k,value\nF,999999,1000000,,0\n", "")
    assert limits == [10, 10]

    def refuse(limit, cap):
        limits.append(limit)
        raise MemoryError

    # compute f asks for the same table
    monkeypatch.setattr(cli, "build_sieve", refuse)
    assert run_cli(capsys, "compute", "f", "--m", "99999990", "--n", "100000000") == (
        EXIT_CAPACITY, "", "error: out of memory\n")
    assert limits[-1] == 10


def test_a_lone_fk_table_sieves_to_its_cut_off(capsys, monkeypatch):
    limits = record_sieves(monkeypatch)
    cell = ["--m", "999999999000", "--n", "1000000000000", "--k", "3"]
    code, out, err = run_cli(capsys, "table", "--families", "FK", *cell, "--format", "csv")
    assert run_cli(capsys, "compute", "fk", *cell) == (EXIT_OK, out.split(",")[-1], "")
    assert (code, err, limits) == (EXIT_OK, "", [500, 500])
    # k > n - m: the count is 0 and neither command sieves
    cell[-1] = "1001"
    assert run_cli(capsys, "table", "--families", "FK", *cell, "--format", "csv") == (
        EXIT_OK, "family,m,n,k,value\nFK,999999999000,1000000000000,1001,0\n", "")
    assert run_cli(capsys, "compute", "fk", *cell) == (EXIT_OK, "0\n", "")
    assert limits == [500, 500]


def test_grids_of_no_count_or_of_more_than_one_sieve_up_to_their_largest_n(
    capsys, monkeypatch, tmp_path
):
    limits = record_sieves(monkeypatch)
    for grid in (["FK", "--m", "0", "--n", "64", "--k", "1..2"],  # two k
                 ["F,FK", "--m", "0", "--n", "64", "--k", "2"],  # two families
                 ["F", "--m", "0..1", "--n", "64"],  # two cells
                 ["F", "--m", "10", "--n", "1..64"]):  # 54 cells, the widest reaching 64
        assert run_cli(capsys, "table", "--families", *grid, "--format", "csv")[0] == EXIT_OK
    assert limits == [64] * 4
    # past the cap, as compute sizes a table for the largest n, cut at the
    # reach of the widest cell, as f: 60; a grid of no cell asks for none
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 20_000}))
    for grid in (["FK", "--m", "999940", "--n", "1000000", "--k", "2..3"],
                 ["F", "--m", "2000000", "--n", "1000000"]):
        argv = ["--config", str(cfg), "table", "--families", *grid, "--format", "csv"]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert limits == [64] * 4 + [60]
    # grids of PHI and PHIK read no table, and no cap
    cfg.write_text(json.dumps({"sieve_cap": 0}))
    argv = ["--config", str(cfg), "table", "--families", "PHI,PHIK", "--m", "0", "--n", "6",
            "--k", "1..2", "--format", "csv"]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert len(limits) == 5


def test_a_grid_of_no_cell_builds_no_table_but_reads_the_cap(capsys, monkeypatch, tmp_path):
    limits = record_sieves(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 10}))
    argv = ["--config", str(cfg), "table", "--families", "F", "--m", "100", "--n", "1..50",
            "--format", "csv"]
    assert run_cli(capsys, *argv) == (EXIT_OK, "family,m,n,k,value\n", "")
    assert limits == []
    cfg.write_text(json.dumps({"sieve_cap": 0}))
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", "error: sieve_cap must be >= 1, got 0\n")


def test_f_and_fk_far_out_sieve_no_further_than_their_window(capsys, monkeypatch):
    limits = record_sieves(monkeypatch)
    # width 60: f sums over d up to 60, whatever n is; the gcd-state DP
    # counts the same sets from their gcds alone
    for m, n, value in ((10**12 - 60, 10**12, 1152921503532052986),
                        (10**18 - 60, 10**18, 1152921503532052979)):
        argv = ["compute", "f", "--m", str(m), "--n", str(n)]
        assert run_cli(capsys, *argv) == (EXIT_OK, f"{value}\n", "")
        assert sum(c for (g, _), c in _profile(m, n).items() if g == 1) == value
    assert limits == [60, 60]
    # fk at k = 1 counts {1} or nothing, and sieves nothing
    for m, value in ((0, "1"), (1, "0"), (10**12 - 60, "0")):
        argv = ["compute", "fk", "--m", str(m), "--n", str(10**12), "--k", "1"]
        assert run_cli(capsys, *argv) == (EXIT_OK, value + "\n", "")
    assert limits == [60, 60]


def test_verify_oracle_past_the_cap_runs_on_a_short_table(capsys, monkeypatch, tmp_path):
    limits = record_sieves(monkeypatch)
    argv = ["verify", "oracle", "--n-max", "30", "--width-cap", "6"]  # 1446 cells, not 9688
    code, out, _ = run_cli(capsys, *argv)
    assert (code, limits) == (EXIT_OK, [30])
    # ceil(30^(2/3)) = 10, so a cap of 20 admits a table of 20
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 20}))
    assert run_cli(capsys, "--config", str(cfg), *argv) == (EXIT_OK, out, "")
    assert out.endswith(", 0 failures; skipped 300 intervals wider than 6\n")
    assert limits == [30, 20]
    # ceil(8^(2/3)) = 4 is past a cap of 1
    cfg.write_text(json.dumps({"sieve_cap": 1}))
    assert run_cli(capsys, "--config", str(cfg), "verify", "oracle", "--n-max", "8") == (
        EXIT_CAPACITY, "", "error: sieve limit 4 exceeds capacity cap 1\n")


def test_the_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "compute", "f", "--m", "2", "--n", "6") == (EXIT_OK, "9\n", "")
    assert run_cli(capsys, "compute", "phi", "--m", "0", "--n", "1") == (EXIT_OK, "1\n", "")
    assert cli.build_parser.cache_info().misses == 1


def test_calls_share_the_parser_but_no_options(capsys, tmp_path):
    # a usage error midway through a parse leaves nothing behind
    code, out, err = run_cli(capsys, "compute", "fk", "--m", "2", "--k", "2")
    assert (code, out) == (EXIT_USAGE, "") and "--n" in err
    assert run_cli(capsys, "compute", "fk", "--m", "2", "--n", "6", "--k", "2") == (
        EXIT_OK, "4\n", "")
    # nor does the k of the call before, which f would refuse
    assert run_cli(capsys, "compute", "f", "--m", "2", "--n", "6") == (EXIT_OK, "9\n", "")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    argv = ["table", "--families", "F", "--m", "0", "--n", "1..2"]
    code, out, _ = run_cli(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (EXIT_OK, "family,m,n,k,value\nF,0,1,,1\nF,0,2,,2\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out) == [{"family": "F", "m": 0, "n": n, "k": None, "value": v}
                               for n, v in ((1, "1"), (2, "2"))]


def test_verify_modes_are_looked_up_when_they_run(capsys, monkeypatch):
    assert run_cli(capsys, "verify", "bounds", "--n-max", "1")[0] == EXIT_OK
    monkeypatch.setitem(cli._VERIFY_MODES, "bounds", lambda args, cfg: print("stub") or EXIT_OK)
    assert run_cli(capsys, "verify", "bounds") == (EXIT_OK, "stub\n", "")


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken_f(m, n, table):
        raise RuntimeError(f"negative count -1 for m={m}, n={n}")

    monkeypatch.setattr(counting, "f_interval", broken_f)
    code, out, err = run_cli(capsys, "compute", "f", "--m", "0", "--n", "4")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: negative count -1 for m=0, n=4\n"


def test_a_value_error_from_a_count_is_internal(capsys, monkeypatch):
    def broken_f(m, n, table):
        raise ValueError("a bug, not a user mistake")

    monkeypatch.setattr(counting, "f_interval", broken_f)
    code, out, err = run_cli(capsys, "compute", "f", "--m", "0", "--n", "4")
    assert (code, out, err) == (EXIT_INTERNAL, "", "internal error: a bug, not a user mistake\n")


def test_out_of_memory_exits_3_with_empty_stdout(capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(counting, "phi_interval", no_memory)
    for argv in (("compute", "phi", "--m", "0", "--n", "10"),
                 ("table", "--families", "PHI", "--m", "0", "--n", "1..4")):
        assert run_cli(capsys, *argv) == (EXIT_CAPACITY, "", "error: out of memory\n"), argv

    def no_memory_said(*args):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(counting, "phi_interval", no_memory_said)
    code, out, err = run_cli(capsys, "compute", "phi", "--m", "0", "--n", "10")
    assert (code, out, err) == (EXIT_CAPACITY, "", "error: cannot allocate\n")


def test_compute_and_table_read_the_counting_module_at_call_time(capsys, monkeypatch):
    # the seam a replaced counting function goes through; verify oracle
    # calls the names imported into cli, so it still sees the real kernel
    monkeypatch.setattr(counting, "fk_interval", lambda m, n, k, table: 7)
    code, out, _ = run_cli(capsys, "compute", "fk", "--m", "0", "--n", "6", "--k", "2")
    assert (code, out) == (EXIT_OK, "7\n")
    code, out, _ = run_cli(capsys, "table", "--families", "F,FK", "--m", "0..2",
                           "--n", "1..5", "--k", "1..3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    # no k-set fits past n - m, so those rows read 0 without a counting call
    fk_values = [(row["value"], int(row["k"]) <= int(row["n"]) - int(row["m"]))
                 for row in rows if row["family"] == "FK"]
    assert len(fk_values) == 36 and set(fk_values) == {("7", True), ("0", False)}
    assert "7" not in {row["value"] for row in rows if row["family"] == "F"}
    code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "6")
    assert (code, out[-12:]) == (EXIT_OK, " 0 failures\n")


def test_a_table_builds_each_cells_weights_once(capsys, monkeypatch):
    # F and every k of FK read one weight map per cell, PHI and every k of
    # PHIK one divisor map; the families come one after the other, so each
    # builds its own
    built = []
    interval_weights = counting._interval_weights

    def counted(m, n, d_hi, table):
        built.append((m, n))
        return interval_weights(m, n, d_hi, table)

    monkeypatch.setattr(counting, "_interval_weights", counted)
    monkeypatch.setattr(counting, "_last_cell", (0, 0, 0, {}))
    counting._divisor_weights.cache_clear()
    code, _, _ = run_cli(capsys, "table", "--m", "0..5", "--n", "1..9", "--k", "1..12",
                         "--format", "csv")
    assert code == EXIT_OK
    cells = [(m, n) for m in range(6) for n in range(m + 1, 10)]
    # a cell of width 1 sums no weights: its one set is a singleton
    assert built == [(m, n) for m, n in cells if n - m > 1] * 2
    assert counting._divisor_weights.cache_info().misses == 2 * len(cells)


def test_integer_options_share_one_resolver(capsys, tmp_path):
    # width_cap's two messages are pinned by test_config_rejects_widths_beyond_hard_cap
    cfg = tmp_path / "cfg.json"
    for cap, message in ((0, "sieve_cap must be >= 1, got 0"),
                         (-1, "sieve_cap must be >= 1, got -1"),
                         ("x", "sieve_cap must be an integer, got 'x'"),
                         (True, "sieve_cap must be an integer, got True")):
        cfg.write_text(json.dumps({"sieve_cap": cap}))
        for argv in (("compute", "fk", "--m", "0", "--n", "9", "--k", "2"),
                     ("table", "--families", "F", "--m", "0", "--n", "1..4"),
                     ("verify", "oracle", "--n-max", "4")):
            code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
            assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n"), (cap, argv)
        # phi builds no sieve, so it never reads the cap
        code, out, _ = run_cli(capsys, "--config", str(cfg), "compute", "phi", "--m", "2",
                               "--n", "6")
        assert (code, out) == (EXIT_OK, "10\n")


def test_compute_usage_errors(capsys):
    cases = [
        (("f", "--m", "3", "--n", "3"), "m < n required"),
        (("f", "--m", "5", "--n", "3"), "m < n required"),
        (("f", "--m", "-1", "--n", "3"), "m must be >= 0"),
        (("fk", "--m", "0", "--n", "4"), "family FK requires k"),
        (("fk", "--m", "0", "--n", "4", "--k", "0"), "k must be >= 1"),
        (("phik", "--m", "0", "--n", "4", "--k", "0"), "k must be >= 1"),
        (("f", "--m", "0", "--n", "4", "--k", "2"), "family F does not take k"),
        (("phi", "--m", "0", "--n", "4", "--k", "2"), "family PHI does not take k"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, "compute", *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert message in err, argv
    code, _, err = run_cli(capsys, "bogus")
    assert code == EXIT_USAGE


# 10**12 + 39 is prime; a table to n^(2/3) = 10^8 would exceed the default cap
BIG_PRIME = 10**12 + 39


def test_compute_phi_builds_no_table(capsys):
    code, out, err = run_cli(
        capsys, "compute", "phi", "--m", str(BIG_PRIME - 99), "--n", str(BIG_PRIME)
    )
    assert code == EXIT_OK, err
    # only the multiples of the prime n have a gcd that is not coprime to n
    assert int(out) == 2**99 - 2
    m, k = BIG_PRIME - 16, 5
    code, out, err = run_cli(
        capsys, "compute", "phik", "--m", str(m), "--n", str(BIG_PRIME), "--k", str(k)
    )
    assert code == EXIT_OK, err
    assert int(out) == oracle_count(Family.PHIK, m, BIG_PRIME, k)


def test_table_of_phi_builds_no_table(capsys):
    # n is twice the default sieve cap, so any sieve would exit 3
    argv = ["--m", "199999990", "--n", "200000000"]
    code, out, err = run_cli(capsys, "table", "--families", "PHI", *argv)
    assert code == EXIT_OK, err
    (record,) = json.loads(out)
    code, computed, err = run_cli(capsys, "compute", "phi", *argv)
    assert code == EXIT_OK, err
    assert record["value"] == computed.strip() == "990"


def _parse_in_chunks(digits: str) -> int:
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_values_above_4300_digits_print(capsys, monkeypatch):
    expected = f_interval(0, 15_000, build_sieve(15_000))
    # compute sieves shorter than n; drop the kept map so it reads its own table
    monkeypatch.setattr(counting, "_last_cell", (0, 0, 0, {}))
    code, out, err = run_cli(capsys, "compute", "f", "--m", "0", "--n", "15000")
    assert code == EXIT_OK, err
    assert len(out) == 4517  # 4516 digits and the newline
    assert _parse_in_chunks(out.strip()) == expected
    argv = ["table", "--families", "F,PHI", "--m", "0", "--n", "15000"]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:4] == ["F", "0", "15000", ""]
    assert _parse_in_chunks(rows[1][4]) == expected
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK, err
    records = json.loads(out)
    assert records[0]["family"] == "F"
    assert _parse_in_chunks(records[0]["value"]) == expected


def _expand(cells):
    """The (family, m, n, k, value) rows of (family, m, n, ks, values) cells."""
    return [(f, m, n, k, v) for f, m, n, ks, values in cells for k, v in zip(ks, values)]


def test_json_rendering_matches_json_dumps():
    tables = [
        [],
        [("F", 0, n, (None,), [str(2**n - 1)]) for n in range(1, 4)],
        [("FK", 1, 5, range(2, 3), ["6"]), ("PHIK", 0, 6, range(1, 4), ["2", "5", "4"]),
         ("FK", 0, 3, range(3, 5), ["0", "0"])],
        [("F", 0, 15_000, (None,), ["7" * 4400])],
    ]
    for cells in tables:
        records = [dict(zip(cli._COLUMNS, row)) for row in _expand(cells)]
        assert render_records(cells, "json") == json.dumps(records, indent=2) + "\n"


_DRAWN_CELLS = st.lists(
    st.tuples(
        st.sampled_from(list(Family)),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 1000),
        st.lists(st.integers(0, 10**30) | st.integers(0, 2**20000), min_size=1, max_size=3),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@example([])
@example([(Family.F, 0, 15_000, 1, [2**15_000 - 1])])
@given(_DRAWN_CELLS)
def test_templates_match_the_csv_and_json_encoders(drawn):
    # a cell of F or PHI has the one k None and one value
    cells = [
        (family.value, m, n, range(k, k + len(vs)), list(map(decimal_string, vs)))
        if family in counting.K_FAMILIES else
        (family.value, m, n, (None,), [decimal_string(vs[0])])
        for family, m, n, k, vs in drawn
    ]
    rows = _expand(cells)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli._COLUMNS)
    writer.writerows(rows)
    assert render_records(iter(cells), "csv") == buf.getvalue()
    records = [dict(zip(cli._COLUMNS, row)) for row in rows]
    assert render_records(iter(cells), "json") == json.dumps(records, indent=2) + "\n"


def test_table_rows_are_made_as_they_are_read(monkeypatch):
    calls = 0
    real = counting.f_interval

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(counting, "f_interval", counted)
    cells = build_table_records((Family.F,), (0, 0), (1, 1000), None, build_sieve(1000))
    assert next(cells) == ("F", 0, 1, (None,), ["1"])
    assert calls == 1


def test_table_json_values(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--families", "F", "--m", "0", "--n", "1..4",
        "--format", "json",
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert [rec["value"] for rec in records] == ["1", "2", "5", "11"]
    assert records[0] == {"family": "F", "m": 0, "n": 1, "k": None, "value": "1"}


def test_table_csv_bytes(capsys):
    # the README example, byte for byte
    code, out, _ = run_cli(
        capsys, "table", "--families", "F,PHI", "--m", "0", "--n", "1..4",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == (
        "family,m,n,k,value\n"
        "F,0,1,,1\nF,0,2,,2\nF,0,3,,5\nF,0,4,,11\n"
        "PHI,0,1,,1\nPHI,0,2,,2\nPHI,0,3,,6\nPHI,0,4,,12\n"
    )


def test_table_csv_matches_json(capsys):
    argv = ["table", "--families", "FK,PHI", "--m", "0..2", "--n", "2..5", "--k", "1..3"]
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK

    from_json = {
        (r["family"], r["m"], r["n"], r["k"] if r["k"] is not None else "", r["value"])
        for r in json.loads(json_out)
    }
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    from_csv = {
        (r["family"], int(r["m"]), int(r["n"]), r["k"] if r["k"] == "" else int(r["k"]), r["value"])
        for r in rows
    }
    assert from_json == from_csv
    assert len(rows) == len(json.loads(json_out))


def test_table_rows_are_deterministically_ordered(capsys):
    argv = [
        "table", "--families", "PHIK,F,FK,PHI", "--m", "0..3", "--n", "1..6",
        "--k", "1..2", "--format", "csv",
    ]
    code, first, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    families = [row.split(",")[0] for row in first.splitlines()[1:]]
    assert families == sorted(families, key=["F", "FK", "PHI", "PHIK"].index)


def test_table_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "cells.csv"
    code, out, _ = run_cli(
        capsys, "table", "--families", "F", "--m", "0", "--n", "1..3",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "family,m,n,k,value"
    assert lines[1:] == ["F,0,1,,1", "F,0,2,,2", "F,0,3,,5"]


def test_table_empty_intersection_yields_no_rows(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--families", "F", "--m", "5..6", "--n", "1..3",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == []


def test_table_usage_errors(capsys):
    code, _, err = run_cli(capsys, "table", "--families", "FK", "--m", "0", "--n", "1..4")
    assert code == EXIT_USAGE
    assert "require --k" in err
    code, _, err = run_cli(capsys, "table", "--families", "F", "--m", "3..1", "--n", "1..4")
    assert code == EXIT_USAGE
    assert "empty m range" in err
    code, _, err = run_cli(capsys, "table", "--families", "X", "--m", "0", "--n", "1..4")
    assert code == EXIT_USAGE
    assert "unknown family" in err
    code, _, err = run_cli(capsys, "table", "--families", "F", "--m", "zz", "--n", "1..4")
    assert code == EXIT_USAGE
    cases = [
        (("--m", "-1", "--n", "1..4"), "m must be >= 0, got -1"),
        (("--m", "0", "--n", "0..4"), "n must be >= 1, got 0"),
        (("--m", "0", "--n", "1..4", "--k", "0..2"), "k must be >= 1, got 0"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, "table", "--families", "F", *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert message in err, argv


def test_unwritable_output_path(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "cells.csv"
    code, _, err = run_cli(
        capsys, "table", "--families", "F", "--m", "0", "--n", "1..3",
        "--out", str(target),
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_verify_oracle_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "10")
    assert (code, out) == (
        EXIT_OK, "verify oracle: checked 55 intervals x 4 families (550 cells), 0 failures\n"
    )


def test_verify_bounds_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "bounds", "--n-max", "25")
    assert code == EXIT_OK
    assert "0 failures" in out


def test_verify_identities_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--n-max", "20")
    assert code == EXIT_OK
    assert "0 failures" in out
    # a k-max far beyond n checks what k-max n does, and stores no more
    for k_max, checked in (("3", 781), ("40", 1750), ("1000000000", 1750)):
        code, out, _ = run_cli(
            capsys, "verify", "identities", "--n-max", "20", "--k-max", k_max
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            f"verify identities: checked {checked} identities, 0 failures"
        )


def test_verify_oracle_skips_wide_intervals(capsys):
    for n_max, width_cap, line in (
        ("12", "6", "checked 57 intervals x 4 families (478 cells), 0 failures;"
                    " skipped 21 intervals wider than 6"),
        ("3", "1", "checked 3 intervals x 4 families (12 cells), 0 failures;"
                   " skipped 3 intervals wider than 1"),
        ("7", "7", "checked 28 intervals x 4 families (224 cells), 0 failures"),
    ):
        code, out, _ = run_cli(
            capsys, "verify", "oracle", "--n-max", n_max, "--width-cap", width_cap
        )
        assert (code, out) == (EXIT_OK, f"verify oracle: {line}\n")
    code, _, err = run_cli(capsys, "verify", "oracle", "--n-max", "4", "--width-cap", "31")
    assert code == EXIT_USAGE
    assert "width_cap must be <= 30, got 31" in err


def test_table_out_must_be_a_path(capsys, tmp_path):
    # open() takes an int as a file descriptor, and closes it afterwards
    cfg = tmp_path / "cfg.json"
    for out_value in (True, 1, 7):
        cfg.write_text(json.dumps({"out": out_value}))
        code, out, err = run_cli(
            capsys, "--config", str(cfg), "table", "--families", "F", "--m", "0", "--n", "1..3"
        )
        assert (code, out) == (EXIT_USAGE, ""), out_value
        assert "out must be a path" in err
        os.fstat(1)  # raises if fd 1 was closed


def test_verify_failure_rows_of_any_size(capsys, monkeypatch):
    def huge_f(m, n, table):
        return 10**5000

    monkeypatch.setattr(cli, "f_interval", huge_f)
    code, out, err = run_cli(capsys, "verify", "oracle", "--n-max", "2")
    assert code == EXIT_VERIFY_FAILED, err
    lines = out.splitlines()
    assert lines[0] == "family,m,n,k,expected,actual"
    rows = [line for line in lines if line.startswith("F,")]
    assert [row[:9] for row in rows] == ["F,0,1,,1,", "F,0,2,,2,", "F,1,2,,0,"]
    assert all(len(row) == 5010 for row in rows)
    assert all(_parse_in_chunks(row[9:]) == 10**5000 for row in rows)
    assert lines[-1].endswith(", 3 failures")


def test_verify_failure_reports_cell_and_values(capsys, monkeypatch):
    def lying_f(m, n, table):
        return 10**6

    monkeypatch.setattr(cli, "f_interval", lying_f)
    code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "4")
    assert code == EXIT_VERIFY_FAILED
    assert "family,m,n,k,expected,actual" in out
    assert "F,0,1,,1,1000000" in out


def test_verify_bounds_and_identities_report_failed_cells(capsys, monkeypatch):
    def off_plane(n):
        plane = count_plane(n)
        plane.f[0] += 1 << n  # above 2^n - 1, every subset of {1, ..., n}
        return plane

    monkeypatch.setattr(cli, "count_plane", off_plane)
    code, out, _ = run_cli(capsys, "verify", "bounds", "--n-max", "3")
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[:2] == ["family,m,n,k,expected,actual", "T1,0,1,,0..2,-2"]
    assert len(lines) == 5 and lines[-1].endswith(", 3 failures")
    code, out, _ = run_cli(capsys, "verify", "identities", "--n-max", "2")
    assert code == EXIT_VERIFY_FAILED
    assert out.splitlines()[1:3] == ["F,0,1,,1,3", "F,0,2,,3,9"]


def test_verify_reports_failed_k_cells(capsys, monkeypatch):
    # fk(0, 3, 2) is read by T2 at (0, 3) and by the FK identities of every
    # (m, n) with (m // d, n // d) = (0, 3); phik(1, 3, 1) only by T4
    def off_plane(n):
        plane = count_plane(n)
        if n == 3:
            plane.fk[0][2] += 5
            plane.phik[1][1] += 7
        return plane

    monkeypatch.setattr(cli, "count_plane", off_plane)
    code, out, _ = run_cli(capsys, "verify", "bounds", "--n-max", "4")
    assert code == EXIT_VERIFY_FAILED
    assert out.splitlines() == [
        "family,m,n,k,expected,actual",
        "T2,0,3,2,0..9,-5",
        "T4,1,3,1,0..3,-7",
        "verify bounds: checked 58 bound reports, 2 failures",
    ]
    code, out, _ = run_cli(capsys, "verify", "identities", "--n-max", "7")
    assert code == EXIT_VERIFY_FAILED
    assert out.splitlines() == [
        "family,m,n,k,expected,actual",
        "FK,0,3,2,3,8",
        "FK,0,6,2,15,20",
        "FK,1,6,2,10,15",
        "FK,0,7,2,21,26",
        "FK,1,7,2,15,20",
        "verify identities: checked 112 identities, 5 failures",
    ]


def test_only_verify_oracle_sieves(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 1}))
    for mode in ("bounds", "identities"):
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", mode, "--n-max", "8")
        assert code == EXIT_OK, err
        assert out.endswith(", 0 failures\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "verify", "oracle", "--n-max", "8")
    assert code == EXIT_CAPACITY
    assert "exceeds capacity cap" in err


def test_verify_needs_a_positive_n_max(capsys, tmp_path):
    for mode in ("oracle", "bounds", "identities"):
        for n_max in ("0", "-3"):
            code, out, err = run_cli(capsys, "verify", mode, "--n-max", n_max)
            assert (code, out) == (EXIT_USAGE, ""), (mode, n_max)
            assert f"n_max must be >= 1, got {n_max}" in err
    for k_max in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "verify", "identities", "--n-max", "12", "--k-max", k_max
        )
        assert (code, out, err) == (EXIT_USAGE, "", f"error: k_max must be >= 1, got {k_max}\n")
    cfg = tmp_path / "cfg.json"
    for key, mode in (("n_max", "bounds"), ("k_max", "identities")):
        cfg.write_text(json.dumps({key: 0}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", mode)
        assert (code, out) == (EXIT_USAGE, ""), key
        assert f"{key} must be >= 1, got 0" in err


def test_capacity_exit_code(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 50}))
    # compute sieves to ceil(n^(2/3)), which is 100 for n = 1000
    code, _, err = run_cli(
        capsys, "--config", str(cfg), "compute", "f", "--m", "0", "--n", "1000"
    )
    assert code == EXIT_CAPACITY
    assert "exceeds capacity cap" in err


def test_work_cap_stops_verify_campaigns_at_once(capsys, monkeypatch):
    for mode, items in (("bounds", "2666667466666699999998 bound reports"),
                        ("identities", "2199999210000120 identities")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", mode, "--n-max", "20000000")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_CAPACITY, "", f"error: {items} exceed work cap 10000000\n")
    monkeypatch.setattr(cli, "WORK_CAP", 310)  # what verify bounds --n-max 8 reports
    code, out, _ = run_cli(capsys, "verify", "bounds", "--n-max", "8")
    assert (code, out) == (EXIT_OK, "verify bounds: checked 310 bound reports, 0 failures\n")
    code, out, err = run_cli(capsys, "verify", "bounds", "--n-max", "9")
    assert (code, out, err) == (EXIT_CAPACITY, "", "error: 418 bound reports exceed work cap 310\n")
    monkeypatch.setattr(cli, "WORK_CAP", 277)  # what the k-max 3 campaign below checks
    code, out, _ = run_cli(capsys, "verify", "identities", "--n-max", "12", "--k-max", "3")
    assert (code, out) == (EXIT_OK, "verify identities: checked 277 identities, 0 failures\n")
    code, out, err = run_cli(capsys, "verify", "identities", "--n-max", "12", "--k-max", "4")
    assert (code, out, err) == (EXIT_CAPACITY, "", "error: 322 identities exceed work cap 277\n")


def test_a_work_cap_refusal_of_any_size_exits_3(capsys):
    # counts past CPython's 4300-digit str() limit still print in full
    nines = "9" * 2000
    for argv in (("verify", "bounds", "--n-max", nines),
                 ("verify", "identities", "--n-max", nines),
                 ("verify", "oracle", "--n-max", nines),
                 ("table", "--families", "F", "--m", "0", "--n", "1.." + "9" * 2200)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CAPACITY, ""), argv[:2]
        assert err.startswith("error: ") and "exceed work cap 10000000" in err, argv[:2]
    # 2 * (C(n + 1, 2) + C(n + 2, 3)) - 2 bound reports, about n^3 / 3
    _, _, err = run_cli(capsys, "verify", "bounds", "--n-max", nines)
    assert err.split()[1].isdigit() and len(err.split()[1]) == 6000


def test_work_cap_stops_verify_oracle_at_once(capsys, monkeypatch):
    # counted before the sieve, so the work cap is the one reported
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "oracle", "--n-max", "20000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err == "error: 12959990248 oracle cells exceed work cap 10000000\n"
    monkeypatch.setattr(cli, "WORK_CAP", 478)  # what --n-max 12 --width-cap 6 checks
    code, out, _ = run_cli(capsys, "verify", "oracle", "--n-max", "12", "--width-cap", "6")
    assert code == EXIT_OK
    assert "(478 cells), 0 failures" in out
    code, out, err = run_cli(capsys, "verify", "oracle", "--n-max", "13", "--width-cap", "6")
    assert (code, out, err) == (EXIT_CAPACITY, "", "error: 532 oracle cells exceed work cap 478\n")


def test_verify_oracle_counts_its_cells_exactly(capsys, monkeypatch):
    # a cap of exactly the cells a campaign checks admits it, one less stops it
    for n_max, width_cap in ((1, 1), (3, 1), (5, 3), (7, 7), (9, 30), (20, 4)):
        argv = ["verify", "oracle", "--n-max", str(n_max), "--width-cap", str(width_cap)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        cells = int(out.split("(")[1].split(" cells")[0])
        monkeypatch.setattr(cli, "WORK_CAP", cells)
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setattr(cli, "WORK_CAP", cells - 1)
        assert run_cli(capsys, *argv)[0] == EXIT_CAPACITY
        monkeypatch.undo()


def test_work_cap_stops_a_long_table_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "table", "--families", "PHI", "--m", "0", "--n", "1..100000000"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err == "error: 100000000 table rows exceed work cap 10000000\n"


def test_table_row_count_matches_the_rows():
    families = (Family.PHI, Family.PHIK)
    for m_lo in range(7):
        for m_hi in range(m_lo, 7):
            for n_lo in range(1, 7):
                for n_hi in range(n_lo, 7):
                    ranges = ((m_lo, m_hi), (n_lo, n_hi), (2, 3))
                    cells = build_table_records(families, *ranges, None)
                    rows = sum(len(values) for *_, values in cells)
                    assert cli._table_rows(families, *ranges) == rows, ranges
    assert cli._table_rows(tuple(Family), (0, 63), (1, 64), (1, 64)) == 2 * 2080 + 2 * 2080 * 64


def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 5}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "verify", "oracle")
    assert code == EXIT_OK
    assert "checked 15 intervals" in out
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "verify", "oracle", "--n-max", "3"
    )
    assert code == EXIT_OK
    assert "checked 6 intervals" in out


def test_config_validation(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "--config", str(cfg), "verify", "oracle")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "nope.json"),
                           "verify", "oracle")
    assert code == EXIT_USAGE
    cfg.write_text(json.dumps({"n_max": "five"}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "verify", "oracle")
    assert code == EXIT_USAGE
    # not UTF-8, and an integer past CPython's 4300-digit int() limit
    for data in ('{"n_max": 3}'.encode("utf-16"), b'{"n_max": ' + b"9" * 5000 + b"}"):
        cfg.write_bytes(data)
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "bounds")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot read config {str(cfg)!r}: ")


def test_a_size_past_what_the_machine_can_index_exits_3(capsys):
    # binomial(n, k) sieves the primes up to n, whose flags cannot be allocated
    store = sieve._prime_store
    for family in ("fk", "phik"):
        argv = ["compute", family, "--m", "0", "--n", str(10**20), "--k", str(5 * 10**19)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_CAPACITY, ""), family
        assert err.startswith("error: "), family
    assert sieve._prime_store is store


# sha256 of f"{exit code}\n{stdout}" for each command, so that no change to
# the code changes a byte the CLI prints unnoticed. The four large computes
# take decimal_string's divide-and-conquer path (4516 and 6019 digits).
CORPUS = {
    "compute f --m 2 --n 30":
        "adac531460bb4d2baf6c0dd3e5d6d7c0167b972024518173747039517bc7210c",
    "compute fk --m 3 --n 25 --k 4":
        "621891d18f55bb2478ae900ce30fa676e4bff8b999f2dcdd3924869c90f1bc5c",
    "compute phi --m 5 --n 40":
        "e76b465ad76b66b20d428efddb3c17f7feb2ce4f59f40a276c28dabc5581b437",
    "compute phik --m 0 --n 30 --k 5":
        "dbd71a57238da52ea22e33a4c85f41db63a20f97552e5bff06b6cdbe7ba7faaa",
    "compute f --m 0 --n 15000":
        "0ae1628c5c740cb3b2811ae7602535a5c457897b4ba45eb1e7cb92407974bfa5",
    "compute phi --m 0 --n 15000":
        "fe6ddc65ed1ab3eb3d5bd6406492822848007f43604274a13580cd1067f0ad7d",
    "compute fk --m 0 --n 20000 --k 10000":
        "beaf5ab3febac5bc7366efa50743eb6d33ea36571c9237a8d8031cd85959d7f1",
    "compute phik --m 0 --n 20000 --k 10000":
        "beaf5ab3febac5bc7366efa50743eb6d33ea36571c9237a8d8031cd85959d7f1",
    "table --m 0..3 --n 1..8 --k 1..3 --format csv":
        "818da9bb69e3cc7925e8753ecc7a4a99423b445f8cbe01221de154a19c1847b0",
    "table --families F,PHIK --m 2..4 --n 5..7 --k 2..3 --format json":
        "7d48b0b0a6b2a0d547a2b774cf3af2c302e33aaa98d823b4459fa91e689ce1b0",
    "verify oracle --n-max 10":
        "705b3a60fc261c527b33fb1b0b522d388747493ab52318c6d108d227734fe508",
    "verify bounds --n-max 25":
        "42887c030f4eb3ce1dc162e48e41ad78083d1821f073ff10e655cb90433853f3",
    "verify identities --n-max 20":
        "cfb5371c622b840d0ef92f417c2d2ef82ddbb41f028a6ad8104da070bca1fd3a",
    "compute fk --m 0 --n 5":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "compute f --m 0 --n 10000000000000":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "verify bounds --n-max 48":
        "39dafaa4066bc9e58de129a2ef4ae2ce4142e631fc6588bc23ff2a0bb59ef6aa",
    "verify identities --n-max 48 --k-max 1":
        "873d353b2c76a66e33ffca120e8c75d2db04be4fd7b29f8a14d6998c4b0e1528",
    # k-max past every n - m
    "verify identities --n-max 30 --k-max 40":
        "16948ccf5308ecb7a1d5c41266e9c7f3be29852e1813ba68142dbe768de56ef2",
    # m from above 0, k from above 1 and past n - m, one K family
    "table --families FK --m 2..5 --n 4..9 --k 3..8 --format csv":
        "4f2583a99392fd6ad49f3f32a3ca0184d34100f250d2980c8e52c7c35cb91e1c",
    "table --families PHIK --m 1..4 --n 3..8 --k 2..9 --format json":
        "534c4447ca52b0a3527b81670fa43d9fe01ddfb8c5c3932e970415b712dc8697",
}


@pytest.mark.parametrize("command", sorted(CORPUS))
def test_cli_bytes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == CORPUS[command]


def test_parse_range_forms():
    assert parse_range("5", "n") == (5, 5)
    assert parse_range("1..8", "n") == (1, 8)
    with pytest.raises(UsageError):
        parse_range("8..1", "n")
    with pytest.raises(UsageError):
        parse_range("a..b", "n")


def test_parse_families_dedupes_and_orders():
    assert parse_families("phi,F,fk,PHI") == (Family.F, Family.FK, Family.PHI)
    assert parse_families(" phik, ,f ") == (Family.F, Family.PHIK)
    with pytest.raises(UsageError):
        parse_families("F,NOPE")
    # the first unknown name in input order
    with pytest.raises(UsageError, match="unknown family 'Y'"):
        parse_families("F,Y,X")


def test_table_spec_validation(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    cases = [
        (("table", "--families", "FK", "--m", "0", "--n", "1..4"), "require --k"),
        (("--config", str(cfg), "table", "--families", "F", "--m", "0", "--n", "1..4"),
         "unknown format 'xml'"),
        (("table", "--families", ",", "--m", "0", "--n", "1..4"), "at least one family"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert message in err, argv
    table = build_sieve(4)
    assert len(list(build_table_records((Family.F,), (0, 0), (1, 4), None, table))) == 4
    assert render_records([], "json").strip() == "[]"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rpsets", "compute", "f", "--m", "0", "--n", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11"
