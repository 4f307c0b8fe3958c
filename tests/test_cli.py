import csv
import io
import json
import os
import subprocess
import sys

import pytest

from rpsets import cli, counting
from rpsets.cli import (
    EXIT_CAPACITY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    TableSpec,
    UsageError,
    build_table_records,
    main,
    parse_families,
    parse_range,
    render_records,
)
from rpsets.counting import Family, f_interval
from rpsets.oracle import oracle_count
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
        capsys, "compute", "fk", "--m", "25000000", "--n", "100000000", "--k", "3"
    )
    assert code == EXIT_OK, err
    assert int(out) > 0


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


def _parse_in_chunks(digits: str) -> int:
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_values_above_4300_digits_print(capsys):
    expected = f_interval(0, 15_000, build_sieve(15_000))
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


def test_json_rendering_matches_json_dumps():
    def row(family, m, n, k, value):
        return {"family": family, "m": m, "n": n, "k": k, "value": value}

    tables = [
        [],
        [row("F", 0, n, None, str(2**n - 1)) for n in range(1, 4)],
        [row("FK", 1, 5, 2, "6"), row("PHIK", 0, 6, 1, "2"), row("FK", 0, 3, 3, "0")],
        [row("F", 0, 15_000, None, "7" * 4400)],
    ]
    for records in tables:
        assert render_records(records, "json") == json.dumps(records, indent=2) + "\n"


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
    assert code == EXIT_OK
    assert "checked 55 intervals x 4 families" in out
    assert "0 failures" in out


def test_verify_bounds_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "bounds", "--n-max", "25")
    assert code == EXIT_OK
    assert "0 failures" in out


def test_verify_identities_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--n-max", "20")
    assert code == EXIT_OK
    assert "0 failures" in out


def test_verify_oracle_skips_wide_intervals(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "oracle", "--n-max", "12", "--width-cap", "6"
    )
    assert code == EXIT_OK
    assert "skipped" in out
    code, _, err = run_cli(capsys, "verify", "oracle", "--n-max", "4", "--width-cap", "31")
    assert code == EXIT_USAGE
    assert "max_width must be in 1..30" in err


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


def test_capacity_exit_code(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sieve_cap": 50}))
    # compute sieves to ceil(n^(2/3)), which is 100 for n = 1000
    code, _, err = run_cli(
        capsys, "--config", str(cfg), "compute", "f", "--m", "0", "--n", "1000"
    )
    assert code == EXIT_CAPACITY
    assert "exceeds capacity cap" in err


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


def test_parse_range_forms():
    assert parse_range("5", "n") == (5, 5)
    assert parse_range("1..8", "n") == (1, 8)
    with pytest.raises(UsageError):
        parse_range("8..1", "n")
    with pytest.raises(UsageError):
        parse_range("a..b", "n")


def test_parse_families_dedupes_and_orders():
    assert parse_families("phi,F,fk,PHI") == (Family.F, Family.FK, Family.PHI)
    with pytest.raises(UsageError):
        parse_families("F,NOPE")


def test_table_spec_validation():
    with pytest.raises(UsageError):
        TableSpec((Family.FK,), (0, 0), (1, 4), None)
    with pytest.raises(UsageError):
        TableSpec((Family.F,), (0, 0), (1, 4), None, format="xml")
    with pytest.raises(UsageError):
        TableSpec((), (0, 0), (1, 4), None)
    spec = TableSpec((Family.F,), (0, 0), (1, 4), None, format="csv")
    table = build_sieve(4)
    assert len(build_table_records(spec, table)) == 4
    assert render_records([], "json").strip() == "[]"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rpsets", "compute", "f", "--m", "0", "--n", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11"
