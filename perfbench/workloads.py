"""The benchmark's workloads: what each op runs and how its output is checked.

A workload runs in passes. A pass is a batch of ops whose inputs come from a
seeded random generator. Sizes come in strata: a pass draws one cell in each
stratum, so passes from two seeds differ in their inputs but cost nearly the
same. That keeps the figures of runs with different seeds comparable.

Every output is checked with relations that do not use the code under
test: each value against its T1-T4 gap bounds and a Mobius recount (see
``checks``), and each table also by its sums over k. A failed check, a
non-zero exit or an exception is a failed op.
"""

import contextlib
import csv
import io
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import rpsets
from checks import P, check_value, count_mod
from rpsets import cli

WORKLOADS = ("bigval", "bign", "sweep")
JITTER = 0.01  # share by which a cell's n and n - m stray from their centre
BIGN_KINDS = (("fk", 2), ("fk", 3), ("phik", 1), ("phik", 2), ("phik", 3))
BIGN_PROBE_N = (15_000, 20_000)  # f and phi over {1..n} have over 4300 digits


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]  # the timed call into rpsets
    check: Callable[[object], tuple[int, str | None]]  # -> (cells, error)


@dataclass(frozen=True)
class BigvalSize:
    # (n, n - m) centres; values have about n - m bits.
    strata: tuple[tuple[int, int], ...] = ((60_000, 12_000), (120_000, 50_000), (190_000, 95_000))
    table_limit: int = 200_000


@dataclass(frozen=True)
class BignSize:
    # n centres, one per kind of BIGN_KINDS, and m near n/4; build_sieve(n)
    # dominates each op, and fk with small k also loops over d up to n - m.
    # The low end of n keeps ops short, so a run times many of them.
    strata: tuple[int, ...] = (1_000_000, 1_100_000, 1_200_000, 1_300_000, 1_400_000)


@dataclass(frozen=True)
class SweepSize:
    # table over all m < n <= table_n and k <= table_n, cut into slices by n.
    # Sized so that a 30 s run repeats each op six to eight times.
    table_n: int = 64
    table_slices: int = 8
    bounds_n: tuple[int, int] = (46, 48)
    # Fixed: the enumeration doubles in cost with each step of n.
    oracle_n: int = 16
    identities_n: tuple[int, int] = (46, 48)


SIZES = {"bigval": BigvalSize(), "bign": BignSize(), "sweep": SweepSize()}


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _jitter(rng: random.Random, centre: int) -> int:
    spread = int(centre * JITTER)
    return centre + rng.randint(-spread, spread)


def parse_decimal(text: str) -> int:
    """int() of a decimal string of any length, without lifting the
    interpreter's 4300-digit limit."""
    text = text.strip()
    if not text or not text.isdigit() or not text.isascii():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


# Ops

def run_cli(argv: list[str]) -> CliResult:
    """``rpsets`` in-process, as a user would run it, with output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def _cli_op(argv: list[str], check) -> Op:
    return Op(" ".join(argv), partial(run_cli, argv), check)


def _library_call(name: str, *args):
    return getattr(rpsets, name)(*args)


def _check_compute(family, m, n, k, res: CliResult):
    if res.rc != 0:
        return 0, f"exit {res.rc}: {res.err.strip()[:200]}"
    return check_value(family, m, n, k, parse_decimal(res.out))


def setup(workload: str, size):
    """Work done once per run before the timed loop: the shared sieve table
    for ``bigval``."""
    if workload == "bigval":
        return rpsets.build_sieve(size.table_limit)
    return None


def bigval_pass(rng: random.Random, size: BigvalSize, table) -> list[Op]:
    ops = []
    for family in ("f", "fk", "phik"):
        for n_centre, w_centre in size.strata:
            n = _jitter(rng, n_centre)
            w = _jitter(rng, w_centre)
            m = n - w
            if family == "f":
                k = None
                args = (m, n, table)
            else:
                k = w // 2 + rng.randint(-(w // 100), w // 100)
                args = (m, n, k, table)
            ops.append(
                Op(
                    f"{family}({m}, {n}{'' if k is None else f', {k}'})",
                    partial(_library_call, f"{family}_interval", *args),
                    partial(check_value, family, m, n, k),
                )
            )
    return ops


def bign_pass(rng: random.Random, size: BignSize, _table=None) -> list[Op]:
    ops = []
    for n_centre, (family, k) in zip(size.strata, BIGN_KINDS, strict=True):
        n = _jitter(rng, n_centre)
        m = _jitter(rng, n // 4)
        argv = ["compute", family, "--m", str(m), "--n", str(n), "--k", str(k)]
        ops.append(_cli_op(argv, partial(_check_compute, family, m, n, k)))
    return ops


def bign_probes(rng: random.Random) -> list[Op]:
    """compute f and phi at n where the value has more than 4300 digits."""
    ops = []
    for family in ("f", "phi"):
        n = rng.randint(*BIGN_PROBE_N)
        argv = ["compute", family, "--m", "0", "--n", str(n)]
        ops.append(_cli_op(argv, partial(_check_compute, family, 0, n, None)))
    return ops


def _table_slices(size: SweepSize) -> list[tuple[int, int]]:
    # Rows of a slice lo..hi grow with the sum of n over it, so cutting at
    # square roots gives slices of nearly equal rows, hence equal output and
    # memory whichever format each slice gets.
    top, count = size.table_n, size.table_slices
    bounds = [round(top * (j / count) ** 0.5) for j in range(count + 1)]
    return [(bounds[j] + 1, bounds[j + 1]) for j in range(count)]


def _rows_of(fmt: str, text: str):
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader) != ["family", "m", "n", "k", "value"]:
            raise ValueError("bad CSV header")
        for family, m, n, k, value in reader:
            yield family, int(m), int(n), int(k) if k else None, int(value)
    else:
        for rec in json.loads(text):
            yield rec["family"], rec["m"], rec["n"], rec["k"], int(rec["value"])


def _check_table(fmt: str, lo: int, hi: int, k_max: int, res: CliResult):
    """Every (m, n) cell of the slice is present, each F and PHI matches its
    recount, and sum_k FK = F and sum_k PHIK = PHI, k running over 1..k_max,
    which covers every k <= n - m."""
    if res.rc != 0:
        return 0, f"exit {res.rc}: {res.err.strip()[:200]}"
    whole: dict[tuple[str, int, int], int] = {}
    by_k: dict[tuple[str, int, int], int] = {}
    rows = 0
    for family, m, n, k, value in _rows_of(fmt, res.out):
        rows += 1
        if family in ("F", "PHI"):
            whole[family, m, n] = value
        else:
            key = ("F" if family == "FK" else "PHI", m, n)
            by_k[key] = by_k.get(key, 0) + value
    cells = sum(range(lo, hi + 1))  # (m, n) pairs with 0 <= m < n
    expected_rows = 2 * cells + 2 * cells * k_max
    if rows != expected_rows:
        return 0, f"{rows} rows, expected {expected_rows}"
    if len(whole) != 2 * cells or whole != by_k:
        return 0, "sum over k of FK/PHIK differs from F/PHI"
    for (family, m, n), value in whole.items():
        if value % P != count_mod(family.lower(), m, n, None):
            return 0, f"{family}({m}, {n}) differs from the Mobius recount"
    return rows, None


def verify_items(mode: str, n_max: int) -> int:
    """Items ``rpsets verify MODE --n-max N`` checks, from its definition."""
    cells = [(n, n - m) for n in range(1, n_max + 1) for m in range(n)]
    if mode == "bounds":  # T1 and T2 for every n, T3 and T4 from n = 2
        return sum((1 + w) * (2 if n >= 2 else 1) for n, w in cells)
    if mode == "oracle":
        return sum(2 + 2 * w for _, w in cells)
    return sum(1 + min(w, 10) for _, w in cells)  # identities, default k-max 10


_SUMMARY = re.compile(r"checked (\d+) .*?(?:\((\d+) cells\))?, (\d+) failures")


def _check_verify(mode: str, n_max: int, res: CliResult):
    if res.rc != 0:
        return 0, f"exit {res.rc}: {res.err.strip()[:200]}"
    lines = res.out.strip().splitlines()
    match = _SUMMARY.search(lines[-1]) if lines else None
    if match is None:
        return 0, f"no summary line in {res.out[-200:]!r}"
    checked = int(match.group(2) or match.group(1))
    if int(match.group(3)) != 0:
        return 0, f"verify {mode}: {match.group(3)} failures"
    expected = verify_items(mode, n_max)
    if checked != expected:
        return 0, f"verify {mode}: checked {checked}, expected {expected}"
    return checked, None


def sweep_pass(rng: random.Random, size: SweepSize, _table=None) -> list[Op]:
    ops = []
    top = size.table_n
    # Neighbouring slices cost about the same, so alternating the formats
    # gives each format half the rows.
    for j, (lo, hi) in enumerate(_table_slices(size)):
        fmt = ("csv", "json")[j % 2]
        argv = [
            "table", "--families", "F,FK,PHI,PHIK", "--m", f"0..{hi - 1}",
            "--n", f"{lo}..{hi}", "--k", f"1..{top}", "--format", fmt,
        ]
        ops.append(_cli_op(argv, partial(_check_table, fmt, lo, hi, top)))
    for mode, n_max in (
        ("bounds", rng.randint(*size.bounds_n)),
        ("oracle", size.oracle_n),
        ("identities", rng.randint(*size.identities_n)),
    ):
        argv = ["verify", mode, "--n-max", str(n_max)]
        ops.append(_cli_op(argv, partial(_check_verify, mode, n_max)))
    return ops


PASSES = {"bigval": bigval_pass, "bign": bign_pass, "sweep": sweep_pass}
