"""Command line front end: single exact values, sweep tables, and
verification campaigns (closed forms vs brute force, theorem bounds,
partition identities)."""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import counting
from .bounds import (
    check_f,
    check_fk,
    check_phi,
    check_phik,
    partition_identity_f,
    partition_identity_fk,
    partition_sum_f,
    partition_sum_fk,
)
from .counting import (
    Family,
    K_FAMILIES,
    _check_cell,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from .exactmath import binomial, ceil_cbrt, decimal_string
from .oracle import _check_max_width, oracle_count
from .sieve import CapacityError, DEFAULT_LIMIT_CAP, SieveTable, build_sieve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; that code is reserved for
    # verification failures here, so route usage problems through UsageError.
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class TableSpec:
    """One sweep request: which families, over which inclusive ranges."""

    families: tuple[Family, ...]
    m_range: tuple[int, int]
    n_range: tuple[int, int]
    k_range: tuple[int, int] | None
    format: str = "json"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not self.families:
            raise UsageError("at least one family required")
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise UsageError(f"out must be a path string, got {self.output_path!r}")
        for name, (lo, hi) in (("m", self.m_range), ("n", self.n_range)):
            if hi < lo:
                raise UsageError(f"empty {name} range {lo}..{hi}")
        if self.m_range[0] < 0:
            raise UsageError(f"m must be >= 0, got {self.m_range[0]}")
        if self.n_range[0] < 1:
            raise UsageError(f"n must be >= 1, got {self.n_range[0]}")
        needs_k = any(fam in K_FAMILIES for fam in self.families)
        if needs_k and self.k_range is None:
            raise UsageError("families FK and PHIK require --k")
        if self.k_range is not None:
            lo, hi = self.k_range
            if hi < lo:
                raise UsageError(f"empty k range {lo}..{hi}")
            if lo < 1:
                raise UsageError(f"k must be >= 1, got {lo}")


def parse_range(text: str, name: str) -> tuple[int, int]:
    """Inclusive 'LO..HI', or a single integer meaning LO = HI."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise UsageError(f"bad {name} range {text!r}; expected INT or LO..HI") from None
    if hi < lo:
        raise UsageError(f"empty {name} range {text!r}")
    return lo, hi


def parse_families(text: str) -> tuple[Family, ...]:
    """Comma list, case-insensitive, deduplicated, canonically ordered."""
    chosen = []
    for token in text.split(","):
        token = token.strip().upper()
        if not token:
            continue
        try:
            family = Family(token)
        except ValueError:
            raise UsageError(f"unknown family {token!r}") from None
        if family not in chosen:
            chosen.append(family)
    order = list(Family)
    return tuple(sorted(chosen, key=order.index))


def build_table_records(spec: TableSpec, table: SieveTable) -> list[dict]:
    """Rows in deterministic order: family, then m, then n, then k, ascending.

    Cells with m >= n are skipped, so an empty intersection yields no rows.
    """
    records = []
    m_lo, m_hi = spec.m_range
    n_lo, n_hi = spec.n_range
    for family in spec.families:
        name = family.value
        # looked up at call time, so a replaced counting function is the one
        # the table uses
        counter = getattr(counting, f"{name.lower()}_interval")
        takes_k = family in K_FAMILIES
        if takes_k:
            assert spec.k_range is not None
            k_values: range | tuple[None] = range(spec.k_range[0], spec.k_range[1] + 1)
        else:
            k_values = (None,)
        for m in range(m_lo, m_hi + 1):
            for n in range(max(n_lo, m + 1), n_hi + 1):
                for k in k_values:
                    value = counter(m, n, k, table) if takes_k else counter(m, n, table)
                    records.append(
                        {"family": name, "m": m, "n": n, "k": k, "value": decimal_string(value)}
                    )
    return records


_COLUMNS = ("family", "m", "n", "k", "value")

# One table row as json.dumps(records, indent=2) lays it out.
_JSON_RECORD = (
    '  {\n    "family": %s,\n    "m": %d,\n    "n": %d,\n    "k": %s,\n    "value": %s\n  }'
)


def render_records(records: list[dict], fmt: str) -> str:
    """The rows as CSV, or as the bytes of json.dumps(records, indent=2)
    plus a newline. That call runs the pure-Python encoder, so the JSON is
    filled into a per-row template instead."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")  # None becomes an empty cell
        writer.writerow(_COLUMNS)
        writer.writerows(map(itemgetter(*_COLUMNS), records))
        return buf.getvalue()
    if not records:
        return "[]\n"
    rows = ",\n".join(
        _JSON_RECORD
        % (
            encode_basestring_ascii(rec["family"]),
            rec["m"],
            rec["n"],
            "null" if rec["k"] is None else rec["k"],
            encode_basestring_ascii(rec["value"]),
        )
        for rec in records
    )
    return "[\n" + rows + "\n]\n"


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return data


def _resolve_int(args, cfg: dict, name: str, fallback: int) -> int:
    """Flag value if given, else config value, else the fallback."""
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name, fallback)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def _sieve_cap(cfg: dict) -> int:
    cap = cfg.get("sieve_cap", DEFAULT_LIMIT_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise UsageError(f"sieve_cap must be a positive integer, got {cap!r}")
    return cap


def _run_compute(args, cfg: dict) -> int:
    family = Family(args.family.upper())
    m, n, k = args.m, args.n, args.k
    try:
        _check_cell(family, m, n, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    table = None  # phi and phik need only the factorization of n
    if family in (Family.F, Family.FK):
        # M(x) for x above n^(2/3) costs less by its recursion than by sieving
        table = build_sieve(ceil_cbrt(n * n), cap=_sieve_cap(cfg))
    # looked up at call time, so a replaced counting function is the one used
    counter = getattr(counting, f"{args.family}_interval")
    value = counter(m, n, table) if k is None else counter(m, n, k, table)
    print(decimal_string(value))
    return EXIT_OK


def _run_table(args, cfg: dict) -> int:
    fmt = args.format if args.format is not None else cfg.get("format", "json")
    out = args.out if args.out is not None else cfg.get("out")
    spec = TableSpec(
        families=parse_families(args.families),
        m_range=parse_range(args.m, "m"),
        n_range=parse_range(args.n, "n"),
        k_range=parse_range(args.k, "k") if args.k is not None else None,
        format=fmt,
        output_path=out,
    )
    limit = max(1, spec.n_range[1])
    table = build_sieve(limit, cap=_sieve_cap(cfg))
    records = build_table_records(spec, table)
    _emit(render_records(records, spec.format), spec.output_path)
    return EXIT_OK


def _csv_cell(value) -> str:
    """None is an empty cell, and an int prints in decimal at any size."""
    return "" if value is None else value if isinstance(value, str) else decimal_string(value)


def _verify(n_max: int, cfg: dict, check, summary) -> int:
    """Run one campaign over every interval 0 <= m < n <= n_max.

    check(m, n, table, failures) checks one interval, appends a (label, m,
    n, k, expected, actual) row per failed item and returns how many items
    it checked. The failure rows print as CSV, then the last line is
    summary(checked, failed).
    """
    table = build_sieve(max(1, n_max), cap=_sieve_cap(cfg))
    checked = 0
    failures: list[tuple] = []
    for n in range(1, n_max + 1):
        for m in range(n):
            checked += check(m, n, table, failures)
    if failures:
        print("family,m,n,k,expected,actual")
        for row in failures:
            print(",".join(map(_csv_cell, row)))
    print(summary(checked, len(failures)))
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _verify_oracle(args, cfg: dict) -> int:
    n_max = _resolve_int(args, cfg, "n_max", 16)
    width_cap = _resolve_int(args, cfg, "width_cap", 24)
    try:
        _check_max_width(width_cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    intervals = skipped = 0

    def check(m, n, table, failures):
        nonlocal intervals, skipped
        if n - m > width_cap:
            skipped += 1
            return 0
        intervals += 1
        cells = [(Family.F, None, f_interval(m, n, table)),
                 (Family.PHI, None, phi_interval(m, n, table))]
        for k in range(1, n - m + 1):
            cells.append((Family.FK, k, fk_interval(m, n, k, table)))
            cells.append((Family.PHIK, k, phik_interval(m, n, k, table)))
        for family, k, actual in cells:
            expected = oracle_count(family, m, n, k, width_cap)
            if expected != actual:
                failures.append((family.value, m, n, k, expected, actual))
        return len(cells)

    def summary(cells, failed):
        line = (
            f"verify oracle: checked {intervals} intervals x 4 families"
            f" ({cells} cells), {failed} failures"
        )
        if skipped:
            line += f"; skipped {skipped} intervals wider than {width_cap}"
        return line

    return _verify(n_max, cfg, check, summary)


def _verify_bounds(args, cfg: dict) -> int:
    def check(m, n, table, failures):
        ks = range(1, n - m + 1)
        reports = [check_f(m, n, table)] + [check_fk(m, n, k, table) for k in ks]
        if n >= 2:  # T3 and T4 need a prime divisor of n
            reports += [check_phi(m, n, table)] + [check_phik(m, n, k, table) for k in ks]
        for r in reports:
            if not (r.holds_lower and r.holds_upper):
                failures.append((r.theorem, m, n, r.k, f"0..{decimal_string(r.upper)}", r.gap))
        return len(reports)

    summary = "verify bounds: checked {} bound reports, {} failures".format
    return _verify(_resolve_int(args, cfg, "n_max", 100), cfg, check, summary)


def _verify_identities(args, cfg: dict) -> int:
    n_max = _resolve_int(args, cfg, "n_max", 60)
    k_max = _resolve_int(args, cfg, "k_max", 10)

    def check(m, n, table, failures):
        # a failed identity is rare, so only then is its sum computed again
        if not partition_identity_f(m, n, table):
            failures.append(("F", m, n, None, (1 << (n - m)) - 1, partition_sum_f(m, n, table)))
        ks = range(1, min(n - m, k_max) + 1)
        for k in ks:
            if not partition_identity_fk(m, n, k, table):
                failures.append(
                    ("FK", m, n, k, binomial(n - m, k), partition_sum_fk(m, n, k, table))
                )
        return 1 + len(ks)

    summary = "verify identities: checked {} identities, {} failures".format
    return _verify(n_max, cfg, check, summary)


_VERIFY_MODES = {
    "oracle": _verify_oracle,
    "bounds": _verify_bounds,
    "identities": _verify_identities,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rpsets",
        description="Exact counts of relatively prime subsets of {m+1, ..., n}.",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON object of default option values; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print one exact count")
    p_compute.add_argument("family", choices=["f", "fk", "phi", "phik"])
    p_compute.add_argument("--m", type=int, required=True)
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.add_argument("--k", type=int, help="cardinality, for fk/phik")
    p_compute.set_defaults(run=_run_compute)

    p_table = sub.add_parser("table", help="sweep a grid of cells to JSON or CSV")
    p_table.add_argument(
        "--families",
        default="F,FK,PHI,PHIK",
        help="comma list from F,FK,PHI,PHIK (default: all four)",
    )
    p_table.add_argument("--m", required=True, metavar="LO..HI", help="m range")
    p_table.add_argument("--n", required=True, metavar="LO..HI", help="n range")
    p_table.add_argument("--k", metavar="LO..HI", help="k range, for FK/PHIK")
    p_table.add_argument("--format", choices=["json", "csv"])
    p_table.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p_table.set_defaults(run=_run_table)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("mode", choices=sorted(_VERIFY_MODES))
    p_verify.add_argument("--n-max", dest="n_max", type=int)
    p_verify.add_argument(
        "--width-cap", dest="width_cap", type=int, help="oracle mode: max interval width"
    )
    p_verify.add_argument(
        "--k-max", dest="k_max", type=int, help="identities mode: max cardinality"
    )
    p_verify.set_defaults(run=lambda args, cfg: _VERIFY_MODES[args.mode](args, cfg))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        return args.run(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug in rpsets, not a user mistake
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
