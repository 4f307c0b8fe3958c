"""Command line front end: single exact values, sweep tables, and
verification campaigns (closed forms vs the gcd-state oracle, theorem
bounds, partition identities)."""

import argparse
import functools
import json
import sys
from collections.abc import Iterable, Iterator, Sequence

from . import counting
from .bounds import check_f, check_fk, check_phi, check_phik, partition_sum_fk
from .counting import (
    Family,
    K_FAMILIES,
    SIEVED_FAMILIES,
    _check_cell,
    _reach,
    count_plane,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from .exactmath import binomial, ceil_cbrt, decimal_string, pascal_rows
from .oracle import HARD_WIDTH_CAP, oracle_count
from .sieve import (
    CapacityError,
    DEFAULT_LIMIT_CAP,
    SieveTable,
    build_sieve,
    divisors,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

WORK_CAP = 10**7  # rows of a table, items of a verify campaign; no sieve bounds them
DEFAULT_WIDTH_CAP = 24  # widest interval verify oracle checks when given no width cap


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; that code is reserved for
    # verification failures here, so route usage problems through UsageError.
    def error(self, message):
        raise UsageError(message)


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
    tokens = [token.strip().upper() for token in text.split(",")]
    for token in tokens:
        if token and token not in list(Family):
            raise UsageError(f"unknown family {token!r}")
    return tuple(family for family in Family if family in tokens)


def build_table_records(
    families: tuple[Family, ...], m_range: tuple[int, int], n_range: tuple[int, int],
    k_range: tuple[int, int] | None, table: SieveTable | None,
) -> Iterator[tuple[str, int, int, Sequence[int | None], list[str]]]:
    """One (family, m, n, ks, values) item per cell: its rows are
    (family, m, n, k, value) for k, value in zip(ks, values), values in
    decimal, and ks is the k range, or (None,) for F and PHI. Cells come in
    deterministic order: family, then m, then n, ascending.

    The cells are made as they are read, each with one counting call per
    k <= n - m; the rows past n - m, which no k-set fits, read "0". Cells
    with m >= n are skipped, so an empty intersection yields none.
    """
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    for family in families:
        name = family.value
        # looked up at call time, so a replaced counting function is the one
        # that table and compute use
        counter = getattr(counting, f"{name.lower()}_interval")
        takes_k = family in K_FAMILIES
        ks = range(k_range[0], k_range[1] + 1) if takes_k else (None,)
        for m in range(m_lo, m_hi + 1):
            for n in range(max(n_lo, m + 1), n_hi + 1):
                if takes_k:
                    fits = range(ks.start, min(ks.stop, n - m + 1))
                    values = [decimal_string(counter(m, n, k, table)) for k in fits]
                    values += ["0"] * (len(ks) - len(fits))
                else:
                    values = [decimal_string(counter(m, n, table))]
                yield name, m, n, ks, values


def _table_rows(
    families: tuple[Family, ...], m_range: tuple[int, int], n_range: tuple[int, int],
    k_range: tuple[int, int] | None,
) -> int:
    """How many rows the cells of build_table_records hold, without
    computing any.
    C(b - a + 1, 2) counts the cells a <= m < n <= b, and the grid's cells
    follow from four such counts."""
    (m_lo, m_hi), (n_lo, n_hi) = m_range, n_range
    cells = (binomial(n_hi - m_lo + 1, 2) - binomial(n_hi - m_hi, 2)
             - binomial(n_lo - m_lo, 2) + binomial(n_lo - m_hi - 1, 2))
    ks = k_range[1] - k_range[0] + 1 if k_range is not None else 0
    return cells * sum(ks if family in K_FAMILIES else 1 for family in families)


_COLUMNS = ("family", "m", "n", "k", "value")

# One table row per format: CSV, and json.dumps(records, indent=2)'s layout
# of one record. A cell fills in its family, m and n once, and each of its
# rows then only its k and value. No field ever needs quoting or escaping:
# families are capital letters, m, n and k are ints, and values are decimal
# digits.
_TEMPLATES = {
    "csv": ("%s,%d,%d,%%s,%%s\n", ""),
    "json": (
        '  {\n    "family": "%s",\n    "m": %d,\n    "n": %d,\n    "k": %%s,\n'
        '    "value": "%%s"\n  }',
        "null",
    ),
}


def render_records(cells: Iterable[tuple], fmt: str) -> str:
    """The rows of the (family, m, n, ks, values) cells as CSV, or as the
    bytes of json.dumps of their dicts with indent=2, plus a newline, each
    row filled into its cell's template."""
    record, none = _TEMPLATES[fmt]
    # one join: adding the header to the joined rows would copy them all
    rows = [",".join(_COLUMNS) + "\n"] if fmt == "csv" else []
    for family, m, n, ks, values in cells:
        fill = (record % (family, m, n)).__mod__
        rows += map(fill, zip((none,) if ks[0] is None else ks, values))
    if fmt == "csv":
        return "".join(rows)
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


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
    except (OSError, ValueError) as exc:  # JSON, UTF-8 or int() digit limit
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return data


def _resolve_int(args, cfg: dict, name: str, fallback: int) -> int:
    """Flag value if given, else config value, else the fallback; at least 1."""
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name, fallback)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")
    return value


def _sieve_table(args, cfg: dict, grid: tuple) -> SieveTable | None:
    """The one Mobius/Mertens table for the F and FK counts of a grid, the
    arguments of build_table_records; None, cap unread, if it asks for none,
    and None when the grid's reach R is 0. R is the _reach of the widest
    cell (m_lo, n_hi), at its k for a lone FK count and as f otherwise,
    which is at least every F and FK cell's, and no table passes it.

    A lone count, as in compute, gets 2*ceil(n^(2/3)) entries or the cap,
    whichever is less, but at least ceil(n^(2/3)), which past the cap is
    what build_sieve refuses, and at most R. M(x) above n^(2/3) costs less
    by its recursion than by sieving, up to a small multiple of it. Sieve
    plus count in seconds, fk at m = n/4, k = 2, at 1/2, 1, 2 and 4 times
    ceil(n^(2/3)): 0.0043 / 0.0032 / 0.0027 / 0.0028 at n = 10^6, 0.093 /
    0.068 / 0.064 / 0.065 at n = 10^8 and 1.62 / 1.22 / 1.27 / 1.21 at
    n = 10^10 (2 vCPUs, CPython 3.11, minimum of 41, 9 and 3 rounds).

    Any other grid shares one table up to R while its largest n fits the
    cap, and past it a lone count's: F over 1000 narrow cells at n = 10^6
    takes 4.3 s on the short one and 1.1 s on the full one (fresh processes).
    """
    families, (m, _), (_, n), k_range = grid
    sieved = tuple(family for family in families if family in SIEVED_FAMILIES)
    if not sieved:
        return None
    cap = _resolve_int(args, cfg, "sieve_cap", DEFAULT_LIMIT_CAP)
    # a grid of one count holds just the cell (m_lo, n_hi)
    lone = _table_rows(sieved, *grid[1:]) == 1
    reach = _reach(m, n, k_range[0] if lone and sieved == (Family.FK,) else None)
    need = ceil_cbrt(n * n)
    limit = reach if n <= cap and not lone else min(reach, 2 * need, max(need, cap))
    return build_sieve(limit, cap=cap) if limit else None


def _run_compute(args, cfg: dict) -> int:
    family = Family(args.family.upper())
    m, n, k = args.m, args.n, args.k
    try:
        _check_cell(family, m, n, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # the one value of a one-cell table; k is None or at least 1 here
    cell = (family,), (m, m), (n, n), k and (k, k)
    [(*_, [value])] = build_table_records(*cell, _sieve_table(args, cfg, cell))
    print(value)
    return EXIT_OK


def _check_work(items: int, unit: str) -> None:
    if items > WORK_CAP:
        raise CapacityError(f"{decimal_string(items)} {unit} exceed work cap {WORK_CAP}")


def _run_table(args, cfg: dict) -> int:
    families = parse_families(args.families)
    m_range = parse_range(args.m, "m")
    n_range = parse_range(args.n, "n")
    k_range = parse_range(args.k, "k") if args.k is not None else None
    fmt = args.format if args.format is not None else cfg.get("format", "json")
    out = args.out if args.out is not None else cfg.get("out")
    if not families:
        raise UsageError("at least one family required")
    if fmt not in ("json", "csv"):
        raise UsageError(f"unknown format {fmt!r}")
    if out is not None and not isinstance(out, str):
        raise UsageError(f"out must be a path string, got {out!r}")
    if m_range[0] < 0:
        raise UsageError(f"m must be >= 0, got {m_range[0]}")
    if n_range[0] < 1:
        raise UsageError(f"n must be >= 1, got {n_range[0]}")
    if k_range is None and any(family in K_FAMILIES for family in families):
        raise UsageError("families FK and PHIK require --k")
    if k_range is not None and k_range[0] < 1:
        raise UsageError(f"k must be >= 1, got {k_range[0]}")
    _check_work(_table_rows(families, m_range, n_range, k_range), "table rows")
    grid = families, m_range, n_range, k_range
    cells = build_table_records(*grid, _sieve_table(args, cfg, grid))
    _emit(render_records(cells, fmt), out)
    return EXIT_OK


def _csv_cell(value) -> str:
    """None is an empty cell, and an int prints in decimal at any size."""
    return "" if value is None else value if isinstance(value, str) else decimal_string(value)


def _verify(n_max: int, check, summary) -> int:
    """Run one campaign over every interval 0 <= m < n <= n_max.

    check(n, failures) checks the intervals {m+1, ..., n} for every m < n in
    ascending order, appends a (label, m, n, k, expected, actual) row per
    failed item and returns how many items it checked. The failure rows
    print as CSV, then the last line is summary(checked, failed).
    """
    checked = 0
    failures: list[tuple] = []
    for n in range(1, n_max + 1):
        checked += check(n, failures)
    if failures:
        print("family,m,n,k,expected,actual")
        for row in failures:
            print(",".join(map(_csv_cell, row)))
    print(summary(checked, len(failures)))
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _verify_oracle(args, cfg: dict) -> int:
    """The kernel that compute and table use, against the oracle."""
    n_max = _resolve_int(args, cfg, "n_max", 16)
    width_cap = _resolve_int(args, cfg, "width_cap", DEFAULT_WIDTH_CAP)
    if width_cap > HARD_WIDTH_CAP:
        raise UsageError(f"width_cap must be <= {HARD_WIDTH_CAP}, got {width_cap}")
    # a width w has 2w + 2 cells, so n checks n(n + 3) of them up to
    # a = min(n_max, width_cap) and width_cap(width_cap + 3) above
    a = min(n_max, width_cap)
    _check_work(a * (a + 1) * (a + 5) // 3 + (n_max - a) * width_cap * (width_cap + 3),
                "oracle cells")
    table = _sieve_table(args, cfg, (tuple(Family), (0, n_max - 1), (1, n_max), (1, n_max)))

    def check(n, failures):
        low = max(0, n - width_cap)
        cells = 0
        for m in range(low, n):
            found = [(Family.F, None, f_interval(m, n, table)),
                     (Family.PHI, None, phi_interval(m, n, table))]
            for k in range(1, n - m + 1):
                found.append((Family.FK, k, fk_interval(m, n, k, table)))
                found.append((Family.PHIK, k, phik_interval(m, n, k, table)))
            for family, k, actual in found:
                expected = oracle_count(family, m, n, k)
                if expected != actual:
                    failures.append((family.value, m, n, k, expected, actual))
            cells += len(found)
        return cells

    def summary(cells, failed):
        # each n skips its n - width_cap intervals wider than width_cap
        over = max(0, n_max - width_cap)
        skipped = over * (over + 1) // 2
        intervals = n_max * (n_max + 1) // 2 - skipped
        line = (
            f"verify oracle: checked {intervals} intervals x 4 families"
            f" ({cells} cells), {failed} failures"
        )
        if skipped:
            line += f"; skipped {skipped} intervals wider than {width_cap}"
        return line

    return _verify(n_max, check, summary)


def _verify_bounds(args, cfg: dict) -> int:
    """T1-T4 on every cell, with the counts from n's plane and the binomials
    from one Pascal triangle."""
    n_max = _resolve_int(args, cfg, "n_max", 100)
    # n T1 and C(n+1, 2) T2 reports per n, as many T3 and T4 from n = 2
    _check_work(2 * (binomial(n_max + 1, 2) + binomial(n_max + 2, 3)) - 2, "bound reports")
    rows = pascal_rows(n_max + 2)

    def check(n, failures):
        plane = count_plane(n)
        p = divisors(n)[1] if n >= 2 else None  # n's least prime; T3 and T4 need one
        reports = []
        for m in range(n):
            reports.append(check_f(m, n, plane.f[m]))
            reports += check_fk(m, n, plane.fk[m], rows)
            if p is not None:
                reports.append(check_phi(m, n, plane.phi[m], p))
                reports += check_phik(m, n, plane.phik[m], p, rows)
        for r in reports:
            if not (r.holds_lower and r.holds_upper):
                failures.append((r.theorem, r.m, n, r.k, f"0..{decimal_string(r.upper)}", r.gap))
        return len(reports)

    summary = "verify bounds: checked {} bound reports, {} failures".format
    return _verify(n_max, check, summary)


def _verify_identities(args, cfg: dict) -> int:
    """The gcd-partition identities, with the counts of every smaller
    interval read from the planes built so far, in one walk over the d
    blocks of each interval."""
    n_max = _resolve_int(args, cfg, "n_max", 60)
    k_max = _resolve_int(args, cfg, "k_max", 10)
    # one F identity per (m, n), and one FK identity per k <= min(n - m, k_max)
    fk_count = binomial(n_max + 2, 3) - binomial(n_max - k_max + 2, 3)
    _check_work(binomial(n_max + 1, 2) + fk_count, "identities")
    binomials = pascal_rows(n_max, k_max + 1)
    # counts[b][a] = [f(a, b), fk(a, b, 1), ..., fk(a, b, min(b - a, k_max))],
    # b from 1: fk(a, b, 0) is 0, so its entry carries f, and one sum of the
    # rows over the d blocks gives both identities
    counts: list[list[list[int]]] = [[]]

    def count_row(a, b):
        return counts[b][a]

    def check(n, failures):
        plane = count_plane(n)
        counts.append([[f, *fk[1 : k_max + 1]] for f, fk in zip(plane.f, plane.fk)])
        checked = 0
        for m in range(n):
            total = partition_sum_fk(m, n, count_row)
            expected = [(1 << (n - m)) - 1, *binomials[n - m][1:]]
            for k, (want, got) in enumerate(zip(expected, total)):
                if want != got:  # entry 0 is the F identity
                    failures.append(("FK" if k else "F", m, n, k or None, want, got))
            checked += len(total)
        return checked

    summary = "verify identities: checked {} identities, {} failures".format
    return _verify(n_max, check, summary)


_VERIFY_MODES = {
    "oracle": _verify_oracle,
    "bounds": _verify_bounds,
    "identities": _verify_identities,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call. Parsing leaves it
    unchanged: each parse fills a new Namespace."""
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
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:  # a bug in rpsets, not a user mistake
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
