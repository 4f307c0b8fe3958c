"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py run --workload NAME --seed N (--seconds S | --trace)

``setup`` does only the run's set-up (import, and the shared table for
``bigval``) so its cost can be timed from outside. ``run`` runs passes in a
closed loop until S seconds have gone by, and prints its result as one JSON
line. With ``--trace`` it runs only the first pass, with every layer traced.
``rpsets`` must be importable from the repository's ``src`` directory.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import rpsets
import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_ERRORS = 5


def execute(op, digest):
    """Run one op, fold its output into the digest and check it.

    Returns (latency_s, cells, error, output_bytes); an exception from rpsets
    or from the check is a failed op, not a crash of the benchmark.
    """
    start = time.perf_counter()
    try:
        raw = op.call()
    except Exception as exc:  # the program failed; record it and go on
        latency = time.perf_counter() - start
        digest.update(f"{op.label}\nraised {type(exc).__name__}\n".encode())
        return latency, 0, f"{op.label}: {type(exc).__name__}: {exc}", 0
    latency = time.perf_counter() - start
    digest.update(f"{op.label}\n".encode())
    if isinstance(raw, workloads.CliResult):
        out = raw.out.encode()
        digest.update(f"exit {raw.rc}\n".encode() + out)
        output_bytes = len(out)
    else:
        digest.update(format(raw, "x").encode() + b"\n")
        output_bytes = 0
    try:
        cells, error = op.check(raw)
    except Exception as exc:  # malformed output
        cells, error = 0, f"{type(exc).__name__}: {exc}"
    if error is not None:
        return latency, 0, f"{op.label}: {error}", output_bytes
    return latency, cells, None, output_bytes


def run(workload, size, seed, seconds, pass_count, tracer=None):
    """Set up, run passes, then the probes; wall times are kept for each
    part so that a traced replay of part of the run can be compared."""
    make_pass = workloads.PASSES[workload]
    pass_records, errors = [], []
    attempted = failed = output_bytes = 0

    start = time.perf_counter()
    ctx = workloads.setup(workload, size)
    loop_start = time.perf_counter()

    def more(index: int) -> bool:
        if pass_count:
            return index < pass_count
        return index == 0 or time.perf_counter() - loop_start < seconds

    index = 0
    while more(index):
        pass_start = time.perf_counter()
        digest = hashlib.sha256()
        latencies, cells = [], []
        for op in make_pass(workloads.pass_rng(workload, seed, index), size, ctx):
            latency, op_cells, error, nbytes = execute(op, digest)
            attempted += 1
            latencies.append(latency)
            cells.append(op_cells)
            output_bytes += nbytes
            if error is not None:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(error)
        pass_records.append({
            "latencies": latencies,
            "cells": cells,
            "digest": digest.hexdigest(),
            "elapsed": time.perf_counter() - pass_start,
        })
        index += 1

    # Known-defect probes run after the passes and stay out of their figures.
    probe_start = time.perf_counter()
    probe_digest = hashlib.sha256()
    probe_errors = []
    probes = []
    if workload == "bign":
        probes = workloads.bign_probes(workloads.pass_rng(workload, seed, -1))
    for op in probes:
        _, _, error, nbytes = execute(op, probe_digest)
        output_bytes += nbytes
        if error is not None:
            probe_errors.append(error)
    end = time.perf_counter()

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "passes": pass_records,
        "probes": len(probes),
        "probe_errors": probe_errors,
        "probe_digest": probe_digest.hexdigest(),
        "setup_elapsed": loop_start - start,
        "probe_elapsed": end - probe_start,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = output_bytes
        layers["cli.probe_failures"] = len(probe_errors)
        layers["harness.self_s"] = result["wall_s"] - tracer.top_s
        layers["trace.wall_s"] = result["wall_s"]
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    if Path(rpsets.__file__).resolve().parent != SRC / "rpsets":
        print(f"error: rpsets imported from {rpsets.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.workload]
    if args.mode == "setup":
        workloads.setup(args.workload, size)
        return 0
    tracer = Tracer().install() if args.trace else None
    pass_count = 1 if args.trace else 0
    result = run(args.workload, size, args.seed, args.seconds, pass_count, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
