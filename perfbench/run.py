"""rpsets benchmark: one run of one workload, checked, with its metrics.

    python3 perfbench/run.py --workload {bigval,bign,sweep} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src``. Each run
starts fresh interpreters: a few that only set up, to time set-up, and one
that runs the workload's passes in a closed loop, one op after another, for
S seconds. With ``--trace 1`` a second fresh interpreter replays the set-up,
the first pass and the probes with every rpsets layer traced, and the run
reports per-layer figures instead of end-to-end ones.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the same
figures for a reader, with the Python version, git commit, nproc and seed.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 21
DEADLINE_S = 170  # a run must end within 180 s

LAYER_SELF = (*LAYERS, "harness")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # A raised limit would hide the 4300-digit conversion defect.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def start_worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    if done.returncode != 0:
        raise BenchError(
            f"worker {' '.join(args)} exited {done.returncode}: {done.stderr.strip()[-500:]}"
        )
    return done


def run_worker(args: list[str], deadline: float) -> dict:
    lines = start_worker(args, deadline).stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def setup_seconds(workload: str, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that only set up; the first, which
    may compile bytecode, is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        start_worker(["setup", "--workload", workload], deadline)
        if i:
            samples.append(time.perf_counter() - start)
    return samples


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def all_outputs_digest(result: dict, passes: int | None = None) -> str:
    """sha256 over the digests of the first ``passes`` passes (all by
    default) and of the probes."""
    parts = [p["digest"] for p in result["passes"][:passes]] + [result["probe_digest"]]
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()


def latency_summary(latencies: list[float]) -> str:
    """Median op latency, and the highest of p99/p95/p90/p75 that has at
    least ten samples above it."""
    text = f"{len(latencies)} ops, latency p50 {statistics.median(latencies):.6g} s"
    for q in (99, 95, 90, 75):
        if len(latencies) * (100 - q) >= 1000:
            return text + f", p{q} {statistics.quantiles(latencies, n=100)[q - 1]:.6g} s"
    return text


def end_to_end(base: dict, setup: list[float]) -> dict:
    """The run's figures over every op of every completed pass.

    A run holds only a handful of passes, so ``wall_s`` is their mean: it is
    steadier than their median, and steadier than the sum of each op's
    fastest repeat, which swings with how long the host stays unloaded.
    """
    passes = base["passes"]
    latencies = [x for p in passes for x in p["latencies"]]
    return {
        "cells_per_s": sum(sum(p["cells"]) for p in passes) / sum(latencies),
        "wall_s": sum(latencies) / len(passes),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": base["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def report(values: dict, units: dict) -> dict:
    """Print each metric with its unit; return them as the result's metrics."""
    for name, unit in units.items():
        print(f"{name:28} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    # Workload and metric names, and the metrics' units, come from BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end_units, per_layer_units = (
        {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rpsets" / "__init__.py").is_file():
        print(f"error: no rpsets package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = setup_seconds(args.workload, deadline)
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        base = run_worker(["run", *common, "--seconds", str(args.seconds)], deadline)
        traced = None
        if args.trace:
            traced = run_worker(["run", *common, "--trace"], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = base["failed"] == 0
    print(f"rpsets benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"python {platform.python_version()}, git {git_sha()}, nproc {os.cpu_count()}")
    all_latencies = [x for p in base["passes"] for x in p["latencies"]]
    print(f"passes {len(base['passes'])}, ops {base['attempted']}, failed {base['failed']}, "
          f"failed_share {base['failed'] / base['attempted']:.4f}, "
          f"cells {sum(sum(p['cells']) for p in base['passes'])}")
    for error in base["errors"]:
        print(f"FAILED {error}")
    if base["probes"]:
        print(f"probes: {len(base['probe_errors'])} of {base['probes']} failed")
        for error in base["probe_errors"]:
            print(f"  probe {error}")
    # Pass 0's outputs depend only on the seed, so two commits can be compared
    # on it even when they complete different numbers of passes.
    print(f"sha256 of pass 0 outputs: {base['passes'][0]['digest']}")
    print(f"sha256 of all outputs: {all_outputs_digest(base)}")

    print(f"{latency_summary(all_latencies)}; {len(setup)} set-up samples")
    metrics = report(end_to_end(base, setup), end_to_end_units)

    if traced is not None:
        layers = traced["layers"]
        same_work = base["setup_elapsed"] + base["passes"][0]["elapsed"] + base["probe_elapsed"]
        layers["trace.overhead_s"] = traced["wall_s"] - same_work
        if all_outputs_digest(traced) != all_outputs_digest(base, passes=1):
            correct = False
            print("FAILED traced run's outputs differ from the untraced run's")
        print("per-layer, traced run:")
        metrics = report(layers, per_layer_units)
        total = sum(layers[f"{layer}.self_s"] for layer in LAYER_SELF)
        print(f"self times of the layers and the harness add up to {total:.6f} s "
              f"of a traced wall of {layers['trace.wall_s']:.6f} s")

    print(json.dumps({
        "correct": correct,
        "attempted": base["attempted"],
        "failed": base["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
