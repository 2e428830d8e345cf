#!/usr/bin/env python3
"""Benchmark of the supergauss library and CLI.

Run from the root of a checkout (the package is taken from ``src/``):

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds, prints the per-layer metrics of the
traced ones and the tracing overhead.  A round runs the workload's whole
seeded job set once; rounds repeat until ``--seconds`` have passed.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md beside
this file for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SPANS_DIR = ROOT / ".perfbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}
SETUP_LAUNCHES = 15
SETUP_TOL = 1e-12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["nodal_lines", "axis_tables", "point_queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="a few jobs per round instead of the full set (smoke test)")
    return parser.parse_args(argv)


def measure_setup(client, seed: int, launches: int = SETUP_LAUNCHES) -> list[float]:
    """Wall time of fresh `supergauss eval` processes at the origin, checked against Gamma.

    One unmeasured launch goes first, so compiling the bytecode of a fresh
    checkout is not counted.
    """
    from workloads import origin_value

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for i in range(launches + 1):
        n = (seed + i) % 6 + 1
        argv = [sys.executable, "-m", "supergauss", "eval", "--n", str(n),
                "--w", "0", "--sigma", "0", "--tol", repr(SETUP_TOL)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - t0
        if i == 0:
            continue
        times.append(elapsed)
        client.record("setup_launch", _launch_problem(proc, origin_value(n)))
    return times


def _launch_problem(proc, want: float) -> str | None:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        re, _, err, _ = (float(x) for x in proc.stdout.splitlines()[1].split(","))
    except (IndexError, ValueError) as exc:
        return f"unreadable output {proc.stdout[:200]!r}: {type(exc).__name__}: {exc}"
    return None if abs(re - want) <= err + 1e-15 * want else f"F(0) = {re!r}, Gamma oracle {want!r}"


def run_record(seed: int, samples: dict) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    threads = {v: os.environ.get(v) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads if any(threads.values()) else "numpy default (unset)",
        "samples": samples,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
            setup: bool = True) -> dict:
    """Run one benchmark measurement in this process and return its results."""
    import numpy as np

    import tracer as tracing
    from workloads import WORKLOADS, Client

    rng = np.random.default_rng(seed)
    run_round = WORKLOADS[workload](rng, small)
    tracer = tracing.Tracer() if trace else None
    client = Client()
    setup_times = measure_setup(client, seed) if setup and not trace else []

    walls = {False: [], True: []}
    layer_rounds = []
    traced_spans = []
    cache_env = os.environ.get("POLYA_CACHE_DIR")
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
            start = time.perf_counter()
            i = 0
            # untraced rounds, or untraced and traced rounds in turn
            while (time.perf_counter() - start < seconds or i == 0
                   or (trace and not walls[True])):
                traced = trace and i % 2 == 1
                os.environ["POLYA_CACHE_DIR"] = str(Path(scratch) / f"zeros{i}")
                t0 = time.perf_counter()
                if traced:
                    with tracer.installed():
                        run_round(client)
                    spans = tracer.take()
                    layer_rounds.append(tracing.layer_metrics(spans))
                    traced_spans.append(spans)
                else:
                    run_round(client)
                walls[traced].append(time.perf_counter() - t0)
                i += 1
    finally:
        if cache_env is None:
            os.environ.pop("POLYA_CACHE_DIR", None)
        else:
            os.environ["POLYA_CACHE_DIR"] = cache_env

    result = {"workload": workload, "seed": seed, "attempted": client.attempted,
              "failed": client.failed, "failures": client.failures,
              "fail_ratio": client.failed / client.attempted}
    if trace:
        result["layers"] = {name: statistics.median(r[name] for r in layer_rounds)
                            for name in tracing.LAYER_UNITS}
        result["skipped"] = tracer.skipped
        spans_file = SPANS_DIR / f"spans-{workload}.jsonl"
        result["spans_written"] = tracing.write_spans(spans_file, traced_spans, start)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["wall_untraced_s"] = statistics.median(walls[False])
        result["wall_traced_s"] = statistics.median(walls[True])
        samples = {"rounds_untraced": len(walls[False]), "rounds_traced": len(walls[True])}
    else:
        pct = statistics.quantiles(client.latencies, n=100, method="inclusive")
        result["metrics"] = {
            "setup_s": statistics.median(setup_times) if setup_times else math.nan,
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "query_p50_ms": 1e3 * pct[49],
            "query_p99_ms": 1e3 * pct[98],
        }
        samples = {"setup_launches": len(setup_times), "rounds": len(walls[False]),
                   "queries": len(client.latencies)}
    result["record"] = run_record(seed, samples)
    return result


def report(result: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    samples = result["record"]["samples"]
    print(f"workload {result['workload']}  seed {result['seed']}")
    if "metrics" in result:
        m = result["metrics"]
        notes = {
            "setup_s": f"median of {samples['setup_launches']} launches",
            "wall_s": f"median of {samples['rounds']} rounds",
            "query_p50_ms": f"{samples['queries']} samples",
            "query_p99_ms": f"{samples['queries']} samples",
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<14} {m[name]:>12.6g} {unit:<6} {notes.get(name, '')}")
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        import tracer as tracing

        for name, unit in tracing.LAYER_UNITS.items():
            print(f"  {name:<48} {result['layers'][name]:>12.6g} {unit}")
        untraced, traced = result["wall_untraced_s"], result["wall_traced_s"]
        print(f"  tracing overhead: wall_s traced {traced:.4f} s - untraced {untraced:.4f} s"
              f" = {traced - untraced:+.4f} s ({100 * (traced / untraced - 1):+.2f}%),"
              f" {samples['rounds_traced']} traced / {samples['rounds_untraced']} untraced rounds")
        print(f"  skipped (no longer in the package): {', '.join(result['skipped']) or 'none'}")
        print(f"  spans: {result['spans_written']} from the traced rounds in {result['spans_file']}")
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    print(f"  {'fail_ratio':<14} {result['fail_ratio']:>12.6g} {'ratio':<6} "
          f"{result['failed']} failed / {result['attempted']} attempted")
    for line in result["failures"]:
        print(f"  failed: {line}")
    print("record " + json.dumps(result["record"], sort_keys=True))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "supergauss" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'supergauss'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    final = report(result)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
