#!/usr/bin/env python3
"""In-process A/B of one benchmark workload on two source trees.

    python3 scripts/ab_workload.py SRC_A SRC_B --workload axis_tables --rounds 20 --seed 7

SRC_A and SRC_B are the roots of two checkouts (each with ``src/supergauss``
and ``perfbench/workloads.py``).  Both trees' packages are loaded side by
side in this one process, each with its own import of its own
``perfbench/workloads.py`` (read only: no bytecode is written), and each
builds the workload's seeded job set once.  A round runs one side's whole
job set once; the two sides alternate which of them goes first, so a
pair of rounds sees the same host speed.  Every round gets a fresh empty
POLYA_CACHE_DIR.  One unmeasured warm-up round per side goes first.

Prints each side's round wall-time median and quartiles, the per-pair
ratios B/A, how many pairs B won, both sides' failure counts (warm-up
round included) and the per-kind median query latencies; the last line
is one JSON object with the same numbers.  Separate benchmark processes
drift with the speed of a shared host; pairs taken in one process resolve
differences of a few percent on workloads with short rounds.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import json
import os
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("nodal_lines", "axis_tables", "point_queries")


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "supergauss" or name.startswith("supergauss.")}


class Side:
    """One tree's package, its workloads module and its seeded job set."""

    def __init__(self, label: str, root: Path, workload: str, seed: int):
        src, bench = root / "src", root / "perfbench" / "workloads.py"
        if not (src / "supergauss" / "__init__.py").is_file() or not bench.is_file():
            raise SystemExit(f"ab_workload: {root} has no src/supergauss or perfbench/workloads.py")
        for name in _package_modules():
            del sys.modules[name]
        sys.path.insert(0, str(src))
        try:
            package = importlib.import_module("supergauss")
            for info in pkgutil.iter_modules(package.__path__):
                if info.name != "__main__":
                    importlib.import_module(f"supergauss.{info.name}")
            spec = importlib.util.spec_from_file_location(f"workloads_{label}", bench)
            self.workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self.workloads)
        finally:
            sys.path.remove(str(src))
        self.modules = _package_modules()
        self.label, self.root = label, root
        self.run_round = self.workloads.WORKLOADS[workload](np.random.default_rng(seed), False)
        self.client = _kind_client(self.workloads.Client)()
        self.walls: list[float] = []

    def round(self, cache_dir: str, record: bool = True) -> None:
        sys.modules.update(self.modules)
        os.environ["POLYA_CACHE_DIR"] = cache_dir
        t0 = time.perf_counter()
        self.run_round(self.client)
        wall = time.perf_counter() - t0
        if record:
            self.walls.append(wall)


def _kind_client(base):
    class KindClient(base):
        """The workload's client, also keeping each query's latency by kind."""

        def __init__(self):
            super().__init__()
            self.by_kind: dict[str, list[float]] = {}

        def call(self, kind, fn, *args, check=None):
            out = super().call(kind, fn, *args, check=check)
            self.by_kind.setdefault(kind, []).append(self.latencies[-1])
            return out
    return KindClient


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sys.dont_write_bytecode = True
    sides = [Side("a", args.src_a.resolve(), args.workload, args.seed),
             Side("b", args.src_b.resolve(), args.workload, args.seed)]
    cache_env = os.environ.get("POLYA_CACHE_DIR")
    try:
        with tempfile.TemporaryDirectory(prefix="ab-workload-") as scratch:
            fresh = (str(Path(scratch) / str(i)) for i in itertools.count())
            for side in sides:
                side.round(next(fresh), record=False)
                side.client.by_kind.clear()
            for i in range(args.rounds):
                for side in (sides if i % 2 == 0 else sides[::-1]):
                    side.round(next(fresh))
    finally:
        if cache_env is None:
            os.environ.pop("POLYA_CACHE_DIR", None)
        else:
            os.environ["POLYA_CACHE_DIR"] = cache_env

    a, b = sides
    ratios = [wb / wa for wa, wb in zip(a.walls, b.walls)]
    result = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "a": str(a.root), "b": str(b.root),
              "wins_b": sum(r < 1.0 for r in ratios), "pair_ratios": ratios, "sides": {}}
    print(f"workload {args.workload}  seed {args.seed}  {args.rounds} alternating pairs")
    for side in sides:
        q1, med, q3 = statistics.quantiles(side.walls, n=4, method="inclusive")
        kinds = {kind: 1e3 * statistics.median(lat) for kind, lat in side.client.by_kind.items()}
        result["sides"][side.label] = {
            "wall_s_median": med, "wall_s_q1": q1, "wall_s_q3": q3,
            "attempted": side.client.attempted, "failed": side.client.failed,
            "failures": side.client.failures, "query_median_ms": kinds}
        print(f"  {side.label.upper()} {side.root}")
        print(f"    wall_s median {med:.4f}  quartiles {q1:.4f} .. {q3:.4f}")
        print(f"    failed {side.client.failed} / {side.client.attempted} attempted")
        for line in side.client.failures:
            print(f"    failed: {line}")
    print(f"  pair ratios B/A: {' '.join(f'{r:.3f}' for r in ratios)}")
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"  ratio median {med:.3f}  quartiles {q1:.3f} .. {q3:.3f};"
          f" B faster in {result['wins_b']} of {len(ratios)} pairs")
    print("  median query latency by kind (ms), A -> B:")
    qa, qb = (result["sides"][s]["query_median_ms"] for s in ("a", "b"))
    for kind in qa:
        print(f"    {kind:<20} {qa[kind]:9.3f} -> {qb.get(kind, float('nan')):9.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
