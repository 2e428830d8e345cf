#!/usr/bin/env python3
"""In-process A/B of one benchmark workload on two source trees.

    python3 scripts/ab_workload.py SRC_A SRC_B --workload axis_tables --rounds 20 --seed 7
    python3 scripts/ab_workload.py SRC_A SRC_B --workload point_queries --rounds 5 --seed 7 \
        --interleave call

SRC_A and SRC_B are the roots of two checkouts (each with ``src/supergauss``
and ``perfbench/workloads.py``).  Both trees' packages are loaded side by
side in this one process, each with its own import of its own
``perfbench/workloads.py`` (read only: no bytecode is written), and each
builds the workload's seeded job set once.  Every round gets a fresh empty
POLYA_CACHE_DIR per side.  One unmeasured warm-up round per side goes first.

``--interleave round`` (the default): a round runs one side's whole job set
once; the two sides alternate which of them goes first, so a pair of rounds
sees the same host speed.  Prints each side's round wall-time median and
quartiles, the per-pair ratios B/A, how many pairs B won, both sides'
failure counts (warm-up round included) and the per-kind median query
latencies.

``--interleave call``: the warm-up round records each side's calls (kind,
function, arguments, check), in order.  A measured round replays them call
by call: the j-th call of a kind on A is paired with the j-th call of that
kind on B, the two run back to back, and the side that goes first
alternates from pair to pair, so each pair sees the same host speed.  Each
side's paired calls keep their recorded order (so a warm zero table still
follows the cold one that wrote it); calls without a partner run after the
pairs of their round and are checked, not compared.  Prints the per-call
ratios B/A (median, quartiles, how many B won), the ratio of the summed
latencies per round and per kind, and both sides' failure counts.  For
``nodal_lines`` it also prints, for each paired window of the first
measured round, both sides' line and vertex counts per family and audit-hit
counts, and the largest |delta vertex| between their refined lines.  Rounds
of whole job sets spread too widely on ~0.5 s workloads to resolve a few
percent; per-call pairs do not drift with the host between the two sides
of a pair.

The last line is one JSON object with the printed numbers.  Separate
benchmark processes drift with the speed of a shared host; pairs taken in
one process resolve differences of a few percent.
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

    def enter(self, cache_dir: str) -> None:
        """Make this side's package and cache directory the process's."""
        sys.modules.update(self.modules)
        os.environ["POLYA_CACHE_DIR"] = cache_dir

    def round(self, cache_dir: str, record: bool = True) -> None:
        self.enter(cache_dir)
        t0 = time.perf_counter()
        self.run_round(self.client)
        wall = time.perf_counter() - t0
        if record:
            self.walls.append(wall)

    def record_calls(self, cache_dir: str) -> None:
        """Run the warm-up round, keeping every call as (kind, fn, args, check)."""
        self.calls: list[tuple] = []
        call = self.client.call

        def recording(kind, fn, *args, check=None):
            self.calls.append((kind, fn, args, check))
            return call(kind, fn, *args, check=check)
        self.client.call = recording
        try:
            self.round(cache_dir, record=False)
        finally:
            del self.client.call
        self.client.by_kind.clear()


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


def _pairs(a: Side, b: Side):
    """Index pairs (i, j) of A's and B's recorded calls, the j-th call of a
    kind on A with the j-th of that kind on B, in A's order, and the
    indices of each side's calls left without a partner."""
    seen: dict[str, list[int]] = {}
    for j, (kind, *_) in enumerate(b.calls):
        seen.setdefault(kind, []).append(j)
    taken = {kind: 0 for kind in seen}
    pairs, lone_a = [], []
    for i, (kind, *_) in enumerate(a.calls):
        if taken.get(kind, 0) < len(seen.get(kind, ())):
            pairs.append((i, seen[kind][taken[kind]]))
            taken[kind] += 1
        else:
            lone_a.append(i)
    paired_b = {j for _, j in pairs}
    return pairs, lone_a, [j for j in range(len(b.calls)) if j not in paired_b]


def _replay(side: Side, index: int, cache_dir: str):
    """One recorded call of ``side``, through its client; returns its
    latency and its output (None if it raised)."""
    kind, fn, args, check = side.calls[index]
    side.enter(cache_dir)
    out = side.client.call(kind, fn, *args, check=check)
    return side.client.latencies[-1], out


def _window_geometry(out_a, out_b) -> dict | None:
    """Both sides' line and vertex counts per family, audit-hit counts and
    the largest |delta vertex| (max norm) between their refined lines, for
    one nodal_lines window, whose output is (grid, [(lines, refined) of R,
    of I], audit hits).  The largest delta is None unless every refined
    line has the same vertex count on both sides; the row is None if a side
    failed."""
    if out_a is None or out_b is None:
        return None
    row = {"lines": {}, "vertices": {}, "hits": [len(out_a[2]), len(out_b[2])]}
    delta = 0.0
    for which, (_, ra), (_, rb) in zip("RI", out_a[1], out_b[1]):
        row["lines"][which] = [len(ra), len(rb)]
        row["vertices"][which] = [sum(len(line.vertices) for line in r) for r in (ra, rb)]
        pairs = list(zip(ra, rb))
        if delta is not None and len(ra) == len(rb) and all(
                la.vertices.shape == lb.vertices.shape for la, lb in pairs):
            delta = max([delta] + [float(np.abs(la.vertices - lb.vertices).max())
                                   for la, lb in pairs])
        else:
            delta = None
    row["max_dvertex"] = delta
    return row


def _interleave_calls(sides, rounds: int, fresh, compare=None) -> dict:
    """Call pairs of ``rounds`` rounds; ``compare(out_a, out_b)``, if given,
    is taken on each pair of the first round."""
    a, b = sides
    pairs, lone_a, lone_b = _pairs(a, b)
    ratios, sums, kinds, compared = [], [], {}, []
    flip = 0
    for round_index in range(rounds):
        dirs = {a.label: next(fresh), b.label: next(fresh)}
        total = {a.label: 0.0, b.label: 0.0}
        for i, j in pairs:
            order = ((a, i), (b, j)) if flip % 2 == 0 else ((b, j), (a, i))
            flip += 1
            lat, out = {}, {}
            for side, k in order:
                lat[side.label], out[side.label] = _replay(side, k, dirs[side.label])
            if compare is not None and round_index == 0:
                compared.append(compare(out[a.label], out[b.label]))
            ratios.append(lat[b.label] / lat[a.label])
            kind = a.calls[i][0]
            kinds.setdefault(kind, [0.0, 0.0])
            kinds[kind][0] += lat[a.label]
            kinds[kind][1] += lat[b.label]
            for side in sides:
                total[side.label] += lat[side.label]
        for k in lone_a:
            _replay(a, k, dirs[a.label])
        for k in lone_b:
            _replay(b, k, dirs[b.label])
        sums.append(total[b.label] / total[a.label])
    result = {"pairs_per_round": len(pairs), "unpaired": [len(lone_a), len(lone_b)],
              "call_ratios_median": statistics.median(ratios),
              "call_ratios_quartiles": statistics.quantiles(ratios, n=4, method="inclusive")[::2],
              "wins_b": sum(r < 1.0 for r in ratios), "calls": len(ratios),
              "round_sum_ratios": sums,
              "kind_sum_ratios": {kind: v[1] / v[0] for kind, v in kinds.items()}}
    if compare is not None:
        result["geometry"] = compared
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--interleave", choices=("round", "call"), default="round",
                        help="alternate whole rounds (default) or single calls")
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
            if args.interleave == "call":
                for side in sides:
                    side.record_calls(next(fresh))
                compare = _window_geometry if args.workload == "nodal_lines" else None
                return _report_calls(args, sides,
                                     _interleave_calls(sides, args.rounds, fresh, compare))
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


def _report_calls(args, sides, result: dict) -> int:
    result.update({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                   "interleave": "call", "a": str(sides[0].root), "b": str(sides[1].root),
                   "failed": {s.label: s.client.failed for s in sides},
                   "attempted": {s.label: s.client.attempted for s in sides}})
    print(f"workload {args.workload}  seed {args.seed}  {args.rounds} rounds of"
          f" {result['pairs_per_round']} call pairs"
          f" (unpaired: A {result['unpaired'][0]}, B {result['unpaired'][1]} per round)")
    for side in sides:
        print(f"  {side.label.upper()} {side.root}")
        print(f"    failed {side.client.failed} / {side.client.attempted} attempted")
        for line in side.client.failures:
            print(f"    failed: {line}")
    q1, q3 = result["call_ratios_quartiles"]
    print(f"  call ratio B/A median {result['call_ratios_median']:.3f}"
          f"  quartiles {q1:.3f} .. {q3:.3f}; B faster in {result['wins_b']}"
          f" of {result['calls']} calls")
    print(f"  summed latency B/A per round: "
          f"{' '.join(f'{r:.3f}' for r in result['round_sum_ratios'])}")
    print("  summed latency B/A by kind:")
    for kind, r in result["kind_sum_ratios"].items():
        print(f"    {kind:<20} {r:.3f}")
    if "geometry" in result:
        print("  geometry of each paired window (A / B):")
        for k, row in enumerate(result["geometry"]):
            if row is None:
                print(f"    window {k}: a side failed")
                continue
            counts = "  ".join(f"{w} lines {row['lines'][w][0]}/{row['lines'][w][1]}"
                               f" vertices {row['vertices'][w][0]}/{row['vertices'][w][1]}"
                               for w in "RI")
            delta = row["max_dvertex"]
            print(f"    window {k}: {counts}  audit hits {row['hits'][0]}/{row['hits'][1]}"
                  f"  max |dvertex| {'n/a' if delta is None else f'{delta:.2e}'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
