"""Span tracing of calls into the supergauss modules, installed from outside.

The traced run replaces each listed public function with a wrapper at every
module binding that holds it (``fieldlines.eval_transform`` as well as
``transform.eval_transform``), so calls made between modules are seen too.
Each call leaves one span (name, start, end, parent, work counters, error)
in memory; :func:`layer_metrics` turns one round's spans into the per-layer
metrics named ``<module>.<function>.<quantity>``, and :func:`write_spans`
writes the spans of a run's traced rounds at its end.  A listed name that the
package no longer has is skipped and reported, not an error.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "supergauss"


def _segments(lines) -> int:
    return sum(len(line.points) - 1 for line in lines)


# (module, function) -> work counters taken from the bound arguments and result
TARGETS: dict[tuple[str, str], dict] = {
    ("transform", "eval_transform"): {},
    ("transform", "eval_derivative"): {},
    ("transform", "eval_transform_grid"): {
        "points": lambda a, r: len(a["sigma_axis"]) * len(a["w_axis"])},
    ("transform", "truncation_radius"): {},
    ("transform", "moment_scale"): {},
    ("fieldlines", "sample_field_grid"): {},
    ("fieldlines", "extract_field_lines"): {
        "vertices": lambda a, r: sum(len(line.points) for line in r)},
    ("fieldlines", "refine_field_line"): {
        "vertices": lambda a, r: len(a["line"].points)},
    ("fieldlines", "intersection_audit"): {
        "segment_pairs": lambda a, r: _segments(a["r_lines"]) * _segments(a["i_lines"])},
    ("zeros", "scan_real_zeros"): {"zeros": lambda a, r: len(r)},
    ("zeros", "verify_simplicity"): {},
    ("zeros", "ode_residual"): {},
    ("coefficients", "derivative_profile"): {"orders": lambda a, r: a["k_max"] + 1},
    ("coefficients", "l2_series"): {},
    ("products", "t_table"): {},
    ("orbits", "angular_momentum"): {},
    ("cache", "read_zero_cache"): {},
    ("cache", "write_zero_cache"): {},
    ("cache", "cached_zeros"): {},
    ("cli", "main"): {},
}

SCALAR_EVALS = ("transform.eval_transform", "transform.eval_derivative")

# per-layer metrics, in the order they are printed: function -> quantities
_LAYERS = (
    ("transform.eval_transform_grid", ("calls", "points", "self_s", "points_per_s")),
    ("transform.eval_transform", ("calls", "self_s")),
    ("transform.eval_derivative", ("calls", "self_s")),
    ("transform.truncation_radius", ("calls", "self_s")),
    ("transform.moment_scale", ("calls", "self_s")),
    ("fieldlines.refine_field_line",
     ("self_s", "incl_s", "vertices", "evals_per_vertex", "vertices_per_s")),
    ("fieldlines.extract_field_lines", ("self_s", "vertices", "saddle_evals")),
    ("fieldlines.intersection_audit", ("self_s", "segment_pairs")),
    ("fieldlines.sample_field_grid", ("incl_s",)),
    ("zeros.scan_real_zeros", ("calls", "self_s", "incl_s", "zeros", "evals_per_zero")),
    ("zeros.verify_simplicity", ("incl_s",)),
    ("zeros.ode_residual", ("incl_s",)),
    ("coefficients.derivative_profile", ("calls", "orders", "incl_s")),
    ("coefficients.l2_series", ("incl_s",)),
    ("products.t_table", ("calls", "self_s")),
    ("orbits.angular_momentum", ("calls", "self_s")),
    ("cache.read_zero_cache", ("calls", "self_s")),
    ("cache.write_zero_cache", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
_UNITS = {"self_s": "s", "incl_s": "s", "points_per_s": "1/s", "vertices_per_s": "1/s"}
LAYER_UNITS: dict[str, str] = {f"{fn}.{q}": _UNITS.get(q, "count")
                               for fn, quantities in _LAYERS for q in quantities}
LAYER_UNITS.update({"transform.scalar_us_per_call": "us",
                    "transform.tolerance_failures": "count",
                    "cache.hit_ratio": "ratio"})


class Tracer:
    """In-memory span recorder for one process; install around traced rounds."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, work, error]
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counters: dict):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][5] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                self.spans[idx][4] = {k: f(bound, out) for k, f in counters.items()}
            return out
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        self.skipped = []
        for (mod_name, fn_name), counters in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.skipped.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


SPAN_FIELDS = ("round", "index", "name", "start_s", "end_s", "parent", "work", "error")


def write_spans(path: Path, rounds: list[list[list]], origin: float) -> int:
    """Write the spans of each traced round as JSON lines; return the span count.

    The first line names the fields.  Times are seconds since ``origin``;
    ``parent`` is the index of the enclosing span in the same round, -1 for
    none.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(SPAN_FIELDS) + "\n")
        for r, spans in enumerate(rounds):
            for idx, (name, start, end, parent, work, error) in enumerate(spans):
                fh.write(json.dumps([r, idx, name, round(start - origin, 7),
                                     round(end - origin, 7), parent, work, error]) + "\n")
                count += 1
    return count


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one round's spans.

    Calls run one at a time on one thread, so a span's children never
    overlap and its self time is its duration minus the sum of theirs.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    # scalar evaluations made under each function, and cache calls that rescanned
    evals_under: dict[str, int] = {}
    rescanned: set[int] = set()
    tolerance_failures = 0
    for idx, (name, start, end, parent, counters, error) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[idx]
        for key, value in (counters or {}).items():
            work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value
        if name in SCALAR_EVALS or name == "zeros.scan_real_zeros":
            if error == "ToleranceNotMetError" and name in SCALAR_EVALS:
                tolerance_failures += 1
            seen = set()
            p = parent
            while p >= 0:
                anc = spans[p][0]
                if name in SCALAR_EVALS and anc not in seen:
                    seen.add(anc)
                    evals_under[anc] = evals_under.get(anc, 0) + 1
                if name == "zeros.scan_real_zeros" and anc == "cache.cached_zeros":
                    rescanned.add(p)
                p = spans[p][3]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for metric in LAYER_UNITS:
        fn, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            out[metric] = calls.get(fn, 0)
        elif quantity == "self_s":
            out[metric] = self_s.get(fn, 0.0)
        elif quantity == "incl_s":
            out[metric] = incl.get(fn, 0.0)
    grid = "transform.eval_transform_grid"
    out[f"{grid}.points"] = work.get(f"{grid}.points", 0)
    out[f"{grid}.points_per_s"] = ratio(work.get(f"{grid}.points", 0), incl.get(grid, 0.0))
    refine = "fieldlines.refine_field_line"
    verts = work.get(f"{refine}.vertices", 0)
    out[f"{refine}.vertices"] = verts
    out[f"{refine}.evals_per_vertex"] = ratio(evals_under.get(refine, 0), verts)
    out[f"{refine}.vertices_per_s"] = ratio(verts, incl.get(refine, 0.0))
    extract = "fieldlines.extract_field_lines"
    out[f"{extract}.vertices"] = work.get(f"{extract}.vertices", 0)
    out[f"{extract}.saddle_evals"] = evals_under.get(extract, 0)
    audit = "fieldlines.intersection_audit"
    out[f"{audit}.segment_pairs"] = work.get(f"{audit}.segment_pairs", 0)
    scan = "zeros.scan_real_zeros"
    zeros_found = work.get(f"{scan}.zeros", 0)
    out[f"{scan}.zeros"] = zeros_found
    out[f"{scan}.evals_per_zero"] = ratio(evals_under.get(scan, 0), zeros_found)
    profile = "coefficients.derivative_profile"
    out[f"{profile}.orders"] = work.get(f"{profile}.orders", 0)
    scalar_calls = sum(calls.get(f, 0) for f in SCALAR_EVALS)
    out["transform.scalar_us_per_call"] = 1e6 * ratio(sum(incl.get(f, 0.0) for f in SCALAR_EVALS),
                                                      scalar_calls)
    out["transform.tolerance_failures"] = tolerance_failures
    cached = calls.get("cache.cached_zeros", 0)
    out["cache.hit_ratio"] = ratio(cached - len(rescanned), cached)
    return out
