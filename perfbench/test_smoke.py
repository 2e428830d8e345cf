"""Smoke test of the benchmark itself, at small sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
from supergauss import fieldlines, transform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--small"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in declared}
    report = [line.split() for line in lines[:-1]]
    for m in declared:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert [m["name"], m["unit"]] in [[r[0], r[2]] for r in report if len(r) > 2]
    assert any(r[:1] == ["fail_ratio"] and r[2] == "ratio" for r in report)
    if trace:
        assert any(line.strip().startswith("tracing overhead:") for line in lines)
        spans = (ROOT / ".perfbench-out" / f"spans-{workload}.jsonl").read_text().splitlines()
        assert json.loads(spans[0]) == list(tracer.SPAN_FIELDS) and len(spans) > 1


def test_corrupted_value_is_counted_as_failed(monkeypatch):
    real = transform.eval_transform

    def corrupted(n, p, q):
        r = real(n, p, q)
        return transform.EvalResult(r.re + 1e-6 * abs(r.re) + 1e-9, r.im, r.err_estimate)

    monkeypatch.setattr(transform, "eval_transform", corrupted)
    result = run.measure("point_queries", seed=3, seconds=0, trace=False, small=True,
                         setup=False)
    assert result["failed"] > 0 and result["fail_ratio"] > 0
    assert not run.report(result)["correct"]


def test_unrefined_line_is_counted_as_failed(monkeypatch):
    real = fieldlines.refine_field_line

    def corrupted(n, line, q, max_steps=12):
        return dataclasses.replace(real(n, line, q, max_steps), max_residual=1e-6)

    monkeypatch.setattr(fieldlines, "refine_field_line", corrupted)
    result = run.measure("nodal_lines", seed=3, seconds=0, trace=False, small=True,
                         setup=False)
    assert result["failed"] > 0 and result["fail_ratio"] > 0


def test_unreadable_launch_output_is_a_problem_not_a_crash():
    for stdout in ("", "re,im,err,flag\n1.0,0.0\n"):
        proc = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
        assert "unreadable output" in run._launch_problem(proc, 1.0)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
