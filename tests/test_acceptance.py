"""Acceptance gate: every criterion at its stated tolerance, one line each.

Two sub-checks are mathematically unattainable as stated and are marked
strict-xfail rather than weakened (details in the criterion output and the
README): the branch-3 asymptote-gap trend, and the 95% partial-sum reach at
w = 0.5 with 40 zero pairs.  Everything else must pass outright.
"""

import pytest

from supergauss import verify

_TIMES: dict[str, float] = {}


def _run(fn, expect_idents):
    results = fn()
    for r in results:
        print(r.line())
        _TIMES[r.ident] = r.seconds
    by_ident = {r.ident: r for r in results}
    assert set(expect_idents) <= set(by_ident), f"missing results in {by_ident}"
    return by_ident


def test_criterion_1_gaussian_oracle():
    res = _run(verify.criterion_1_gaussian_oracle, ["C1"])
    assert res["C1"].passed, res["C1"].detail


def test_criterion_2_origin_values():
    res = _run(verify.criterion_2_origin_values, ["C2"])
    assert res["C2"].passed, res["C2"].detail


def test_criterion_3_zero_goldens():
    res = _run(verify.criterion_3_zero_goldens, ["C3"])
    assert res["C3"].passed, res["C3"].detail


def test_criterion_4_ode_identities():
    res = _run(verify.criterion_4_ode_identities, ["C4"])
    assert res["C4"].passed, res["C4"].detail


def test_criterion_5_coefficient_positivity():
    res = _run(verify.criterion_5_coefficient_positivity, ["C5"])
    assert res["C5"].passed, res["C5"].detail


def test_criterion_6_cross_method():
    res = _run(verify.criterion_6_cross_method, ["C6"])
    assert res["C6"].passed, res["C6"].detail


def test_criterion_7_series_reconstruction():
    res = _run(verify.criterion_7_series_reconstruction, ["C7"])
    assert res["C7"].passed, res["C7"].detail


def test_criterion_8_t_tables():
    res = _run(verify.criterion_8_t_tables, ["C8"])
    assert res["C8"].passed, res["C8"].detail


@pytest.fixture(scope="module")
def field_geometry_results():
    results = verify.criterion_9_field_geometry()
    for r in results:
        print(r.line())
        _TIMES[r.ident] = r.seconds
    return {r.ident: r for r in results}


def test_criterion_9_crossings_and_audit(field_geometry_results):
    r = field_geometry_results["C9.geometry"]
    assert r.passed, r.detail


def test_criterion_9_asymptote_gaps(field_geometry_results):
    r = field_geometry_results["C9.asymptote"]
    assert r.passed, r.detail


def test_criterion_9_stages_timed_separately(field_geometry_results):
    # each result carries the wall time of its own stage, not a share of the total
    times = [r.seconds for r in field_geometry_results.values()]
    assert all(t > 0.0 for t in times) and len(set(times)) == len(times)


@pytest.mark.xfail(strict=True, reason="the branch-3 field line crosses its asymptote "
                   "near sigma~10, so its gap cannot decrease from sigma=10 to 30")
def test_criterion_9_branch3_trend(field_geometry_results):
    r = field_geometry_results["C9.branch3"]
    assert r.passed, r.detail


def test_criterion_10_monotonicity():
    res = _run(verify.criterion_10_monotonicity, ["C10"])
    assert res["C10"].passed, res["C10"].detail


def test_criterion_11_angular_momentum():
    res = _run(verify.criterion_11_angular_momentum, ["C11"])
    assert res["C11"].passed, res["C11"].detail


@pytest.fixture(scope="module")
def log_derivative_results():
    results = verify.criterion_12_log_derivative()
    for r in results:
        print(r.line())
        _TIMES[r.ident] = r.seconds
    return {r.ident: r for r in results}


def test_criterion_12_log_derivative(log_derivative_results):
    r = log_derivative_results["C12"]
    assert r.passed, r.detail


@pytest.mark.xfail(strict=True, reason="the tail beyond 40 zero pairs is ~8.5% of the "
                   "limit at w=0.5, so the 95% reach cannot hold there")
def test_criterion_12_reach_at_w05(log_derivative_results):
    r = log_derivative_results["C12.w05"]
    assert r.passed, r.detail


def test_total_runtime_within_budget():
    # 'verify --suite all' must fit in 10 minutes; these are the same checks
    if len(_TIMES) < 12:
        pytest.skip("acceptance criteria were filtered; no total to assert")
    assert sum(_TIMES.values()) < 600.0, _TIMES
