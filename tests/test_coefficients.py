import math

import numpy as np
import pytest

from supergauss import PlanePoint, QuadratureSpec, eval_transform, transform
from supergauss.errors import ToleranceNotMetError
from supergauss.coefficients import (
    ACoeffSample,
    a_coeff,
    a_coeff_direct,
    derivative_profile,
    l2_series,
    monotonicity_profile,
)

Q = QuadratureSpec(tol=1e-12)


def closed_form_n1(m, w):
    return 2 * math.pi * math.exp(-w * w / 2) * math.factorial(2 * m) \
        / (2 ** m * math.factorial(m))


def test_leibniz_m0_is_twice_f_squared():
    for n in (1, 2):
        for w in (0.0, 1.5):
            s, = a_coeff(n, [0], w, Q)
            f = eval_transform(n, PlanePoint(w, 0.0), Q)
            assert s.value == pytest.approx(2 * f.re * f.re, rel=1e-12)


def test_leibniz_against_gaussian_closed_form():
    for m in (0, 1, 2, 4, 6):
        for w in (0.0, 1.0, 2.0):
            s, = a_coeff(1, [m], w, Q)
            assert s.value == pytest.approx(closed_form_n1(m, w), rel=1e-7)
            assert not s.alarm


def test_leibniz_cap():
    with pytest.raises(ValueError):
        a_coeff(2, [9], 0.0, Q)


def test_sweep_matches_single_calls():
    # a one-m call and a four-m call share no nodes (the rule is sized for
    # the highest order), so they agree within their summed estimates
    sweep = a_coeff(2, [0, 1, 2, 3], 1.0, Q)
    for m in range(4):
        single, = a_coeff(2, [m], 1.0, Q)
        assert (single.m, sweep[m].m) == (m, m)
        assert abs(single.value - sweep[m].value) <= single.err_estimate + sweep[m].err_estimate


def test_nonnegativity_quartic():
    for w in np.arange(0.0, 8.01, 0.5):
        for s in a_coeff(2, list(range(7)), float(w), Q):
            assert s.value >= -s.err_estimate


def test_direct_matches_jacobian_at_origin():
    d = a_coeff_direct(2, 0, 0.0, QuadratureSpec(tol=1e-10))
    f = eval_transform(2, PlanePoint(0.0, 0.0), Q)
    assert d.value == pytest.approx(2 * f.re * f.re, abs=d.err_estimate + 1e-12)


def test_direct_even_in_w():
    qd = QuadratureSpec(tol=1e-9)
    a = a_coeff_direct(2, 1, 1.5, qd)
    b = a_coeff_direct(2, 1, -1.5, qd)
    assert a.value == pytest.approx(b.value, abs=a.err_estimate + b.err_estimate)


def test_cross_method_agreement():
    qd = QuadratureSpec(tol=1e-10)
    for m in range(4):
        for w in (0.0, 1.0, 2.0):
            a, = a_coeff(2, [m], w, Q)
            d = a_coeff_direct(2, m, w, qd)
            assert abs(a.value - d.value) <= a.err_estimate + d.err_estimate


def test_direct_caps():
    with pytest.raises(ValueError):
        a_coeff_direct(2, 4, 0.0, Q)
    with pytest.raises(ValueError):
        a_coeff_direct(2, 1, 9.0, Q)


def test_l2_series_sigma_zero_reduces_to_f_squared():
    r = l2_series(2, PlanePoint(1.2, 0.0), 12, Q)
    f = eval_transform(2, PlanePoint(1.2, 0.0), Q)
    assert r.value == pytest.approx(f.re * f.re, rel=1e-10)
    assert not r.truncation_flag
    assert r.m_used <= 1


def test_l2_series_matches_gaussian():
    # the early-stop rule bounds the dropped tail near SERIES_REL_STOP * sum; at
    # sigma = 1.5 the series runs past m = 8 into the tightened orders
    for sigma in (0.3, 1.0, 1.5):
        for w in (0.0, 1.0, 2.5):
            r = l2_series(1, PlanePoint(w, sigma), 12, Q)
            want = math.pi * math.exp((sigma * sigma - w * w) / 2)
            assert r.value == pytest.approx(want, rel=1e-7)
            assert not r.truncation_flag


def test_l2_series_estimate_covers_the_dropped_tail():
    # the early stop drops a tail near SERIES_REL_STOP of the sum; the
    # estimate bounds it by the geometric series in the last term ratio,
    # which is rigorous at n = 1, where the ratios (sigma^2/2)/m decrease
    for w in (0.0, 0.5, 2.0):
        for sigma in (0.5, 1.5):
            r = l2_series(1, PlanePoint(w, sigma), 12, Q)
            want = math.pi * math.exp((sigma * sigma - w * w) / 2)
            assert not r.truncation_flag
            assert abs(r.value - want) <= r.err_estimate


def test_l2_series_n1_stops_at_the_rounding_floor():
    # at n = 1 the tightened tolerances of orders 23 and 24 (m = 12) lie
    # below the kernel's rounding floor: the series ends at m = 11, flagged,
    # and equals the closed form's partial sum within its estimate
    for w, sigma in ((0.5, 2.0), (0.5, 3.0), (2.5, 2.0)):
        r = l2_series(1, PlanePoint(w, sigma), 12, Q)
        assert r.truncation_flag and r.m_used == 11
        x = sigma * sigma / 2
        partial = math.pi * math.exp(-w * w / 2) * math.fsum(
            x ** m / math.factorial(m) for m in range(r.m_used + 1))
        assert abs(r.value - partial) <= r.err_estimate
    with pytest.raises(ToleranceNotMetError):
        derivative_profile(1, 0.5, 24, Q)


def test_l2_series_requires_only_the_orders_it_reads(monkeypatch):
    # at T = 2.3 the n = 2 tail bound meets the tolerance of orders <= 2 but
    # not of the higher ones: a series that stops at m = 1 must still return,
    # and one that reads the higher orders must raise
    monkeypatch.setattr(transform, "truncation_radius", lambda *a: 2.3)
    q = QuadratureSpec(tol=1e-12)
    with pytest.raises(ToleranceNotMetError):
        derivative_profile(2, 1.2, 16, q)
    r = l2_series(2, PlanePoint(1.2, 0.0), 12, q)
    assert r.m_used <= 1 and not r.truncation_flag
    assert r.value == pytest.approx(eval_transform(2, PlanePoint(1.2, 0.0), q).l_squared,
                                    rel=1e-10)
    with pytest.raises(ToleranceNotMetError):
        l2_series(2, PlanePoint(1.2, 1.0), 12, q)


def test_l2_series_matches_direct_eval():
    p = PlanePoint(1.0, 0.5)
    r = l2_series(2, p, 12, Q)
    direct = eval_transform(2, p, Q).l_squared
    assert r.value == pytest.approx(direct, rel=1e-8)


def test_l2_series_flags_insufficient_m_max():
    r = l2_series(2, PlanePoint(0.0, 3.0), 2, Q)
    assert r.truncation_flag


def test_monotonicity_profile_at_zero_and_off_zero(scanned_zeros_n2):
    alpha1 = scanned_zeros_n2[0].alpha
    grid = [0.05 * i for i in range(41)]
    at_zero, flag_zero = monotonicity_profile(2, alpha1, grid, Q)
    assert flag_zero
    assert at_zero[0][1] <= 1e-18        # starts at the zero: L^2 ~ residual^2
    off, flag_off = monotonicity_profile(2, alpha1 / 2, grid, Q)
    assert flag_off
    assert off[0][1] > 1e-4              # starts strictly positive


def test_monotonicity_profile_even_in_sigma():
    for sigma in (0.4, 1.1):
        a = eval_transform(2, PlanePoint(1.0, sigma), Q).l_squared
        b = eval_transform(2, PlanePoint(1.0, -sigma), Q).l_squared
        assert a == pytest.approx(b, rel=1e-10)


def test_monotonicity_profile_validation():
    with pytest.raises(ValueError):
        monotonicity_profile(2, 1.0, [0.5, 0.2], Q)


def test_not_all_coefficients_zero():
    for w in (0.5, 3.45, 6.0):
        samples = a_coeff(2, list(range(5)), w, Q)
        assert any(s.value > s.err_estimate for s in samples)


def test_cancellation_alarm_flags_error_dominated_sums():
    # when the binomial sum cancels to the size of its own error budget the
    # sample must come back flagged (and still be returned)
    from supergauss.coefficients import _leibniz_from_profile
    from supergauss.transform import EvalResult

    cancelling = [EvalResult(1.0, 0.0, 1e-4), EvalResult(0.0, 0.0, 1e-4),
                  EvalResult(1.0, 0.0, 1e-4)]
    s = _leibniz_from_profile(2, 1, 0.5, cancelling)
    # value = 2*(-1)*(1*1 - 2*0*0 + 1*1) = -4, err ~ 1e-3: no alarm at 0.025%
    assert not s.alarm
    near_zero = [EvalResult(1.0, 0.0, 1e-4), EvalResult(math.sqrt(0.9999), 0.0, 1e-4),
                 EvalResult(0.9999, 0.0, 1e-4)]
    s = _leibniz_from_profile(2, 1, 0.5, near_zero)
    assert abs(s.value) < 1e-3          # genuine cancellation
    assert s.alarm
    # real computations at tight tolerance stay unflagged
    assert not a_coeff(2, [8], 6.0, QuadratureSpec(tol=1e-12))[0].alarm


def test_sample_validation():
    with pytest.raises(ValueError):
        ACoeffSample(n=2, m=0, w=0.0, value=1.0, method="magic", err_estimate=0.0)
    with pytest.raises(ValueError):
        ACoeffSample(n=2, m=-1, w=0.0, value=1.0, method="leibniz", err_estimate=0.0)
