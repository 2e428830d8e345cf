import functools
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supergauss import (
    EvalResult,
    GridField,
    PlanePoint,
    QuadratureSpec,
    closed_form_gaussian,
    eval_derivative,
    eval_derivatives,
    eval_transform,
    extract_field_lines,
    magnitude_scale,
    moment_scale,
    peak_exponent,
    transform,
    truncation_radius,
)
from supergauss.errors import OverflowGuardError, ToleranceNotMetError
from supergauss.transform import eval_transform_grid

Q = QuadratureSpec(tol=1e-10)
QT = QuadratureSpec(tol=1e-12)


def test_origin_value_gaussian():
    r = eval_transform(1, PlanePoint(0, 0), Q)
    assert r.im == 0.0
    assert abs(r.re - math.sqrt(math.pi)) <= r.err_estimate


def test_origin_value_quartic():
    # substitution u = t^4 gives the integral as Gamma(1/4)/2
    r = eval_transform(2, PlanePoint(0, 0), Q)
    assert abs(r.re - math.gamma(0.25) / 2) <= r.err_estimate
    assert abs(r.im) <= r.err_estimate


def test_closed_form_at_known_points():
    r = closed_form_gaussian(PlanePoint(0, 0))
    assert r.re == pytest.approx(math.sqrt(math.pi), abs=1e-15)
    assert r.im == 0.0
    # sigma = w makes the amplitude exponent vanish: L^2 = pi
    r = closed_form_gaussian(PlanePoint(1, 1))
    assert r.l_squared == pytest.approx(math.pi, rel=1e-14)
    # w*sigma/2 = pi/2 puts the point on an R = 0 field line
    r = closed_form_gaussian(PlanePoint(math.pi / 2, 2))
    assert abs(r.re) < 1e-15 * abs(r.im)


def test_gaussian_decay_on_axis():
    r = eval_transform(1, PlanePoint(2, 0), Q)
    assert r.re == pytest.approx(math.sqrt(math.pi) * math.exp(-1), abs=1e-12)


def test_oracle_agreement_off_axis():
    for w in (-3.5, 0.25, 4.0):
        for sigma in (-2.0, 0.5, 3.0):
            got = eval_transform(1, PlanePoint(w, sigma), Q)
            want = closed_form_gaussian(PlanePoint(w, sigma))
            assert abs(got.value - want.value) <= got.err_estimate


def test_derivative_order_zero_matches_transform():
    p = PlanePoint(1.3, 0.7)
    a = eval_transform(2, p, Q)
    b = eval_derivative(2, 0, p, Q)
    assert (a.re, a.im, a.err_estimate) == (b.re, b.im, b.err_estimate)


def test_first_derivative_gaussian():
    # F'(z) = -(z/2) sqrt(pi) exp(-z^2/4) for the n = 1 kernel
    d = eval_derivative(1, 1, PlanePoint(1, 0), Q)
    assert d.re == pytest.approx(-0.5 * math.sqrt(math.pi) * math.exp(-0.25), abs=1e-12)
    assert abs(d.im) <= d.err_estimate


def test_odd_derivatives_vanish_at_origin():
    for n in (1, 2, 3):
        for k in (1, 3, 5):
            d = eval_derivative(n, k, PlanePoint(0, 0), Q)
            assert abs(d.value) <= d.err_estimate


def test_derivative_real_on_axis():
    for n in (1, 2, 4):
        d = eval_derivative(n, 1, PlanePoint(2.1, 0), Q)
        assert abs(d.im) <= d.err_estimate


def test_derivative_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        eval_derivative(2, 17, PlanePoint(0, 0), Q)
    eval_derivatives(2, (17,), 0.0, 0.0, Q, k_cap=18)


def test_truncation_radius_monotone_in_tol():
    t1 = truncation_radius(1, 0.0, 0, 1e-8)
    t2 = truncation_radius(1, 0.0, 0, 0.5e-8)
    assert t2 >= t1


def test_truncation_radius_reference_value():
    # t^2/2 >= ln(2/tol) forces T >= sqrt(2 ln 2e12) ~ 7.53
    T = truncation_radius(1, 0.0, 0, 1e-12)
    assert T >= 7.4
    # verify the tail bound by direct summation beyond T
    t = np.linspace(T, T + 12, 200001)
    tail = 2.0 * np.trapezoid(np.exp(-t ** 2), t)
    assert tail <= 1e-12


def test_truncation_radius_passes_integrand_peak():
    T = truncation_radius(2, 10.0, 0, 1e-10)
    assert T > (10.0 / 4) ** (1 / 3)


def _truncation_radius_fixed_passes(n, sigma, k, tol):
    """The radius search as 80 fixed bisection passes (the reference)."""
    s, lead = abs(sigma), math.log(2.0 / tol)

    def admissible(t):
        return (0.5 * t ** (2 * n) - s * t - k * math.log(t) - lead >= 0.0
                and n * t ** (2 * n - 1) - s - k / t >= 0.0)

    lo = hi = 1.5
    while not admissible(hi):
        hi *= 2.0
    if hi == lo:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _moment_scale_fixed_passes(n, sigma, k):
    """The moment-scale peak search as 200 fixed bisection passes (the reference)."""
    s = abs(sigma)
    lo, hi = 1e-9, 1.0
    while k / hi - 2 * n * hi ** (2 * n - 1) + s > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if k / mid - 2 * n * mid ** (2 * n - 1) + s > 0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    peak = k * math.log(t) - t ** (2 * n) + s * t
    return math.exp(max(0.0, min(peak, transform.OVERFLOW_EXPONENT)))


def test_radius_searches_match_fixed_pass_bisection():
    # stopping once the midpoint rounds to an end returns the same floats
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 7))
        sigma = float(rng.uniform(-12, 12))
        k = int(rng.integers(0, 17))
        tol = float(10.0 ** rng.uniform(-16, -2))
        assert truncation_radius(n, sigma, k, tol) == _truncation_radius_fixed_passes(n, sigma, k, tol)
        if k:
            assert moment_scale(n, sigma, k) == _moment_scale_fixed_passes(n, sigma, k)


def test_tolerance_contract_against_half_tol():
    rng = np.random.default_rng(42)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        w = float(rng.uniform(-5, 5))
        sigma = float(rng.uniform(-2, 2))
        a = eval_transform(n, PlanePoint(w, sigma), Q)
        b = eval_transform(n, PlanePoint(w, sigma), QuadratureSpec(tol=Q.tol / 2))
        assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate
    # n = 6 off the axis: the default panels are too coarse for the steep edge
    # of the kernel, so the estimate is met only after panel splits
    p = PlanePoint(-6.4, 5.9)
    for k in (0, 1):
        q = Q.scaled(moment_scale(6, p.sigma, k))
        a = eval_derivative(6, k, p, q)
        b = eval_derivative(6, k, p, q.scaled(0.5))
        assert a.err_estimate <= q.tol
        assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


def _hermite(k, x):
    """Physicists' Hermite polynomial H_k(x) by the three-term recurrence."""
    h0, h1 = 1.0 + 0j, 2 * x
    if k == 0:
        return h0
    for j in range(1, k):
        h0, h1 = h1, 2 * x * h1 - 2 * j * h0
    return h1


def test_multi_order_matches_hermite_oracle():
    # n = 1: d^k/dz^k sqrt(pi) exp(-z^2/4) = (-1/2)^k H_k(z/2) F(z)
    ws = np.array([-2.5, -0.7, 0.4, 1.3, 3.1])
    ss = np.array([0.5, -1.2, 1.8, 0.9, 2.5])
    ks = range(9)
    tol = np.array([[QT.tol * moment_scale(1, s, k) for s in ss] for k in ks])
    re, im, err = eval_derivatives(1, ks, ss, ws, QT, tol)
    assert re.shape == im.shape == err.shape == (9, 5)
    for k in ks:
        for j, (w, s) in enumerate(zip(ws, ss)):
            z = complex(w, -s)
            want = closed_form_gaussian(PlanePoint(w, s)).value * (-0.5) ** k * _hermite(k, z / 2)
            assert abs(complex(re[k, j], im[k, j]) - want) <= err[k, j]
    # the one-order, one-point calls agree with the batch within both estimates
    d = eval_derivative(1, 5, PlanePoint(ws[2], ss[2]), QuadratureSpec(tol=tol[5, 2]))
    assert abs(d.value - complex(re[5, 2], im[5, 2])) <= d.err_estimate + err[5, 2]


def test_multi_order_meets_each_order_tolerance():
    ks = (0, 3, 6)
    tol = np.array([[1e-12], [1e-9], [1e-6]])
    sigma, w = np.array([0.0, 0.7, 1.9]), np.array([4.2, -1.1, 0.3])
    for n in (2, 3, 6):
        re, im, err = eval_derivatives(n, ks, sigma, w, QT, tol)
        assert (err <= tol).all()
        half = eval_derivatives(n, ks, sigma, w, QT, tol / 2)
        assert (np.hypot(re - half[0], im - half[1]) <= err + half[2]).all()


def test_multi_order_raises_when_one_order_misses(monkeypatch):
    # at T = 2.3 the n = 2 tail bound is ~1e-14 for F but ~6e-11 for the t^8 moment
    monkeypatch.setattr(transform, "truncation_radius", lambda *a: 2.3)
    q = QuadratureSpec(tol=1e-12)
    eval_derivatives(2, (0,), 0.4, 1.0, q)
    with pytest.raises(ToleranceNotMetError, match="k=8") as exc:
        eval_derivatives(2, (0, 8), 0.4, 1.0, q)
    assert exc.value.err_estimate > q.tol
    with pytest.raises(ValueError):
        eval_derivatives(2, (0, 17), 0.4, 1.0, q)


def test_determinism():
    p = PlanePoint(2.7, 1.1)
    a = eval_transform(2, p, Q)
    b = eval_transform(2, p, Q)
    assert (a.re, a.im, a.err_estimate) == (b.re, b.im, b.err_estimate)


def test_overflow_guard():
    with pytest.raises(OverflowGuardError):
        eval_transform(1, PlanePoint(0, 60.0), Q)
    assert peak_exponent(1, 60.0) == pytest.approx(900.0)


def test_tolerance_not_met_with_tiny_override(monkeypatch):
    # a truncation radius short of the peak makes the tail bound blow up
    monkeypatch.setattr(transform, "truncation_radius", lambda *a: 0.5)
    q = QuadratureSpec(tol=1e-10)
    with pytest.raises(ToleranceNotMetError):
        eval_transform(2, PlanePoint(0.0, 6.0), q)


def test_magnitude_scale_matches_gaussian_peak():
    assert magnitude_scale(1, 4.0) == pytest.approx(math.exp(4.0), rel=1e-12)
    assert magnitude_scale(2, 0.0) == 1.0


def test_grid_matches_scalar_within_errors():
    sig = np.array([0.0, 0.8, 2.0])
    ws = np.linspace(-3, 3, 7)
    R, I, E = eval_transform_grid(1, sig, ws, Q)
    for i, s in enumerate(sig):
        for j, w in enumerate(ws):
            want = closed_form_gaussian(PlanePoint(float(w), float(s)))
            assert abs(complex(R[i, j], I[i, j]) - want.value) <= E[i, j]
    # rows from sigma = 0 to 20 would each pick a different truncation radius;
    # on the grid they share one set of nodes
    sig = np.linspace(0.0, 20.0, 9)
    ws = np.linspace(-10.0, 10.0, 11)
    for n in (2, 3):
        R, I, E = eval_transform_grid(n, sig, ws, Q)
        for i, s in enumerate(sig):
            qs = Q.scaled(magnitude_scale(n, float(s)))
            assert (E[i] <= qs.tol).all()
            for j in (0, 3, 5, 8, 10):
                want = eval_transform(n, PlanePoint(float(ws[j]), float(s)), qs)
                assert abs(complex(R[i, j], I[i, j]) - want.value) <= E[i, j] + want.err_estimate


def test_grid_matches_gaussian_closed_form():
    # the sigma = 40 and 50 rows have peak exponents 400 and 625: their
    # panel differences would overflow if squared
    mpmath = pytest.importorskip("mpmath")
    sig = np.array([0.0, 0.8, 2.0, 40.0, 50.0])
    ws = np.linspace(-6.0, 6.0, 9)
    R, I, E = eval_transform_grid(1, sig, ws, Q)
    assert (I[0] == 0.0).all()
    for i, s in enumerate(sig):
        assert np.isfinite(E[i]).all() and (E[i] <= Q.tol * magnitude_scale(1, float(s))).all()
        for j, w in enumerate(ws):
            want = _mp_gaussian_derivative(mpmath, 0, float(w), float(s))
            assert abs(complex(R[i, j], I[i, j]) - want) <= E[i, j]


def test_grid_origin_values():
    # substitution u = t^(2n) gives F(0) = Gamma(1/2n)/n
    for n in range(1, 7):
        R, I, E = eval_transform_grid(n, np.array([0.0, 1.0]), np.array([-1.0, 0.0, 1.0]), QT)
        assert abs(R[0, 1] - math.gamma(1 / (2 * n)) / n) <= E[0, 1]
        assert (I[0] == 0.0).all()


@pytest.mark.parametrize("n", [5, 6])
def test_grid_meets_its_tolerance_at_large_n(n):
    # the steep edge of exp(-t^12) at n = 5 and 6: every row must still
    # meet its tolerance and agree with the single-point kernel
    for sig, ws in ((np.array([0.0, 1.0]), np.array([-1.0, 0.0, 1.0])),
                    (np.linspace(0.0, 3.0, 4), np.linspace(0.0, 10.0, 6))):
        R, I, E = eval_transform_grid(n, sig, ws, Q)
        for i, s in enumerate(sig):
            qs = Q.scaled(magnitude_scale(n, float(s)))
            assert (E[i] <= qs.tol).all()
            for j, w in enumerate(ws):
                want = eval_transform(n, PlanePoint(float(w), float(s)), qs)
                assert abs(complex(R[i, j], I[i, j]) - want.value) <= E[i, j] + want.err_estimate


def _grid_passes(monkeypatch):
    """Record the nodes of every pass of :func:`eval_transform_grid`."""
    passes = []
    real = transform._grid_sums

    def spy(n, sigma_axis, w_axis, tol, tail, nodes):
        passes.append(nodes)
        return real(n, sigma_axis, w_axis, tol, tail, nodes)
    monkeypatch.setattr(transform, "_grid_sums", spy)
    return passes


def test_grid_floor_bounds_its_rounding(monkeypatch):
    # against the same trapezoid nodes and weights summed in 30-digit
    # arithmetic, the folded sums stay within the floor they report; at
    # sigma = 1e-3 the sinh-like amplitude g (ep - em) cancels to ~1e-3 of
    # its terms
    mpmath = pytest.importorskip("mpmath")
    passes = _grid_passes(monkeypatch)
    n, sig, ws = 2, np.array([0.0, 1e-3, 20.0]), np.linspace(-10.0, 10.0, 7)
    R, I, E = eval_transform_grid(n, sig, ws, Q)
    tol = Q.tol * magnitude_scale(n, sig)
    nodes = passes[-1]
    a_c, _ = transform._folded_amplitudes(n, sig, nodes)
    floor = transform._grid_floor(n, sig, 10.0, nodes[0], a_c)
    assert (floor < 1e-3 * tol).all()
    t, g = (a.ravel().tolist() for a in nodes)
    with mpmath.workdps(30):
        t4 = [mpmath.mpf(tj) ** (2 * n) for tj in t]
        for i, s in enumerate(sig.tolist()):
            ep = [mpmath.mpf(gj) * mpmath.exp(s * tj - q) for tj, gj, q in zip(t, g, t4)]
            em = [mpmath.mpf(gj) * mpmath.exp(-s * tj - q) for tj, gj, q in zip(t, g, t4)]
            for j, w in enumerate(ws.tolist()):
                re = mpmath.fsum((p + m) * mpmath.cos(w * tj) for p, m, tj in zip(ep, em, t))
                im = mpmath.fsum((p - m) * mpmath.sin(w * tj) for p, m, tj in zip(ep, em, t))
                assert abs(R[i, j] - float(re)) + abs(I[i, j] - float(im)) <= floor[i]


@pytest.mark.parametrize("n", [2, 6])
def test_grid_halves_a_step_that_is_too_coarse(monkeypatch, n):
    # four times the derived step aliases; |T_h - T_2h| must see it and
    # halve the step until every row meets its tolerance again
    passes = _grid_passes(monkeypatch)
    real = transform._grid_step
    monkeypatch.setattr(transform, "_grid_step", lambda *args: 4.0 * real(*args))
    sig, ws = np.linspace(0.0, 3.0, 4), np.linspace(-10.0, 10.0, 9)
    R, I, E = eval_transform_grid(n, sig, ws, Q)
    assert len(passes) > 1
    assert passes[-1][0][0, 1] < passes[0][0][0, 1]
    for i, s in enumerate(sig):
        qs = Q.scaled(magnitude_scale(n, float(s)))
        assert (E[i] <= qs.tol).all()
        for j, w in enumerate(ws):
            want = eval_transform(n, PlanePoint(float(w), float(s)), qs)
            assert abs(complex(R[i, j], I[i, j]) - want.value) <= E[i, j] + want.err_estimate


def _unfolded_grid(n, sigma_axis, w_axis, q):
    """The grid before folding (the reference): A @ [cos | sin] on every
    panel of [-T, T], the panel error the modulus of the order-p and 2p
    difference, and the floor (m + P + 4) eps sum |a|(|cos| + |sin|)."""
    nw = w_axis.size
    tol = q.tol * magnitude_scale(n, sigma_axis)
    _, tails, rules = transform._shared_rule(n, float(np.abs(sigma_axis).max()),
                                             float(np.abs(w_axis).max()), (0,), float(tol.min()))
    panels, m = rules[1][0].shape
    floor = (m + panels + 4) * transform._EPS
    phases = []
    for t, _ in rules:
        phase = t[:, :, None] * w_axis
        phases.append(np.concatenate([np.cos(phase), np.sin(phase)], axis=2))
    abs_phase = (np.abs(phases[1][..., :nw]) + np.abs(phases[1][..., nw:])).reshape(-1, nw)
    s = sigma_axis[None, :, None]
    amps = [wt[:, None, :] * np.exp(-t[:, None, :] ** (2 * n) + s * t[:, None, :])
            for t, wt in rules]
    (c1, s1), (c2, s2) = ((x[..., :nw], x[..., nw:]) for x in map(np.matmul, amps, phases))
    a2 = np.abs(amps[1]).transpose(1, 0, 2).reshape(sigma_axis.size, -1)
    return (c2.sum(axis=0), s2.sum(axis=0),
            np.hypot(c1 - c2, s1 - s2).sum(axis=0) + tails[0] + floor * (a2 @ abs_phase))


@pytest.mark.parametrize("n, srange, wrange, shape, tol", [
    (2, (0.1, 20.0), (-10.0, 10.0), (80, 120), 1e-11),    # C9
    (2, (0.0, 2.0), (0.0, 13.0), (40, 105), 1e-10),       # figure 10
])
def test_folded_grid_matches_unfolded_grid(n, srange, wrange, shape, tol):
    sig, ws = np.linspace(*srange, shape[0]), np.linspace(*wrange, shape[1])
    q = QuadratureSpec(tol)
    folded = eval_transform_grid(n, sig, ws, q)
    unfolded = _unfolded_grid(n, sig, ws, q)
    assert (np.hypot(folded[0] - unfolded[0], folded[1] - unfolded[1])
            <= folded[2] + unfolded[2]).all()
    counts = []
    for re, im, err in (folded, unfolded):
        grid = GridField(n=n, sigma_axis=sig, w_axis=ws, re=re, im=im, err=err, q=q)
        counts.append([len(extract_field_lines(grid, which)) for which in ("R", "I")])
    assert counts[0] == counts[1]


@functools.cache
def _load_f4():
    """f4 of scripts/make_zero_goldens.py, imported by path."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_zero_goldens.py"
    spec = importlib.util.spec_from_file_location("make_zero_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.f4


@settings(max_examples=8, deadline=None)
@given(w=st.floats(0.0, 40.0))
@example(w=0.5)
@example(w=10.0)
@example(w=25.0)
@example(w=40.0)
def test_error_estimate_bounds_quartic_series_on_axis(w):
    # n = 2 on the axis against the exact Maclaurin series of the zero-table oracle
    pytest.importorskip("mpmath")
    r = eval_transform(2, PlanePoint(w, 0.0), QT)
    assert abs(r.re - float(_load_f4()(w)[0])) <= r.err_estimate


def _quartic_series(mpmath, w, sigma):
    """F and F' of the n = 2 kernel at z = w - i sigma from the Maclaurin
    series of ``f4`` in scripts/make_zero_goldens.py, taken to complex z:
    F(z) = sum_p (-1)^p Gamma((2p+1)/4) / (2 (2p)!) z^(2p).  The working
    precision grows like |z|^(4/3), as f4's does with w, to absorb the
    cancellation of the terms."""
    z = complex(w, -sigma)
    dps = 60 + int(2.0 * abs(z) ** (4 / 3) / math.log(10))
    with mpmath.workdps(dps):
        z = mpmath.mpc(w, -sigma)
        f = d1 = largest = mpmath.mpf(0)
        p = 0
        while True:
            coeff = (-1) ** p * mpmath.gamma((2 * p + 1) / mpmath.mpf(4)) \
                / (2 * mpmath.factorial(2 * p))
            lead = coeff * z ** (2 * p)
            largest = max(largest, abs(lead))
            f += lead
            if p:
                d1 += coeff * 2 * p * z ** (2 * p - 1)
            if p > 8 and abs(lead) < largest * mpmath.mpf(10) ** (-dps + 2) \
                    and abs(lead) < mpmath.mpf(10) ** (-dps + 10):
                return complex(f), complex(d1)
            p += 1


def test_grid_within_its_estimate_of_quartic_series():
    # n = 2 grid against the series oracle, rows up to a peak exponent of ~10
    mpmath = pytest.importorskip("mpmath")
    sig, ws = np.array([0.0, 0.5, 3.0, 10.0]), np.linspace(-10.0, 10.0, 9)
    R, I, E = eval_transform_grid(2, sig, ws, Q)
    assert (I[0] == 0.0).all()
    for i, s in enumerate(sig.tolist()):
        for j, w in enumerate(ws.tolist()):
            want = _quartic_series(mpmath, w, s)[0]
            assert abs(complex(R[i, j], I[i, j]) - want) <= E[i, j]


@settings(max_examples=20, deadline=None)
@given(w=st.floats(-12.0, 12.0), sigma=st.floats(0.0, 3.0))
@example(w=0.0, sigma=0.0)
@example(w=12.0, sigma=3.0)
@example(w=-7.5, sigma=1.25)
def test_error_estimates_bound_quartic_series_off_axis(w, sigma):
    # n = 2 off the axis: F and F' from the exact kernel and from Newton's
    # factored kernel, each within its own estimate of the series
    mpmath = pytest.importorskip("mpmath")
    want = _quartic_series(mpmath, w, sigma)
    tol = np.array([[1e-10 * moment_scale(2, sigma, k)] for k in (0, 1)])
    re, im, err = eval_derivatives(2, (0, 1), sigma, w, Q, tol)
    for k in (0, 1):
        assert abs(complex(re[k, 0], im[k, 0]) - want[k]) <= err[k, 0]
    re, im, err = transform._point_moments(2, np.array([sigma]), np.array([w]), tol, (0, 1),
                                           transform._factored_panel_moments)
    assert (err <= tol).all()
    values = (complex(re[0, 0], im[0, 0]), complex(*transform._rotate(1, re[1, 0], im[1, 0])))
    for k in (0, 1):
        assert abs(values[k] - want[k]) <= err[k, 0]


@settings(max_examples=40, deadline=None)
@given(w=st.floats(-4, 4), sigma=st.floats(-2, 2))
def test_reflection_symmetries(w, sigma):
    a = eval_transform(2, PlanePoint(w, sigma), Q)
    b = eval_transform(2, PlanePoint(-w, sigma), Q)
    c = eval_transform(2, PlanePoint(w, -sigma), Q)
    tol = 2 * (a.err_estimate + b.err_estimate)
    assert abs(a.re - b.re) <= tol and abs(a.im + b.im) <= tol
    tol = 2 * (a.err_estimate + c.err_estimate)
    assert abs(a.re - c.re) <= tol and abs(a.im + c.im) <= tol


@settings(max_examples=30, deadline=None)
@given(w=st.floats(-6, 6), n=st.sampled_from([1, 2, 3]))
def test_real_on_axis(w, n):
    r = eval_transform(n, PlanePoint(w, 0.0), Q)
    assert abs(r.im) <= r.err_estimate


def test_positive_at_origin_all_n():
    for n in range(1, 7):
        r = eval_transform(n, PlanePoint(0, 0), Q)
        assert r.re > 0
        # substitution u = t^(2n) gives F(0) = Gamma(1/2n)/n
        r = eval_transform(n, PlanePoint(0, 0), QT)
        assert abs(r.re - math.gamma(1 / (2 * n)) / n) <= r.err_estimate <= QT.tol


def test_eval_result_invariants():
    r = EvalResult(3.0, 4.0, 1e-12)
    assert r.l_squared == 25.0
    with pytest.raises(ValueError):
        EvalResult(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        PlanePoint(math.nan, 0.0)


def test_truncation_radius_rejects_non_finite_tol():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            truncation_radius(2, 1.0, 0, bad)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        eval_derivatives(2, (0,), 1.0, 2.0, Q, tol=math.inf)
    # a batch mixing finite and infinite tolerances sizes its rule on the finite ones
    re, im, err = eval_derivatives(2, (0, 1), [0.5, 1.0], [2.0, 3.0], Q,
                                   np.array([[1e-10, 1e-10], [math.inf, 1e-10]]))
    assert err[0].max() <= 1e-10 and err[1, 1] <= 1e-10


# ------------------------------------------------ factored (Newton) kernel


def _both_kernels(n, sigma, w, orders=(0, 1)):
    """(exact, factored) moments at moment-scaled tolerance 1e-10."""
    sigma, w = np.asarray(sigma, dtype=float), np.asarray(w, dtype=float)
    tol = np.array([[1e-10 * moment_scale(n, s, k) for s in sigma] for k in orders])
    return tol, [transform._point_moments(n, sigma, w, tol, orders, kernel)
                 for kernel in (transform._panel_moments, transform._factored_panel_moments)]


@pytest.mark.parametrize("n", range(1, 7))
def test_factored_kernel_agrees_with_exact_kernel(n):
    rng = np.random.default_rng(900 + n)
    sigma = rng.uniform(-20, 20, 12) if n <= 3 else rng.uniform(-6, 6, 12)
    w = rng.uniform(-15, 15, 12)
    for s, x in zip(sigma, w):
        tol, (a, b) = _both_kernels(n, [s], [x])
        assert (a[2] <= tol).all() and (b[2] <= tol).all()
        assert (np.hypot(a[0] - b[0], a[1] - b[1]) <= a[2] + b[2]).all()


@pytest.mark.parametrize("n, w, sigma", [(6, -6.4, 5.9), (5, 3.0, 6.0)])
def test_factored_kernel_on_split_panels(monkeypatch, n, w, sigma):
    # the default panels are too coarse here: the refinement splits some of
    # them, so the kernel sees two width classes
    classes = []
    kernel = transform._factored_panel_moments

    def spy(n, s, ws, tables, orders):
        classes.append(len(tables.classes))
        return kernel(n, s, ws, tables, orders)
    monkeypatch.setattr(transform, "_factored_panel_moments", spy)
    tol, (a, b) = _both_kernels(n, [sigma], [w])
    assert classes[0] == 1 and max(classes) == 2
    assert (b[2] <= tol).all()
    assert (np.hypot(a[0] - b[0], a[1] - b[1]) <= a[2] + b[2]).all()


def test_factored_kernel_matches_gaussian_closed_form():
    # n = 1: M_0 = F = sqrt(pi) exp(-z^2/4) and M_1 = -i F' = i (z/2) F
    w, sigma = (a.ravel() for a in np.meshgrid(np.linspace(-60, 60, 41), np.linspace(-3, 3, 7)))
    tol = 1e-10 * magnitude_scale(1, sigma)
    re, im, err = transform._point_moments(1, sigma, w, tol, (0, 1),
                                           transform._factored_panel_moments)
    z = w - 1j * sigma
    f = math.sqrt(math.pi) * np.exp(-z * z / 4)
    assert (err <= tol).all()
    assert (np.abs(re[0] + 1j * im[0] - f) <= err[0]).all()
    assert (np.abs(re[1] + 1j * im[1] - 0.5j * z * f) <= err[1]).all()


def _mp_gaussian_derivative(mpmath, k, w, sigma):
    """F^(k) for n = 1 from d^k/dz^k sqrt(pi) exp(-z^2/4) = (-1/2)^k H_k(z/2) F(z)."""
    with mpmath.workdps(30):
        z = mpmath.mpc(w, -sigma)
        v = (mpmath.sqrt(mpmath.pi) * mpmath.exp(-z * z / 4)
             * (-0.5) ** k * mpmath.hermite(k, z / 2))
        return complex(v)


@settings(max_examples=150, deadline=None)
@given(w=st.floats(-20, 20), sigma=st.floats(-6, 6), k=st.integers(0, 8))
def test_error_estimate_bounds_gaussian_error(w, sigma, k):
    mpmath = pytest.importorskip("mpmath")
    r = eval_derivative(1, k, PlanePoint(w, sigma),
                        QuadratureSpec(1e-10 * moment_scale(1, sigma, k)))
    assert abs(r.value - _mp_gaussian_derivative(mpmath, k, w, sigma)) <= r.err_estimate


@settings(max_examples=100, deadline=None)
@given(w=st.floats(-20, 20), sigma=st.floats(-6, 6))
def test_newton_kernel_error_estimate_bounds_gaussian_error(w, sigma):
    # M_k is the t^k moment: F^(k) = i^k M_k
    mpmath = pytest.importorskip("mpmath")
    tol = np.array([[1e-10 * moment_scale(1, sigma, k)] for k in (0, 1)])
    re, im, err = transform._point_moments(1, np.array([sigma]), np.array([w]), tol, (0, 1),
                                           transform._factored_panel_moments)
    for k in (0, 1):
        want = _mp_gaussian_derivative(mpmath, k, w, sigma) / 1j ** k
        assert abs(complex(re[k, 0], im[k, 0]) - want) <= err[k, 0]


@pytest.mark.parametrize("n, w, sigma", [(2, 10.0, 20.0), (6, -6.4, 5.9), (1, 12.0, 3.0),
                                         (1, 60.0, 2.0)])
def test_factored_kernel_floor_bounds_its_rounding(n, w, sigma):
    # against the same rule summed in 30-digit arithmetic, the factored sums
    # stay within the rounding floor they report
    mpmath = pytest.importorskip("mpmath")
    _, _, rules = transform._shared_rule(n, abs(sigma), abs(w), (0, 1),
                                         1e-10 * magnitude_scale(n, sigma))
    value, _, floor = transform._factored_panel_moments(
        n, np.array([sigma]), np.array([w]), transform._factored_tables(n, rules, (0, 1)), (0, 1))
    t, g = (a.ravel().tolist() for a in rules[1])
    with mpmath.workdps(30):
        z = mpmath.mpc(sigma, w)
        terms = [mpmath.mpf(gj) * mpmath.exp(z * tj - mpmath.mpf(tj) ** (2 * n))
                 for tj, gj in zip(t, g)]
        for k in (0, 1):
            exact = complex(mpmath.fsum(a * mpmath.mpf(tj) ** k for a, tj in zip(terms, t)))
            assert abs(complex(value[0, k, 0], value[1, k, 0]) - exact) <= floor[k, 0]


@pytest.mark.parametrize("m", [16, 32])
def test_gauss_legendre_nodes_exactly_antisymmetric(m):
    # the factored kernel takes V at the mirrored node -y from V at y
    x = transform._gl_rule(m)[0]
    assert (x == -x[::-1]).all()


def test_many_panel_rule_for_floor_test():
    # the n = 1, w = 60 floor test point runs on hundreds of panels
    edges, _, _ = transform._shared_rule(1, 2.0, 60.0, (0, 1), 1e-10 * magnitude_scale(1, 2.0))
    assert edges.size - 1 >= 200


def test_rule_covers_a_larger_sigma():
    # a vertex that moves past the rule's largest |sigma| gets tail bounds
    # taken at its own |sigma|, on the same panels
    rule = transform._Rule(2, 3.0, 5.0, (0, 1), 1e-10)
    edges, tails = rule.edges, rule.tails
    rule.cover(2.0)
    assert rule.sigma_max == 3.0 and rule.tails is tails
    rule.cover(3.001)
    assert rule.edges is edges and (rule.tails > tails).all()
    want = [transform._tail_bound(2, 3.001, k, float(edges[-1])) for k in (0, 1)]
    assert rule.tails.tolist() == want


# ------------------------------------------------------------ rule cache


def _moments(n, sigma, w, orders):
    """_point_moments at moment-scaled tolerance 1e-10, as raw bytes."""
    sigma, w = np.broadcast_arrays(np.array(sigma, dtype=float, ndmin=1),
                                   np.array(w, dtype=float, ndmin=1))
    tol = np.array([[1e-10 * moment_scale(n, float(sigma.max()), k)] for k in orders])
    return b"".join(a.tobytes() for a in transform._point_moments(n, sigma, w, tol, orders))


@pytest.mark.parametrize("n", range(1, 7))
def test_rule_cache_hit_is_bit_identical_to_a_fresh_rule(n):
    for orders in [(0,), (0, 1), (0, 1, 3, 4), tuple(range(13))]:
        for sigma in (0.0, 1.75):
            for w in (0.0, 7.3, [2.0, -4.5, 9.0]):
                transform._RULES.clear()
                cold = _moments(n, sigma, w, orders)
                assert len(transform._RULES.rules) == 1
                warm = _moments(n, sigma, w, orders)
                assert warm == cold, (orders, sigma, w)


@pytest.mark.parametrize("n, w, sigma", [(6, -6.4, 5.9), (5, 3.0, 6.0)])
def test_split_leaves_the_cached_rule_unchanged(monkeypatch, n, w, sigma):
    # the panels of these points are too coarse: the refinement splits them
    # into a new rule, and the cached one keeps its panels and tables
    refined = []
    real = transform._Rule.refined

    def spy(self, share):
        refined.append(self.panels)
        return real(self, share)
    monkeypatch.setattr(transform._Rule, "refined", spy)
    transform._RULES.clear()
    first = _moments(n, sigma, w, (0, 1))
    assert refined
    (rule,) = transform._RULES.rules.values()
    arrays = [rule.edges, rule.tails, *rule.tables.arrays()]
    before = [a.copy() for a in arrays]
    assert rule.panels == refined[0]
    assert _moments(n, sigma, w, (0, 1)) == first
    (again,) = transform._RULES.rules.values()
    assert again is rule and rule.panels == refined[0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))


def test_cached_rule_tables_are_read_only():
    transform._RULES.clear()
    _moments(2, 0.5, 3.0, (0, 1, 2))
    (rule,) = transform._RULES.rules.values()
    arrays = [rule.edges, rule.tails, *rule.tables.arrays()]
    assert len(arrays) == 11
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_rule_cache_stays_within_its_bounds():
    cache = transform._RULES
    cache.clear()
    for i in range(2000):
        _moments(2, 1e-3 * i, 1.0 + 4e-3 * i, (0,))
        assert len(cache.rules) <= cache.max_rules and cache.nbytes <= cache.max_bytes
    assert cache.nbytes == sum(rule.nbytes for rule in cache.rules.values())
    assert len(cache.rules) == cache.max_rules


@pytest.mark.parametrize("orders", [(0,), (1,), (0, 1), (1, 0), (1, 1, 0)])
def test_low_order_powers_match_pow_bitwise(orders):
    # orders 0 and 1 are filled in as 1 and t, which pow returns exactly
    rng = np.random.default_rng(7)
    t = rng.uniform(-6.0, 6.0, (64, 32)) * 10.0 ** rng.integers(-300, 300, (64, 32))
    t[0, :4] = (0.0, -0.0, 1.0, -1.0)
    got = transform._powers(t, orders)
    assert got.tobytes() == (t[..., None] ** np.array(orders)).tobytes()


def test_point_batch_builds_only_its_chunk_rules(monkeypatch):
    # the chunk size comes from the batch's panel count: a batch of two
    # chunks builds their two rules, and none for the whole batch, whose
    # largest |sigma| and |w| lie in different chunks
    sizes, built = [], []
    real_size, real_rule = transform._rule_size, transform._Rule

    class CountingRule(real_rule):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(transform, "_rule_size", lambda *a: sizes.append(a) or real_size(*a))
    monkeypatch.setattr(transform, "_Rule", CountingRule)
    w = np.linspace(0.0, 10.0, 400)
    sigma = np.linspace(1.0, 0.0, 400)
    _, panels = real_size(2, 1.0, 10.0, (0,), 1e-10)
    step = transform._POINT_CHUNK_ELEMS // transform._per_point(transform._node_tables, panels, (0,))
    assert step < w.size <= 2 * step
    transform._RULES.clear()
    transform._point_moments(2, sigma, w, 1e-10, (0,))
    assert len(built) == 2 and len(sizes) == 3
    sizes.clear()
    transform._point_moments(2, np.array([0.5]), np.array([3.0]), 1e-10, (0, 1))
    assert len(sizes) == 1


# ------------------------------------------------------ saddle-line axis kernel


@pytest.mark.parametrize("w", [5.0, 20.0, 40.0, 60.0, 78.0])
def test_axis_kernel_within_its_estimate_of_the_series(w):
    # n = 2: mantissas of F and F' against f4's series scaled by e^-s0, deep
    # past where the real-line kernel resolves F at all
    mpmath = pytest.importorskip("mpmath")
    m, s0, err = transform.eval_axis(2, w, 1e-12, (0, 1))
    with mpmath.workdps(60):
        scale = mpmath.exp(-mpmath.mpf(float(s0[0])))
        want = [float(v * scale) for v in _load_f4()(w, derivs=1)]
    for k in (0, 1):
        assert abs(m[k, 0] - want[k]) <= err[k, 0] <= 1e-12


@pytest.mark.parametrize("w", [0.0, 0.5, 3.0, -7.25, 30.0])
def test_axis_kernel_gaussian_closed_form(w):
    # n = 1: F = sqrt(pi) e^(-w^2/4), so m_0 = sqrt(pi), s0 = -w^2/4 and
    # m_1 = -(w/2) sqrt(pi)
    m, s0, err = transform.eval_axis(1, w, 1e-10, (0, 1))
    assert s0[0] == -w * w / 4
    assert abs(m[0, 0] - math.sqrt(math.pi)) <= err[0, 0] <= 1e-10
    assert abs(m[1, 0] + 0.5 * w * math.sqrt(math.pi)) <= err[1, 0] <= 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_axis_kernel_agrees_with_exact_kernel(n):
    w = np.linspace(0.5, 25.0, 60)
    m, s0, err = transform.eval_axis(n, w, 1e-10, (0, 1))
    re, _, err_exact = eval_derivatives(n, (0, 1), 0.0, w, Q)
    scale = np.exp(s0)
    assert (err <= 1e-10).all()
    assert (np.abs(m * scale - re) <= err * scale + err_exact).all()


@pytest.mark.parametrize("n", [2, 3, 6])
def test_axis_kernel_point_same_alone_or_in_a_batch(n):
    # each point is summed to its own cut-off, from x_0 outwards, so the
    # other points of a call (and their larger node counts) leave its
    # mantissas and estimates unchanged to the bit
    w = np.array([0.0, 0.3, 2.5, 9.0, 31.0, 77.5, 150.0])
    m, s0, err = transform.eval_axis(n, w, 1e-12, (0, 1))
    for i, wi in enumerate(w):
        for batch in ([wi], [wi, 150.0], [0.0, wi]):
            mb, sb, eb = transform.eval_axis(n, batch, 1e-12, (0, 1))
            k = batch.index(wi)
            assert sb[k] == s0[i]
            assert np.array_equal(mb[:, k], m[:, i]) and np.array_equal(eb[:, k], err[:, i])


@pytest.mark.parametrize("n", [5, 6])
def test_axis_kernel_halves_a_step_that_is_too_coarse(monkeypatch, n):
    # a step of 0.02 aliases at n = 5 and 6; |T_h - T_2h| must see it and
    # halve the step until the exact kernel's values are met again
    passes = []
    real = transform._axis_sums

    def spy(n, aw, c, h, J, orders):
        passes.append(h.min())
        return real(n, aw, c, h, J, orders)
    monkeypatch.setattr(transform, "_axis_sums", spy)
    monkeypatch.setattr(transform, "_axis_step", lambda n, aw, root, tol: np.full(aw.shape, 0.02))
    w = np.linspace(0.5, 25.0, 25)
    m, s0, err = transform.eval_axis(n, w, 1e-10, (0, 1))
    re, _, err_exact = eval_derivatives(n, (0, 1), 0.0, w, Q)
    assert len(passes) > 1 and min(passes) < 0.02
    assert (err <= 1e-10).all()
    assert (np.abs(m * np.exp(s0) - re) <= err * np.exp(s0) + err_exact).all()


def test_axis_kernel_rejects_bad_arguments():
    for orders in [(), (2,), (0, 3)]:
        with pytest.raises(ValueError):
            transform.eval_axis(2, 1.0, 1e-10, orders)
    for tol in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(ValueError):
            transform.eval_axis(2, 1.0, tol)
    with pytest.raises(ValueError):
        transform.eval_axis(7, 1.0, 1e-10)
