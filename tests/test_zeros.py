import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supergauss import PlanePoint, QuadratureSpec, eval_derivative
from supergauss import zeros
from supergauss.errors import NotAZeroError, SimplicityIndeterminateError
from supergauss.zeros import (
    ZeroRecord,
    extended_zero_pool,
    format_zero_cache,
    log_derivative_lhs,
    ode_residual,
    ode_residuals,
    scan_real_zeros,
    verify_simplicity,
    zero_pair_partial_sums,
)

Q = QuadratureSpec(tol=1e-10)


def test_gaussian_kernel_has_no_zeros():
    assert scan_real_zeros(1, 20.0, Q) == []
    assert scan_real_zeros(1, 46.0, Q) == []


def _dense_step(n, w):
    """The scan step before it followed the zero spacing (the reference):
    0.05 (1 + w)^(-1/(2n-1)), ~120 samples per zero at n = 2."""
    return min(0.05, 0.05 * (1.0 + w) ** (-1.0 / (2 * n - 1)))


@pytest.mark.parametrize("n, w_max, tol", [(n, 30.0, 1e-10) for n in range(2, 7)]
                         + [(2, 46.0, 1e-12)])
def test_scan_matches_dense_step_scan(monkeypatch, n, w_max, tol):
    # the same zeros as a scan at 8-12x the density, each within the summed
    # distance (residual / |F'|) that both records certify
    q = QuadratureSpec(tol=tol)
    recs = scan_real_zeros(n, w_max, q)
    samples = zeros._scan_grid(n, w_max).size
    monkeypatch.setattr(zeros, "_default_step", _dense_step)
    dense = scan_real_zeros(n, w_max, q)
    assert zeros._scan_grid(n, w_max).size > 5 * samples
    assert len(recs) == len(dense) > 0
    for a, b in zip(recs, dense):
        assert a.index == b.index
        assert abs(a.alpha - b.alpha) <= (a.residual + b.residual) / abs(a.f_prime)


def _reference_illinois(f, lo, hi, flo, fhi):
    """The scalar Illinois method the batched solver replaced (the reference):
    one bracket, one point of f per step, the same steps and stopping rule."""
    best, fbest = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    kept = 0
    for _ in range(100):
        narrow = hi - lo <= 1e-12 * max(1.0, abs(hi))
        x = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) < abs(fbest):
            best, fbest = x, fx
        if fx == 0.0 or narrow:
            break
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
    return best


def _reference_scan(n, w_max, q):
    """The bracket-by-bracket scan the batched one replaced (the reference):
    each bracket refined, rescanned and recorded on its own, with one-point
    :func:`eval_axis` calls."""
    ws = zeros._scan_grid(n, w_max)
    m, err = zeros._axis_values(n, ws, q)
    reliable = np.nonzero(np.abs(m) > zeros._SIGN_MARGIN * err)[0]
    records = []
    for a, b in zip(reliable, reliable[1:]):
        if (m[a] < 0) == (m[b] < 0):
            continue
        alpha = _reference_illinois(lambda x: float(zeros._axis_values(n, x, q)[0][0]),
                                    float(ws[a]), float(ws[b]), float(m[a]), float(m[b]))
        if alpha > w_max:
            break
        zeros._confirm_single_crossing(n, float(ws[a]), float(ws[b]), q)
        f, s0, e = zeros.eval_axis(n, alpha, q.tol, (0, 1))
        scale = math.exp(s0[0])
        if f[1, 0] * scale == 0.0:
            break
        records.append(ZeroRecord(n=n, index=len(records) + 1, alpha=alpha,
                                  f_prime=float(f[1, 0] * scale),
                                  residual=float((abs(f[0, 0]) + e[0, 0]) * scale)))
    return records


@pytest.mark.parametrize("n, w_max, tol", [(n, 30.0, 1e-10) for n in range(2, 7)]
                         + [(2, 80.0, 1e-12)])
def test_scan_matches_per_bracket_reference(n, w_max, tol):
    # refining all brackets together takes each bracket's own Illinois steps,
    # and an eval_axis point is the same alone or in a batch, so the records
    # are the reference's to the bit (within the summed distance residual /
    # |F'| that both certify, a fortiori)
    q = QuadratureSpec(tol=tol)
    recs = scan_real_zeros(n, w_max, q)
    ref = _reference_scan(n, w_max, q)
    assert len(recs) == len(ref) > 0
    for a, b in zip(recs, ref):
        assert a.index == b.index
        assert abs(a.alpha - b.alpha) <= (a.residual + b.residual) / abs(a.f_prime)
    assert recs == ref


@pytest.mark.parametrize("n", [2, 6])
def test_illinois_takes_each_brackets_scalar_steps(n):
    # in a batch, every bracket is evaluated at the points, in the order,
    # that the scalar solver evaluates it at alone, and ends at its root
    ws = zeros._scan_grid(n, 30.0)
    m, err = zeros._axis_values(n, ws, Q)
    reliable = np.nonzero(np.abs(m) > zeros._SIGN_MARGIN * err)[0]
    a, b = reliable[:-1], reliable[1:]
    crossing = (m[a] < 0) != (m[b] < 0)
    a, b = a[crossing], b[crossing]
    lo = ws[a]
    seen = [[] for _ in a]

    def batch(x):
        for v in x.tolist():
            seen[np.searchsorted(lo, v) - 1].append(v)
        return zeros._axis_values(n, x, Q)[0]
    roots = zeros._illinois(batch, ws[a], ws[b], m[a], m[b])
    assert len(a) >= 9
    for i in range(len(a)):
        steps = []

        def alone(x):
            steps.append(x)
            return float(zeros._axis_values(n, x, Q)[0][0])
        root = _reference_illinois(alone, float(ws[a[i]]), float(ws[b[i]]),
                                   float(m[a[i]]), float(m[b[i]]))
        assert seen[i] == steps and roots[i] == root


def test_scan_batches_its_axis_calls(monkeypatch):
    # one eval_axis call for the samples, one per Illinois round, one for
    # the rescans and one for F and F': not one call per step of each bracket
    calls = []
    real = zeros.eval_axis

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(zeros, "eval_axis", counted)
    assert len(scan_real_zeros(2, 80.0, QuadratureSpec(tol=1e-12))) >= 44
    assert len(calls) <= 30


def _samples_per_gap(n, alphas):
    """Scan samples strictly inside each gap (0, alpha_1), (alpha_1, alpha_2), ..."""
    ws = zeros._scan_grid(n, alphas[-1])
    bounds = np.array([0.0] + alphas)
    return np.searchsorted(ws, bounds[1:], "left") - np.searchsorted(ws, bounds[:-1], "right")


def test_scan_step_resolves_oracle_pool_gaps():
    # the step follows the asymptotic zero spacing, so the 44 pooled zeros,
    # out to w ~ 80, stay separated by at least 6 scan samples
    alphas = [r.alpha for r in extended_zero_pool(2, 44)]
    assert _samples_per_gap(2, alphas).min() >= 6


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_scan_step_resolves_scanned_gaps(n):
    alphas = [r.alpha for r in scan_real_zeros(n, 30.0, Q)]
    assert len(alphas) >= 9
    assert _samples_per_gap(n, alphas).min() >= 6


def test_scan_returns_only_zeros_up_to_w_max(scanned_zeros_n2):
    # the third zero, 9.6358588862804..., lies in the grid's last bracket
    w_max = 9.62585888628049
    recs = scan_real_zeros(2, w_max, Q)
    assert all(r.alpha <= w_max for r in recs)
    assert recs == scanned_zeros_n2[:2]


@pytest.mark.parametrize("w_max", [math.inf, math.nan, 0.0, -1.0])
def test_scan_rejects_w_max_not_positive_and_finite(w_max):
    with pytest.raises(ValueError):
        scan_real_zeros(2, w_max, Q)


def test_scan_matches_goldens(scanned_zeros_n2, golden_zeros):
    assert len(scanned_zeros_n2) == 10
    for rec, (idx, alpha, fp) in zip(scanned_zeros_n2, golden_zeros):
        assert rec.index == idx
        assert rec.alpha == pytest.approx(alpha, abs=1e-8)
        assert rec.f_prime == pytest.approx(fp, rel=1e-5)
        assert rec.residual <= 1e-9


def test_scanned_zeros_within_their_error_estimates(scanned_zeros_n2):
    # the bracket solver must move both ends, so each zero is as good as the
    # evaluation noise allows rather than stopping at the bracket width
    from supergauss import eval_transform
    assert len(scanned_zeros_n2) >= 10
    for rec in scanned_zeros_n2[:10]:
        r = eval_transform(2, PlanePoint(rec.alpha, 0.0), Q)
        assert abs(r.re) <= 2 * r.err_estimate


def test_zeros_strictly_increasing_no_duplicates(scanned_zeros_n2):
    alphas = [r.alpha for r in scanned_zeros_n2]
    assert all(b - a > 1e-6 for a, b in zip(alphas, alphas[1:]))


def test_sign_flips_across_each_zero(scanned_zeros_n2):
    from supergauss import eval_transform
    for rec in scanned_zeros_n2:
        lo = eval_transform(2, PlanePoint(rec.alpha - 1e-4, 0.0), Q).re
        hi = eval_transform(2, PlanePoint(rec.alpha + 1e-4, 0.0), Q).re
        assert (lo < 0) != (hi < 0)


def test_simplicity_certified(scanned_zeros_n2):
    for rec in scanned_zeros_n2:
        rep = verify_simplicity(2, rec, Q)
        assert rep.derivative_magnitude > 0


def test_mirrored_zero_has_negated_derivative(scanned_zeros_n2):
    rec = scanned_zeros_n2[0]
    d_pos = eval_derivative(2, 1, PlanePoint(rec.alpha, 0.0), Q)
    d_neg = eval_derivative(2, 1, PlanePoint(-rec.alpha, 0.0), Q)
    assert d_neg.re == pytest.approx(-d_pos.re, abs=4 * (d_pos.err_estimate + d_neg.err_estimate))


def test_not_a_zero_rejected():
    fake = ZeroRecord(n=2, index=1, alpha=2.0, f_prime=1.0, residual=0.0)
    with pytest.raises(NotAZeroError):
        verify_simplicity(2, fake, Q)


def test_wrong_kernel_rejected(scanned_zeros_n2):
    with pytest.raises(NotAZeroError):
        verify_simplicity(3, scanned_zeros_n2[0], Q)


def test_scan_reaches_every_golden_zero(golden_zeros):
    # on the saddle line the sign of F stays resolvable at any depth: every
    # one of the 44 oracle zeros, out to w ~ 78.4, is scanned within 1e-12
    recs = scan_real_zeros(2, 80.0, QuadratureSpec(tol=1e-12))
    assert len(recs) >= len(golden_zeros) == 44
    for rec, (idx, alpha, fp) in zip(recs, golden_zeros):
        assert rec.index == idx
        assert abs(rec.alpha - alpha) <= 1e-12
        assert rec.f_prime == pytest.approx(fp, rel=1e-9)


def test_scan_stops_where_f_prime_underflows(monkeypatch):
    # a zero whose F' = m e^s0 is 0 in float64 cannot be recorded: the
    # table ends before it
    real = zeros.eval_axis

    def deep(n, w, tol, orders=(0,)):
        m, s0, err = real(n, w, tol, orders)
        return m, s0 - (800.0 if orders == (0, 1) else 0.0), err
    monkeypatch.setattr(zeros, "eval_axis", deep)
    assert scan_real_zeros(2, 8.0, Q) == []


def test_extended_pool_agrees_with_scan(scanned_zeros_n2, zero_pool_40):
    assert len(zero_pool_40) == 40
    for rec, pooled in zip(scanned_zeros_n2, zero_pool_40):
        assert rec.alpha == pytest.approx(pooled.alpha, abs=1e-8)
    alphas = [r.alpha for r in zero_pool_40]
    assert all(b > a for a, b in zip(alphas, alphas[1:]))


def test_pooled_zeros_round_the_oracle_zeros(golden_zeros):
    # each pooled alpha is the oracle zero rounded to float64: its distance
    # to the zero, |F(alpha)| / |F'(alpha)|, is within one ulp, and the
    # 25-digit golden rounds to the same double
    pool = extended_zero_pool(2, 44)
    assert len(golden_zeros) == len(pool) == 44
    for rec, (idx, alpha, _) in zip(pool, golden_zeros):
        assert rec.index == idx
        assert rec.residual / abs(rec.f_prime) <= math.ulp(rec.alpha)
        assert alpha == rec.alpha


def test_packaged_pool_is_in_zero_table_format():
    text = resources.files("supergauss").joinpath("data/f4_zeros_oracle.csv").read_text()
    assert format_zero_cache(extended_zero_pool(2, 44)) == text
    with pytest.raises(ValueError, match="44 zeros, 45 requested"):
        extended_zero_pool(2, 45)


def test_extended_pool_only_quartic():
    with pytest.raises(ValueError):
        extended_zero_pool(3, 10)


def test_ode_identity_gaussian():
    # the n = 1 kernel satisfies F' = -(w/2) F exactly
    for w in (0.4, 1.3, 2.5):
        r = ode_residual(1, w, Q)
        _, (b, _) = ode_residuals(1, w, Q)
        assert r <= b


def test_ode_identity_trivial_at_origin():
    (r1, r2), _ = ode_residuals(2, 0.0, Q)
    assert r1 <= 1e-12


@settings(max_examples=20, deadline=None)
@given(w=st.floats(0.1, 6.0), n=st.sampled_from([2, 3]))
def test_ode_residuals_within_budget(w, n):
    (r1, r2), (b1, b2) = ode_residuals(n, w, Q)
    assert r1 <= b1 and r2 <= b2


def test_log_derivative_rejects_zeros(scanned_zeros_n2):
    with pytest.raises(NotAZeroError):
        log_derivative_lhs(2, scanned_zeros_n2[0].alpha, Q)


def test_partial_sums_monotone_and_below_lhs(zero_pool_40):
    alphas = [r.alpha for r in zero_pool_40]
    for w in (0.5, 5.0):
        lhs, lhs_err = log_derivative_lhs(2, w, QuadratureSpec(tol=1e-12))
        sums = zero_pair_partial_sums(w, alphas)
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert all(s <= lhs + lhs_err for s in sums)


def test_zero_record_invariants():
    with pytest.raises(ValueError):
        ZeroRecord(n=2, index=1, alpha=-1.0, f_prime=1.0, residual=0.0)
    with pytest.raises(ValueError):
        ZeroRecord(n=2, index=0, alpha=1.0, f_prime=1.0, residual=0.0)
    with pytest.raises(ValueError):
        ZeroRecord(n=2, index=1, alpha=1.0, f_prime=0.0, residual=0.0)


def test_simplicity_indeterminate_below_noise_floor(zero_pool_40):
    # |F'| at the 30th zero is ~1e-26, far below what float64 quadrature can
    # distinguish from zero: the check must refuse loudly, not certify
    with pytest.raises(SimplicityIndeterminateError):
        verify_simplicity(2, zero_pool_40[29], QuadratureSpec(tol=1e-12))


def test_bracket_with_two_crossings_is_suspicious():
    from supergauss.errors import SuspiciousBracketError
    from supergauss.zeros import _confirm_single_crossing

    # (3, 7.5) straddles both alpha_1 and alpha_2: a scan bracket this wide
    # must be flagged rather than silently refined to one root.  The batch
    # names its first such bracket, not (8, 13), which also holds two.
    with pytest.raises(SuspiciousBracketError, match=r"bracket \(3\.0, 7\.5\)"):
        _confirm_single_crossing(2, [1.0, 3.0, 8.0], [4.0, 7.5, 13.0], Q)
    # single crossings are fine, alone or in a batch
    _confirm_single_crossing(2, 3.0, 4.0, Q)
    _confirm_single_crossing(2, [1.0, 3.0, 8.0, 11.0], [4.0, 4.0, 10.0, 13.0], Q)


@pytest.mark.parametrize("branch, sigma", [(0, 10.0), (2, 30.0), (3, 10.0)])
def test_one_bracket_illinois_matches_scalar_solver(branch, sigma):
    # C9's branch lines refine a single bracket; the batched solver takes
    # the scalar solver's steps there and returns its root to the bit
    from supergauss import eval_transform
    from supergauss.fieldlines import asymptote_w
    from supergauss.transform import eval_derivatives, magnitude_scale
    from supergauss.verify import _branch_line_w

    wa = asymptote_w(2, branch, sigma)
    spacing = asymptote_w(2, 0, sigma) * 2.0
    qs = Q.scaled(magnitude_scale(2, sigma))
    grid = np.linspace(wa - 0.45 * spacing, wa + 0.45 * spacing, 41).tolist()
    vals = eval_derivatives(2, (0,), sigma, grid, qs)[0][0].tolist()
    i = next(i for i in range(40) if (vals[i] < 0) != (vals[i + 1] < 0))
    root = _reference_illinois(lambda x: eval_transform(2, PlanePoint(x, sigma), qs).re,
                               grid[i], grid[i + 1], vals[i], vals[i + 1])
    assert _branch_line_w(2, branch, sigma, Q) == root
