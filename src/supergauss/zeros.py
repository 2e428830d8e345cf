"""Real zeros of the transform on the axis sigma = 0.

For n >= 2 the transform has infinitely many simple real zeros.  The scanner
samples R(0, w) with a density-matched step, brackets sign changes, and
refines each bracket by bisection followed by a guarded secant polish.  The
derivative at each zero certifies simplicity.

A hard limit of double precision: |F| between consecutive zeros decays like
exp(-c w^(4/(2n-1+2n))) and falls below the quadrature noise floor near
w ~ 46 for n = 2, so only the first ~17 zeros are certifiable from float64
evaluation.  An oracle-computed extended pool ships with the package for
arithmetic that needs deeper zero tables (see :func:`extended_zero_pool`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NotAZeroError, SimplicityIndeterminateError, SuspiciousBracketError
from .transform import (
    PlanePoint,
    QuadratureSpec,
    check_kernel_index,
    eval_derivative,
    eval_transform,
    _point_moments,
)

# Scan step constants: step = min(BASE, BASE * (1+w)^(-1/(2n-1))).  Zero
# spacing shrinks like w^(-1/(2n-1)), so this oversamples by ~2 orders.
_STEP_BASE = 0.05

# Endpoint values must clear their own error estimate by this factor before
# a sign change is trusted.
_SIGN_MARGIN = 3.0


@dataclass(frozen=True)
class ZeroRecord:
    """One certified positive real zero of the transform."""

    n: int
    index: int
    alpha: float
    f_prime: float
    residual: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"zero must be positive, got {self.alpha}")
        if self.index < 1:
            raise ValueError(f"index is 1-based, got {self.index}")
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")
        if self.f_prime == 0.0:
            raise ValueError("derivative at a simple zero cannot be exactly 0")


@dataclass(frozen=True)
class SimplicityReport:
    zero: ZeroRecord
    derivative_magnitude: float
    ode_residual_at_zero: float


def _default_step(n: int, w: float) -> float:
    return min(_STEP_BASE, _STEP_BASE * (1.0 + w) ** (-1.0 / (2 * n - 1)))


def _scan_grid(n: int, w_max: float) -> np.ndarray:
    ws = [0.0]
    while ws[-1] < w_max:
        ws.append(ws[-1] + _default_step(n, ws[-1]))
    return np.asarray(ws)


def _axis_values(n: int, ws: np.ndarray, q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    re, _, err = _point_moments(n, np.zeros(ws.size), ws, np.full(ws.size, q.tol), q, (0,))
    return re[0], err[0]


def _axis_value(n: int, w: float, q: QuadratureSpec) -> tuple[float, float]:
    r = eval_transform(n, PlanePoint(w, 0.0), q)
    return r.re, r.err_estimate


def _refine_bracket(n: int, lo: float, hi: float, flo: float, fhi: float,
                    q: QuadratureSpec) -> tuple[float, float]:
    """Bisect to 1e-8 width then secant-polish inside the bracket."""
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        fmid, _ = _axis_value(n, mid, q)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    # secant with bisection fallback, target width 1e-12 * max(1, alpha)
    width_target = 1e-12 * max(1.0, hi)
    for _ in range(60):
        if hi - lo <= width_target:
            break
        denom = fhi - flo
        x = 0.5 * (lo + hi) if denom == 0 else hi - fhi * (hi - lo) / denom
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx, _ = _axis_value(n, x, q)
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    alpha = 0.5 * (lo + hi)
    fa, err = _axis_value(n, alpha, q)
    return alpha, abs(fa) + err


def scan_real_zeros(n: int, w_max: float, q: QuadratureSpec,
                    _rescan: bool = True) -> list[ZeroRecord]:
    """Locate every resolvable zero of R(0, w) on (0, w_max], in order.

    Brackets are kept only where both endpoint values clear their error
    estimates, so the returned list stops where float64 can no longer
    resolve the sign of the transform.  Each refined zero is re-checked by a
    local rescan at a 20x finer step; a bracket that splits in two raises
    :class:`SuspiciousBracketError` after the finer rescan disagrees too.
    """
    n = check_kernel_index(n)
    if not w_max > 0:
        raise ValueError(f"w_max must be positive, got {w_max}")
    ws = _scan_grid(n, w_max)
    re, err = _axis_values(n, ws, q)

    # bracket between consecutive sign-reliable samples; samples inside the
    # noise band (for example right next to a zero) are skipped over
    reliable = np.nonzero(np.abs(re) > _SIGN_MARGIN * err)[0]
    records: list[ZeroRecord] = []
    idx = 1
    for a, b in zip(reliable, reliable[1:]):
        if (re[a] < 0) == (re[b] < 0):
            continue
        alpha, residual = _refine_bracket(n, float(ws[a]), float(ws[b]),
                                          float(re[a]), float(re[b]), q)
        if _rescan:
            _confirm_single_crossing(n, float(ws[a]), float(ws[b]), q)
        d = eval_derivative(n, 1, PlanePoint(alpha, 0.0), q)
        records.append(ZeroRecord(n=n, index=idx, alpha=alpha,
                                  f_prime=d.re, residual=residual))
        idx += 1
    return records


def _confirm_single_crossing(n: int, lo: float, hi: float, q: QuadratureSpec) -> None:
    fine = np.linspace(lo, hi, 21)
    re, err = _axis_values(n, fine, q)
    flips = 0
    for i in range(20):
        if np.abs(re[i]) > _SIGN_MARGIN * err[i] and np.abs(re[i + 1]) > _SIGN_MARGIN * err[i + 1] \
                and (re[i] < 0) != (re[i + 1] < 0):
            flips += 1
    if flips > 1:
        raise SuspiciousBracketError(
            f"bracket ({lo}, {hi}) for n={n} contains {flips} crossings; "
            "rescan with a finer base step")


def verify_simplicity(n: int, z: ZeroRecord, q: QuadratureSpec) -> SimplicityReport:
    """Certify F'(alpha) != 0 at half tolerance, with a 10x error margin."""
    if z.n != n:
        raise NotAZeroError(f"record is for n={z.n}, asked about n={n}")
    half = q.scaled(0.5)
    val = eval_transform(n, PlanePoint(z.alpha, 0.0), half)
    if abs(val.re) > max(10 * val.err_estimate, q.tol):
        raise NotAZeroError(
            f"|F({z.alpha})| = {abs(val.re):.3e} is not a certified zero at tol {q.tol:.1e}")
    d = eval_derivative(n, 1, PlanePoint(z.alpha, 0.0), half)
    mag = abs(d.re)
    if mag < 10 * d.err_estimate:
        raise SimplicityIndeterminateError(
            f"|F'({z.alpha})| = {mag:.3e} below 10x its error bound {d.err_estimate:.3e}; "
            "a multiple zero would contradict the simplicity result")
    resid = ode_residual(n, z.alpha, q)
    return SimplicityReport(zero=z, derivative_magnitude=mag, ode_residual_at_zero=resid)


def ode_residual(n: int, w: float, q: QuadratureSpec) -> float:
    """|F^(2n-1)(w) - ((-1)^n / 2n) w F(w)| from independent evaluations."""
    r, _ = ode_residual_pair(n, w, q)
    return r


def ode_residual_pair(n: int, w: float, q: QuadratureSpec) -> tuple[float, float]:
    """Residuals of both differential identities satisfied on the axis.

    First: F^(2n-1)(w) = ((-1)^n / 2n) w F(w).
    Second (its derivative): F^(2n)(w) = ((-1)^n / 2n) (F(w) + w F'(w)).
    """
    n = check_kernel_index(n)
    p = PlanePoint(w, 0.0)
    sign = (-1.0) ** n / (2 * n)
    f = eval_transform(n, p, q)
    f1 = eval_derivative(n, 1, p, q)
    d_hi = eval_derivative(n, 2 * n - 1, p, q)
    d_hi2 = eval_derivative(n, 2 * n, p, q)
    r1 = abs(d_hi.value - sign * w * f.value)
    r2 = abs(d_hi2.value - sign * (f.value + w * f1.value))
    return r1, r2


def ode_residual_budget(n: int, w: float, q: QuadratureSpec) -> tuple[float, float]:
    """Summed error estimates matching the two residuals of ode_residual_pair."""
    n = check_kernel_index(n)
    p = PlanePoint(w, 0.0)
    f = eval_transform(n, p, q)
    f1 = eval_derivative(n, 1, p, q)
    d_hi = eval_derivative(n, 2 * n - 1, p, q)
    d_hi2 = eval_derivative(n, 2 * n, p, q)
    scale = abs(w) / (2 * n)
    b1 = d_hi.err_estimate + scale * f.err_estimate
    b2 = d_hi2.err_estimate + (f.err_estimate + abs(w) * f1.err_estimate) / (2 * n)
    return b1, b2


def log_derivative_lhs(n: int, w: float, q: QuadratureSpec) -> tuple[float, float]:
    """(F'^2 - F'' F) / F^2 at a non-zero w, with a propagated error bound.

    This is minus the second logarithmic derivative; over the zero pool it
    equals the sum of (w - alpha)^-2 + (w + alpha)^-2 over all zero pairs.
    """
    p = PlanePoint(w, 0.0)
    f = eval_transform(n, p, q)
    if abs(f.re) <= max(100 * f.err_estimate, 10 * q.tol):
        raise NotAZeroError(f"w={w} is too close to a zero for the identity")
    f1 = eval_derivative(n, 1, p, q)
    f2 = eval_derivative(n, 2, p, q)
    F, F1, F2 = f.re, f1.re, f2.re
    lhs = (F1 * F1 - F2 * F) / (F * F)
    # linearized propagation of the three quadrature errors
    dF, dF1, dF2 = f.err_estimate, f1.err_estimate, f2.err_estimate
    grad_f = abs((-F2 * F * F - (F1 * F1 - F2 * F) * 2 * F) / F ** 4)
    err = grad_f * dF + abs(2 * F1 / F ** 2) * dF1 + abs(1.0 / F) * dF2
    return lhs, err


def zero_pair_partial_sums(w: float, alphas: list[float]) -> list[float]:
    """Partial sums of (w - a)^-2 + (w + a)^-2 over an ascending zero list."""
    sums = []
    total = 0.0
    comp = 0.0
    for a in alphas:
        term = 1.0 / (w - a) ** 2 + 1.0 / (w + a) ** 2
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        sums.append(total)
    return sums


def extended_zero_pool(n: int, count: int) -> list[ZeroRecord]:
    """Oracle-pinned zero table shipped with the package (n = 2 only).

    Zeros beyond ~17 lie below the float64 noise floor of any real-axis
    quadrature and cannot be re-derived at runtime; they come from the
    high-precision series oracle in scripts/make_zero_goldens.py.
    """
    n = check_kernel_index(n)
    if n != 2:
        raise ValueError(f"packaged zero pool only covers n=2, got n={n}")
    records = []
    text = resources.files("supergauss").joinpath("data/f4_zeros_oracle.csv").read_text()
    for row in csv.DictReader(text.splitlines()):
        records.append(ZeroRecord(n=int(row["n"]), index=int(row["index"]),
                                  alpha=float(row["alpha"]),
                                  f_prime=float(row["f_prime"]),
                                  residual=float(row["residual"])))
        if len(records) == count:
            return records
    if len(records) < count:
        raise ValueError(f"pool holds {len(records)} zeros, {count} requested")
    return records
