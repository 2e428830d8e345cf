"""Real zeros of the transform on the axis sigma = 0.

For n >= 2 the transform has infinitely many simple real zeros.  The scanner
samples F(w) at a fixed number of steps per asymptotic zero spacing
(:func:`_default_step`), brackets sign changes, and refines the brackets by
the Illinois method (:func:`_illinois`), all at once: each round evaluates
every active bracket's next point in one call.  One more call rescans every
bracket at a 20x finer step, and one takes F and F' at every zero.  The
derivative at each zero certifies simplicity.

Every evaluation of a scan goes through the saddle-line kernel
:func:`supergauss.transform.eval_axis`, which returns F as a mantissa m of
e^s0(w), s0 the real part of the exponent at the saddles.  |F| between
consecutive zeros decays like exp(-c w^(2n/(2n-1))), c = (2n-1)
(2n)^(-2n/(2n-1)) sin(pi/(4n-2)) (0.236 at n = 2), so on the real line F is a
cancellation of O(1) terms that float64 cannot resolve past w ~ 46 at n = 2.
The mantissa is of order 1 at every depth, so signs, brackets and the
sign-margin test read it and cannot underflow, and F and F' are formed as m
e^s0 only for the :class:`ZeroRecord`.  :func:`verify_simplicity` and the
ODE residuals keep the real-line kernel, an independent check of each zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NotAZeroError, SimplicityIndeterminateError, SuspiciousBracketError
from .transform import QuadratureSpec, check_kernel_index, eval_axis, eval_derivatives

# Scan samples per asymptotic zero spacing, and the step cap where that
# spacing diverges (near w = 0, and at n = 1, which has no zeros).
_SAMPLES_PER_SPACING = 10
_STEP_CAP = 0.5

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


# The version of the scan's tables: it names the runtime cache's files, so a
# change to the scan that can move a table's bytes must raise it.  Version 3
# refines all brackets of a scan together, on an :func:`eval_axis` that sums
# each point's nodes outwards from the saddle-line origin; version 2 refined
# one bracket at a time, with numpy's pairwise sums; version 1 scanned on
# the real line and wrote files with no version in their names.
SCAN_VERSION = 3

# Zero tables (the runtime cache and the packaged pool) are CSV files with
# this header and ascending indices.  Floats are written with repr (shortest
# round-trip decimal), so emit -> parse -> emit is byte-identical.
HEADER = ["n", "index", "alpha", "f_prime", "residual"]


def format_zero_cache(records: list[ZeroRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for r in records:
        writer.writerow([r.n, r.index, repr(r.alpha), repr(r.f_prime), repr(r.residual)])
    return buf.getvalue()


def parse_zero_cache(text: str) -> list[ZeroRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != HEADER:
        raise ValueError(f"zero cache header must be {','.join(HEADER)}")
    records = []
    for row in rows[1:]:
        if not row:
            continue
        records.append(ZeroRecord(n=int(row[0]), index=int(row[1]),
                                  alpha=float(row[2]), f_prime=float(row[3]),
                                  residual=float(row[4])))
    for a, b in zip(records, records[1:]):
        if b.index != a.index + 1:
            raise ValueError("zero cache indices must be ascending without gaps")
    return records


@dataclass(frozen=True)
class SimplicityReport:
    zero: ZeroRecord
    derivative_magnitude: float
    ode_residual_at_zero: float


def _default_step(n: int, w: float) -> float:
    """Scan step at w: a _SAMPLES_PER_SPACING-th of the asymptotic zero spacing.

    F(w) is asymptotically the sum of the contributions of the conjugate
    saddles t = (+-iw/2n)^(1/(2n-1)) of exp(-t^(2n) + iwt), whose phase has
    w-derivative (w/2n)^(1/(2n-1)) cos(pi/(4n-2)).  Consecutive zeros of F
    therefore lie about

        Delta(w) = pi / ((w/2n)^(1/(2n-1)) cos(pi/(4n-2)))

    apart (de Bruijn, Duke Math. J. 17 (1950) 197-226).  Taken at the
    midpoint of a gap, Delta is within 0.4% of the gaps of the n = 2 oracle
    pool, and within 0.05% from the fourth gap on.  It diverges at w = 0
    and, with cos(pi/2) = 0, at n = 1, which has no zeros, so the step is
    capped at _STEP_CAP.  The step taken from w is the one at w, which is
    larger than at the next sample, yet every gap of the pool and of the
    n = 3..6 scans to w = 30 holds at least 7 samples.
    """
    spread = _SAMPLES_PER_SPACING * (w / (2 * n)) ** (1.0 / (2 * n - 1)) \
        * math.cos(math.pi / (4 * n - 2))
    return _STEP_CAP if spread * _STEP_CAP <= math.pi else math.pi / spread


def _scan_grid(n: int, w_max: float) -> np.ndarray:
    ws = [0.0]
    while ws[-1] < w_max:
        ws.append(ws[-1] + _default_step(n, ws[-1]))
    return np.asarray(ws)


def _axis_values(n: int, ws, q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mantissas F(w) e^-s0(w) at ``ws`` and their error estimates
    (:func:`eval_axis`): their signs are F's, and their ratios to their
    estimates are F's ratios to its own, at any depth."""
    m, _, err = eval_axis(n, ws, q.tol)
    return m[0], err[0]


def _illinois(f, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of f in the sign-change brackets (lo[i], hi[i]) by the Illinois
    method, all brackets at once.

    ``f`` maps a 1-D array of points to their values.  Each round calls it
    once, on the secant points of the brackets still active.  A bracket
    keeps the half that still changes sign; when the same end survives
    twice running, its stored value is halved, so the far end moves too
    instead of staying fixed as in plain regula falsi.  A secant point
    outside its open bracket falls back to the midpoint.  A bracket stops
    one step after it first gets narrower than 1e-12 * max(1, |hi|), or
    once f vanishes, and returns the evaluated point with the smallest |f|
    (an end of the original bracket if no step beat it).  The width test
    alone can pass with |f| at both ends still above the noise of f, and
    the secant point of that narrow bracket is then much closer to the root
    than either end.  Each bracket takes the same steps as it would alone.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float, ndmin=1) for a in (lo, hi, flo, fhi))
    at_lo = np.abs(flo) <= np.abs(fhi)
    best, fbest = np.where(at_lo, lo, hi), np.where(at_lo, flo, fhi)
    kept = np.zeros(lo.size, dtype=int)  # -1: lo moved last, 1: hi moved last
    active = np.arange(lo.size)
    for _ in range(100):
        if not active.size:
            break
        a, b, fa, fb = lo[active], hi[active], flo[active], fhi[active]
        narrow = b - a <= 1e-12 * np.maximum(1.0, np.abs(b))
        x = a - fa * (b - a) / (fb - fa)
        outside = ~((a < x) & (x < b))
        x[outside] = 0.5 * (a[outside] + b[outside])
        fx = np.asarray(f(x), dtype=float)
        better = np.abs(fx) < np.abs(fbest[active])
        best[active[better]] = x[better]
        fbest[active[better]] = fx[better]
        go = ~((fx == 0.0) | narrow)
        move_lo = go & ((fx < 0) == (fa < 0))
        move_hi = go & ~move_lo
        i_lo, i_hi = active[move_lo], active[move_hi]
        lo[i_lo], flo[i_lo] = x[move_lo], fx[move_lo]
        fhi[i_lo[kept[i_lo] == -1]] *= 0.5
        kept[i_lo] = -1
        hi[i_hi], fhi[i_hi] = x[move_hi], fx[move_hi]
        flo[i_hi[kept[i_hi] == 1]] *= 0.5
        kept[i_hi] = 1
        active = active[go]
    return best


def scan_real_zeros(n: int, w_max: float, q: QuadratureSpec) -> list[ZeroRecord]:
    """Locate every resolvable zero of R(0, w) on (0, w_max], in order.

    Samples, Illinois steps, the confirming rescans and each record's F and
    F' come from :func:`eval_axis`, at tolerance q.tol on the mantissa (tol
    e^s0 on F), each stage batched over all brackets: one call per Illinois
    round (:func:`_illinois`), one for every rescan and one for F and F' at
    every zero.  Brackets are kept only where both endpoint mantissas clear
    their error estimates by _SIGN_MARGIN.  Each refined zero is re-checked
    by a local rescan at a 20x finer step (:func:`_confirm_single_crossing`).
    The result is what a bracket-by-bracket scan gives: the brackets are
    taken in order, a zero refined past w_max ends the table (the last
    bracket may straddle w_max), so it holds exactly the certified zeros in
    (0, w_max]; the first bracket whose rescan finds two crossings raises
    :class:`SuspiciousBracketError`; and the table stops at the first zero
    whose F' = m e^s0 underflows float64 (near w = 420 at n = 2).  A
    bracket past the point where the table ends never raises.  A w_max that
    is not positive and finite raises ValueError.
    """
    n = check_kernel_index(n)
    if not (w_max > 0 and math.isfinite(w_max)):
        raise ValueError(f"w_max must be positive and finite, got {w_max}")
    ws = _scan_grid(n, w_max)
    m, err = _axis_values(n, ws, q)

    # bracket between consecutive sign-reliable samples; samples inside the
    # noise band (for example right next to a zero) are skipped over
    reliable = np.nonzero(np.abs(m) > _SIGN_MARGIN * err)[0]
    a, b = reliable[:-1], reliable[1:]
    crossing = (m[a] < 0) != (m[b] < 0)
    a, b = a[crossing], b[crossing]
    alphas = _illinois(lambda x: _axis_values(n, x, q)[0], ws[a], ws[b], m[a], m[b])
    inside = _first(alphas > w_max)
    lo, hi, alphas = ws[a[:inside]], ws[b[:inside]], alphas[:inside]
    if not alphas.size:
        return []
    f, s0, e = eval_axis(n, alphas, q.tol, (0, 1))
    # math.exp, as for one zero at a time: np.exp can differ in the last bit
    scale = np.array([math.exp(v) for v in s0.tolist()])
    f_prime = f[1] * scale
    stop = _first(f_prime == 0.0)
    # a zero whose F' underflows still has its bracket checked, as the
    # brackets before it do
    checked = min(stop + 1, alphas.size)
    _confirm_single_crossing(n, lo[:checked], hi[:checked], q)
    residual = (np.abs(f[0]) + e[0]) * scale
    return [ZeroRecord(n=n, index=i + 1, alpha=float(alphas[i]), f_prime=float(f_prime[i]),
                       residual=float(residual[i])) for i in range(stop)]


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if there is none."""
    return int(np.argmax(mask)) if mask.any() else mask.size


def _confirm_single_crossing(n: int, lo, hi, q: QuadratureSpec) -> None:
    """Rescan each bracket (lo[i], hi[i]) at 21 points, all in one
    :func:`eval_axis` call, and raise :class:`SuspiciousBracketError` for
    the first one that holds more than one sign-reliable crossing."""
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    fine = np.linspace(lo, hi, 21, axis=1)
    m, err = (v.reshape(fine.shape) for v in _axis_values(n, fine.ravel(), q))
    sure = np.abs(m) > _SIGN_MARGIN * err
    flips = (sure[:, :-1] & sure[:, 1:] & ((m[:, :-1] < 0) != (m[:, 1:] < 0))).sum(axis=1)
    bad = np.nonzero(flips > 1)[0]
    if bad.size:
        i = bad[0]
        raise SuspiciousBracketError(
            f"bracket ({lo[i]}, {hi[i]}) for n={n} contains {flips[i]} crossings; "
            "rescan with a finer base step")


def verify_simplicity(n: int, z: ZeroRecord, q: QuadratureSpec) -> SimplicityReport:
    """Certify F'(alpha) != 0 at half tolerance, with a 10x error margin.

    F and F' (at q.tol / 2) and the ODE orders (at q.tol) come from one pass.
    """
    if z.n != n:
        raise NotAZeroError(f"record is for n={z.n}, asked about n={n}")
    n = check_kernel_index(n)
    values = eval_derivatives(n, (0, 1, 2 * n - 1, 2 * n), 0.0, z.alpha, q,
                              q.tol * np.array([[0.5], [0.5], [1.0], [1.0]]))
    re, _, err = values
    if abs(re[0, 0]) > max(10 * err[0, 0], q.tol):
        raise NotAZeroError(
            f"|F({z.alpha})| = {abs(re[0, 0]):.3e} is not a certified zero at tol {q.tol:.1e}")
    mag = abs(float(re[1, 0]))
    if mag < 10 * err[1, 0]:
        raise SimplicityIndeterminateError(
            f"|F'({z.alpha})| = {mag:.3e} below 10x its error bound {err[1, 0]:.3e}; "
            "a multiple zero would contradict the simplicity result")
    (resid, _), _ = _ode_residuals(n, z.alpha, *values)
    return SimplicityReport(zero=z, derivative_magnitude=mag, ode_residual_at_zero=resid)


def _ode_residuals(n: int, w: float, re, im, err):
    """Residuals of both identities and their summed error estimates, from
    the rows F, F', F^(2n-1), F^(2n) of one :func:`eval_derivatives` call."""
    f, f1, d_hi, d_hi2 = re[:, 0] + 1j * im[:, 0]
    e, e1, e_hi, e_hi2 = err[:, 0]
    sign = (-1.0) ** n / (2 * n)
    residuals = (abs(d_hi - sign * w * f), abs(d_hi2 - sign * (f + w * f1)))
    budgets = (e_hi + abs(w) / (2 * n) * e, e_hi2 + (e + abs(w) * e1) / (2 * n))
    return residuals, budgets


def ode_residuals(n: int, w: float, q: QuadratureSpec):
    """Residuals of both differential identities on the axis, and their budgets.

    First: F^(2n-1)(w) = ((-1)^n / 2n) w F(w).
    Second (its derivative): F^(2n)(w) = ((-1)^n / 2n) (F(w) + w F'(w)).
    The four orders come from one pass at q.tol each.  Returns ((r1, r2),
    (b1, b2)), each budget the summed error estimates behind its residual.
    """
    n = check_kernel_index(n)
    return _ode_residuals(n, w, *eval_derivatives(n, (0, 1, 2 * n - 1, 2 * n), 0.0, w, q))


def ode_residual(n: int, w: float, q: QuadratureSpec) -> float:
    """|F^(2n-1)(w) - ((-1)^n / 2n) w F(w)|, from :func:`ode_residuals`."""
    return float(ode_residuals(n, w, q)[0][0])


def log_derivative_lhs(n: int, w: float, q: QuadratureSpec) -> tuple[float, float]:
    """(F'^2 - F'' F) / F^2 at a non-zero w, with a propagated error bound.

    This is minus the second logarithmic derivative; over the zero pool it
    equals the sum of (w - alpha)^-2 + (w + alpha)^-2 over all zero pairs.
    """
    re, _, err = eval_derivatives(n, (0, 1, 2), 0.0, w, q)
    F, F1, F2 = re[:, 0].tolist()
    dF, dF1, dF2 = err[:, 0].tolist()
    if abs(F) <= max(100 * dF, 10 * q.tol):
        raise NotAZeroError(f"w={w} is too close to a zero for the identity")
    lhs = (F1 * F1 - F2 * F) / (F * F)
    # linearized propagation of the three quadrature errors
    grad_f = abs((-F2 * F * F - (F1 * F1 - F2 * F) * 2 * F) / F ** 4)
    err = grad_f * dF + abs(2 * F1 / F ** 2) * dF1 + abs(1.0 / F) * dF2
    return lhs, err


def zero_pair_partial_sums(w: float, alphas: list[float]) -> list[float]:
    """Partial sums of (w - a)^-2 + (w + a)^-2 over an ascending zero list,
    each prefix summed exactly rounded by math.fsum."""
    terms = [1.0 / (w - a) ** 2 + 1.0 / (w + a) ** 2 for a in alphas]
    return [math.fsum(terms[:i + 1]) for i in range(len(terms))]


def extended_zero_pool(n: int, count: int) -> list[ZeroRecord]:
    """Oracle-pinned zero table shipped with the package (n = 2 only).

    The 44 zeros come from the high-precision series oracle in
    scripts/make_zero_goldens.py, not from :func:`scan_real_zeros`, so the
    checks that compare scanned zeros with this pool compare two
    independent computations.  (Zeros beyond ~17 are below the float64
    noise floor of real-line quadrature; the saddle-line scan resolves
    them too.)
    """
    n = check_kernel_index(n)
    if n != 2:
        raise ValueError(f"packaged zero pool only covers n=2, got n={n}")
    text = resources.files("supergauss").joinpath("data/f4_zeros_oracle.csv").read_text()
    records = parse_zero_cache(text)
    if len(records) < count:
        raise ValueError(f"pool holds {len(records)} zeros, {count} requested")
    return records[:count]
