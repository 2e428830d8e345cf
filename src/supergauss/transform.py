"""Evaluation of F(z) = integral of exp(-t^(2n)) * exp(izt) dt and its z-derivatives.

The kernel exponent is even, 2n with n >= 1, so F is entire and even.  Points
are handled in the (w, sigma) coordinates z = w - i*sigma, in which

    F(z) = integral exp(-t^(2n) + sigma*t) * (cos(wt) + i sin(wt)) dt.

Evaluation is composite Gauss-Legendre quadrature on a truncated symmetric
interval [-T, T], with T chosen so the analytic tail bound is below half the
requested tolerance.  Each panel is integrated at the working order and at
double the order; the difference is the panel error estimate.

Every evaluation shares one panel set per batch (:func:`_shared_rule`),
sized for the batch's hardest point and highest derivative order.
Scattered points go through :func:`_point_moments`, which returns every
requested t-moment at every point from one pass over the nodes (exp, cos
and sin are taken once per node).  :func:`eval_derivatives` is its public
form: F^(k) for several orders at several points, each (order, point) with
its own tolerance; :func:`eval_transform` and :func:`eval_derivative` are
its one-order, one-point case.  Newton refinement calls
:func:`_point_moments` directly: it requires F' only at vertices still
moving.

Each rule carries every point-independent table its kernel sums on (for
the exact kernel the flat nodes and weights, -t^(2n) and the grouped
powers t^k and |t^k|, :func:`_node_tables`), built once per rule.  The
fresh rules of :func:`_point_moments` come from one small process-local
cache (:class:`_RuleCache`) keyed by what fixes a rule: (n, sigma_max,
orders, T, panel count), with T taken once per request through
:func:`truncation_radius`.  A coefficient table asks for the same few rules
at many w, so most of its evaluations reuse their tables; a hit returns the
very arrays a miss would build, so every value is the same to the bit.  Kept
rules are read-only, a refinement builds a new rule instead of splitting a
kept one, and the cache holds at most 4 rules and 1 MiB of their arrays.

:func:`_point_moments` has one refinement loop: while an (order, point)'s
panel errors exceed half its tolerance, every panel holding at least its
share of them is split.  The order-2p node terms are summed in float64 in
groups of 8 nodes and the group sums in long double, per panel and across
panels (the order-p sums enter only the error estimate and stay in
float64).  The rounding floor of the estimate, (9 eps + nodes * long
double eps) * sum |a|(|cos| + |sin|), therefore barely grows with the
node count where long double is wider than float64, and is still a valid
bound where it is not.

Grids (:func:`eval_transform_grid`) take the trapezoid rule on the nodes
t_j = j h, j = 0..2M-1, one node set for every row and column, and fold the
even kernel onto t >= 0:

    F = sum over t_j >= 0 of g_j [(ep + em) cos(wt) + i (ep - em) sin(wt)],
    ep, em = exp(-t^(2n) +- sigma t),

with weights h (h/2 at t_0).  A block of rows takes two real batched matrix
products with the cos and sin tables, each split into the even and the odd
nodes, summed in BLAS order: T_h is their sum and T_2h twice the even part,
and Im F is exactly 0 at sigma = 0.  The step comes in closed form from the
aliasing error at the grid's largest |sigma| and |w| (:func:`_grid_step`),
the error estimate is |dR| + |dI| of T_h - T_2h plus the tail and the
floor (:func:`_grid_floor`, the rounding of ep +- em and of the BLAS and
parity sums), and a grid whose points miss their tolerance with |T_h -
T_2h| above half of it is summed again at half the step.

Newton refinement sums its panels with :func:`_factored_panel_moments`
instead: on the same refinement loop, each panel's phase e^{iz c_p} is
factored out of its nodes, in real arithmetic, so a point takes P real
exponentials, cosines and sines plus, per panel width, 48 exponentials
and 24 cosines and sines (the nodes are exactly antisymmetric, so a
mirrored node reuses its partner's cosine and sine) instead of exp, cos
and sin at 48 P nodes (P panels of 16 + 32 nodes), and the panel sums
are matrix products with a point-independent node matrix.  A line keeps
one rule (:class:`_Rule`) and those tables for all its Newton passes.
The floor, derived in its docstring, is wider, (2p + P + 46 + 6(|sigma|
+ |w|) T + 4 T^(2n)) eps of sum |a t^k| plus the node mismatch it
measures, at most 4.6e-3 of Newton's tolerance at C9.  Single
points keep the exact kernel on [-T, T]; grid values only place the raw
crossings that Newton then refines.

Zero scans use none of these: on the real axis F is a cancellation of O(1)
terms down to |F| ~ exp(-0.236 w^(4/3)) (n = 2), so :func:`eval_axis`
integrates on the line through the two upper saddles instead, with the
trapezoid rule, and returns F as a mantissa of e^s0 with an error estimate
relative to it.  Single points, Newton, the simplicity check and the ODE
residuals keep the Gauss-Legendre kernels above, so the simplicity check
stays independent of the scan.  All paths are deterministic for a given input.

For n = 1 the closed form sqrt(pi) * exp(-z^2/4) is provided as an oracle.
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import OverflowGuardError, ToleranceNotMetError

# Kernel exponents with documented support.  Larger n makes the integrand
# flatter near 0 and steeper at the edge; 1..6 is the tested range.
N_MIN = 1
N_MAX = 6

# Natural-log units; peak exponents beyond this cannot be represented.
OVERFLOW_EXPONENT = 700.0

# Panel width caps: absolute, per unit of oscillation (half a period of
# cos(wt)), and per unit of growth of exp(sigma*t).
_PANEL_CAP = 0.5
_SIGMA_CAP = 8.0

# Gauss-Legendre order p of each panel (the estimate compares p with 2p), and
# the panel count at which the refinement of :func:`_point_moments` stops.
_ORDER = 16
_MAX_PANELS = 4000

_EPS = float(np.finfo(np.float64).eps)

# Derivative order cap.  The t^k moment inflates the truncation radius and
# the integrand scale; accuracy degrades gradually beyond this.
K_CAP_DEFAULT = 16


def check_kernel_index(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"kernel index must be an integer, got {n!r}")
    if not (N_MIN <= n <= N_MAX):
        raise ValueError(f"kernel index n must be in [{N_MIN}, {N_MAX}], got {n}")
    return int(n)


@dataclass(frozen=True)
class PlanePoint:
    """A point z = w - i*sigma of the complex plane."""

    w: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.w) and math.isfinite(self.sigma)):
            raise ValueError(f"plane point must be finite, got ({self.w}, {self.sigma})")

    @property
    def z(self) -> complex:
        return complex(self.w, -self.sigma)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance of one quadrature evaluation.

    ``tol`` is a target on the absolute error of the complex value.  The
    reachable floor scales with exp(peak_exponent(n, sigma)); callers working
    at large sigma should scale ``tol`` by :func:`magnitude_scale`.
    """

    tol: float = 1e-10

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")

    def scaled(self, factor: float) -> "QuadratureSpec":
        return QuadratureSpec(self.tol * factor)


@dataclass(frozen=True)
class EvalResult:
    """(R, I) value of the transform or one of its derivatives at a point."""

    re: float
    im: float
    err_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.err_estimate) or self.err_estimate < 0:
            raise ValueError(f"err_estimate must be finite and >= 0, got {self.err_estimate}")

    @property
    def l_squared(self) -> float:
        return self.re * self.re + self.im * self.im

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@lru_cache(maxsize=32)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x.copy(), w.copy()


def peak_exponent(n: int, sigma):
    """Maximum of -t^(2n) + sigma*t over the real line (0 when sigma = 0).

    The maximum sits at t* = (|sigma|/2n)^(1/(2n-1)), which gives the closed
    form (2n-1) * (|sigma|/2n)^(2n/(2n-1)).  ``sigma`` may be a scalar (the
    result is a float) or an array.
    """
    n = check_kernel_index(n)
    s = np.abs(np.asarray(sigma, dtype=float))
    pk = (2 * n - 1) * (s / (2 * n)) ** (2 * n / (2 * n - 1))
    return float(pk) if pk.ndim == 0 else pk


def magnitude_scale(n: int, sigma):
    """exp(max(0, peak exponent)): the natural scale of |F| at this sigma.

    ``sigma`` may be a scalar (the result is a float) or an array.
    """
    scale = np.exp(np.maximum(0.0, peak_exponent(n, sigma)))
    return float(scale) if scale.ndim == 0 else scale


def _boundary(pred, lo: float, hi: float) -> tuple[float, float]:
    """Bracket (lo, hi) of the point where pred turns from false to true.

    pred must be false at lo, unless lo == hi and it holds there.  hi
    doubles until pred holds at it, then the bracket is bisected until its
    midpoint rounds to one of its ends: pred is false at lo and true at hi,
    so no further pass could move either end.
    """
    while not pred(hi):
        hi *= 2.0
        if hi > 1e12:  # t^(2n) dominates: only a |sigma| near 1e12 or above gets here
            raise ArithmeticError("boundary search diverged")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def moment_scale(n: int, sigma: float, k: int) -> float:
    """exp(max(0, peak of k ln t - t^(2n) + |sigma| t)): scale of the k-th moment.

    The t^k factor inflates the integrand of high derivatives; tolerances for
    them are only meaningful relative to this scale.
    """
    n = check_kernel_index(n)
    if k == 0:
        return magnitude_scale(n, sigma)
    return _moment_scale(n, abs(float(sigma)), int(k))


# A derivative profile asks for the same (n, sigma = 0, k) for every order of
# every call, while independent queries rarely repeat a sigma.
@lru_cache(maxsize=128)
def _moment_scale(n: int, s: float, k: int) -> float:
    """:func:`moment_scale` of validated arguments, s = |sigma| and k >= 1."""
    # g'(t) = k/t - 2n t^(2n-1) + s is strictly decreasing: bisect its root
    lo, hi = _boundary(lambda t: not (k / t - 2 * n * t ** (2 * n - 1) + s > 0), 1e-9, 1.0)
    t = 0.5 * (lo + hi)
    peak = k * math.log(t) - t ** (2 * n) + s * t
    return math.exp(max(0.0, min(peak, OVERFLOW_EXPONENT)))


def _guard_overflow(n: int, sigma: float) -> None:
    pk = peak_exponent(n, sigma)
    if pk > OVERFLOW_EXPONENT:
        raise OverflowGuardError(
            f"integrand peak exponent {pk:.1f} exceeds {OVERFLOW_EXPONENT:.0f} "
            f"(n={n}, sigma={sigma}); value not representable in float64")


def truncation_radius(n: int, sigma: float, k: int, tol: float) -> float:
    """Radius T with 2 * integral_T^inf t^k exp(-t^(2n) + |sigma| t) dt <= tol.

    T is the smallest radius >= 1.5 at which

        t^(2n)/2 >= |sigma| t + k ln t + ln(2/tol)

    holds together with a nonnegative derivative of the slack, so the bound
    holds for every t >= T and the tail is dominated by exp(-t^(2n)/2).
    """
    n = check_kernel_index(n)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if k < 0:
        raise ValueError(f"moment order k must be >= 0, got {k}")
    return _radius(n, abs(float(sigma)), int(k), float(tol))


# The last few radii: a coefficient table asks for the same (sigma = 0,
# order, tol) at every w, while independent queries rarely repeat one.
@lru_cache(maxsize=4)
def _radius(n: int, s: float, k: int, tol: float) -> float:
    """:func:`truncation_radius` of validated arguments, s = |sigma|."""
    lead = math.log(2.0 / tol)

    def admissible(t: float) -> bool:
        # slack 0.5 t^(2n) - |sigma| t - k ln t - ln(2/tol) and its derivative
        return not (0.5 * t ** (2 * n) - s * t - k * math.log(t) - lead < 0.0
                    or n * t ** (2 * n - 1) - s - k / t < 0.0)

    # the smallest admissible radius; 1.5 itself when it is admissible
    return _boundary(admissible, 1.5, 1.5)[1]


def _tail_bound(n: int, sigma: float, k: int, T: float) -> float:
    """Rigorous bound on 2 * integral_T^inf t^k exp(-t^(2n) + |sigma| t) dt.

    Uses concavity of g(t) = -t^(2n) + |sigma| t + k ln t: once g'(T) < 0 the
    tail is below exp(g(T)) / |g'(T)| per side.  Returns inf when T does not
    clear the peak, so overridden radii stay honest.
    """
    s = abs(float(sigma))
    gp = -2 * n * T ** (2 * n - 1) + s + (k / T if k else 0.0)
    if gp >= 0.0:
        return math.inf
    g = -(T ** (2 * n)) + s * T + (k * math.log(T) if k else 0.0)
    if g > OVERFLOW_EXPONENT:
        return math.inf
    return 2.0 * math.exp(g) / (-gp)


def _panel_count(T: float, w_cap: float, sigma: float) -> int:
    width = min(_PANEL_CAP,
                math.pi / max(abs(w_cap), 1e-30),
                _SIGMA_CAP / max(abs(sigma), 1e-30))
    return max(2, int(math.ceil(2.0 * T / width)))


def eval_derivatives(n: int, ks, sigma, w, q: QuadratureSpec, tol=None,
                     k_cap: int = K_CAP_DEFAULT):
    """F^(k)(w_i - i sigma_i) for every order k in ``ks`` at every point i.

    All orders and points come from one :func:`_point_moments` pass, so
    exp, cos and sin are taken once per node for the whole batch.  ``sigma``
    and ``w`` broadcast to one 1-D batch; ``tol`` (default q.tol) broadcasts
    to (orders, points).  Returns re, im and err, each of shape (len(ks),
    points), with the i^k rotation applied by exact component swaps.
    Raises ToleranceNotMetError for the first (order, point) whose estimate
    exceeds its tolerance.
    """
    ks = tuple(ks)
    if min(ks) < 0:
        raise ValueError(f"derivative order must be >= 0, got {min(ks)}")
    if max(ks) > k_cap:
        raise ValueError(f"derivative order {max(ks)} above cap {k_cap}; "
                         "raise k_cap explicitly to accept degraded accuracy")
    sigma = np.array(sigma, dtype=float, ndmin=1)
    w = np.array(w, dtype=float, ndmin=1)
    if sigma.shape != w.shape:
        sigma, w = np.broadcast_arrays(sigma, w)
    tol = q.tol if tol is None else tol
    re, im, err = _point_moments(n, sigma, w, tol, ks)
    if not (err <= tol).all():
        i, j = np.argwhere(~(err <= tol))[0]
        t = np.broadcast_to(tol, err.shape)[i, j]
        raise ToleranceNotMetError(
            f"quadrature error estimate {err[i, j]:.3e} above tol {t:.3e} "
            f"(n={n}, sigma={sigma[j]}, w={w[j]}, k={ks[i]})",
            re=float(re[i, j]), im=float(im[i, j]), err_estimate=float(err[i, j]))
    for i, k in enumerate(ks):
        if k % 4:
            re[i], im[i] = _rotate(k, re[i].copy(), im[i])
    return re, im, err


def eval_transform(n: int, p: PlanePoint, q: QuadratureSpec) -> EvalResult:
    """F(z) at z = w - i*sigma: the one-order, one-point :func:`eval_derivatives`."""
    re, im, err = eval_derivatives(n, (0,), p.sigma, p.w, q)
    return EvalResult(float(re[0, 0]), float(im[0, 0]), float(err[0, 0]))


def eval_derivative(n: int, k: int, p: PlanePoint, q: QuadratureSpec) -> EvalResult:
    """k-th z-derivative of F at p: i^k times the k-th t-moment integral.

    The one-order, one-point :func:`eval_derivatives`; k = 0 gives exactly
    :func:`eval_transform`.
    """
    re, im, err = eval_derivatives(n, (k,), p.sigma, p.w, q)
    return EvalResult(float(re[0, 0]), float(im[0, 0]), float(err[0, 0]))


def _rotate(k: int, re, im):
    """(re, im) of i^k * (re + i*im), by exact component swaps (scalars or arrays)."""
    quadrant = k % 4
    if quadrant == 1:
        return -im, re
    if quadrant == 2:
        return -re, -im
    if quadrant == 3:
        return im, -re
    return re, im


def closed_form_gaussian(p: PlanePoint) -> EvalResult:
    """Exact n = 1 evaluation: sqrt(pi) * exp((sigma^2 - w^2)/4) * e^{i sigma w / 2}."""
    amp_exp = 0.25 * (p.sigma * p.sigma - p.w * p.w)
    if amp_exp > OVERFLOW_EXPONENT:
        raise OverflowGuardError(f"closed-form amplitude exponent {amp_exp:.1f} too large")
    amp = math.sqrt(math.pi) * math.exp(amp_exp)
    half = 0.5 * p.sigma * p.w
    re = amp * math.cos(half)
    im = amp * math.sin(half)
    return EvalResult(re, im, 8.0 * _EPS * amp)


# Shared-node batches: the float64 elements of one (points, nodes) array of
# the scattered-point path, and of one (parities, rows, len(w_axis)) product
# in the grid (two of them: cos and sin).
_POINT_CHUNK_ELEMS = 1 << 17
_GRID_CHUNK_ELEMS = 1 << 20

# Order-2p node terms are summed in float64 in groups of this many (a divisor
# of 2 * _ORDER), which bounds each group's error by _GROUP * eps/2 of its
# absolute sum in any order; the group sums are added in long double.
_GROUP = 8
_LONG_EPS = float(np.finfo(np.longdouble).eps)


def _rule_size(n: int, sigma_max: float, w_max: float, orders: tuple[int, ...],
               tol_min: float) -> tuple[float, int]:
    """Truncation radius T and panel count of the rule of a batch.

    T is the truncation radius at the batch's largest |sigma|, largest
    moment order and smallest tolerance; T grows with each of them, so it
    covers every point.  Panel widths follow the largest |w| and |sigma|,
    so each point gets panels at least as fine as its own would be.  A
    |sigma| past the overflow guard raises before T is sought.
    """
    _guard_overflow(n, sigma_max)
    T = truncation_radius(n, sigma_max, max(orders), 0.5 * tol_min)
    return T, _panel_count(T, w_max, sigma_max)


def _shared_rule(n: int, sigma_max: float, w_max: float, orders: tuple[int, ...],
                 tol_min: float, edges: np.ndarray | None = None):
    """One panel set on [-T, T] shared by every point of a batch.

    The panels are the :func:`_rule_size` ones, equal panels on [-T, T];
    ``edges``, if given, replaces them (a refinement of them).  Returns the
    edges, the tail bound at T for each moment order (each also bounds
    every smaller |sigma|) and, for orders p and 2p, the nodes and weights,
    both of shape (panels, order).
    """
    if edges is None:
        T, panels = _rule_size(n, sigma_max, w_max, orders, tol_min)
        edges = np.linspace(-T, T, panels + 1)
    return (edges, *_rule_nodes(n, sigma_max, orders, edges))


def _rule_nodes(n: int, sigma_max: float, orders: tuple[int, ...], edges: np.ndarray):
    """The tail bounds and the order p and 2p nodes and weights of
    :func:`_shared_rule` on the panels ``edges``."""
    tails = np.array([_tail_bound(n, sigma_max, k, float(edges[-1])) for k in orders])
    centers = 0.5 * (edges[:-1] + edges[1:])[:, None]
    halves = 0.5 * (edges[1:] - edges[:-1])[:, None]
    rules = []
    for order in (_ORDER, 2 * _ORDER):
        x, gw = _gl_rule(order)
        rules.append((centers + halves * x, halves * gw))
    return tails, rules


def _powers(t: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """t^k for each k in ``orders``, along a new last axis.

    This is ``t[..., None] ** np.array(orders)``.  When every order is 0 or
    1 the columns are 1 and t themselves, which pow returns exactly, so the
    shortcut changes no bit.  Otherwise the one broadcast expression over
    the whole order tuple is kept: pow's last bit depends on the layout of
    its operands, so a column computed on its own can differ from it.
    """
    if not set(orders) <= {0, 1}:
        return t[..., None] ** np.array(orders)
    powers = np.empty(t.shape + (len(orders),))
    for i, k in enumerate(orders):
        powers[..., i] = t if k else 1.0
    return powers


class _NodeTables(NamedTuple):
    """The point-independent tables of :func:`_panel_moments` on a rule.

    ``per_order`` holds, for orders p and 2p, the flat nodes t, their
    weights g and -t^(2n), each of shape (nodes,), and the powers t^k in
    the node groups the kernel sums, of shape (groups, group size, orders);
    ``abs_powers`` is |t^k| at order 2p, of shape (nodes, orders).
    """

    panels: int
    per_order: tuple
    abs_powers: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [a for tables in self.per_order for a in tables] + [self.abs_powers]


def _node_tables(n: int, nodes, orders: tuple[int, ...]) -> _NodeTables:
    """The :class:`_NodeTables` of a :func:`_shared_rule` rule: a panel is a
    group at order p, _GROUP nodes are one at order 2p."""
    per_order = []
    for (t, g), group in zip(nodes, (_ORDER, _GROUP)):
        powers = _powers(t, orders).reshape(-1, group, len(orders))
        t = t.ravel()
        per_order.append((t, g.ravel(), -t ** (2 * n), powers))
    return _NodeTables(nodes[0][0].shape[0], tuple(per_order),
                       np.abs(powers.reshape(t.size, -1)))


def _panel_moments(n: int, sigma: np.ndarray, w: np.ndarray, tables: _NodeTables,
                   orders: tuple[int, ...]):
    """Moments of the points (sigma, w) on one shared rule.

    Sums of a(t) * t^k * cos/sin(wt) over groups of nodes are batched matrix
    products of the node terms with the powers t^k, read with the nodes,
    weights and -t^(2n) from the rule's :class:`_NodeTables`.  At order p,
    which enters only the error estimate, a group is a panel.  At order 2p
    a group holds _GROUP nodes and the group sums are added in long double,
    so the rounding floor, ((5 + _GROUP/2) eps + nodes * long double eps) *
    sum |a t^k|(|cos| + |sin|), barely grows with the panel count.
    Returns the order-2p moments (re, im) of shape (orders, points), the
    per-panel |order p - order 2p| of shape (orders, points, panels), and
    the floor of shape (orders, points).  Points go in blocks of at most
    _POINT_CHUNK_ELEMS node terms.
    """
    panels = tables.panels
    value = np.empty((2, len(orders), sigma.size))
    perr = np.empty((len(orders), sigma.size, panels))
    floor = np.empty((len(orders), sigma.size))
    step = max(1, _POINT_CHUNK_ELEMS // tables.abs_powers.shape[0])
    for c0 in range(0, sigma.size, step):
        sl = slice(c0, c0 + step)
        sums = []
        for (t, g, neg_t2n, powers), dtype in zip(tables.per_order, (np.float64, np.longdouble)):
            group = powers.shape[1]
            a = g * np.exp(neg_t2n + sigma[sl, None] * t)               # (points, nodes)
            phase = w[sl, None] * t
            cos, sin = np.cos(phase), np.sin(phase)
            sums.append([np.matmul((a * f).reshape(a.shape[0], -1, group).transpose(1, 0, 2),
                                   powers)                              # (groups, points, orders)
                         .reshape(panels, -1, a.shape[0], len(orders)).sum(axis=1, dtype=dtype)
                         for f in (cos, sin)])                          # (P, points, orders)
        (c1, s1), (c2, s2) = sums       # a, cos and sin are order 2p's
        value[0, :, sl] = c2.sum(axis=0).T
        value[1, :, sl] = s2.sum(axis=0).T
        perr[:, sl] = np.hypot(c1 - c2, s1 - s2).transpose(2, 1, 0)
        relative = (5.0 + 0.5 * _GROUP) * _EPS + t.size * _LONG_EPS
        floor[:, sl] = relative * ((a * (np.abs(cos) + np.abs(sin))) @ tables.abs_powers).T
    return value, perr, floor


class _FactoredTables(NamedTuple):
    """The point-independent tables of :func:`_factored_panel_moments` on a rule.

    ``classes`` holds, per panel width h_d, the panels of that width (a
    slice when every panel has it) and, for orders p and 2p, the upper half
    y = h_d x_j > 0 of the node offsets and the (m, orders * panels) matrix
    B with rows in the order (y, -y); and |B| at order 2p.
    """

    centers: np.ndarray
    c2n: np.ndarray
    T: float
    delta: float
    classes: list

    def arrays(self) -> list[np.ndarray]:
        out = [self.centers, self.c2n]
        for sel, per_order, abs_b in self.classes:
            out += [a for pair in per_order for a in pair] + [abs_b]
            if isinstance(sel, np.ndarray):
                out.append(sel)
        return out


def _factored_tables(n: int, rules, orders: tuple[int, ...]) -> _FactoredTables:
    """B, |B|, the width classes and delta of a :func:`_shared_rule` rule."""
    t2 = rules[1][0]
    x_out = _gl_rule(2 * _ORDER)[0][-1]
    centers = 0.5 * (t2[:, 0] + t2[:, -1])
    halves = (t2[:, -1] - t2[:, 0]) / (2.0 * x_out)
    h0 = float(halves.max())
    depth = np.rint(np.log2(h0 / halves)).astype(np.int64)
    c2n = centers ** (2 * n)
    powers = np.array(orders)
    delta = 0.0
    classes = []
    for d in sorted(set(depth.tolist())):
        sel = np.flatnonzero(depth == d)
        h = math.ldexp(h0, -d)
        per_order = []
        for t, g in rules:
            t, m = t[sel], t.shape[1]
            y = h * _gl_rule(m)[0]
            delta = max(delta, float(np.abs(centers[sel, None] + y - t).max()))
            b = ((g[sel] * np.exp(c2n[sel, None] - t ** (2 * n)))[..., None]
                 * t[..., None] ** powers).transpose(1, 2, 0).reshape(m, -1)
            # rows of the nodes m/2 + i, then of their mirrors m/2 - 1 - i at -y
            per_order.append((y[m // 2:], np.concatenate([b[m // 2:], b[m // 2 - 1::-1]])))
        if sel.size == centers.size:
            sel = slice(None)
        classes.append((sel, per_order, np.abs(per_order[1][1])))
    return _FactoredTables(centers, c2n, float(np.abs(t2).max()), delta, classes)


def _factored_panel_moments(n: int, sigma: np.ndarray, w: np.ndarray,
                            tab: _FactoredTables, orders: tuple[int, ...]):
    """:func:`_panel_moments` with each panel's phase factored out.

    The rule's panels have equal widths, and splitting only halves them, so
    every half-width is h_d = h_0 2^-d, h_0 the widest.  With iz = sigma +
    iw, the term of node t = c_p + y_j, y_j = h_d x_j, of panel p factors as

        h_d g_j t^k exp(izt - t^(2n)) = E_p V_j B_pjk,
        E_p = exp(sigma c_p - c_p^(2n)) (cos w c_p, sin w c_p),
        V_j = exp(sigma y_j) (cos w y_j, sin w y_j),
        B_pjk = h_d g_j exp(c_p^(2n) - t^(2n)) t^k,

    and B does not depend on the point (:func:`_factored_tables`, built once
    per rule).  The Gauss-Legendre nodes are exactly antisymmetric, so the
    mirrored node -y has V = exp(-sigma y) (cos wy, -sin wy), and a point
    takes P real
    exponentials, cosines and sines for E plus, per width class and order,
    an exponential at each of the 16 + 32 nodes and a cosine and a sine at
    half of them.  The panel sums S_pk = sum_j V_j B_pjk are one real matrix
    product per class and order, and M_k = sum_p E_p S_pk in real
    arithmetic.  Moving c_p^(2n) from E into B keeps both in float64 range
    wherever the integrand is, and the panel width caps of
    :func:`_panel_count` give |V| <= e^(|sigma| h) <= e^4.  B holds the
    rule's own nodes t and weights h g_j; c_p and h are read off each
    panel's outermost order-2p node pair, and delta = max |c_p + fl(h_d x_j)
    - t| is measured, so the factorisation is exact up to e^(iz delta).
    A panel's error is |dR| + |dI| of E_p (S_pk at order p - at order 2p).

    The rounding floor, with u = eps/2, T = max |t|, first-order terms and
    exp, cos and sin within 8u of the exact function of their float
    argument: the arguments sigma c - c^(2n) and wc of E carry
    u(2|sigma| + |w|)T + u T^(2n) (c^(2n) is one float shared by E and B,
    so its own rounding cancels), and each part of E, after its product,
    u((2|sigma| + |w|)T + T^(2n) + 17) of |E|; sigma y and wy of V, y =
    fl(h x), carry 2u(|sigma| + |w|)T, and each part of V
    u(2(|sigma| + |w|)T + 17) of |V|; c^(2n) - t^(2n) of B carries
    3u T^(2n), and B, with its exponential, weight and t^k, u(3T^(2n) + 11)
    of |B|; the m-term sums of S add m u of sum_j |V_j| |B_pjk|.  A complex
    error whose parts are each at most x has modulus at most sqrt(2) x, and
    |a| + |b| <= sqrt(2) |a + ib|, so the errors of E and S add at most
    twice these relative terms to |dR| + |dI| of E_p S_pk; the real sums
    over P panels of ER SR -/+ EI SI, with their final difference, add
    (P + 1) u to each part of sum_p |E_p| |S_pk| (by Cauchy-Schwarz, |ER SR|
    + |EI SI| <= |E| |S|); the mismatch c + y - t carries |iz|(delta + 2uT)
    of every term, sqrt(2) times that in |dR| + |dI|.  So every (order,
    point) is, in |dR| + |dI|, within

        ((m + P + 46 + 6(|sigma| + |w|) T + 4 T^(2n)) eps
         + 1.5 (|sigma| + |w|) delta) * sum_p |E_p| sum_j |V_j| |B_pjk|

    of its exact sum on the rule, m = 2p, which bounds each term's modulus
    sum |a t^k|.  Returns what :func:`_panel_moments` returns.
    """
    points, panels, k = sigma.size, tab.centers.size, len(orders)
    s, ws = sigma[:, None], w[:, None]
    e_abs = np.exp(s * tab.centers - tab.c2n)[:, None, :]               # (points, 1, P)
    phase = ws * tab.centers
    er, ei = e_abs * np.cos(phase)[:, None, :], e_abs * np.sin(phase)[:, None, :]
    sums = np.empty((2, 2 * points, k, panels))       # orders p, 2p; parts (R; I)
    abs_sum = np.empty((points, k, panels))
    for sel, per_order, abs_b in tab.classes:
        for out, (y, b) in zip(sums, per_order):
            half = y.size
            ab = np.exp(s * np.concatenate([y, -y]))                  # |V|, (points, m)
            wy = ws * y
            cos, sin = np.cos(wy), np.sin(wy)
            v = np.empty((2 * points, 2 * half))
            np.multiply(ab[:, :half], cos, out=v[:points, :half])
            np.multiply(ab[:, half:], cos, out=v[:points, half:])
            np.multiply(ab[:, :half], sin, out=v[points:, :half])
            np.multiply(ab[:, half:], -sin, out=v[points:, half:])
            out[:, :, sel] = (v @ b).reshape(2 * points, k, -1)
        abs_sum[:, :, sel] = (ab @ abs_b).reshape(points, k, -1)
    sr, si = sums[1, :points], sums[1, points:]                  # (points, orders, P)
    moments = np.stack([(er * sr - ei * si).sum(axis=2), (er * si + ei * sr).sum(axis=2)])
    diff = sums[0] - sums[1]
    dr, di = diff[:points], diff[points:]
    perr = (np.abs(er * dr - ei * di) + np.abs(er * di + ei * dr)).transpose(1, 0, 2)
    zabs = np.abs(sigma) + np.abs(w)
    relative = ((2 * _ORDER + panels + 46 + 6.0 * zabs * tab.T + 4.0 * tab.T ** (2 * n)) * _EPS
                + 1.5 * zabs * tab.delta)
    floor = relative * (e_abs * abs_sum).sum(axis=2).T
    return moments.transpose(0, 2, 1), perr, floor


def _per_point(prepare, panels: int, orders: tuple[int, ...]) -> int:
    """Float64 elements one point takes in the largest arrays of the kernel
    that sums on ``prepare``'s tables, on ``panels`` panels: (points,
    nodes) at order 2p for :func:`_panel_moments`, (points, orders, panels)
    for the factored kernel."""
    return panels * (2 * _ORDER if prepare is _node_tables else len(orders))


def _split_panels(edges: np.ndarray, share: np.ndarray) -> np.ndarray:
    """``edges`` with every panel whose ``share`` of some error sum is at
    least 1/panels split in two, the largest shares first, until _MAX_PANELS
    panels are in use."""
    panels = edges.size - 1
    split = np.flatnonzero(share >= 1.0 / panels)
    split = split[np.argsort(-share[split], kind="stable")[:_MAX_PANELS - panels]]
    return np.sort(np.concatenate([edges, 0.5 * (edges[split] + edges[split + 1])]))


class _Rule:
    """A :func:`_shared_rule` panel set that :func:`_point_moments` calls share.

    ``tables`` is what the kernel sums on, ``prepare(n, nodes, orders)``:
    :func:`_node_tables` for the exact :func:`_panel_moments`,
    :func:`_factored_tables` for the factored kernel, built once per panel
    set.  :meth:`split` refines the panel set in place and :meth:`refined`
    returns the refinement as a new rule, leaving this one as it is;
    :meth:`cover` extends the tail bounds to a larger |sigma|, and
    :meth:`freeze` makes the rule read-only.  ``per_point`` is the
    :func:`_per_point` of its kernel and panels.  ``w_max`` and ``tol_min``
    size the panels when ``edges`` is not given.
    """

    def __init__(self, n: int, sigma_max: float, w_max: float, orders: tuple[int, ...],
                 tol_min: float, prepare=_node_tables, edges: np.ndarray | None = None):
        self.n, self.orders, self.prepare, self.sigma_max = n, orders, prepare, sigma_max
        self._build(*_shared_rule(n, sigma_max, w_max, orders, tol_min, edges))

    def _build(self, edges: np.ndarray, tails: np.ndarray, nodes) -> None:
        self.edges, self.tails = edges, tails
        self.tables = self.prepare(self.n, nodes, self.orders)

    def freeze(self) -> None:
        """Make the edges, tail bounds and tables read-only, and count their
        bytes in ``nbytes``."""
        arrays = [self.edges, self.tails, *self.tables.arrays()]
        for a in arrays:
            a.setflags(write=False)
        self.nbytes = sum(a.nbytes for a in arrays)

    @property
    def panels(self) -> int:
        return self.edges.size - 1

    @property
    def per_point(self) -> int:
        return _per_point(self.prepare, self.panels, self.orders)

    def split(self, share: np.ndarray) -> None:
        edges = _split_panels(self.edges, share)
        self._build(edges, *_rule_nodes(self.n, self.sigma_max, self.orders, edges))

    def refined(self, share: np.ndarray) -> "_Rule":
        rule = copy.copy(self)
        rule.split(share)
        return rule

    def cover(self, sigma_max: float) -> None:
        """Take the tail bounds again on the same panels if |sigma| reaches
        past the rule's, so they bound every point; an estimate that then
        misses its tolerance is reported, not hidden.  A |sigma| past the
        overflow guard raises, as it would for a new rule."""
        if sigma_max > self.sigma_max:
            _guard_overflow(self.n, sigma_max)
            self.sigma_max = sigma_max
            self.tails = np.array([_tail_bound(self.n, sigma_max, k, float(self.edges[-1]))
                                   for k in self.orders])


class _RuleCache:
    """The most recently used fresh rules of :func:`_point_moments`.

    A rule is fixed by (prepare, n, sigma_max, orders, T, panel count): its
    edges are the panel count's equal panels on [-T, T], its tail bounds
    follow from n, sigma_max, the orders and T, and its tables from the
    nodes.  So :meth:`get` takes T and the panel count from the caller's
    :func:`_rule_size` (through :func:`truncation_radius`, with its
    validation and memo), looks the rule up, and on a miss builds it from
    that same T: a hit returns the very arrays a miss would have built, and
    a miss adds only the lookup and :meth:`_Rule.freeze` to the build.  Kept rules are read-only, and a refinement of one is a new rule
    (:meth:`_Rule.refined`).  At most ``max_rules`` rules and ``max_bytes``
    bytes of rule arrays are kept, the least recently used going first; a
    larger rule is built and not kept.
    """

    def __init__(self, max_rules: int, max_bytes: int):
        self.max_rules, self.max_bytes = max_rules, max_bytes
        self.rules: OrderedDict = OrderedDict()
        self.nbytes = 0

    def get(self, prepare, n: int, sigma_max: float, orders: tuple[int, ...], T: float,
            panels: int) -> _Rule:
        key = (prepare, n, sigma_max, orders, T, panels)
        rule = self.rules.get(key)
        if rule is not None:
            self.rules.move_to_end(key)
            return rule
        rule = _Rule(n, sigma_max, None, orders, None, prepare, np.linspace(-T, T, panels + 1))
        rule.freeze()
        if rule.nbytes <= self.max_bytes:
            self.rules[key] = rule
            self.nbytes += rule.nbytes
            while len(self.rules) > self.max_rules or self.nbytes > self.max_bytes:
                self.nbytes -= self.rules.popitem(last=False)[1].nbytes
        return rule

    def clear(self) -> None:
        self.rules.clear()
        self.nbytes = 0


# A coefficient table asks for a few rules at many w, each run of repeats
# back to back (zero scans take no rules: they use :func:`eval_axis`), while
# independent queries rarely repeat a rule at all.
_RULES = _RuleCache(max_rules=4, max_bytes=1 << 20)


def _point_moments(n: int, sigma: np.ndarray, w: np.ndarray, tol,
                   orders: tuple[int, ...], panel_sums=_panel_moments, rule=None):
    """Moments M_k(w_i - i sigma_i), k in ``orders``, at scattered points.

    ``tol`` broadcasts to (len(orders), len(sigma)).  Points go in chunks of
    about _POINT_CHUNK_ELEMS elements of the kernel's arrays.  Without
    ``rule``, the chunk size comes from the panel count of the whole batch's
    :func:`_rule_size`, and each chunk takes its own :class:`_Rule` sized
    for its smallest tolerance (the batch's size when it is one chunk), from
    the rule cache (:class:`_RuleCache`), with the tables of
    ``panel_sums``; a ``rule`` given (one rule for many calls, prepared for
    ``panel_sums``) serves every chunk, after :meth:`_Rule.cover` extends its
    tail bounds to the batch's largest |sigma|.  While some (order, point)
    has panel errors summing to more than half its tolerance and fewer than
    _MAX_PANELS panels are in use, every panel holding at least its share of
    such a sum is split in two: a given rule in place, so it comes back
    split, and a cached one into a new rule.  The error estimate of each
    point is the sum over panels of its panel errors, plus the tail bound at
    the shared radius, plus the rounding floor of ``panel_sums``: the exact
    :func:`_panel_moments`, or :func:`_factored_panel_moments` for Newton
    refinement.  Returns re, im and err, each of shape (len(orders),
    len(sigma)).
    """
    out = np.empty((3, len(orders), sigma.size))
    if sigma.size == 0:
        return out[0], out[1], out[2]
    tol = np.full(out.shape[1:], tol)
    fresh = rule is None
    if fresh:
        prepare = _node_tables if panel_sums is _panel_moments else _factored_tables
        sigma_max = float(np.abs(sigma).max())
        size = _rule_size(n, sigma_max, float(np.abs(w).max()), orders, float(tol.min()))
        step = max(1, _POINT_CHUNK_ELEMS // _per_point(prepare, size[1], orders))
    else:
        rule.cover(float(np.abs(sigma).max()))
        step = max(1, _POINT_CHUNK_ELEMS // rule.per_point)
    for c0 in range(0, sigma.size, step):
        sl = slice(c0, c0 + step)
        s, ws, ts = sigma[sl], w[sl], tol[:, sl]
        if fresh:
            if step < sigma.size:
                sigma_max = float(np.abs(s).max())
                size = _rule_size(n, sigma_max, float(np.abs(ws).max()), orders, float(ts.min()))
            rule = _RULES.get(prepare, n, sigma_max, orders, *size)
        while True:
            value, perr, floor = panel_sums(n, s, ws, rule.tables, orders)
            total = perr.sum(axis=2)
            short = total > 0.5 * ts
            if not short.any() or rule.panels >= _MAX_PANELS:
                break
            share = (perr[short] / total[short][:, None]).max(axis=0)
            if fresh:
                rule = rule.refined(share)
            else:
                rule.split(share)
        out[:2, :, sl] = value
        out[2, :, sl] = total + rule.tails[:, None] + floor
    return out[0], out[1], out[2]


# Halvings of the grid's trapezoid step before its estimates are reported
# as they stand.
_GRID_HALVINGS = 6


def _grid_step(n: int, sigma_max: float, w_max: float, tol: float) -> float:
    """Trapezoid step h of :func:`eval_transform_grid`, from the aliasing
    error at the grid's largest |sigma| and |w|; ``tol`` is relative to
    each row's :func:`magnitude_scale`.

    By Poisson summation, the trapezoid sum with step h of exp(-t^(2n) +
    sigma t + iwt) over the whole line is sum_k F(w - 2 pi k/h - i sigma):
    its error is the transform at the alias frequencies.  At the saddle
    point of -t^(2n) + izt, |F(v - i sigma)| is about exp(A Re (sigma +
    i|v|)^p), p = 2n/(2n-1), A = (2n-1)(2n)^-p, which is the row's scale
    e^peak at v = 0 (:func:`peak_exponent`).  In units of that scale the
    alias at v is exp(-G), G = A (sigma^p - Re (sigma + iv)^p).  With r
    and theta the modulus and argument of sigma + iv:

    - G is convex and increasing in v > 0: G(sigma, 0) = dG/dv(sigma, 0) =
      0 and d2G/dv2 = A p(p-1) r^(p-2) cos((2-p) theta) > 0, as (2-p)
      theta < pi/2;
    - G decreases in sigma: dG/dsigma = A p r^(p-1) (cos^(p-1) theta -
      cos((p-1) theta)) <= 0, as cos((p-1) theta) >= cos^(p-1) theta for
      0 < p - 1 <= 1 and theta in [0, pi/2].

    So the row of largest |sigma| and the column of largest |w|, with alias
    frequency v = kappa - |w| nearest to it, are the worst point.  G <=
    G(0, v) = a v^p, a = A sin(pi/(4n-2)) (that of :func:`_axis_step`),
    and G <= A p(p-1)/2 sigma^(p-2) v^2, since |Re (sigma + iv)^(p-2)| <=
    sigma^(p-2); the larger of the v that bring those two to L = ln(8/tol)
    lies at or left of the root of G = L, and one Newton step from it lands
    at or right of the root (by convexity), at most 2% past it for n <= 6,
    |sigma| <= 100 and tol 1e-6 to 1e-14.  The step is the one whose
    T_2h, of alias frequency kappa = pi/h = v + w_max, has exp(-G) = tol/8,
    so |T_h - T_2h| is at most about half the target where the saddle
    estimate holds, and T_h itself is far below it.
    """
    p = 2 * n / (2 * n - 1)
    amp = (2 * n - 1) * (2 * n) ** -p
    lead = math.log(8.0 / tol)
    s = abs(float(sigma_max))
    v = max((lead / (amp * math.sin(math.pi / (4 * n - 2)))) ** (1.0 / p),
            math.sqrt(2.0 * lead / (amp * p * (p - 1))) * s ** (1.0 - 0.5 * p))
    z = complex(s, v)
    v -= (amp * (s ** p - (z ** p).real) - lead) / (amp * p * (z ** (p - 1)).imag)
    return math.pi / (v + abs(float(w_max)))


def _grid_nodes(h: float, X: float):
    """Trapezoid nodes t_j = j h, j = 0..2M-1, and their weights (h, and h/2
    at t_0), as (t, g) of shape (2, M): the even nodes in row 0, the odd
    ones in row 1.  M is the smallest count whose last even node (2M-2) h
    reaches X, so the step-2h sum on the even nodes is cut off at or past X
    as well."""
    half = max(1, int(math.ceil(0.5 * X / h)))
    t = h * np.arange(2 * half + 2).reshape(-1, 2).T
    g = np.full(t.shape, h)
    g[0, 0] = 0.5 * h
    return t, g


def _folded_amplitudes(n: int, sigma: np.ndarray, nodes):
    """(a_c, a_s) = (g (ep + em), g (ep - em)), ep, em = exp(-t^(2n) +- sigma t),
    at the nodes t and weights g of :func:`_grid_nodes`, each of shape
    (parities, len(sigma), M)."""
    t, g = nodes
    t2n = (t ** (2 * n))[:, None, :]
    st = sigma[:, None] * t[:, None, :]
    ep, em = np.exp(st - t2n), np.exp(-st - t2n)
    g = g[:, None, :]
    return g * (ep + em), g * (ep - em)


def _grid_floor(n: int, sigma: np.ndarray, w_max: float, t: np.ndarray,
                a_c: np.ndarray) -> np.ndarray:
    """Rounding floor of the folded grid sums at each sigma, for |w| <= w_max.

    ``t`` holds the N = 2M nodes of :func:`_grid_nodes`, shape (2, M), and
    ``a_c`` their :func:`_folded_amplitudes`.  With u = eps/2, first-order
    terms, the floats t and g taken as exact, and pow, exp, cos and sin each
    within 4 ulp (8u) of the exact function of their float argument:

    - the arguments -t^(2n) +- sigma t carry 8u t^(2n) from the power,
      u |sigma| t from the product and u (t^(2n) + |sigma| t) from the
      sum, so ep and em carry u (9 t^(2n) + 2 |sigma| t) + 8u of
      themselves, and a_c = g (ep + em), after the sum and the weight,
      u (9 t^(2n) + 2 |sigma| t + 10) of itself;
    - a_s = g (ep - em) cancels where sigma t is small, and the errors of
      ep and em need not cancel with it: its absolute error is the same
      multiple of a_c, not of |a_s|, plus 2u |a_s| <= 2u a_c.  At sigma = 0
      both arguments are the same float, so a_s and Im F are exactly 0;
    - the phase wt carries u |w| t, so cos and sin carry u |w| t + 8u
      absolute, and each product a_c cos, a_s sin, rounded once more, is
      within u (9 t^(2n) + (2 |sigma| + |w|) t + 19) a_c of its exact value;
    - the M-term dot product of each parity in any order (BLAS; a fused
      multiply-add only drops roundings) adds (M - 1) u of its sum of
      |terms| <= a_c, and the sum of the two parities u of the whole, so
      M u <= (N - 2) u in all.

    Adding the real and imaginary parts, |dR| + |dI| (which bounds the
    modulus of the error) is at most

        eps * sum_j a_c,j (9 t_j^(2n) + (2 |sigma| + w_max) t_j + N + 17),

    a sum over nodes that needs no product with the phases.  Amplitudes
    that underflow to subnormals add at most 2^-1074 each, far below it.
    """
    weights = np.stack([9.0 * t ** (2 * n) + (t.size + 17), t], axis=-1)   # (2, M, 2)
    s0, s1 = np.tensordot(a_c, weights, axes=([0, 2], [0, 1])).T
    return _EPS * (s0 + (2.0 * np.abs(sigma) + w_max) * s1)


def eval_transform_grid(n: int, sigma_axis: np.ndarray, w_axis: np.ndarray,
                        q: QuadratureSpec):
    """Vectorized transform evaluation on a (sigma, w) grid.

    The integrand is entire and decays faster than any exponential, so the
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Rev.
    56 (2014) 385-458, section 5).  The kernel is even, so on the nodes t_j
    = j h >= 0 of :func:`_grid_nodes`, one set for every row and column,

        T_h = sum_j g_j [(ep + em) cos(w t_j) + i (ep - em) sin(w t_j)],
        ep, em = exp(-t_j^(2n) +- sigma t_j),

    with weights g_j = h (h/2 at t_0).  A block of rows takes two real
    batched matrix products, a_c(rows x nodes) @ cos(nodes x w) and a_s @
    sin, each split into the even and the odd nodes (:func:`_grid_sums`):
    T_h is their sum and T_2h twice the even part, from the flops of one
    product.  The error estimate is |dR| + |dI| of T_h - T_2h (the odd part
    minus the even part), within sqrt(2) of its modulus, plus three times
    the tail bound at the last even node (the integral's tail and those of
    the two truncated sums), plus the floor of :func:`_grid_floor`.  Returns
    (re, im, err) arrays of shape (len(sigma_axis), len(w_axis)); im is
    exactly 0 on a sigma = 0 row.  Per-row tolerances are q.tol scaled by
    the row's magnitude scale.

    The step comes from the aliasing error at the grid's largest |sigma|
    and |w| (:func:`_grid_step`) and the cut-off is the truncation radius at
    the largest |sigma| and an eighth of the smallest tolerance.  While some
    point misses its tolerance with |T_h - T_2h| above half of it, the step
    halves and the grid is summed again, up to _GRID_HALVINGS times.  Points
    that still miss (their floor is above the tolerance, or the halvings
    ran out) report honest error estimates rather than raising.
    """
    n = check_kernel_index(n)
    sigma_axis = np.asarray(sigma_axis, dtype=float)
    w_axis = np.asarray(w_axis, dtype=float)
    sigma_max = float(np.abs(sigma_axis).max())
    w_max = float(np.abs(w_axis).max())
    tol = q.tol * magnitude_scale(n, sigma_axis)
    _guard_overflow(n, sigma_max)
    X = truncation_radius(n, sigma_max, 0, 0.125 * float(tol.min()))
    h = _grid_step(n, sigma_max, w_max, q.tol)
    for _ in range(_GRID_HALVINGS + 1):
        nodes = _grid_nodes(h, X)
        tail = 3.0 * _tail_bound(n, sigma_max, 0, float(nodes[0][0, -1]))
        R, I, E, short = _grid_sums(n, sigma_axis, w_axis, tol, tail, nodes)
        if not short:
            return R, I, E
        h *= 0.5
    return R, I, E


def _grid_sums(n: int, sigma_axis: np.ndarray, w_axis: np.ndarray, tol: np.ndarray,
               tail: float, nodes):
    """One pass of :func:`eval_transform_grid` on the trapezoid ``nodes``.

    Returns R, I and E, and whether some point has E above its row's
    ``tol`` and |T_h - T_2h| above half of it.
    """
    nw = w_axis.size
    w_max = float(np.abs(w_axis).max())
    t = nodes[0]
    phase = t[:, :, None] * w_axis                              # (2, M, nw)
    cos, sin = np.cos(phase), np.sin(phase)

    R = np.empty((sigma_axis.size, nw))
    I = np.empty_like(R)
    E = np.empty_like(R)
    short = False
    rows = max(1, _GRID_CHUNK_ELEMS // (2 * nw))
    for r0 in range(0, sigma_axis.size, rows):
        s = sigma_axis[r0:r0 + rows]
        a_c, a_s = _folded_amplitudes(n, s, nodes)
        c = np.matmul(a_c, cos)                                 # (2, rows, nw): even, odd
        si = np.matmul(a_s, sin)
        out = slice(r0, r0 + s.size)
        np.add(c[0], c[1], out=R[out])
        np.add(si[0], si[1], out=I[out])
        diff, diff_i = c[1], si[1]                              # |T_h - T_2h|, in place
        diff -= c[0]
        diff_i -= si[0]
        np.abs(diff, out=diff)
        np.abs(diff_i, out=diff_i)
        diff += diff_i
        np.add(diff, (tail + _grid_floor(n, s, w_max, t, a_c))[:, None], out=E[out])
        row_tol = np.broadcast_to(tol[out, None], diff.shape)
        over = E[out] > row_tol
        short = short or bool((diff[over] > 0.5 * row_tol[over]).any())
    return R, I, E, short


# Halvings of the saddle-line kernel's step before its estimate is reported
# as it stands.
_AXIS_HALVINGS = 6


def _saddle_line(n: int, w: np.ndarray):
    """(|w|, |w|^(1/(2n-1)), c, s0): the height c = r sin(pi/(4n-2)) of the
    line through the two upper saddles of -t^(2n) + i|w|t, at radius r =
    (|w|/2n)^(1/(2n-1)), and the real part s0 = -((2n-1)/2n)|w|c of that
    exponent there."""
    aw = np.abs(w)
    root = aw ** (1.0 / (2 * n - 1))
    c = (2 * n) ** (-1.0 / (2 * n - 1)) * math.sin(math.pi / (4 * n - 2)) * root
    return aw, root, c, (-(2 * n - 1) / (2 * n)) * aw * c


def _axis_step(n: int, aw: np.ndarray, root: np.ndarray, tol: float) -> np.ndarray:
    """Trapezoid step h of :func:`eval_axis` at |w| = ``aw``, from the
    aliasing error (``root`` = aw^(1/(2n-1)), from :func:`_saddle_line`).

    By Poisson summation, the trapezoid sum of exp(-t^(2n) + iwt) with step
    h on the line Im t = c is sum_k exp(-2 pi k c/h) F(w - 2 pi k/h).  In
    units of e^s0(w) its error is led by k = -1: exp(E(kappa)) m(w + kappa),
    with kappa = 2 pi/h, m = F e^-s0 the mantissa, and

        E(kappa) = s0(w + kappa) - s0(w) + kappa c(w)
                 = -a ((w + kappa)^p - w^p - p w^(p-1) kappa),

    s0(v) = -a v^p, p = 2n/(2n-1), since s0' = -c.  -E/a is convex and
    increasing in kappa, at most kappa^p (t -> t^(p-1) is subadditive) and
    at most p(p-1)/2 w^(p-2) kappa^2 ((w + s)^(p-2) decreases in s), so the
    larger of the kappa that bring those two to L/a lies at or left of the
    root of -E = L, and one Newton step from it lands at or right of the
    root (by convexity), at most 17% past it for n <= 6, w <= 1000 and tol
    1e-6 to 1e-14.  The step is the one whose T_2h, of alias frequency
    kappa = pi/h, has exp(E) = tol/8, so |T_h - T_2h| is at most about half
    the target where the estimate holds, and T_h itself is far below it.
    """
    p = 2 * n / (2 * n - 1)
    a = (2 * n - 1) / (2 * n) * (2 * n) ** (-1.0 / (2 * n - 1)) * math.sin(math.pi / (4 * n - 2))
    lead = math.log(8.0 / tol) / a
    kappa = np.maximum(lead ** (1.0 / p), math.sqrt(2.0 * lead / (p * (p - 1))) * root ** (n - 1))
    u = aw + kappa
    uq = u ** (1.0 / (2 * n - 1))
    kappa -= (u * uq - aw * root - p * root * kappa - lead) / (p * (uq - root))
    return math.pi / kappa


def _axis_cutoff(n: int, aw: np.ndarray, c: np.ndarray, tol: float) -> np.ndarray:
    """Cut-off X of :func:`eval_axis` at |w| = ``aw``, past which the
    integrand is below about tol/64 of e^s0.

    Past x with 2n atan(c/x) = acos(q), the real part of the scaled
    exponent is at most -q x^(2n) - |w|c/2n, so X is the smallest of the
    radii, for q = 1/4, 1/2 and 3/4, that clear that angle and make q
    X^(2n) reach max(1, ln(64/tol) + 2 - |w|c/2n).  Hence at any x >= X,
    cos(2n atan(c/x)) >= 1/4 and cos(2n atan(c/x)) x^(2n) >= 1, which
    :func:`_axis_tail` relies on.
    """
    q = np.array([[0.25], [0.5], [0.75]])
    need = np.maximum(math.log(64.0 / tol) + 2.0 - aw * c / (2 * n), 1.0)
    return np.maximum(c / np.tan(np.arccos(q) / (2 * n)), (need / q) ** (1.0 / (2 * n))).min(axis=0)


def _axis_tail(n: int, aw: np.ndarray, c: np.ndarray, X: np.ndarray,
               orders: tuple[int, ...]) -> np.ndarray:
    """Bound on the integral over x >= X of |(x + ic)^k g(x)|, for each k
    in ``orders``, shape (orders, points).

    With theta = atan(c/x) <= theta_X and q = cos(2n theta_X), Re (x +
    ic)^(2n) = |x + ic|^(2n) cos(2n theta) >= q x^(2n) and |x + ic| <= x /
    cos(theta_X) for x >= X, so the integrand is below exp(G(x) - |w|c/2n),
    G = k ln(x / cos theta_X) - q x^(2n).  G is concave, and past the
    cut-offs of :func:`_axis_cutoff` q >= 1/4 and q X^(2n) >= 1 > k/2n, so
    G'(X) < 0: the integral is below exp(G(X) - |w|c/2n)/|G'(X)|, and the
    bound decreases on [X, inf).
    """
    theta = np.arctan2(c, X)
    qx = np.cos(2 * n * theta) * X ** (2 * n)
    peak = np.exp(-qx - aw * c / (2 * n))
    slope = 2 * n * qx / X
    return np.array([peak / slope if k == 0 else peak * X / (np.cos(theta) * (slope - 1.0 / X))
                     for k in orders])


def _sum_nodes(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (nodes, points) array, each added top to bottom.

    numpy reduces the outer axis of a row-major array row by row, which is
    that order; a single column would be summed pairwise instead, so it
    goes through a cumulative sum.  Zero rows at the bottom of a column
    then leave its sum as it is.
    """
    if terms.shape[1] == 1:
        return np.cumsum(terms, axis=0)[-1]
    return terms.sum(axis=0)


def _axis_sums(n: int, aw: np.ndarray, c: np.ndarray, h: np.ndarray, J: np.ndarray,
               orders: tuple[int, ...]):
    """Trapezoid sums of :func:`eval_axis` on nodes x_j = j h, j = 0..J (J
    even, one per point): the mantissas at steps h and 2h and the rounding
    floor, each of shape (orders, points).

    The points share one (nodes, points) array of max(J) + 1 nodes, and a
    point's terms past its own J are zeroed.  Each point's sums run from
    x_0 outwards (:func:`_sum_nodes`), not pairwise, whose grouping would
    depend on the node count, so the zeros add nothing and each point's
    sums and floor are those it gets alone.

    The scaled terms are g_k = (x + ic)^k exp(rho + i phi), rho = -Re (x +
    ic)^(2n) - |w|c/2n, phi = |w| x - Im (x + ic)^(2n), weighted h/2 at x_0
    and h elsewhere, and the mirror -x adds (-1)^k conj(g_k), so the
    mantissa is 2 Re S_0 = 2 sum weight e^rho cos phi for k = 0 and -2 Im
    S_1 = -2 sum weight e^rho (x sin phi + c cos phi) for k = 1 (F' = i M_1).
    The floor, with u = eps/2, first-order terms, complex products within
    sqrt(5) u and exp, cos and sin within 4 ulp of the function of their
    float argument: x_j = fl(j h) moves a term by x |d ln g_k/dx| u <= (2n
    |t|^(2n) + |w| x + 1) u, t = x + ic; the n complex products of t^(2n)
    carry 2.3 n u |t|^(2n) into rho + i phi, and the product |w| x and the
    sums of rho and phi u (1.5 |t|^(2n) + 2 |w| x); s0 and |w|c/2n, rounded
    apart, disagree by up to 4.5 u |w| c; exp, cos, sin and the products
    by x, c and the weight add 30 u of |g_k|; a float64 sum of J + 1 terms
    adds J u of their absolute sum.  So each mantissa is within

        eps sum_j 2 weight_j |g_k(x_j)| ((3n + 1) |t_j|^(2n) + 2 |w| x_j + 3 |w| c + J + 16)

    of the exact sum on the nodes, in units of the computed e^s0.
    """
    j = np.arange(J.max() + 1)[:, None]
    x = j * h
    t2 = (x + 1j * c) ** 2
    t2n = t2
    for _ in range(n - 1):
        t2n = t2n * t2
    cw = aw * c
    amp = np.exp(-t2n.real - cw / (2 * n))
    amp[0] *= 0.5
    amp[j > J] = 0.0
    phase = aw * x - t2n.imag
    cos = np.cos(phase)
    relative = (3 * n + 1) * np.abs(t2n) + 2.0 * aw * x + (3.0 * cw + J + 16.0)
    weight = 2.0 * h
    fine, coarse, floor = (np.empty((len(orders), aw.size)) for _ in range(3))
    for i, k in enumerate(orders):
        if k:
            terms = -amp * (x * np.sin(phase) + c * cos)
            size = amp * np.abs(x + 1j * c)
        else:
            terms, size = amp * cos, amp
        fine[i] = weight * _sum_nodes(terms)
        coarse[i] = 2.0 * weight * _sum_nodes(terms[::2])
        floor[i] = _EPS * weight * _sum_nodes(size * relative)
    return fine, coarse, floor


def _axis_points(n: int, aw: np.ndarray, c: np.ndarray, h: np.ndarray, X: np.ndarray,
                 tol: float, orders: tuple[int, ...], halvings: int = _AXIS_HALVINGS):
    """Mantissas and error estimates of :func:`eval_axis` at steps ``h``:
    the points whose |T_h - T_2h| exceeds both tol/2 and their floor are
    taken again at half the step, up to ``halvings`` times."""
    J = 2 * np.ceil(0.5 * X / h).astype(int)
    fine, coarse, floor = _axis_sums(n, aw, c, h, J, orders)
    diff = np.abs(fine - coarse)
    err = diff + 6.0 * _axis_tail(n, aw, c, J * h, orders) + floor
    short = ((diff > 0.5 * tol) & (diff > floor)).any(axis=0)
    if halvings and short.any():
        fine[:, short], err[:, short] = _axis_points(n, aw[short], c[short], 0.5 * h[short],
                                                     X[short], tol, orders, halvings - 1)
    return fine, err


def eval_axis(n: int, w, tol: float, orders: tuple[int, ...] = (0,)):
    """F^(k)(w) on the real axis, for k in ``orders`` (0 and 1), as mantissas
    of e^s0: F^(k)(w) = m_k e^s0, with |m_k| of order 1 at every depth.

    The line of integration moves to Im t = c through the two upper saddles
    of -t^(2n) + iwt (:func:`_saddle_line`; de Bruijn, Duke Math. J. 17
    (1950) 197-226).  There the integrand scaled by e^-s0 has modulus at
    most 1 and F is no longer the small difference of O(1) terms it is on
    the real line.  The integrand is analytic and decays fast along that
    line, so the trapezoid rule converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56 (2014) 385-458).  Each point takes its own step
    (:func:`_axis_step`) and cut-off (:func:`_axis_cutoff`), and the nodes
    of even index give T_2h as well (:func:`_axis_sums`).  The points of a
    call share one node array, yet each is summed to its own cut-off, so a
    point's value and estimate are those it gets alone, to the bit.  The
    error estimate of a mantissa is |T_h - T_2h|, plus six times the tail
    bound beyond the cut-off (the integral's tails and those of the two
    truncated sums, both sides; :func:`_axis_tail`), plus the rounding
    floor.  The target is ``tol`` on the mantissa, that is tol e^s0 on F: a
    point's step halves while its |T_h - T_2h| exceeds both tol/2 and its
    floor, up to _AXIS_HALVINGS times (:func:`_axis_points`); an estimate
    that still misses ``tol`` is reported, not raised.

    ``w`` is a scalar or a 1-D array (F is even: m_1 changes sign with w).
    Returns (m, s0, err), m and err of shape (len(orders), points) and s0
    of shape (points,).
    """
    n = check_kernel_index(n)
    orders = tuple(orders)
    if not orders or not set(orders) <= {0, 1}:
        raise ValueError(f"axis orders must be 0 and/or 1, got {orders}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    w = np.array(w, dtype=float, ndmin=1)
    aw, root, c, s0 = _saddle_line(n, w)
    h = _axis_step(n, aw, root, tol)
    X = _axis_cutoff(n, aw, c, tol)
    m = np.empty((len(orders), w.size))
    err = np.empty_like(m)
    step = max(1, _POINT_CHUNK_ELEMS // int((X / h).max() + 3))
    for c0 in range(0, w.size, step):
        sl = slice(c0, c0 + step)
        m[:, sl], err[:, sl] = _axis_points(n, aw[sl], c[sl], h[sl], X[sl], tol, orders)
    if 1 in orders:
        m[orders.index(1)] *= np.sign(w)
    return m, s0, err
