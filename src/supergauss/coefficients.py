"""Series coefficients of the squared modulus, two independent ways.

L^2 = |F(w - i*sigma)|^2 expands as (1/2) sum over even powers sigma^(2m)/(2m)!
times a coefficient that depends only on w.  The coefficient is computed

  * by the Leibniz route: 2 (-1)^m sum_k C(2m,k) F^(k)(w) F^(2m-k)(-w),
    reduced by evenness to a signed binomial sum over derivatives at w; and
  * by a direct two-dimensional quadrature of the defining double integral,
    as an independent cross-check on a small domain.

Both are nonnegative within numerical error for every m and w when n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ToleranceNotMetError
from .transform import (
    EvalResult,
    PlanePoint,
    QuadratureSpec,
    _gl_rule,
    check_kernel_index,
    eval_derivatives,
    magnitude_scale,
    moment_scale,
)

_EPS = float(np.finfo(np.float64).eps)

LEIBNIZ_M_CAP = 8
DIRECT_M_CAP = 3
DIRECT_W_CAP = 8.0
_DIRECT_ORDER = 12      # Gauss-Legendre order of the direct route's panels
SERIES_REL_STOP = 1e-7
SERIES_M_CAP = 12
MONOTONE_SLACK = 1e-12

_METHODS = ("leibniz", "direct2d")


@dataclass(frozen=True)
class ACoeffSample:
    """One series coefficient sample; value >= -err_estimate is the Lemma-1
    invariant checked by the verify suite."""

    n: int
    m: int
    w: float
    value: float
    method: str
    err_estimate: float
    alarm: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")


def derivative_profile(n: int, w: float, k_max: int, q: QuadratureSpec) -> list[EvalResult]:
    """F^(k)(w) on the axis for k = 0..k_max, from one shared-node pass.

    Order k's tolerance is q.tol * moment_scale(n, 0, k), so requesting tol
    means tol relative to that moment's natural size.  Orders k > 16 feed
    Leibniz sums of m = ceil(k/2) > 8, which cancel more strongly, and are
    tightened further by 4^(ceil(k/2) - 8).
    """
    ks = range(k_max + 1)
    tol = [q.tol * moment_scale(n, 0.0, k) * 0.25 ** max(0, (k + 1) // 2 - LEIBNIZ_M_CAP)
           for k in ks]
    re, im, err = eval_derivatives(n, ks, 0.0, w, q, np.array(tol)[:, None],
                                   k_cap=max(k_max, 16))
    return [EvalResult(*x) for x in zip(re[:, 0].tolist(), im[:, 0].tolist(),
                                        err[:, 0].tolist())]


def _leibniz_from_profile(n: int, m: int, w: float,
                          profile: list[EvalResult]) -> ACoeffSample:
    # F^(j)(-w) = (-1)^j F^(j)(w); on the axis the values are real
    terms = []
    err = 0.0
    for k in range(2 * m + 1):
        sign = -1.0 if k % 2 else 1.0
        binom = math.comb(2 * m, k)
        fk, f2 = profile[k], profile[2 * m - k]
        terms.append(sign * binom * fk.re * f2.re)
        err += binom * (abs(fk.re) * f2.err_estimate
                        + abs(f2.re) * fk.err_estimate
                        + fk.err_estimate * f2.err_estimate)
    msign = -1.0 if m % 2 else 1.0
    value = 2.0 * msign * math.fsum(terms)
    err = 2.0 * err + 4.0 * _EPS * abs(value) * (2 * m + 1)
    alarm = err > 1e-3 * abs(value) + 1e-12
    return ACoeffSample(n=n, m=m, w=w, value=value, method="leibniz",
                        err_estimate=err, alarm=alarm)


def a_coeff(n: int, m_list: list[int], w: float, q: QuadratureSpec) -> list[ACoeffSample]:
    """Coefficients for every m in ``m_list`` at one w by the Leibniz route,
    all from one derivative profile.

    The binomial sum cancels more strongly as m grows, so m is capped at
    LEIBNIZ_M_CAP = 8; :func:`l2_series` reaches beyond it through
    :func:`derivative_profile`'s tightened tolerances.
    """
    n = check_kernel_index(n)
    top = max(m_list)
    if top > LEIBNIZ_M_CAP:
        raise ValueError(f"max m {top} above cap {LEIBNIZ_M_CAP}")
    profile = derivative_profile(n, w, 2 * top, q)
    return [_leibniz_from_profile(n, m, w, profile) for m in m_list]


def _direct_radius(n: int, m: int, tol: float) -> float:
    # Tail of the rotated double integral: outside |t|,|X| <= 2Y the exponent
    # obeys u^(2n) + v^(2n) >= 2 (s/2)^(2n) on s = |u|+|v| >= 2Y, so the tail
    # is below 8 * 2^(2m+2) * int_Y^inf y^(2m+1) exp(-2 y^(2n)) dy.
    pref = 8.0 * 2.0 ** (2 * m + 2)
    qmom = 2 * m + 1
    y = 1.5
    for _ in range(400):
        gp = -4 * n * y ** (2 * n - 1) + qmom / y
        if gp < 0:
            g = -2.0 * y ** (2 * n) + qmom * math.log(y)
            if pref * math.exp(g) / (-gp) <= tol:
                return 2.0 * y
        y *= 1.05
    raise ArithmeticError("2-D truncation radius search diverged")


def _composite_nodes(T: float, width_cap: float, order: int):
    count = max(2, int(math.ceil(2.0 * T / width_cap)))
    edges = np.linspace(-T, T, count + 1)
    x, gw = _gl_rule(order)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (centers[:, None] + halves[:, None] * x[None, :]).ravel()
    weights = (halves[:, None] * gw[None, :]).ravel()
    return nodes, weights


def a_coeff_direct(n: int, m: int, w: float, q2d: QuadratureSpec) -> ACoeffSample:
    """Coefficient by tensor-product quadrature of the double integral.

    Desk-scale cross-check: m <= 3 and |w| <= 8.  The imaginary part must
    vanish by X -> -X symmetry; its magnitude is folded into the error
    estimate as a diagnostic.  Panels take order-_DIRECT_ORDER (12) rules,
    checked against twice that order.
    """
    n = check_kernel_index(n)
    if m > DIRECT_M_CAP:
        raise ValueError(f"direct route capped at m <= {DIRECT_M_CAP}, got {m}")
    if abs(w) > DIRECT_W_CAP:
        raise ValueError(f"direct route capped at |w| <= {DIRECT_W_CAP}, got {w}")
    tol_tail = 0.5 * q2d.tol
    T = _direct_radius(n, m, tol_tail)
    xcap = min(0.5, math.pi / max(abs(w), 1e-30))

    def rule(order):
        tn, tw = _composite_nodes(T, 0.5, order)
        xn, xw = _composite_nodes(T, xcap, order)
        expo = -(((tn[:, None] + xn[None, :]) / 2) ** (2 * n)) \
               - (((tn[:, None] - xn[None, :]) / 2) ** (2 * n))
        E = np.exp(expo)
        left = tw * tn ** (2 * m)
        re = left @ E @ (xw * np.cos(w * xn))
        im = left @ E @ (xw * np.sin(w * xn))
        floor = float(np.abs(left) @ E @ np.abs(xw))
        return float(re), float(im), floor

    re1, im1, _ = rule(_DIRECT_ORDER)
    re2, im2, floor = rule(2 * _DIRECT_ORDER)
    err = math.hypot(re1 - re2, im1 - im2) + tol_tail + 8.0 * _EPS * floor + abs(im2)
    return ACoeffSample(n=n, m=m, w=w, value=re2, method="direct2d",
                        err_estimate=err, alarm=False)


class L2Series(NamedTuple):
    value: float
    truncation_flag: bool
    m_used: int
    err_estimate: float


def l2_series(n: int, p: PlanePoint, m_max: int, q: QuadratureSpec) -> L2Series:
    """Partial sum (1/2) sum_m sigma^(2m)/(2m)! A_2m(w) up to m_max <= 12.

    Stops early once a term t_m falls below SERIES_REL_STOP times the running
    sum; the truncation flag is set when the last computed term was still
    above that threshold at m_max.  Beyond m = 8 the orders 2m - 1 and 2m
    carry tightened tolerances; if any of them misses its tolerance, for
    whatever cause (at n = 1 they lie below the kernel's rounding floor from
    m = 12), the series ends at the last m it resolved, with the truncation
    flag set, instead of raising.  err_estimate covers the quadrature error
    of the terms summed and, after an early stop, the dropped tail as a
    geometric series in r = |t_m / t_(m-1)|: |t_m| r / (1 - r).  That is a
    bound wherever the term ratios decrease, as they do at n = 1.
    """
    n = check_kernel_index(n)
    if m_max > SERIES_M_CAP:
        raise ValueError(f"m_max={m_max} above cap {SERIES_M_CAP}")
    # one pass covers m <= 8.  Near the float64 floor (n = 1, tol 1e-14)
    # an order the sum never reads can miss its tolerance and fail that
    # pass; then, as for every m > 8 (whose tightened orders n = 1 misses
    # from k = 23), the profile grows one m at a time, so only the orders
    # read must meet theirs
    try:
        profile = derivative_profile(n, p.w, 2 * min(m_max, LEIBNIZ_M_CAP), q)
    except ToleranceNotMetError:
        profile = []
    sig2 = p.sigma * p.sigma
    total = 0.0
    err = 0.0
    truncated = True
    m_used = 0
    prev = math.inf
    for m in range(m_max + 1):
        if 2 * m >= len(profile):
            try:
                profile = derivative_profile(n, p.w, 2 * m, q)
            except ToleranceNotMetError:
                if m <= LEIBNIZ_M_CAP:
                    raise
                break
        s = _leibniz_from_profile(n, m, p.w, profile)
        factor = sig2 ** m / math.factorial(2 * m)
        term = 0.5 * factor * s.value
        total += term
        err += 0.5 * factor * s.err_estimate
        m_used = m
        if abs(term) <= SERIES_REL_STOP * abs(total):
            # a zero term stops the series, so prev is nonzero here
            r = abs(term / prev)
            err += abs(term) * r / (1.0 - r) if r < 1.0 else math.inf
            truncated = False
            break
        prev = term
    return L2Series(value=total, truncation_flag=truncated,
                    m_used=m_used, err_estimate=err)


def monotonicity_profile(n: int, w: float, sigma_grid: list[float], q: QuadratureSpec):
    """L^2 sampled by direct evaluation along ascending nonnegative sigma.

    Returns (samples, monotone_flag) where samples is a list of (sigma, L^2)
    and the flag is true iff successive differences are >= -MONOTONE_SLACK.
    """
    n = check_kernel_index(n)
    grid = list(sigma_grid)
    if any(s < 0 for s in grid) or any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("sigma grid must be nonnegative and ascending")
    re, im, _ = eval_derivatives(n, (0,), grid, w, q, q.tol * magnitude_scale(n, grid))
    vals = (re[0] * re[0] + im[0] * im[0]).tolist()
    samples = list(zip(grid, vals))
    monotone = all(b - a >= -MONOTONE_SLACK for a, b in zip(vals, vals[1:]))
    return samples, monotone
