"""Parametric (R, I) orbits at constant sigma and their angular momentum.

Sweeping w = v*t at fixed sigma traces a spiral in the (R, I) plane.  With
unit mass the angular momentum of the moving point is

    J = v * (R * dI/dw - I * dR/dw),

which by the Cauchy-Riemann relations equals v * (R * dR/dsigma + I *
dI/dsigma) = (v/2) * d(L^2)/dsigma, so positivity of J for sigma > 0 is the
monotone growth of the modulus away from the axis, observable sample by
sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import (
    PlanePoint,
    QuadratureSpec,
    check_kernel_index,
    eval_derivatives,
    magnitude_scale,
)


@dataclass(frozen=True)
class OrbitSample:
    t: float
    R: float
    I: float
    J: float


@dataclass(frozen=True)
class OrbitTrace:
    n: int
    sigma: float
    v: float
    samples: tuple[OrbitSample, ...]

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError(f"sweep velocity must be positive, got {self.v}")
        ts = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("samples must be strictly ordered in t")


@dataclass(frozen=True)
class AngularMomentumChecks:
    """The three routes to J and their error budgets."""

    direct: float
    direct_err: float
    cauchy_riemann: float
    cauchy_riemann_err: float
    finite_difference: float
    finite_difference_err: float


def orbit_trace(n: int, sigma: float, v: float, t_range: tuple[float, float],
                dt: float, q: QuadratureSpec) -> OrbitTrace:
    """Sample the transform along w = v*t and attach J at every sample."""
    n = check_kernel_index(n)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if v <= 0:
        raise ValueError(f"v must be positive, got {v}")
    ts = []
    t = t_range[0]
    while t <= t_range[1] + 1e-12 * max(1.0, abs(dt)):
        ts.append(t)
        t += dt
    re, im, _ = eval_derivatives(n, (0, 1), sigma, v * np.array(ts), q,
                                 q.tol * magnitude_scale(n, sigma))
    J = v * (re[0] * im[1] - im[0] * re[1])
    samples = map(OrbitSample, ts, re[0].tolist(), im[0].tolist(), J.tolist())
    return OrbitTrace(n=n, sigma=sigma, v=v, samples=tuple(samples))


def angular_momentum(n: int, p: PlanePoint, v: float, q: QuadratureSpec) -> float:
    """J = v (R I_w - I R_w) at one point, unit mass."""
    n = check_kernel_index(n)
    if v <= 0:
        raise ValueError(f"v must be positive, got {v}")
    re, im, _ = eval_derivatives(n, (0, 1), p.sigma, p.w, q, q.tol * magnitude_scale(n, p.sigma))
    return float(v * (re[0, 0] * im[1, 0] - im[0, 0] * re[1, 0]))


def angular_momentum_checks(n: int, p: PlanePoint, v: float,
                            q: QuadratureSpec) -> AngularMomentumChecks:
    """Compute J three ways with matched error budgets.

    direct:          v (R I_w - I R_w) with derivatives from F'
    cauchy_riemann:  v (R R_sigma + I I_sigma), using R_sigma + i I_sigma = -i F'
    finite diff:     (v/2) d(L^2)/dsigma by central differences at steps
                     h = 1e-3 and h/2,
                     with a Richardson-style error estimate.
    """
    n = check_kernel_index(n)
    h = 1e-3
    # F and F' at p, then F at the four difference points, in one pass; F'
    # is not read there, so its tolerance there is inf
    sigmas = p.sigma + np.array([0.0, h, -h, h / 2, -h / 2])
    tol = q.tol * magnitude_scale(n, sigmas) * np.ones((2, 1))
    tol[1, 1:] = np.inf
    re, im, err = eval_derivatives(n, (0, 1), sigmas, p.w, q, tol)
    (R, Rw), (I, Iw), (e, e_w) = re[:, 0].tolist(), im[:, 0].tolist(), err[:, 0].tolist()
    direct = v * (R * Iw - I * Rw)
    direct_err = v * (abs(R) * e_w + abs(Iw) * e + abs(I) * e_w + abs(Rw) * e)

    r_sigma, i_sigma = Iw, -Rw            # -i F' componentwise
    cr = v * (R * r_sigma + I * i_sigma)
    cr_err = direct_err

    modulus = np.hypot(re[0], im[0])
    l2 = (re[0] * re[0] + im[0] * im[0]).tolist()
    l2_err = (2.0 * modulus * err[0] + err[0] ** 2).tolist()

    def central(up, dn, hh):
        return (l2[up] - l2[dn]) / (2 * hh), (l2_err[up] + l2_err[dn]) / (2 * hh)

    d1, e1 = central(1, 2, h)
    d2, e2 = central(3, 4, h / 2)
    fd = 0.5 * v * d2
    # central differences have O(h^2) bias: |d2 - true| ~ |d1 - d2| / 3
    fd_err = 0.5 * v * (abs(d1 - d2) / 3.0 * 2.0 + e2)
    return AngularMomentumChecks(direct=direct, direct_err=direct_err,
                                 cauchy_riemann=cr, cauchy_riemann_err=cr_err,
                                 finite_difference=fd, finite_difference_err=fd_err)
