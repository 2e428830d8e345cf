import math

import numpy as np
import pytest

from supergauss import PlanePoint, QuadratureSpec
from supergauss.orbits import angular_momentum, angular_momentum_checks, orbit_trace

Q = QuadratureSpec(tol=1e-12)


def gaussian_radius(w, sigma):
    return math.sqrt(math.pi) * math.exp((sigma * sigma - w * w) / 4)


def test_orbit_on_axis_is_flat():
    tr = orbit_trace(2, 0.0, 1.0, (0.0, 3.0), 0.5, Q)
    for s in tr.samples:
        assert abs(s.I) <= 1e-10
        assert abs(s.J) <= 1e-10


def test_gaussian_orbit_radius_shrinks():
    tr = orbit_trace(1, 1.0, 1.0, (0.0, 4.0), 0.25, Q)
    radii = [math.hypot(s.R, s.I) for s in tr.samples]
    for s, r in zip(tr.samples, radii):
        assert r == pytest.approx(gaussian_radius(s.t, 1.0), rel=1e-9)
    assert all(b < a for a, b in zip(radii, radii[1:]))
    assert all(r > 0 for r in radii)


def test_larger_sigma_enlarges_orbit():
    small = orbit_trace(1, 0.5, 1.0, (0.0, 3.0), 0.5, Q)
    big = orbit_trace(1, 1.5, 1.0, (0.0, 3.0), 0.5, Q)
    for a, b in zip(small.samples, big.samples):
        assert math.hypot(b.R, b.I) > math.hypot(a.R, a.I)


def test_gaussian_angular_momentum_closed_form():
    # J = v pi (sigma/2) exp((sigma^2 - w^2)/2) for the n = 1 kernel
    for sigma in (0.5, 1.0, 2.0):
        for w in (0.0, 1.0, 3.0):
            got = angular_momentum(1, PlanePoint(w, sigma), 1.0, Q)
            want = math.pi * (sigma / 2) * math.exp((sigma * sigma - w * w) / 2)
            assert got == pytest.approx(want, rel=1e-9)


def test_angular_momentum_positive_off_axis():
    for sigma in (0.5, 1.0, 2.0):
        for w in np.arange(0.0, 8.01, 1.0):
            assert angular_momentum(2, PlanePoint(float(w), sigma), 1.0, Q) > 0


def test_angular_momentum_sign_flips_with_sigma():
    up = angular_momentum(2, PlanePoint(1.0, 0.7), 1.0, Q)
    dn = angular_momentum(2, PlanePoint(1.0, -0.7), 1.0, Q)
    assert up > 0 > dn
    assert up == pytest.approx(-dn, rel=1e-9)


def test_three_routes_agree():
    for sigma in (0.5, 2.0):
        for w in (0.0, 2.5, 6.0):
            c = angular_momentum_checks(2, PlanePoint(w, sigma), 1.0, Q)
            assert abs(c.direct - c.cauchy_riemann) <= c.direct_err + c.cauchy_riemann_err
            assert abs(c.direct - c.finite_difference) <= c.direct_err + c.finite_difference_err


def test_axis_momentum_within_budget():
    c = angular_momentum_checks(2, PlanePoint(2.0, 0.0), 1.0, Q)
    assert abs(c.direct) <= c.direct_err


def test_velocity_scales_j():
    a = angular_momentum(2, PlanePoint(1.0, 1.0), 1.0, Q)
    b = angular_momentum(2, PlanePoint(1.0, 1.0), 3.0, Q)
    assert b == pytest.approx(3 * a, rel=1e-12)


def test_orbit_validation():
    with pytest.raises(ValueError):
        orbit_trace(2, 1.0, -1.0, (0.0, 1.0), 0.1, Q)
    with pytest.raises(ValueError):
        orbit_trace(2, 1.0, 1.0, (0.0, 1.0), 0.0, Q)
    with pytest.raises(ValueError):
        angular_momentum(2, PlanePoint(0.0, 0.0), 0.0, Q)
    # an empty time range is an empty trace, not an empty batch error
    assert orbit_trace(2, 1.0, 1.0, (1.0, 0.0), 0.1, Q).samples == ()
