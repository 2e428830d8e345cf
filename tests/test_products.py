import math

import pytest
from hypothesis import given, settings, strategies as st

from supergauss import PlanePoint, QuadratureSpec
from supergauss.coefficients import a_coeff
from supergauss.products import ProductSpec, leading_constant, partial_product, product_residual, t_table

Q = QuadratureSpec(tol=1e-12)


@pytest.fixture(scope="module")
def spec40(zero_pool_40):
    c = leading_constant(2, Q)
    return ProductSpec(n=2, c=c, zeros=tuple(zero_pool_40), N=40)


def test_leading_constant_values():
    assert leading_constant(1, Q) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert leading_constant(2, Q) == pytest.approx(math.gamma(0.25) / 2, rel=1e-12)
    for n in range(1, 7):
        assert leading_constant(n, Q) > 0


def test_partial_product_at_origin(spec40):
    r = partial_product(spec40, PlanePoint(0.0, 0.0))
    assert r.re == spec40.c
    assert r.im == 0.0


def test_partial_product_vanishes_at_pool_zeros(spec40):
    for rec in spec40.zeros[:5]:
        r = partial_product(spec40, PlanePoint(rec.alpha, 0.0))
        assert abs(r.value) <= r.err_estimate + 1e-13 * spec40.c


@settings(max_examples=30, deadline=None)
@given(w=st.floats(-6, 6), sigma=st.floats(-3, 3))
def test_partial_product_even(spec40, w, sigma):
    a = partial_product(spec40, PlanePoint(w, sigma))
    b = partial_product(spec40, PlanePoint(-w, -sigma))
    assert a.re == pytest.approx(b.re, abs=2 * (a.err_estimate + b.err_estimate) + 1e-300)
    assert a.im == pytest.approx(b.im, abs=2 * (a.err_estimate + b.err_estimate) + 1e-300)


def test_product_residual_shrinks_with_more_zeros(zero_pool_40):
    c = leading_constant(2, Q)
    w_grid = [0.0, 1.0, 2.0, 3.0]
    worsts = []
    for N in (10, 20, 40):
        spec = ProductSpec(n=2, c=c, zeros=tuple(zero_pool_40), N=N)
        _, worst = product_residual(2, spec, w_grid, Q)
        worsts.append(worst)
    assert worsts[0] >= worsts[1] >= worsts[2]


def test_product_residual_grows_toward_cutoff(zero_pool_40):
    # truncation hurts most near the last retained zero
    c = leading_constant(2, Q)
    spec = ProductSpec(n=2, c=c, zeros=tuple(zero_pool_40), N=10)
    rows, worst = product_residual(2, spec, [1.0, 5.0, 24.0], Q)
    assert rows[2][1] > rows[1][1] > rows[0][1]
    assert worst == rows[2][1]


def test_product_residual_zero_at_origin(zero_pool_40):
    c = leading_constant(2, Q)
    spec = ProductSpec(n=2, c=c, zeros=tuple(zero_pool_40), N=40)
    rows, _ = product_residual(2, spec, [0.0], Q)
    assert rows[0][1] <= 1e-10


def test_t_table_base_row(spec40):
    w = 1.3
    tt = t_table(spec40, w, 6)
    a1 = spec40.zeros[0].alpha
    c2 = spec40.c ** 2
    p1 = spec40.c * (1 - w * w / a1 ** 2)
    assert tt.values[0, 0] == pytest.approx(2 * p1 * p1, rel=1e-14)
    assert tt.values[0, 1] == pytest.approx(8 * c2 * (1 / a1 ** 2 + w * w / a1 ** 4), rel=1e-14)
    assert tt.values[0, 2] == pytest.approx(48 * c2 / a1 ** 4, rel=1e-14)
    assert (tt.values[0, 3:] == 0).all()


def test_t_table_row_equals_2psq(spec40):
    w = 2.2
    tt = t_table(spec40, w, 4)
    for K in (1, 5, 17, 40):
        sub = ProductSpec(n=2, c=spec40.c, zeros=spec40.zeros, N=K)
        pk = partial_product(sub, PlanePoint(w, 0.0)).re
        assert tt.values[K - 1, 0] == pytest.approx(2 * pk * pk, rel=1e-12)


def test_t_table_degree_bound(spec40):
    # derivatives of order above the polynomial degree vanish: T[K][m] = 0 for m > 2K
    tt = t_table(spec40, 0.7, 8)
    for K in range(1, 4):
        assert (tt.values[K - 1, 2 * K + 1:] == 0).all()


@settings(max_examples=25, deadline=None)
@given(w=st.floats(-10, 10))
def test_t_table_nonnegative(spec40, w):
    tt = t_table(spec40, w, 8)
    assert (tt.values >= 0).all()


def test_t_table_converges_to_coefficients(spec40):
    w = 1.0
    coeffs = a_coeff(2, [0, 1, 2, 3], w, Q)
    gaps = []
    for N in (10, 20, 40):
        sub = ProductSpec(n=2, c=spec40.c, zeros=spec40.zeros, N=N)
        row = t_table(sub, w, 3).values[N - 1]
        gaps.append([abs(row[m] - coeffs[m].value) for m in range(4)])
    for m in range(4):
        assert gaps[0][m] >= gaps[1][m] >= gaps[2][m]


def test_t_table_recursion_matches_finite_differences(spec40):
    # direct 2m-th u-derivative of 2 (-1)^m P(u+w) P(u-w) at u = 0
    w = 0.8
    sub = ProductSpec(n=2, c=spec40.c, zeros=spec40.zeros, N=6)
    tt = t_table(sub, w, 3)

    def d(u):
        a = partial_product(sub, PlanePoint(u + w, 0.0)).re
        b = partial_product(sub, PlanePoint(u - w, 0.0)).re
        return a * b

    h = 0.05
    # central stencils for the 2nd and 4th derivative
    d2 = (d(h) - 2 * d(0) + d(-h)) / h ** 2
    d4 = (d(2 * h) - 4 * d(h) + 6 * d(0) - 4 * d(-h) + d(-2 * h)) / h ** 4
    assert tt.values[5, 1] == pytest.approx(-2 * d2, rel=5e-3)
    assert tt.values[5, 2] == pytest.approx(2 * d4, rel=5e-2)


def test_product_spec_validation(zero_pool_40):
    with pytest.raises(ValueError):
        ProductSpec(n=2, c=-1.0, zeros=tuple(zero_pool_40), N=10)
    with pytest.raises(ValueError):
        ProductSpec(n=2, c=1.0, zeros=tuple(zero_pool_40), N=41)
    with pytest.raises(ValueError):
        ProductSpec(n=2, c=1.0, zeros=tuple(reversed(zero_pool_40)), N=10)


def test_t_table_cap():
    with pytest.raises(ValueError):
        t_table(ProductSpec(n=2, c=1.0, zeros=(), N=0), 0.0, 13)
