"""Partial products over zero pairs and the nonnegative derivative tables.

With c = F(0) > 0 and ascending positive zeros alpha_r, the transform is the
genus-zero product c * prod(1 - z^2/alpha_r^2).  Truncating after N pairs
gives P_N.  The table T[K][m] holds the (scaled, sign-corrected) even
u-derivatives of P_K(u+w) P_K(u-w) at u = 0; every entry is a sum of products
of nonnegative quantities, which is the computational heart of the
coefficient-positivity argument, and T[N][m] converges to the corresponding
series coefficient as N grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transform import (
    EvalResult,
    PlanePoint,
    QuadratureSpec,
    check_kernel_index,
    eval_derivatives,
    eval_transform,
)
from .zeros import ZeroRecord

_EPS = float(np.finfo(np.float64).eps)

M_CAP = 12


@dataclass(frozen=True)
class ProductSpec:
    """A truncated zero-pair product: leading constant and N pairs."""

    n: int
    c: float
    zeros: tuple[ZeroRecord, ...]
    N: int

    def __post_init__(self):
        check_kernel_index(self.n)
        if not self.c > 0:
            raise ValueError(f"leading constant must be positive, got {self.c}")
        if self.N > len(self.zeros):
            raise ValueError(f"N={self.N} exceeds available zeros ({len(self.zeros)})")
        alphas = [z.alpha for z in self.zeros]
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("zeros must be strictly ascending")

    @property
    def alphas(self) -> np.ndarray:
        return np.array([z.alpha for z in self.zeros[: self.N]])


@dataclass(frozen=True)
class TTable:
    """values[K-1][m] = T_{K,m}(w) for 1 <= K <= N, 0 <= m <= m_max."""

    spec: ProductSpec
    w: float
    m_max: int
    values: np.ndarray

    def row_scale(self, K: int) -> float:
        return float(np.max(np.abs(self.values[K - 1]))) or 1.0


def leading_constant(n: int, q: QuadratureSpec) -> float:
    """c = F(0) = integral of the bare kernel; always positive."""
    r = eval_transform(n, PlanePoint(0.0, 0.0), q)
    if not r.re > 0:
        raise ArithmeticError(f"kernel integral evaluated nonpositive: {r.re}")
    return r.re


def partial_product(spec: ProductSpec, p: PlanePoint) -> EvalResult:
    """P_N(z) = c * prod_{r<=N} (1 - z^2/alpha_r^2), exact up to rounding."""
    z = p.z
    acc = complex(spec.c, 0.0)
    for a in spec.alphas:
        acc *= 1.0 - (z / a) ** 2
    # one multiply and one divide per factor: ~4 ulp each, accumulated
    err = 8.0 * _EPS * (spec.N + 1) * abs(acc)
    return EvalResult(acc.real, acc.imag, err)


def product_residual(n: int, spec: ProductSpec, w_grid: list[float],
                     q: QuadratureSpec) -> tuple[list[tuple[float, float]], float]:
    """|F - P_N| on a grid of real w; returns (per-point table, max)."""
    check_kernel_index(n)
    re, im, _ = eval_derivatives(n, (0,), 0.0, w_grid, q)
    rows = [(w, abs(complex(f_re, f_im) - partial_product(spec, PlanePoint(w, 0.0)).value))
            for w, f_re, f_im in zip(w_grid, re[0].tolist(), im[0].tolist())]
    return rows, max((r for _, r in rows), default=0.0)


def t_table(spec: ProductSpec, w: float, m_max: int) -> TTable:
    """Fill T_{K,m}(w) from the K = 1 base cases and the three-term recursion.

    Base row (c^2 restored so that T_{K,0} = 2 P_K^2 holds identically):
        T_{1,0} = 2 c^2 (1 - w^2/a1^2)^2
        T_{1,1} = 8 c^2 (1/a1^2 + w^2/a1^4)
        T_{1,2} = 48 c^2 / a1^4,  T_{1,m} = 0 for m >= 3.
    Recursion in K (binomials C(2m,2), C(2m,4); absent entries count as 0):
        T_{K+1,m} = (1 - w^2/a^2)^2 T_{K,m}
                  + C(2m,2) * 4 (1/a^2 + w^2/a^4) T_{K,m-1}
                  + C(2m,4) * 24/a^4 T_{K,m-2}      with a = alpha_{K+1}.
    Every entry is a nonnegative combination, so the whole table is >= 0.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    if m_max > M_CAP:
        raise ValueError(f"m_max={m_max} above cap {M_CAP}")
    N = spec.N
    alphas = spec.alphas
    c2 = spec.c * spec.c
    vals = np.zeros((N, m_max + 1))
    a1 = alphas[0]
    vals[0, 0] = 2.0 * c2 * (1.0 - w * w / a1 ** 2) ** 2
    if m_max >= 1:
        vals[0, 1] = 8.0 * c2 * (1.0 / a1 ** 2 + w * w / a1 ** 4)
    if m_max >= 2:
        vals[0, 2] = 48.0 * c2 / a1 ** 4
    for K in range(1, N):
        a = alphas[K]
        even = (1.0 - w * w / a ** 2) ** 2
        mid = 4.0 * (1.0 / a ** 2 + w * w / a ** 4)
        quart = 24.0 / a ** 4
        for m in range(m_max + 1):
            t = even * vals[K - 1, m]
            if m >= 1:
                t += math.comb(2 * m, 2) * mid * vals[K - 1, m - 1]
            if m >= 2:
                t += math.comb(2 * m, 4) * quart * vals[K - 1, m - 2]
            vals[K, m] = t
    return TTable(spec=spec, w=w, m_max=m_max, values=vals)
