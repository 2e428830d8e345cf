"""Nodal lines of R and I over a (sigma, w) window.

The real and imaginary parts of the transform vanish on families of curves
that organize the zero geometry: R = 0 lines cross the real axis exactly at
the zeros (perpendicularly), I = 0 lines include both coordinate axes, and
for large sigma the R = 0 lines follow explicit power-law asymptotes.

Extraction is marching squares with linear interpolation on a sampled grid,
with the two ambiguous saddle cases disambiguated by one extra evaluation at
the cell center.  A line holds its vertices as one (m, 2) array of
(sigma, w), from extraction through refinement to the audit.  Vertices are
then polished by one-dimensional Newton steps along the field gradient,
which is available exactly through the first derivative of the transform
(d/dw = F', d/dsigma = -i F'); all vertices of a line step together on one
quadrature rule, with F and F' taken from the same nodes.  The I lines on
the axes are exact and are not refined.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonStallError, NotAZeroError, ToleranceNotMetError
from .transform import (
    PlanePoint,
    QuadratureSpec,
    _factored_panel_moments,
    _factored_tables,
    _point_moments,
    _Rule,
    _rotate,
    check_kernel_index,
    eval_derivatives,
    eval_transform,
    eval_transform_grid,
    magnitude_scale,
)
from .zeros import ZeroRecord

R_LINE = "R"
I_LINE = "I"

# Field values must clear this multiple of their error estimate to count as
# signed; smaller magnitudes are treated as nonpositive.
_SNAP_FACTOR = 4.0

_AXIS_TOL = 1e-9

# R segments per block of the intersection audit; a block's per-pair box
# test holds _AUDIT_CHUNK entries per I segment near the block.
_AUDIT_CHUNK = 128


@dataclass(frozen=True)
class GridField:
    """Transform values sampled on the tensor grid sigma_axis x w_axis."""

    n: int
    sigma_axis: np.ndarray
    w_axis: np.ndarray
    re: np.ndarray
    im: np.ndarray
    err: np.ndarray
    q: QuadratureSpec

    def __post_init__(self):
        for ax in (self.sigma_axis, self.w_axis):
            if ax.ndim != 1 or ax.size < 2 or not (np.diff(ax) > 0).all():
                raise ValueError("axes must be strictly ascending with >= 2 samples")
        if self.re.shape != (self.sigma_axis.size, self.w_axis.size):
            raise ValueError("value matrix does not match axes")

    def component(self, which: str) -> np.ndarray:
        if which == R_LINE:
            return self.re
        if which == I_LINE:
            return self.im
        raise ValueError(f"which must be {R_LINE!r} or {I_LINE!r}, got {which!r}")


@dataclass(frozen=True, eq=False)
class FieldLine:
    """A connected polyline on which R (or I) vanishes.

    ``vertices`` is a read-only (m, 2) float64 array of (sigma, w), m >= 2;
    the constructor takes any (m, 2) array-like and keeps its own copy.
    ``max_residual`` is the largest |field| / magnitude_scale along the
    polyline; it is infinite until the line has been refined.  Lines are
    equal when their family, vertices and residual are.
    """

    which: str
    vertices: np.ndarray
    max_residual: float = math.inf

    def __post_init__(self):
        if self.which not in (R_LINE, I_LINE):
            raise ValueError(f"which must be {R_LINE!r} or {I_LINE!r}")
        v = np.array(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("a polyline needs an (m, 2) array of vertices, m >= 2")
        if not np.isfinite(v).all():
            raise ValueError("polyline vertices must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def __eq__(self, other):
        if not isinstance(other, FieldLine):
            return NotImplemented
        return (self.which == other.which and self.max_residual == other.max_residual
                and np.array_equal(self.vertices, other.vertices))

    @property
    def points(self) -> tuple[PlanePoint, ...]:
        return tuple(PlanePoint(w=w, sigma=s) for s, w in self.vertices.tolist())

    def as_array(self) -> np.ndarray:
        return self.vertices


@dataclass(frozen=True)
class AsymptoteCurve:
    """Large-sigma branch w = (2n/sigma)^(1/(2n-1)) * (pi/2) * (1 + 2m)."""

    n: int
    branch: int
    samples: tuple[PlanePoint, ...]


def sample_field_grid(n: int, sigma_range: tuple[float, float],
                      w_range: tuple[float, float],
                      resolution: tuple[int, int],
                      q: QuadratureSpec) -> GridField:
    """Evaluate the transform at every node of a regular grid."""
    n = check_kernel_index(n)
    ns, nw = resolution
    if ns < 2 or nw < 2:
        raise ValueError(f"resolution must be at least 2x2, got {resolution}")
    if not np.isfinite([*sigma_range, *w_range]).all():
        raise ValueError(f"window must be finite, got {sigma_range} x {w_range}")
    sigma_axis = np.linspace(sigma_range[0], sigma_range[1], ns)
    w_axis = np.linspace(w_range[0], w_range[1], nw)
    re, im, err = eval_transform_grid(n, sigma_axis, w_axis, q)
    return GridField(n=n, sigma_axis=sigma_axis, w_axis=w_axis,
                     re=re, im=im, err=err, q=q)


# marching-squares connectivity; corner bits: c0=(i,j) c1=(i+1,j) c2=(i+1,j+1)
# c3=(i,j+1); edges: 0 = c0-c1, 1 = c1-c2, 2 = c3-c2, 3 = c0-c3
_CASES: dict[int, list[tuple[int, int]]] = {
    0: [], 15: [],
    1: [(0, 3)], 14: [(0, 3)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
}
# saddles keyed by (case, center_positive)
_SADDLES: dict[tuple[int, bool], list[tuple[int, int]]] = {
    (5, True): [(0, 1), (2, 3)],
    (5, False): [(0, 3), (1, 2)],
    (10, True): [(0, 3), (1, 2)],
    (10, False): [(0, 1), (2, 3)],
}


def _pair_table() -> np.ndarray:
    """Edge pairs of every cell code as a (32, 2, 2) array, -1 where a cell
    has no second segment.  The code is the case, plus 16 for a saddle whose
    center is positive."""
    table = np.full((32, 2, 2), -1)
    for bits, pairs in _CASES.items():
        table[bits, :len(pairs)] = np.reshape(pairs, (-1, 2))
    for (bits, center_positive), pairs in _SADDLES.items():
        table[bits + 16 * center_positive] = pairs
    return table


_PAIRS = _pair_table()


def _cell_codes(grid: GridField, which: str, pos: np.ndarray):
    """(i, j, code) of every cell the zero set crosses, in row-major order.

    The two saddle cases read the sign of the field at their cell centers,
    each evaluated alone at tolerance q.tol * magnitude_scale(n, sigma).
    """
    p = pos.astype(np.uint8)
    bits = p[:-1, :-1] | (p[1:, :-1] << 1) | (p[1:, 1:] << 2) | (p[:-1, 1:] << 3)
    ci, cj = np.nonzero((bits != 0) & (bits != 15))
    code = bits[ci, cj].astype(np.int64)
    sig, ws = grid.sigma_axis, grid.w_axis
    for k in np.flatnonzero((code == 5) | (code == 10)).tolist():
        i, j = ci[k], cj[k]
        center = PlanePoint(0.5 * (ws[j] + ws[j + 1]), 0.5 * (sig[i] + sig[i + 1]))
        qc = grid.q.scaled(magnitude_scale(grid.n, center.sigma))
        cv = eval_transform(grid.n, center, qc)
        cval = cv.re if which == R_LINE else cv.im
        code[k] += 16 * (cval > _SNAP_FACTOR * cv.err_estimate)
    return ci, cj, code


def extract_field_lines(grid: GridField, which: str) -> list[FieldLine]:
    """Marching-squares extraction of the zero set of R or I.

    Grid values below their own error estimate are treated as nonpositive, so
    quadrature noise cannot spawn contours; the exactly-zero axis lines of the
    I component (w = 0, and sigma = 0 where I vanishes identically) are added
    analytically when the window contains them.

    Cells are classified with array operations, and only the cells with a
    crossing go further.  Every grid edge has an integer id: the sigma-step
    edge from (i, j) to (i+1, j) is i * nw + j, the w-step edge from (i, j)
    to (i, j+1) is (ns-1) * nw + i * (nw-1) + j, so ids sort as the edges'
    (direction, i, j).  A crossing is interpolated linearly along its edge.
    """
    vals = grid.component(which)
    pos = vals > _SNAP_FACTOR * grid.err
    sig, ws = grid.sigma_axis, grid.w_axis
    nw = ws.size
    w_base = (sig.size - 1) * nw

    ci, cj, code = _cell_codes(grid, which, pos)
    table = _PAIRS[code]
    cell, slot = np.nonzero(table[:, :, 0] >= 0)
    pairs = table[cell, slot]                                 # (segments, 2) edges
    i, j = ci[cell, None], cj[cell, None]
    segments = np.where(pairs % 2 == 0,
                        i * nw + j + (pairs == 2),
                        w_base + (i + (pairs == 1)) * (nw - 1) + j)

    ids = np.sort(segments, axis=None)
    ids = ids[np.diff(ids, prepend=-1) > 0]
    s_edge = ids < w_base
    i0 = np.where(s_edge, ids // nw, (ids - w_base) // (nw - 1))
    j0 = np.where(s_edge, ids % nw, (ids - w_base) % (nw - 1))
    i1, j1 = i0 + s_edge, j0 + ~s_edge
    v0, v1 = vals[i0, j0], vals[i1, j1]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.clip(v0 / (v0 - v1), 0.0, 1.0)
    crossings = np.column_stack([sig[i0] + theta * (sig[i1] - sig[i0]),
                                 ws[j0] + theta * (ws[j1] - ws[j0])])

    lines = [FieldLine(which=which, vertices=crossings[chain])
             for chain in _link_segments(np.searchsorted(ids, segments))]
    lines.extend(_axis_lines(grid, which))
    return lines


def _link_segments(segments: np.ndarray) -> list[list[int]]:
    """Chains of node ids joined by the (a, b) rows of ``segments``.

    Every node has one or two neighbours (a grid edge borders at most two
    cells, and a cell uses each edge once).  Open chains come first, each
    walked from its smaller end, then closed loops, each from its smallest
    node toward its smaller neighbour; both in order of their first node.

    The neighbours come from sorting the segment endpoints: ``lo`` and
    ``hi`` hold each node's smaller and larger neighbour (-1 for none), and
    a walk follows, at every node, the neighbour it did not come from, to
    the chain's far end or back to the loop's first node.
    """
    if segments.size == 0:
        return []
    count = int(segments.max()) + 1
    node = np.concatenate([segments[:, 0], segments[:, 1]])
    nbr = np.concatenate([segments[:, 1], segments[:, 0]])
    order = np.lexsort((nbr, node))
    node, nbr = node[order], nbr[order]
    degree = np.bincount(node, minlength=count)
    first = np.searchsorted(node, np.arange(count))
    lo = nbr[first].tolist()
    hi = np.where(degree == 2, nbr[np.minimum(first + 1, nbr.size - 1)], -1).tolist()

    def walk(start: int) -> list[int]:
        chain, prev, cur = [start], start, lo[start]
        while cur >= 0 and cur != start:
            chain.append(cur)
            prev, cur = cur, (hi[cur] if lo[cur] == prev else lo[cur])
        return chain

    chains = []
    far = bytearray(count)                          # far ends of walked chains
    for start in np.flatnonzero(degree == 1).tolist():
        if not far[start]:
            chains.append(walk(start))
            far[chains[-1][-1]] = 1
    # what no open chain reached lies on loops
    rest = np.ones(count, dtype=bool)
    if chains:
        rest[np.concatenate(chains)] = False
    for start in np.flatnonzero(rest).tolist():
        if rest[start]:
            chains.append(walk(start))
            rest[chains[-1]] = False
    return chains


def _axis_lines(grid: GridField, which: str) -> list[FieldLine]:
    if which != I_LINE:
        return []
    out = []
    sig, ws = grid.sigma_axis, grid.w_axis
    if ws[0] <= 0.0 <= ws[-1]:
        out.append(FieldLine(which=I_LINE, vertices=np.column_stack([sig, np.zeros_like(sig)]),
                             max_residual=0.0))
    if sig[0] <= 0.0 <= sig[-1]:
        out.append(FieldLine(which=I_LINE, vertices=np.column_stack([np.zeros_like(ws), ws]),
                             max_residual=0.0))
    return out


def _on_axis(line: FieldLine) -> bool:
    """Whether ``line`` is an I line on w = 0 or sigma = 0, where I vanishes
    identically."""
    v = line.vertices
    return line.which == I_LINE and bool((v[:, 1] == 0.0).all() or (v[:, 0] == 0.0).all())


def _gradient_from_derivative(which: str, d_re, d_im):
    """(d/dsigma, d/dw) of the chosen component, from F' = d_re + i d_im."""
    if which == R_LINE:
        return d_im, d_re       # R_sigma = Im F', R_w = Re F'
    return -d_re, d_im          # I_sigma = -Re F', I_w = Im F'


def refine_field_line(n: int, line: FieldLine, q: QuadratureSpec,
                      max_steps: int = 12) -> FieldLine:
    """Newton-polish every vertex along the local field gradient.

    An I line on an axis is exact (I vanishes identically on w = 0 and on
    sigma = 0) and comes back unchanged, with max_residual 0.  Otherwise all
    vertices step together on one rule (:class:`transform._Rule`) sized on
    all of them, with the point-independent tables of
    :func:`transform._factored_panel_moments` built once: each pass
    evaluates F and F' (the t^1 moment on the same nodes) at the vertices
    still moving, and drops those that converged; a pass whose points need
    finer panels splits the rule for the passes after it.
    Convergence target is |field| <= q.tol * magnitude_scale(n, sigma); the
    reported max_residual is the worst |field| / scale over the returned
    vertices, so the last of the ``max_steps`` passes only measures.  An
    estimate above that tolerance raises ToleranceNotMetError.
    A vanishing gradient off the axis is impossible for these transforms (the
    derivative would need an off-axis zero), so it raises NewtonStallError.
    """
    n = check_kernel_index(n)
    if _on_axis(line):
        return dataclasses.replace(line, max_residual=0.0)
    sigma, w = line.vertices.T.copy()
    abs_sigma = np.abs(sigma)
    rule = _Rule(n, float(abs_sigma.max()), float(np.abs(w).max()), (0, 1),
                 q.tol * magnitude_scale(n, float(abs_sigma.min())), _factored_tables)
    resid = np.full(sigma.size, math.inf)
    active = np.arange(sigma.size)
    for step in range(max_steps):
        if active.size == 0:
            break
        s, ws = sigma[active], w[active]
        scale = magnitude_scale(n, s)
        tol = q.tol * scale
        re, im, err = _point_moments(n, s, ws, tol, (0, 1), _factored_panel_moments, rule)
        g = re[0] if line.which == R_LINE else im[0]
        resid[active] = np.abs(g) / scale
        moving = np.abs(g) > tol
        short = (err[0] > tol) | (moving & (err[1] > tol))
        if short.any():
            i = int(np.argmax(short))
            raise ToleranceNotMetError(
                f"shared-node error estimates {err[0, i]:.3e} (F), {err[1, i]:.3e} (F') "
                f"above tol {tol[i]:.3e} (n={n}, sigma={s[i]}, w={ws[i]})",
                re=float(re[0, i]), im=float(im[0, i]), err_estimate=float(err[0, i]))
        if step == max_steps - 1:
            break
        gs, gw = _gradient_from_derivative(line.which, *_rotate(1, re[1], im[1]))
        norm2 = gs * gs + gw * gw
        stalled = moving & (np.sqrt(norm2) <= np.maximum(10 * err[1], 1e-13 * scale))
        off_axis = stalled & (np.abs(s) > _AXIS_TOL)
        if off_axis.any():
            i = int(np.argmax(off_axis))
            raise NewtonStallError(
                f"field gradient vanished at (sigma={s[i]}, w={ws[i]}); "
                "an off-axis critical point would contradict the zero geometry")
        moving &= ~stalled
        dx = g[moving] / norm2[moving]
        active = active[moving]
        sigma[active] -= dx * gs[moving]
        w[active] -= dx * gw[moving]
    return FieldLine(which=line.which, vertices=np.column_stack([sigma, w]),
                     max_residual=float(resid.max()))


def asymptote_curves(n: int, branches: list[int],
                     sigma_samples: list[float]) -> list[AsymptoteCurve]:
    """Pure formula evaluation of the large-sigma branches."""
    n = check_kernel_index(n)
    if any(s <= 0 for s in sigma_samples):
        raise ValueError("sigma samples must be positive")
    curves = []
    for m in branches:
        pts = tuple(PlanePoint(w=asymptote_w(n, m, s), sigma=float(s))
                    for s in sigma_samples)
        curves.append(AsymptoteCurve(n=n, branch=m, samples=pts))
    return curves


def asymptote_w(n: int, branch: int, sigma: float) -> float:
    sigma = float(sigma)
    return (2.0 * n / sigma) ** (1.0 / (2 * n - 1)) * (math.pi / 2.0) * (1 + 2 * branch)


def crossing_gradient(n: int, zero: ZeroRecord, q: QuadratureSpec) -> float:
    """dw/dsigma of the R = 0 line where it crosses the axis at a zero.

    Equals -R_sigma / R_w there; R_sigma vanishes by symmetry while R_w is
    the (nonzero) derivative at the simple zero, so the crossing is
    perpendicular to the w axis.
    """
    n = check_kernel_index(n)
    if zero.n != n:
        raise NotAZeroError(f"zero record is for n={zero.n}, not n={n}")
    re, im, err = eval_derivatives(n, (0, 1), 0.0, zero.alpha, q)
    if abs(re[0, 0]) > max(10 * err[0, 0], q.tol):
        raise NotAZeroError(f"|F({zero.alpha})| = {abs(re[0, 0]):.3e}: not a zero")
    r_sigma, r_w = _gradient_from_derivative(R_LINE, float(re[1, 0]), float(im[1, 0]))
    if r_w == 0.0:
        raise NotAZeroError(f"derivative vanished at {zero.alpha}: not a simple zero")
    return -r_sigma / r_w


def _segment_arrays(lines: list[FieldLine]):
    starts, ends = [], []
    for ln in lines:
        starts.append(ln.vertices[:-1])
        ends.append(ln.vertices[1:])
    if not starts:
        return np.zeros((0, 2)), np.zeros((0, 2))
    return np.vstack(starts), np.vstack(ends)


def _dot(u, v):
    """Dot product over a last axis of length 2."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def _segment_min_distances(a0, a1, b0, b1):
    """Minimum distance between the segments [a0, a1] and [b0, b1].

    Standard clamped closest-point computation, elementwise over any
    broadcast leading shape of the (..., 2) endpoint arrays; returns (dist,
    midpoint) arrays of shapes (...) and (..., 2).
    """
    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    c = _dot(d1, r)
    b = _dot(d1, d2)
    denom = a * e - b * b
    s = np.where(denom > 1e-30, (b * f - c * e) / np.where(denom > 1e-30, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 1e-30, (b * s + f) / np.where(e > 1e-30, e, 1.0), 0.0)
    # re-clamp s for t at the boundary, then t once more
    t_cl = np.clip(t, 0.0, 1.0)
    need = t_cl != t
    s = np.where(need & (a > 1e-30), np.clip((b * t_cl - c) / np.where(a > 1e-30, a, 1.0), 0.0, 1.0), s)
    t = t_cl
    pa = a0 + s[..., None] * d1
    pb = b0 + t[..., None] * d2
    diff = pa - pb
    dist = np.sqrt(_dot(diff, diff))
    return dist, 0.5 * (pa + pb)


def intersection_audit(r_lines: list[FieldLine], i_lines: list[FieldLine],
                       proximity_tol: float) -> list[PlanePoint]:
    """Near-intersections between the two refined families.

    Every pair of polyline segments is tested; pairs closer than the
    proximity tolerance contribute their midpoint, in order of (R segment,
    I segment).  R segments are taken in blocks of 128; each block is tested
    only against the I segments whose bounding boxes come within the
    tolerance of the block's own, and within those only the pairs whose
    own boxes come within the tolerance reach the distance computation.  A
    clean geometry returns points only on the axis |sigma| <= tolerance (or
    none at all when the window excludes the axis).
    """
    a0, a1 = _segment_arrays(r_lines)
    b0, b1 = _segment_arrays(i_lines)
    if a0.size == 0 or b0.size == 0:
        return []
    a_lo = np.minimum(a0, a1) - proximity_tol
    a_hi = np.maximum(a0, a1) + proximity_tol
    b_lo, b_hi = np.minimum(b0, b1), np.maximum(b0, b1)
    found = []
    for ia in range(0, a0.shape[0], _AUDIT_CHUNK):
        lo, hi = a_lo[ia:ia + _AUDIT_CHUNK], a_hi[ia:ia + _AUDIT_CHUNK]
        near = np.flatnonzero(((b_hi >= lo.min(axis=0)) & (b_lo <= hi.max(axis=0))).all(axis=1))
        nlo, nhi = b_lo[near].T, b_hi[near].T
        i, j = np.nonzero((nhi[0] >= lo[:, :1]) & (nlo[0] <= hi[:, :1])
                          & (nhi[1] >= lo[:, 1:]) & (nlo[1] <= hi[:, 1:]))
        i, j = ia + i, near[j]
        dist, mid = _segment_min_distances(a0[i], a1[i], b0[j], b1[j])
        found.append(mid[dist < proximity_tol])
    return [PlanePoint(w=w, sigma=sigma) for sigma, w in np.concatenate(found).tolist()]
