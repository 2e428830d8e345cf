import math

import numpy as np
import pytest

from supergauss import PlanePoint, QuadratureSpec, closed_form_gaussian
from supergauss.errors import NotAZeroError
from supergauss.fieldlines import (
    FieldLine,
    I_LINE,
    R_LINE,
    asymptote_curves,
    asymptote_w,
    crossing_gradient,
    extract_field_lines,
    intersection_audit,
    refine_field_line,
    sample_field_grid,
)
from supergauss.zeros import ZeroRecord

Q = QuadratureSpec(tol=1e-9)


@pytest.fixture(scope="module")
def grid_n1():
    return sample_field_grid(1, (0.5, 4.0), (0.2, 6.5), (90, 120), Q)


@pytest.fixture(scope="module")
def lines_n1(grid_n1):
    r = [refine_field_line(1, l, Q) for l in extract_field_lines(grid_n1, R_LINE)]
    i = [refine_field_line(1, l, Q) for l in extract_field_lines(grid_n1, I_LINE)]
    return r, i


def test_grid_matches_closed_form(grid_n1):
    for ii in (0, 45, 89):
        for jj in (0, 60, 119):
            want = closed_form_gaussian(PlanePoint(float(grid_n1.w_axis[jj]),
                                                   float(grid_n1.sigma_axis[ii])))
            got = complex(grid_n1.re[ii, jj], grid_n1.im[ii, jj])
            assert abs(got - want.value) <= grid_n1.err[ii, jj]


def test_grid_realness_on_axis():
    g = sample_field_grid(2, (0.0, 1.0), (0.0, 3.0), (5, 7), Q)
    assert (np.abs(g.im[0]) <= g.err[0]).all()


def test_grid_reflection_symmetry():
    g = sample_field_grid(2, (0.3, 1.0), (-2.0, 2.0), (4, 9), Q)
    # w -> -w mirrors R and negates I
    assert np.allclose(g.re, g.re[:, ::-1], atol=1e-8)
    assert np.allclose(g.im, -g.im[:, ::-1], atol=1e-8)


def test_gaussian_r_lines_follow_hyperbolas(lines_n1):
    r_lines, _ = lines_n1
    assert len(r_lines) >= 3
    for line in r_lines:
        assert line.max_residual <= Q.tol
        for p in line.points:
            k = p.w * p.sigma / math.pi
            assert abs(k - (2 * round((k - 1) / 2) + 1)) < 1e-5


def test_gaussian_i_lines_follow_even_hyperbolas(lines_n1):
    _, i_lines = lines_n1
    for line in i_lines:
        for p in line.points:
            k = p.w * p.sigma / math.pi
            assert abs(k - 2 * round(k / 2)) < 1e-5


def test_i_lines_include_axes():
    g = sample_field_grid(2, (0.0, 2.0), (-1.0, 3.0), (12, 16), Q)
    lines = extract_field_lines(g, I_LINE)
    has_w_axis = any(all(p.w == 0.0 for p in l.points) for l in lines)
    has_sigma_axis = any(all(p.sigma == 0.0 for p in l.points) for l in lines)
    assert has_w_axis and has_sigma_axis


def test_r_lines_cross_axis_at_zeros(scanned_zeros_n2):
    g = sample_field_grid(2, (0.0, 1.5), (2.0, 11.0), (40, 160), Q)
    lines = [refine_field_line(2, l, Q) for l in extract_field_lines(g, R_LINE)]
    # every line that reaches the bottom rows must pass near some zero
    axis_zeros = [r.alpha for r in scanned_zeros_n2]
    reached = []
    for line in lines:
        low = min(line.points, key=lambda p: p.sigma)
        if low.sigma < 0.1:
            nearest = min(axis_zeros, key=lambda a: abs(a - low.w))
            assert abs(nearest - low.w) < 0.05
            reached.append(nearest)
    assert len(set(round(a, 3) for a in reached)) >= 3


def test_refinement_residuals(lines_n1):
    r_lines, i_lines = lines_n1
    for line in r_lines + i_lines:
        assert line.max_residual <= Q.tol


def test_asymptote_samples():
    curves = asymptote_curves(2, [0, 1], [4.0, 8.0, 16.0])
    assert asymptote_w(2, 0, 4.0) == pytest.approx(math.pi / 2)
    assert asymptote_w(2, 1, 4.0) == pytest.approx(3 * math.pi / 2)
    for c in curves:
        ws = [p.w for p in c.samples]
        assert all(b < a for a, b in zip(ws, ws[1:]))


@pytest.mark.parametrize("srange, wrange", [
    ((0.0, math.inf), (0.0, 1.0)),
    ((0.0, 1.0), (math.nan, 1.0)),
])
def test_sample_field_grid_rejects_non_finite_window(srange, wrange):
    with pytest.raises(ValueError):
        sample_field_grid(2, srange, wrange, (5, 5), Q)


def test_asymptote_validation():
    with pytest.raises(ValueError):
        asymptote_curves(2, [0], [0.0, 1.0])


def test_crossing_gradient_small_at_zeros(scanned_zeros_n2):
    for rec in scanned_zeros_n2[:5]:
        assert abs(crossing_gradient(2, rec, Q)) <= 1e-3


def test_crossing_gradient_rejects_non_zero():
    fake = ZeroRecord(n=2, index=1, alpha=1.234, f_prime=1.0, residual=0.0)
    with pytest.raises(NotAZeroError):
        crossing_gradient(2, fake, Q)
    with pytest.raises(NotAZeroError):
        # no zeros exist for the Gaussian kernel: any candidate fails
        crossing_gradient(1, ZeroRecord(n=1, index=1, alpha=2.0, f_prime=1.0,
                                        residual=0.0), Q)


def test_intersection_audit_empty_off_axis(lines_n1):
    r_lines, i_lines = lines_n1
    hits = intersection_audit(r_lines, i_lines, 1e-4)
    assert hits == []


def test_intersection_audit_emptiness_trivia():
    assert intersection_audit([], [], 1.0) == []


def test_intersection_audit_detects_contact():
    a = [FieldLine(which=R_LINE, vertices=[(0.0, 0.0), (1.0, 1.0)], max_residual=0.0)]
    b = [FieldLine(which=I_LINE, vertices=[(0.0, 1.0), (1.0, 0.0)], max_residual=0.0)]
    hits = intersection_audit(a, b, 1e-6)
    assert len(hits) == 1
    assert hits[0].w == pytest.approx(0.5, abs=1e-6)
    assert hits[0].sigma == pytest.approx(0.5, abs=1e-6)


def test_same_family_lines_never_meet(lines_n1):
    r_lines, _ = lines_n1
    for i in range(len(r_lines)):
        for j in range(i + 1, len(r_lines)):
            assert intersection_audit([r_lines[i]], [r_lines[j]], 1e-4) == []


def test_newton_stall_surfaces_loudly(monkeypatch):
    # a vanishing off-axis gradient contradicts the zero geometry; force one
    from supergauss import fieldlines as fl
    from supergauss.errors import NewtonStallError

    monkeypatch.setattr(fl, "_gradient_from_derivative",
                        lambda which, d_re, d_im: (0.0 * d_re, 0.0 * d_im))
    line = FieldLine(which=R_LINE, vertices=[(1.0, 3.0), (1.1, 3.1)])
    with pytest.raises(NewtonStallError):
        refine_field_line(2, line, Q)


def test_refinement_raises_when_tolerance_not_met(monkeypatch):
    # a truncation radius short of the integrand peak leaves an infinite tail bound
    from supergauss import transform
    from supergauss.errors import ToleranceNotMetError

    monkeypatch.setattr(transform, "truncation_radius", lambda *a: 0.5)
    q = QuadratureSpec(tol=1e-9)
    line = FieldLine(which=R_LINE, vertices=[(1.0, 3.0), (1.1, 3.1)])
    with pytest.raises(ToleranceNotMetError):
        refine_field_line(2, line, q)


@pytest.mark.parametrize("max_steps", [1, 2, 12])
def test_max_residual_describes_returned_vertices(max_steps):
    # when the passes run out, the last one measures and does not step
    from supergauss import eval_derivatives, magnitude_scale
    grid = sample_field_grid(2, (0.5, 3.0), (0.0, 8.0), (12, 30), Q)
    line = extract_field_lines(grid, R_LINE)[0]
    refined = refine_field_line(2, line, Q, max_steps=max_steps)
    pts = refined.as_array()
    if max_steps == 1:
        assert (pts == line.as_array()).all()
    scale = magnitude_scale(2, pts[:, 0])
    re, _, err = eval_derivatives(2, (0,), pts[:, 0], pts[:, 1], Q, Q.tol * scale)
    resid = np.abs(re[0]) / scale
    assert abs(resid.max() - refined.max_residual) <= (err[0] / scale).max()


def test_saddle_cells_disambiguated_by_center_sign(monkeypatch):
    # force a diagonal sign pattern in one cell and steer the center sample:
    # the chosen segment pairing must separate the corners the center joins
    from supergauss import fieldlines as fl
    from supergauss.transform import EvalResult

    g = fl.GridField(
        n=2,
        sigma_axis=np.array([0.0, 1.0]),
        w_axis=np.array([0.0, 1.0]),
        re=np.array([[1.0, -1.0], [-1.0, 1.0]]),   # corners c0,c2 positive
        im=np.zeros((2, 2)),
        err=np.zeros((2, 2)),
        q=Q,
    )
    pairings = {}
    for center_val in (1.0, -1.0):
        monkeypatch.setattr(fl, "eval_transform",
                            lambda n, p, q, _v=center_val: EvalResult(_v, 0.0, 0.0))
        lines = fl.extract_field_lines(g, R_LINE)
        assert len(lines) == 2
        pts = [tuple(sorted((p.sigma, p.w) for p in l.points)) for l in lines]
        assert set(pts[0]).isdisjoint(set(pts[1]))
        pairings[center_val] = frozenset(pts)
    # the center sample decides which corners connect: pairings must differ
    assert pairings[1.0] != pairings[-1.0]


def test_refinement_gradient_components_match_derivative():
    # R_sigma + i I_sigma must equal -i F' against an independent finite difference
    from supergauss import eval_transform
    p = PlanePoint(1.2, 0.8)
    h = 1e-5
    up = eval_transform(2, PlanePoint(p.w, p.sigma + h), Q)
    dn = eval_transform(2, PlanePoint(p.w, p.sigma - h), Q)
    from supergauss import eval_derivative
    from supergauss.fieldlines import _gradient_from_derivative
    d = eval_derivative(2, 1, p, Q)
    r_sigma, r_w = _gradient_from_derivative(R_LINE, d.re, d.im)
    i_sigma, i_w = _gradient_from_derivative(I_LINE, d.re, d.im)
    assert r_sigma == pytest.approx((up.re - dn.re) / (2 * h), abs=1e-7)
    assert i_sigma == pytest.approx((up.im - dn.im) / (2 * h), abs=1e-7)


# ------------------------------------------------------------ equivalence


def _stub_center_values(monkeypatch, value):
    """Make the saddle-center evaluation return R = value(sigma, w) and
    I = -value(sigma, w), with a zero error estimate."""
    from supergauss import fieldlines as fl
    from supergauss.transform import EvalResult

    def fake(n, p, q):
        v = float(value(p.sigma, p.w))
        return EvalResult(v, -v, 0.0)
    monkeypatch.setattr(fl, "eval_transform", fake)


def _reference_extract(grid, which, center_positive=None):
    """The per-cell marching-squares loop the array version replaced.

    ``center_positive(sigma, w)`` decides a saddle cell; by default the
    center is evaluated alone at tolerance q.tol * magnitude_scale.
    """
    from supergauss import eval_transform, magnitude_scale
    from supergauss import fieldlines as fl

    if center_positive is None:
        def center_positive(sigma, w):
            qc = grid.q.scaled(magnitude_scale(grid.n, sigma))
            cv = eval_transform(grid.n, PlanePoint(w, sigma), qc)
            cval = cv.re if which == R_LINE else cv.im
            return cval > fl._SNAP_FACTOR * cv.err_estimate

    def edge_key(edge, i, j):
        return (("s", i, j), ("w", i + 1, j), ("s", i, j + 1), ("w", i, j))[edge]

    def interp(p0, v0, p1, v1):
        theta = v0 / (v0 - v1)
        theta = min(max(theta, 0.0), 1.0)
        return (float(p0[0] + theta * (p1[0] - p0[0])),
                float(p0[1] + theta * (p1[1] - p0[1])))

    vals = grid.component(which)
    pos = vals > fl._SNAP_FACTOR * grid.err
    sig, ws = grid.sigma_axis, grid.w_axis
    crossings, segments = {}, []
    for i in range(sig.size - 1):
        for j in range(ws.size - 1):
            bits = (int(pos[i, j]) | (int(pos[i + 1, j]) << 1)
                    | (int(pos[i + 1, j + 1]) << 2) | (int(pos[i, j + 1]) << 3))
            if bits in (0, 15):
                continue
            if bits in (5, 10):
                center = (0.5 * (sig[i] + sig[i + 1]), 0.5 * (ws[j] + ws[j + 1]))
                pairs = fl._SADDLES[(bits, bool(center_positive(*center)))]
            else:
                pairs = fl._CASES[bits]
            corner_pos = ((sig[i], ws[j]), (sig[i + 1], ws[j]),
                          (sig[i + 1], ws[j + 1]), (sig[i], ws[j + 1]))
            corner_val = (vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1])
            for pair in pairs:
                keys = []
                for e in pair:
                    key = edge_key(e, i, j)
                    if key not in crossings:
                        a, b = ((0, 1), (1, 2), (3, 2), (0, 3))[e]
                        crossings[key] = interp(corner_pos[a], corner_val[a],
                                                corner_pos[b], corner_val[b])
                    keys.append(key)
                segments.append(tuple(keys))

    adjacency = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    visited, lines = set(), []
    starts = sorted(k for k, v in adjacency.items() if len(v) == 1)
    starts += sorted(k for k, v in adjacency.items() if len(v) > 1)
    for start in starts:
        if start in visited:
            continue
        chain, cur = [start], start
        visited.add(start)
        while True:
            nxt = [k for k in adjacency[cur] if k not in visited]
            if not nxt:
                break
            cur = sorted(nxt)[0]
            visited.add(cur)
            chain.append(cur)
        if len(chain) >= 2:
            lines.append(FieldLine(which=which, vertices=[crossings[k] for k in chain]))
    return lines + fl._axis_lines(grid, which)


def _random_sign_grid(seed, shape):
    from supergauss.fieldlines import GridField

    rng = np.random.default_rng(seed)
    ns, nw = shape
    re, im = rng.standard_normal((2, ns, nw))
    # some magnitudes sit inside the snap band, so a positive value can read
    # as nonpositive and interpolation can leave [0, 1]
    err = np.where(rng.random((ns, nw)) < 0.2, 0.5, 0.0)
    return GridField(n=2, sigma_axis=np.sort(rng.uniform(-1.0, 3.0, ns)),
                     w_axis=np.sort(rng.uniform(-2.0, 5.0, nw)),
                     re=re, im=im, err=err, q=Q)


@pytest.mark.parametrize("seed, shape", [(1, (23, 31)), (2, (40, 17)), (3, (2, 9))])
def test_extraction_matches_per_cell_reference_on_random_signs(monkeypatch, seed, shape):
    from supergauss import fieldlines as fl

    grid = _random_sign_grid(seed, shape)
    centers = {
        "positive": lambda s, w: 1.0,
        "negative": lambda s, w: -1.0,
        "mixed": lambda s, w: math.sin(37.0 * s + 101.0 * w),
    }
    saddles = 0
    for name, value in centers.items():
        _stub_center_values(monkeypatch, value)
        for which in (R_LINE, I_LINE):
            pos = grid.component(which) > fl._SNAP_FACTOR * grid.err
            bits = (pos[:-1, :-1] + 2 * pos[1:, :-1] + 4 * pos[1:, 1:] + 8 * pos[:-1, 1:])
            saddles += int(np.isin(bits, (5, 10)).sum())
            sign = 1.0 if which == R_LINE else -1.0
            want = _reference_extract(grid, which, lambda s, w: sign * value(s, w) > 0.0)
            assert extract_field_lines(grid, which) == want, (name, which)
    assert shape[0] == 2 or saddles > 0


# the perfbench program windows (C9, figure 10, figure 2) at 1/8 resolution
_PROGRAM_WINDOWS = (
    (2, (0.0, 20.0), (-10.0, 10.0), (25, 37)),
    (2, (0.0, 2.0), (0.0, 13.0), (20, 52)),
    (3, (0.5, 6.0), (0.0, 6.0), (27, 32)),
)


@pytest.mark.parametrize("n, srange, wrange, resolution", _PROGRAM_WINDOWS)
def test_extraction_matches_per_cell_reference_on_program_windows(n, srange, wrange,
                                                                  resolution):
    grid = sample_field_grid(n, srange, wrange, resolution, QuadratureSpec(tol=1e-11))
    for which in (R_LINE, I_LINE):
        got = extract_field_lines(grid, which)
        assert got and got == _reference_extract(grid, which)


def _reference_link(segments):
    """The Python walk over neighbour lists that the array linking replaced."""
    count = int(segments.max()) + 1 if segments.size else 0
    nbrs = [[] for _ in range(count)]
    for a, b in segments.tolist():
        nbrs[a].append(b)
        nbrs[b].append(a)
    visited = [False] * count
    chains = []
    ends = [k for k in range(count) if len(nbrs[k]) == 1]
    for start in ends + [k for k in range(count) if len(nbrs[k]) > 1]:
        if visited[start]:
            continue
        chain = [start]
        visited[start] = True
        cur = start
        while True:
            nxt = [k for k in nbrs[cur] if not visited[k]]
            if not nxt:
                break
            cur = min(nxt)
            visited[cur] = True
            chain.append(cur)
        chains.append(chain)
    return chains


def _random_paths_and_loops(rng, pieces):
    """Segments of random paths and loops over shuffled node ids, each
    segment in a random direction, in random order."""
    sizes = rng.integers(2, 12, pieces)
    loops = rng.random(pieces) < 0.4
    sizes[loops] = np.maximum(sizes[loops], 3)
    ids = rng.permutation(int(sizes.sum()))
    segments, at = [], 0
    for size, is_loop in zip(sizes.tolist(), loops.tolist()):
        nodes = ids[at:at + size].tolist()
        at += size
        segments += list(zip(nodes, nodes[1:] + nodes[:1] if is_loop else nodes[1:]))
    segments = np.array(segments)
    flip = rng.random(len(segments)) < 0.5
    segments[flip] = segments[flip, ::-1]
    return segments[rng.permutation(len(segments))]


@pytest.mark.parametrize("seed", range(6))
def test_link_segments_matches_reference_walk_on_random_graphs(seed):
    from supergauss.fieldlines import _link_segments

    rng = np.random.default_rng(seed)
    for pieces in (1, 2, 5, 40):
        segments = _random_paths_and_loops(rng, pieces)
        assert _link_segments(segments) == _reference_link(segments)
    assert _link_segments(np.empty((0, 2), dtype=np.int64)) == []


@pytest.mark.parametrize("n, srange, wrange, resolution", [
    (2, (0.0, 20.0), (-10.0, 10.0), (200, 300)),
    (2, (0.0, 2.0), (0.0, 13.0), (160, 420)),
    (3, (0.5, 6.0), (0.0, 6.0), (220, 260)),
])
def test_link_segments_matches_reference_walk_on_program_windows(monkeypatch, n, srange,
                                                                 wrange, resolution):
    # the C9, figure 10 and figure 2 windows at full resolution
    from supergauss import fieldlines as fl

    linked = []

    def spy(segments):
        chains = link(segments)
        linked.append(chains == _reference_link(segments))
        return chains
    link = fl._link_segments
    monkeypatch.setattr(fl, "_link_segments", spy)
    grid = sample_field_grid(n, srange, wrange, resolution, QuadratureSpec(tol=1e-10))
    for which in (R_LINE, I_LINE):
        extract_field_lines(grid, which)
    assert linked == [True, True]


def _all_pairs_audit(r_lines, i_lines, tol):
    from supergauss.fieldlines import _segment_arrays, _segment_min_distances

    a0, a1 = _segment_arrays(r_lines)
    b0, b1 = _segment_arrays(i_lines)
    dist, mid = _segment_min_distances(a0[:, None], a1[:, None], b0[None], b1[None])
    return [PlanePoint(w=float(w), sigma=float(s)) for s, w in mid[dist < tol]]


def _walk(rng, start, steps, scale):
    pts = start + np.cumsum(rng.normal(0.0, scale, (steps, 2)), axis=0)
    return [PlanePoint(w=float(w), sigma=float(s)) for s, w in pts]


def test_audit_matches_all_pairs_scan():
    rng = np.random.default_rng(7)
    tol = 1e-3
    r_pts = [_walk(rng, rng.uniform(0, 4, 2), 150, 0.05) for _ in range(3)]
    i_pts = [_walk(rng, rng.uniform(0, 4, 2), 150, 0.05) for _ in range(3)]
    # planted contacts far from the random walks, just inside and just
    # outside tol: side by side (a gap in sigma) and end to end (a gap in
    # w), each on both sides, and an exact crossing
    for k, gap in enumerate((0.999 * tol, 1.001 * tol, 0.5 * tol, 2.0 * tol)):
        x0 = 10.0 + k
        r_pts.append([PlanePoint(w=5.0, sigma=x0), PlanePoint(w=5.3, sigma=x0)])
        for side in (1.0, -1.0):
            i_pts.append([PlanePoint(w=5.1, sigma=x0 + side * gap),
                          PlanePoint(w=5.2, sigma=x0 + side * gap)])
            i_pts.append([PlanePoint(w=5.15 + side * (0.15 + gap), sigma=x0),
                          PlanePoint(w=5.15 + side * 0.45, sigma=x0)])
    r_pts.append([PlanePoint(w=20.0, sigma=20.0), PlanePoint(w=21.0, sigma=21.0)])
    i_pts.append([PlanePoint(w=21.0, sigma=20.0), PlanePoint(w=20.0, sigma=21.0)])
    r_lines = [FieldLine(which=R_LINE, vertices=[(q.sigma, q.w) for q in p], max_residual=0.0)
               for p in r_pts]
    i_lines = [FieldLine(which=I_LINE, vertices=[(q.sigma, q.w) for q in p], max_residual=0.0)
               for p in i_pts]

    want = _all_pairs_audit(r_lines, i_lines, tol)
    got = intersection_audit(r_lines, i_lines, tol)
    assert got == want
    planted = [h for h in got if h.sigma >= 10.0 - 1.0]
    assert len(planted) == 9        # 0.999 tol and 0.5 tol four times, the crossing
    assert len(got) > len(planted)  # the random walks meet too


# coarse windows whose R and I grids both have saddle cells (cases 5 and 10)
_SADDLE_WINDOWS = (
    (2, (0.0, 20.0), (-10.0, 10.0), (9, 13)),
    (2, (-3.0, 3.0), (-12.0, 12.0), (7, 11)),
)


@pytest.mark.parametrize("n, srange, wrange, resolution", _SADDLE_WINDOWS)
def test_extraction_matches_per_cell_reference_on_real_saddles(n, srange, wrange,
                                                               resolution):
    # the saddle centers are evaluated for real, as the reference does
    from supergauss import fieldlines as fl

    grid = sample_field_grid(n, srange, wrange, resolution, QuadratureSpec(tol=1e-11))
    for which in (R_LINE, I_LINE):
        pos = grid.component(which) > fl._SNAP_FACTOR * grid.err
        bits = (pos[:-1, :-1] + 2 * pos[1:, :-1] + 4 * pos[1:, 1:] + 8 * pos[:-1, 1:])
        assert np.isin(bits, (5, 10)).any()
        got = extract_field_lines(grid, which)
        assert got and got == _reference_extract(grid, which)


# ------------------------------------------------------------ refinement


def test_axis_lines_are_returned_without_evaluation(monkeypatch):
    # I vanishes identically on w = 0 and on sigma = 0: no kernel call is made
    from supergauss import fieldlines as fl

    calls = []
    real = fl._point_moments

    def counting(*args, **kwargs):
        calls.append(args[1].size)
        return real(*args, **kwargs)
    monkeypatch.setattr(fl, "_point_moments", counting)
    g = sample_field_grid(2, (0.0, 2.0), (-1.0, 3.0), (12, 16), Q)
    axis = fl._axis_lines(g, I_LINE)
    assert len(axis) == 2
    for line in axis:
        assert refine_field_line(2, line, Q) == line
    unrefined = FieldLine(which=I_LINE, vertices=[(0.0, 1.0), (0.0, 2.5), (0.0, 4.0)])
    refined = refine_field_line(2, unrefined, Q)
    assert refined.max_residual == 0.0
    assert (refined.vertices == unrefined.vertices).all()
    assert calls == []
    # an R line on the axis is refined as any other line
    refine_field_line(2, FieldLine(which=R_LINE, vertices=[(0.0, 3.3), (0.0, 3.6)]), Q)
    assert calls


def _reference_refine(n, line, q, max_steps=12):
    """Refinement before lines held arrays: every axis line refined, a new
    rule for every pass, and the vertices handed back as PlanePoints."""
    from supergauss import transform
    from supergauss.fieldlines import _gradient_from_derivative

    pts = line.points
    sigma = np.array([p.sigma for p in pts])
    w = np.array([p.w for p in pts])
    resid = np.full(sigma.size, math.inf)
    active = np.arange(sigma.size)
    for step in range(max_steps):
        if active.size == 0:
            break
        s, ws = sigma[active], w[active]
        scale = transform.magnitude_scale(n, s)
        tol = q.tol * scale
        re, im, err = transform._point_moments(n, s, ws, tol, (0, 1),
                                               transform._factored_panel_moments)
        g = re[0] if line.which == R_LINE else im[0]
        resid[active] = np.abs(g) / scale
        moving = np.abs(g) > tol
        assert not ((err[0] > tol) | (moving & (err[1] > tol))).any()
        if step == max_steps - 1:
            break
        gs, gw = _gradient_from_derivative(line.which, *transform._rotate(1, re[1], im[1]))
        norm2 = gs * gs + gw * gw
        stalled = moving & (np.sqrt(norm2) <= np.maximum(10 * err[1], 1e-13 * scale))
        assert not (stalled & (np.abs(s) > 1e-9)).any()
        moving &= ~stalled
        dx = g[moving] / norm2[moving]
        active = active[moving]
        sigma[active] -= dx * gs[moving]
        w[active] -= dx * gw[moving]
    new_pts = tuple(PlanePoint(w=float(wi), sigma=float(si)) for si, wi in zip(sigma, w))
    return FieldLine(which=line.which, vertices=[(p.sigma, p.w) for p in new_pts],
                     max_residual=float(resid.max()))


@pytest.mark.parametrize("n, srange, wrange, resolution", _PROGRAM_WINDOWS)
def test_refinement_matches_per_pass_reference(n, srange, wrange, resolution):
    grid = sample_field_grid(n, srange, wrange, resolution, QuadratureSpec(tol=1e-11))
    q = QuadratureSpec(tol=1e-10)
    families = {}
    for which in (R_LINE, I_LINE):
        lines = extract_field_lines(grid, which)
        families[which] = ([refine_field_line(n, l, q) for l in lines],
                           [_reference_refine(n, l, q) for l in lines])
    for got, want in families.values():
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.vertices.shape == b.vertices.shape
            assert np.abs(a.vertices - b.vertices).max() <= 1e-11
            assert a.max_residual <= q.tol and b.max_residual <= q.tol
    hits = [intersection_audit(families[R_LINE][k], families[I_LINE][k], 1e-4) for k in (0, 1)]
    assert len(hits[0]) == len(hits[1])
    for a, b in zip(*hits):
        assert abs(a.sigma - b.sigma) <= 1e-9 and abs(a.w - b.w) <= 1e-9
