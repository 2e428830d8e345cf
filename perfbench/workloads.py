"""The benchmark's three workloads: seeded job sets and the checks on their outputs.

Each ``make_*`` function draws a fixed job set from the seeded generator and
returns a function that runs the whole set once through a :class:`Client`.
The client is a closed loop: it sends the next call only when the last one
has returned.  Every output is checked, against an independent oracle where
one exists and otherwise against the library's own error estimate; an
exception raised by the library or a failed check counts as a failed
operation, and the run goes on.

The import of ``supergauss`` expects the package source on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time

import numpy as np

from supergauss import cli, coefficients, fieldlines, orbits, products, transform, zeros

_EPS = float(np.finfo(np.float64).eps)


class Client:
    """One caller that times and checks each library call in turn."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def _fail(self, kind: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {why}")

    def record(self, kind: str, problem: str | None) -> None:
        """Count an operation that ran outside :meth:`call`, with its check result."""
        self.attempted += 1
        if problem:
            self._fail(kind, problem)

    def call(self, kind: str, fn, *args, check=None):
        """Run fn(*args) as one operation; returns its output, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a library failure is counted, not fatal
            self.latencies.append(time.perf_counter() - t0)
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - t0)
        problem = check(out) if check is not None else None
        if problem:
            self._fail(kind, problem)
        return out


# --------------------------------------------------------------------- oracles

def origin_value(n: int) -> float:
    """F(0) = Gamma(1/2n)/n."""
    return math.gamma(1.0 / (2 * n)) / n


def _hermite(k: int, x: complex) -> complex:
    h0, h1 = 1.0 + 0j, 2 * x
    if k == 0:
        return h0
    for j in range(1, k):
        h0, h1 = h1, 2 * x * h1 - 2 * j * h0
    return h1


def gaussian_derivative(k: int, w: float, sigma: float) -> complex:
    """n = 1 oracle: d^k/dz^k sqrt(pi) exp(-z^2/4) = (-1/2)^k H_k(z/2) F(z)."""
    z = complex(w, -sigma)
    base = transform.closed_form_gaussian(transform.PlanePoint(w, sigma)).value
    return base * (-0.5) ** k * _hermite(k, z / 2)


def _envelope(n: int, sigma: float) -> float:
    """Integral of (1 + |t|) exp(-t^(2n) + |sigma| t): bounds |F| and |F'|."""
    s = abs(sigma)
    t = np.linspace(-(3.0 + s), 3.0 + s, 4001)
    f = (1.0 + np.abs(t)) * np.exp(-t ** (2 * n) + s * t)
    return float(np.sum(f) * (t[1] - t[0]))


# ----------------------------------------------------------------- point_queries

QUERY_TOL = 1e-10
ORIGIN_TOL = 1e-12
POINT_CELLS = ("eval", 0, 1, 2, 3, 4, "angmom")   # eval_transform, eval_derivative k, J


def make_point_queries(rng: np.random.Generator, small: bool = False):
    """Independent queries at random (n, w, sigma, k), one cell per (n, kind)."""
    per_cell = 2 if small else 40
    base = transform.QuadratureSpec(tol=QUERY_TOL)
    origin_q = transform.QuadratureSpec(tol=ORIGIN_TOL)
    jobs = []
    for n in range(1, 7):
        jobs.append(("eval_transform", _origin_query(n, origin_q), _origin_check(n)))
        for cell in POINT_CELLS:
            for _ in range(per_cell):
                w = float(rng.uniform(-10.0, 10.0))
                s = float(rng.uniform(0.0, 6.0))
                jobs.append(_point_job(n, cell, w, s, base))
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]

    def run(client: Client) -> None:
        for kind, fn, check in jobs:
            client.call(kind, fn, check=check)
    return run


def _origin_query(n, q):
    p = transform.PlanePoint(0.0, 0.0)
    return lambda: transform.eval_transform(n, p, q)


def _origin_check(n):
    want = origin_value(n)

    def check(r):
        if abs(r.re - want) > r.err_estimate + 4 * _EPS * want:
            return f"F(0) = {r.re!r} for n={n}, Gamma oracle {want!r}"
        return None
    return check


def _point_job(n: int, cell, w: float, s: float, base):
    p = transform.PlanePoint(w, s)
    if cell == "angmom":
        ms = transform.magnitude_scale(n, s)
        e = base.tol * ms
        slack = 4.0 * _envelope(n, s) * e + 2.0 * e * e    # |dJ| for v = 1
        want = 0.5 * math.pi * s * math.exp(0.5 * (s * s - w * w)) if n == 1 else None

        def check(J):
            if want is not None and abs(J - want) > slack + 1e-12 * abs(want):
                return f"J = {J!r} at n=1 ({w}, {s}), closed form {want!r}"
            if want is None and J < -slack:
                return f"J = {J!r} < 0 at n={n} ({w}, {s})"
            return None
        return ("angular_momentum", lambda: orbits.angular_momentum(n, p, 1.0, base), check)

    k = 0 if cell == "eval" else cell
    if cell == "eval":
        tol = base.tol * transform.magnitude_scale(n, s)

        def fn():
            return transform.eval_transform(n, p, base.scaled(transform.magnitude_scale(n, s)))
        kind = "eval_transform"
    else:
        tol = base.tol * transform.moment_scale(n, s, k)

        def fn():
            return transform.eval_derivative(n, k, p, base.scaled(transform.moment_scale(n, s, k)))
        kind = "eval_derivative"
    want = gaussian_derivative(k, w, s) if n == 1 else None

    def check(r):
        if not r.err_estimate <= tol:
            return f"err_estimate {r.err_estimate:.3e} above requested {tol:.3e}"
        if want is not None:
            slack = r.err_estimate + 64 * _EPS * abs(want) * (1 + abs(complex(w, s))) ** k
            if abs(r.value - want) > slack:
                return f"n=1 k={k} at ({w}, {s}): {r.value!r} vs closed form {want!r}"
        return None
    return (kind, fn, check)


# ------------------------------------------------------------------- nodal_lines

GRID_TOL = 1e-11
REFINE_TOL = 1e-10
PROXIMITY = 1e-4
# The windows the program itself draws, as (name, n, sigma range, w range,
# resolution).  C9 samples (0.1, 20) x (-10, 10) at 400x600; here its window
# reaches down to the axis and is sampled at half that resolution per axis,
# which still gives each family more than 2048 segments (two audit chunks).
# Figure 10 is the near-axis window; figure 2's window (drawn at n = 1 by
# default) runs at n = 3.
PROGRAM_WINDOWS = (
    ("c9", 2, (0.0, 20.0), (-10.0, 10.0), (200, 300)),
    ("fig10", 2, (0.0, 2.0), (0.0, 13.0), (160, 420)),
    ("fig2", 3, (0.5, 6.0), (0.0, 6.0), (220, 260)),
)
# The seed moves every window edge that is not on an axis inward by up to
# this much; edges on sigma = 0 or w = 0 stay, so the axis lines and the
# audit's on-axis hits are in every round.
JITTER = 0.1
SMALL_DIVISOR = 8


def make_nodal_lines(rng: np.random.Generator, small: bool = False):
    """The program's nodal-line windows; one query is one window's whole pipeline."""
    windows = []
    for _, n, srange, wrange, (ns, nw) in PROGRAM_WINDOWS:
        (s0, s1), (w0, w1) = (_shrink(rng, r) for r in (srange, wrange))
        if small:
            ns, nw = max(16, ns // SMALL_DIVISOR), max(16, nw // SMALL_DIVISOR)
        windows.append((n, (s0, s1), (w0, w1), (ns, nw)))
    grid_q = transform.QuadratureSpec(tol=GRID_TOL)
    refine_q = transform.QuadratureSpec(tol=REFINE_TOL)

    def window(n, srange, wrange, resolution):
        grid = fieldlines.sample_field_grid(n, srange, wrange, resolution, grid_q)
        families = []
        for which in (fieldlines.R_LINE, fieldlines.I_LINE):
            lines = fieldlines.extract_field_lines(grid, which)
            families.append((lines, [fieldlines.refine_field_line(n, line, refine_q)
                                     for line in lines]))
        hits = fieldlines.intersection_audit(families[0][1], families[1][1], PROXIMITY)
        return grid, families, hits

    def run(client: Client) -> None:
        for n, srange, wrange, resolution in windows:
            client.call("window", window, n, srange, wrange, resolution,
                        check=_window_check(n, srange, wrange))
    return run


def _shrink(rng, span):
    lo, hi = span
    lo_in, hi_in = rng.uniform(0.0, JITTER, 2)
    return (lo if lo == 0.0 else round(lo + float(lo_in), 6),
            hi if hi == 0.0 else round(hi - float(hi_in), 6))


def _window_check(n, srange, wrange):
    def check(out):
        grid, families, hits = out
        if not (np.isfinite(grid.re).all() and np.isfinite(grid.im).all()):
            return "grid holds non-finite values"
        budget = np.array([GRID_TOL * transform.magnitude_scale(n, s) for s in grid.sigma_axis])
        over = int((grid.err > budget[:, None]).sum())
        if over:
            return f"grid error estimate above tolerance at {over} nodes"
        for lines, refined in families:
            for line in lines:
                arr = line.as_array()
                if (arr[:, 0].min() < srange[0] - 1e-12 or arr[:, 0].max() > srange[1] + 1e-12
                        or arr[:, 1].min() < wrange[0] - 1e-12
                        or arr[:, 1].max() > wrange[1] + 1e-12):
                    return "extracted vertex outside its window"
            for line in refined:
                if not line.max_residual <= REFINE_TOL:
                    return (f"refined {line.which} line residual {line.max_residual:.3e}"
                            f" above {REFINE_TOL:.0e}")
        off = [h for h in hits if abs(h.sigma) > PROXIMITY]
        if off:
            return (f"{len(off)} audit hits off the axis, first at sigma={off[0].sigma},"
                    f" w={off[0].w}")
        return None
    return check


# ------------------------------------------------------------------- axis_tables

AXIS_TOL = 1e-10
ODE_TOL = 1e-11
SERIES_TOL = 1e-12
# (n, smallest w_max, zeros kept).  The seed adds up to 1 to w_max; no zero
# lies in that range, so every seed scans to the same zeros and the cost of
# the cold scan does not jump by a bracket from seed to seed.
ZERO_TABLES = ((2, 27.5, 10), (3, 16.5, 5), (4, 13.5, 4))
ACOEFF_M = "0..6"
ACOEFF_POINTS, ACOEFF_STEP = 12, 0.5
ODE_POINTS = 6
SERIES_POINTS = 4
TTABLE_POINTS = 4
POOL = 40


def make_axis_tables(rng: np.random.Generator, small: bool = False):
    """Zero tables through the CLI (cold, then warm cache), coefficients, products.

    The runner gives every round an empty POLYA_CACHE_DIR, so the first
    ``zeros`` call scans and writes the cache and the second one reads it.
    """
    tables = ZERO_TABLES[:1] if small else ZERO_TABLES
    scale = 0.25 if small else 1.0
    series_q = transform.QuadratureSpec(tol=SERIES_TOL)
    plan = []
    for n, w_base, keep in tables:
        w_max = round(w_base + float(rng.uniform(0.0, 1.0)), 6)
        lo = round(float(rng.uniform(0.0, 0.5)), 6)
        hi = lo + ACOEFF_STEP * (max(2, int(ACOEFF_POINTS * scale)) - 1)
        ode_ws = _spread(rng, 0.0, 8.0, max(1, int(ODE_POINTS * scale)))
        count = max(1, int(SERIES_POINTS * scale))
        sigmas = rng.permutation(_spread(rng, 0.25, 1.0, count))
        points = [transform.PlanePoint(w, float(s))
                  for w, s in zip(_spread(rng, 0.0, 6.0, count), sigmas)]
        # the direct |F|^2 each series is checked against, computed once here
        series = [(p, transform.eval_transform(n, p, series_q).l_squared) for p in points]
        plan.append((n, w_max, keep, f"{lo!r}:{hi!r}:{ACOEFF_STEP!r}", ode_ws, series))
    t_ws = _spread(rng, 0.0, 4.0, max(1, int(TTABLE_POINTS * scale)))
    pool = tuple(zeros.extended_zero_pool(2, POOL))
    q = transform.QuadratureSpec(tol=AXIS_TOL)
    ode_q = transform.QuadratureSpec(tol=ODE_TOL)

    def run(client: Client) -> None:
        for n, w_max, keep, w_grid, ode_ws, series in plan:
            argv = ["zeros", "--n", str(n), "--wmax", repr(w_max), "--count", str(keep),
                    "--tol", repr(AXIS_TOL)]
            cold = client.call("cli.zeros_cold", _cli, argv, check=_zeros_check(n, keep, pool))
            client.call("cli.zeros_warm", _cli, argv,
                        check=lambda out, cold=cold: None if cold is None or out == cold
                        else "warm zero table differs from the cold scan")
            client.call("cli.acoeff", _cli,
                        ["acoeff", "--n", str(n), "--m-range", ACOEFF_M, "--w-grid", w_grid,
                         "--tol", "1e-12"], check=_acoeff_check(w_grid))
            for rec in _parse_zeros(cold or ""):
                client.call("verify_simplicity", zeros.verify_simplicity, n, rec, q,
                            check=_simplicity_check(n, rec))
            for w in ode_ws:
                client.call("ode_residual", zeros.ode_residual, n, w, ode_q,
                            check=_ode_check(n, w))
            for p, direct in series:
                client.call("l2_series", coefficients.l2_series, n, p, 12, series_q,
                            check=_series_check(p, direct))
        c = client.call("leading_constant", products.leading_constant, 2,
                        transform.QuadratureSpec(tol=SERIES_TOL), check=_constant_check)
        if c is None:
            return
        spec = products.ProductSpec(n=2, c=c, zeros=pool, N=POOL)
        for w in t_ws:
            client.call("t_table", products.t_table, spec, w, 6, check=_table_check)
    return run


def _spread(rng, lo, hi, count):
    """One uniform point in each of count equal cells of [lo, hi]: the seed
    moves the points but keeps the mix of cheap and costly ones."""
    cells = np.arange(count) + rng.uniform(0.0, 1.0, count)
    return [float(x) for x in lo + (hi - lo) * cells / count]


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"supergauss {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _parse_zeros(text):
    return [zeros.ZeroRecord(n=int(r["n"]), index=int(r["index"]), alpha=float(r["alpha"]),
                             f_prime=float(r["f_prime"]), residual=float(r["residual"]))
            for r in csv.DictReader(io.StringIO(text))]


def _zeros_check(n, keep, pool):
    def check(text):
        recs = _parse_zeros(text)
        if len(recs) != keep:
            return f"n={n}: {len(recs)} zeros, expected {keep}"
        if any(r.residual > 1e-9 for r in recs):
            return f"n={n}: zero residual above 1e-9"
        if n == 2:
            gap = max(abs(r.alpha - g.alpha) for r, g in zip(recs[:10], pool))
            if gap > 1e-8:
                return f"n=2 zeros differ from the oracle pool by {gap:.2e}"
        return None
    return check


def _acoeff_check(w_grid):
    lo, hi, step = (float(x) for x in w_grid.split(":"))
    rows_expected = 7 * (round((hi - lo) / step) + 1)

    def check(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != rows_expected:
            return f"{len(rows)} coefficient rows, expected {rows_expected}"
        for r in rows:
            if float(r["value"]) < -float(r["err"]):
                return f"A_{r['m']}({r['w']}) = {r['value']} below -err {r['err']}"
        return None
    return check


def _simplicity_check(n, rec):
    def check(rep):
        bound = AXIS_TOL * (1 + rec.alpha / (2 * n))
        if not rep.ode_residual_at_zero <= bound:
            return (f"ODE residual {rep.ode_residual_at_zero:.2e} at zero {rec.alpha}"
                    f" above {bound:.2e}")
        return None
    return check


def _ode_check(n, w):
    # each of the two evaluations is within ODE_TOL of the exact identity
    bound = ODE_TOL * (1 + abs(w) / (2 * n))

    def check(r):
        return None if r <= bound else f"ODE residual {r:.2e} at w={w} above {bound:.2e}"
    return check


def _series_check(p, direct):
    def check(series):
        if series.truncation_flag:
            return f"series truncated at ({p.w}, {p.sigma})"
        rel = abs(series.value - direct) / direct
        return None if rel <= 1e-6 else f"series off the direct |F|^2 by {rel:.2e}"
    return check


def _constant_check(c):
    want = origin_value(2)
    return None if abs(c - want) <= 1e-9 * want else f"F(0) = {c!r}, Gamma oracle {want!r}"


def _table_check(table):
    for K in range(1, table.values.shape[0] + 1):
        if table.values[K - 1].min() < -1e-12 * table.row_scale(K):
            return f"negative T entry in row {K}"
    return None


WORKLOADS = {
    "nodal_lines": make_nodal_lines,
    "axis_tables": make_axis_tables,
    "point_queries": make_point_queries,
}
