"""Command-line surface: evaluation, zero tables, coefficients, figures, verify.

Exit codes: 0 success, 1 verification violation, 2 argument error (argparse's
own convention, also used when the library rejects an input value with
ValueError or TypeError), 3 numerical failure (tolerance not met or overflow
guard).

An optional line-oriented configuration file (``key = value``, ``#``
comments) supplies defaults; explicit flags always win.  Keys use the flag
names with either dashes or underscores.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cache import atomic_write_text, cached_zeros, format_zero_cache
from .coefficients import a_coeff
from .errors import EmitError, OverflowGuardError, SuperGaussError, ToleranceNotMetError
from .fieldlines import (
    I_LINE,
    R_LINE,
    asymptote_curves,
    extract_field_lines,
    refine_field_line,
    sample_field_grid,
)
from .orbits import orbit_trace
from .svgplot import Dataset, emit_svg
from .transform import PlanePoint, QuadratureSpec, eval_transform
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# The most points a --w-grid may hold: each is a row of the acoeff table
# per moment order, and far more than any table is meant to hold.
_MAX_GRID_POINTS = 1_000_000


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(Path(path), text)


# --window and --w-grid are parsed by their commands, not by argparse, so a
# rejected value is reported like any other rejected input: one "argument
# error" line and exit code 2.

def _parse_range(spec: str, what: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like LO:HI, got {spec!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} must be finite, got {spec!r}")
    if hi <= lo:
        raise ValueError(f"{what} must be ascending, got {spec!r}")
    return lo, hi


def _parse_window(spec: str) -> tuple[tuple[float, float], tuple[float, float]]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"window must look like S0:S1,W0:W1, got {spec!r}")
    return _parse_range(parts[0], "sigma range"), _parse_range(parts[1], "w range")


def _parse_resolution(spec: str) -> tuple[int, int]:
    parts = spec.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"resolution must look like NSxNW, got {spec!r}")
    return int(parts[0]), int(parts[1])


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like LO:HI:STEP, got {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid bounds and step must be finite, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid {spec!r}")
    if lo + step == lo:
        raise ValueError(f"grid step {step!r} does not advance from {lo!r}")
    if (hi - lo) / step >= _MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} holds more than {_MAX_GRID_POINTS} points")
    out = []
    k = 0
    while lo + k * step <= hi + 1e-12 * step:
        out.append(lo + k * step)
        k += 1
    return out


def _parse_m_range(spec: str) -> list[int]:
    lo, _, hi = spec.partition("..")
    if not hi:
        return [int(lo)]
    return list(range(int(lo), int(hi) + 1))


def _load_config_args(path: str) -> list[str]:
    """Turn `key = value` lines into flags, prepended so real flags win."""
    args = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        args.extend([f"--{key.replace('_', '-')}", val])
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="supergauss",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="key = value configuration file (flags win)")

    def add_common(p):
        add_config(p)
        p.add_argument("--tol", type=float, default=1e-10,
                       help="quadrature tolerance (absolute, scaled internally at large sigma)")

    p = sub.add_parser("eval", help="evaluate the transform at one point")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("zeros", help="scan, certify, and store real zeros")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", type=float, required=True)
    p.add_argument("--count", type=int, default=None, help="keep only the first K zeros")
    p.add_argument("--out", default=None)

    p = sub.add_parser("acoeff", help="series coefficients on a w grid")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-range", type=_parse_m_range, required=True, metavar="A..B")
    p.add_argument("--w-grid", required=True, metavar="LO:HI:STEP")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fieldlines", help="extract and refine nodal lines")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=[R_LINE, I_LINE, "both"], default="both")
    p.add_argument("--window", required=True, metavar="S0:S1,W0:W1")
    p.add_argument("--resolution", type=_parse_resolution, default=(400, 600), metavar="NSxNW")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None, help="also render an SVG to this path")
    p.add_argument("--asymptotes", action="store_true",
                   help="append large-sigma asymptote branches to the output")

    p = sub.add_parser("orbit", help="trace an (R, I) orbit at constant sigma")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("figures", help="regenerate a figure's dataset and SVG")
    add_common(p)
    p.add_argument("--n", type=int, default=None,
                   help="kernel index (defaults to the figure's canonical kernel)")
    p.add_argument("--fig", type=int, choices=[1, 2, 8, 9, 10], required=True)
    p.add_argument("--out", required=True, help="output directory")

    # every criterion pins its own tolerance, so verify takes no --tol
    p = sub.add_parser("verify", help="run the acceptance and invariant checks")
    add_config(p)
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    return parser


def _cmd_eval(args) -> int:
    q = QuadratureSpec(tol=args.tol)
    r = eval_transform(args.n, PlanePoint(args.w, args.sigma), q)
    if args.format == "json":
        text = json.dumps({"re": r.re, "im": r.im, "err_estimate": r.err_estimate,
                           "l_squared": r.l_squared}, indent=None) + "\n"
    else:
        text = ("re,im,err_estimate,l_squared\n"
                f"{r.re!r},{r.im!r},{r.err_estimate!r},{r.l_squared!r}\n")
    _write_out(args.out, text)
    return EXIT_OK


def _cmd_zeros(args) -> int:
    if args.count is not None and args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    records = cached_zeros(args.n, args.wmax, QuadratureSpec(tol=args.tol))
    if args.count is not None:
        records = records[: args.count]
    _write_out(args.out, format_zero_cache(records))
    return EXIT_OK


def _cmd_acoeff(args) -> int:
    q = QuadratureSpec(tol=args.tol)
    buf = io.StringIO()
    buf.write("n,m,w,value,method,err\n")
    for w in _parse_grid(args.w_grid):
        for s in a_coeff(args.n, args.m_range, w, q):
            buf.write(f"{s.n},{s.m},{s.w!r},{s.value!r},{s.method},{s.err_estimate!r}\n")
    _write_out(args.out, buf.getvalue())
    return EXIT_OK


def _fieldline_rows(lines, start_id):
    rows = []
    for k, line in enumerate(lines, start_id):
        for sigma, w in line.vertices.tolist():
            rows.append(f"{k},{line.which},{sigma!r},{w!r}\n")
    return rows, start_id + len(lines)


def _cmd_fieldlines(args) -> int:
    (s0, s1), (w0, w1) = _parse_window(args.window)
    q = QuadratureSpec(tol=args.tol)
    grid = sample_field_grid(args.n, (s0, s1), (w0, w1), args.resolution, q)
    whichs = [R_LINE, I_LINE] if args.which == "both" else [args.which]
    refined = {}
    for which in whichs:
        refined[which] = [refine_field_line(args.n, l, q)
                          for l in extract_field_lines(grid, which)]
    buf = io.StringIO()
    buf.write("line_id,which,sigma,w\n")
    next_id = 0
    for which in whichs:
        rows, next_id = _fieldline_rows(refined[which], next_id)
        buf.writelines(rows)
    curves = []
    if args.asymptotes and s1 > 0:
        curves = asymptote_curves(args.n, list(range(4)),
                                  list(np.linspace(max(s0, 0.3), s1, 120)))
    for c in curves:
        for p in c.samples:
            if w0 <= p.w <= w1:
                buf.write(f"{next_id},asymptote,{p.sigma!r},{p.w!r}\n")
        next_id += 1
    _write_out(args.out, buf.getvalue())
    if args.svg:
        ds = Dataset(x_label="sigma", y_label="w", title=f"nodal lines, kernel exponent {2 * args.n}")
        for line in refined.get(R_LINE, []):
            ds.add_polyline(line.vertices.tolist(), color="black")
        for line in refined.get(I_LINE, []):
            ds.add_polyline(line.vertices.tolist(), color="green")
        for c in curves:
            pts = [(p.sigma, p.w) for p in c.samples if w0 <= p.w <= w1]
            if len(pts) >= 2:
                ds.add_dashed(pts)
        atomic_write_text(Path(args.svg), emit_svg(ds))
    return EXIT_OK


def _cmd_orbit(args) -> int:
    q = QuadratureSpec(tol=args.tol)
    trace = orbit_trace(args.n, args.sigma, args.v, (0.0, args.tmax), args.dt, q)
    buf = io.StringIO()
    buf.write("t,w,R,I,J\n")
    for s in trace.samples:
        buf.write(f"{s.t!r},{args.v * s.t!r},{s.R!r},{s.I!r},{s.J!r}\n")
    _write_out(args.out, buf.getvalue())
    if args.svg:
        ds = Dataset(x_label="R", y_label="I",
                     title=f"orbit at sigma={args.sigma}, kernel exponent {2 * args.n}")
        ds.add_polyline([(s.R, s.I) for s in trace.samples], color="navy")
        atomic_write_text(Path(args.svg), emit_svg(ds))
    return EXIT_OK


_FIG_DEFAULT_N = {1: 1, 2: 1, 8: 2, 9: 2, 10: 2}


def _cmd_figures(args) -> int:
    n = args.n if args.n is not None else _FIG_DEFAULT_N[args.fig]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = argparse.Namespace(tol=args.tol, n=n, out=None, svg=None)
    if args.fig == 1:
        ns.out = str(outdir / "fig1_orbit.csv")
        ns.svg = str(outdir / "fig1.svg")
        ns.sigma, ns.v, ns.tmax, ns.dt = 1.0, 1.0, 8.0, 0.02
        return _cmd_orbit(ns)
    ns.which = "both"
    ns.asymptotes = args.fig == 8
    if args.fig == 2:
        ns.window = "0.5:6,0:6"
        ns.resolution = (220, 260)
    elif args.fig in (8, 9):
        ns.window = "0:30,0:8"
        ns.resolution = (400, 600)
        if args.fig == 8:
            ns.which = R_LINE
    else:  # fig 10: perpendicular crossings near the axis
        ns.window = "0:2,0:13"
        ns.resolution = (160, 420)
        ns.which = R_LINE
    ns.out = str(outdir / f"fig{args.fig}_lines.csv")
    ns.svg = str(outdir / f"fig{args.fig}.svg")
    return _cmd_fieldlines(ns)


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


_DISPATCH = {
    "eval": _cmd_eval,
    "zeros": _cmd_zeros,
    "acoeff": _cmd_acoeff,
    "fieldlines": _cmd_fieldlines,
    "orbit": _cmd_orbit,
    "figures": _cmd_figures,
    "verify": _cmd_verify,
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one :func:`build_parser` parser of this process; parsing keeps no
    state in it, so every :func:`main` call can reuse it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    # pre-scan for --config FILE / --config=FILE so its values become
    # overridable defaults
    at = next((i for i, arg in enumerate(argv)
               if arg == "--config" or arg.startswith("--config=")), None)
    if at is not None:
        _, inline, path = argv[at].partition("=")
        try:
            extra = _load_config_args(path if inline else argv[at + 1])
        except (OSError, ValueError, IndexError) as exc:
            parser.error(f"bad configuration file: {exc}")
        head, tail = argv[:1], argv[1:]
        argv = head + extra + tail
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ToleranceNotMetError, OverflowGuardError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EmitError as exc:
        print(f"emit error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SuperGaussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
