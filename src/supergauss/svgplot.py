"""Hand-rolled SVG emission for figure datasets.

Only primitives are used (line, polyline, text), coordinates are
formatted with repr, and element order is fixed, so the emitted document is
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EmitError

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 54
_TICKS = 6


@dataclass
class Dataset:
    """Solid and dashed polylines in data coordinates."""

    x_label: str
    y_label: str
    title: str = ""
    polylines: list[tuple[list[tuple[float, float]], str]] = field(default_factory=list)
    dashed: list[list[tuple[float, float]]] = field(default_factory=list)

    def add_polyline(self, points, color):
        self.polylines.append((list(points), color))

    def add_dashed(self, points):
        self.dashed.append(list(points))

    def is_empty(self) -> bool:
        return not (any(p for p, _ in self.polylines) or any(self.dashed))


def _bounds(ds: Dataset):
    xs, ys = [], []
    for pts in [p for p, _ in ds.polylines] + ds.dashed:
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-300:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-300:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return x0, x1, y0, y1


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _fmt(x: float) -> str:
    return repr(round(float(x), 3))


def emit_svg(dataset: Dataset) -> str:
    """Render the dataset to an SVG document string."""
    if dataset.is_empty():
        raise EmitError("refusing to emit an empty dataset")
    x0, x1, y0, y1 = _bounds(dataset)
    px0, px1 = _MARGIN, _WIDTH - _MARGIN // 3
    py0, py1 = _HEIGHT - _MARGIN, _MARGIN // 2

    def tx(x):
        return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

    def ty(y):
        return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if dataset.title:
        parts.append(f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle" '
                     f'font-size="14">{dataset.title}</text>')
    # axes
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>')
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>')
    for t in _ticks(x0, x1):
        u = tx(t)
        parts.append(f'<line x1="{_fmt(u)}" y1="{py0}" x2="{_fmt(u)}" y2="{py0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(u)}" y="{py0 + 18}" text-anchor="middle" '
                     f'font-size="11">{t:g}</text>')
    for t in _ticks(y0, y1):
        u = ty(t)
        parts.append(f'<line x1="{px0 - 5}" y1="{_fmt(u)}" x2="{px0}" y2="{_fmt(u)}" stroke="black"/>')
        parts.append(f'<text x="{px0 - 8}" y="{_fmt(u)}" text-anchor="end" '
                     f'font-size="11">{t:g}</text>')
    parts.append(f'<text x="{(px0 + px1) // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
                 f'font-size="12">{dataset.x_label}</text>')
    parts.append(f'<text x="14" y="{(py0 + py1) // 2}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 14 {(py0 + py1) // 2})">{dataset.y_label}</text>')

    for pts in dataset.dashed:
        if not pts:
            continue
        coords = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="gray" '
                     'stroke-width="1.0" stroke-dasharray="6,4"/>')
    for pts, color in dataset.polylines:
        if not pts:
            continue
        coords = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
