"""Static SVG charts with no plotting dependency.

Scatter and line plots only; every number is formatted through
one helper so identical inputs give identical bytes.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

WIDTH = 640
HEIGHT = 440
MARGIN_L = 64
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _escape(text: str) -> str:
    """&, < and > as XML entities, as xml.sax.saxutils.escape writes them;
    importing that module loads urllib and ssl, several MB of memory."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise InvalidInputError("cannot plot non-finite value")
    text = f"{v:.6g}"
    return "0" if text == "-0" else text


def _finite_array(values, name) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def nice_ticks(lo: float, hi: float, target: int = 5):
    """Round tick positions on a 1/2/5 ladder covering [lo, hi]."""
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        pad = max(0.5, abs(lo) * 0.5)
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(1, target)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [t * step for t in range(first, last + 1)], (lo, hi)


class _Frame:
    """Maps data coordinates onto the plot rectangle."""

    def __init__(self, xlo, xhi, ylo, yhi):
        self.xticks, (self.xlo, self.xhi) = nice_ticks(xlo, xhi)
        self.yticks, (self.ylo, self.yhi) = nice_ticks(ylo, yhi)

    def x(self, v):
        span = self.xhi - self.xlo
        return MARGIN_L + (v - self.xlo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v):
        span = self.yhi - self.ylo
        return HEIGHT - MARGIN_B - (v - self.ylo) / span * (HEIGHT - MARGIN_T - MARGIN_B)


def _open_svg(title: str):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15">'
        f"{_escape(title)}</text>",
    ]


def _axes(parts, frame, xlabel, ylabel):
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in frame.xticks:
        px = _fmt(frame.x(t))
        parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{px}" y="{y0 + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in frame.yticks:
        py = _fmt(frame.y(t))
        parts.append(f'<line x1="{x0 - 4}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py}" text-anchor="end" dominant-baseline="middle">'
            f"{_fmt(t)}</text>"
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 10}" text-anchor="middle">'
        f"{_escape(xlabel)}</text>"
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">{_escape(ylabel)}</text>'
    )


def _legend(parts, names):
    for i, name in enumerate(names):
        px = MARGIN_L + 10
        py = MARGIN_T + 8 + 16 * i
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<rect x="{px}" y="{py - 8}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{px + 15}" y="{py + 1}">{_escape(str(name))}</text>')


def scatter_plot(xs, ys, *, title="", xlabel="", ylabel="", diagonal=False) -> str:
    """Point cloud; diagonal=True adds the y = x reference line."""
    xs = _finite_array(xs, "xs")
    ys = _finite_array(ys, "ys")
    if xs.shape != ys.shape:
        raise InvalidInputError("xs and ys must have equal length")
    frame = _Frame(xs.min(), xs.max(), ys.min(), ys.max())
    parts = _open_svg(title)
    _axes(parts, frame, xlabel, ylabel)
    if diagonal:
        lo = max(frame.xlo, frame.ylo)
        hi = min(frame.xhi, frame.yhi)
        if hi > lo:
            parts.append(
                f'<line x1="{_fmt(frame.x(lo))}" y1="{_fmt(frame.y(lo))}" '
                f'x2="{_fmt(frame.x(hi))}" y2="{_fmt(frame.y(hi))}" '
                'stroke="#888888" stroke-dasharray="4 3"/>'
            )
    for px, py in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(frame.x(px))}" cy="{_fmt(frame.y(py))}" r="3" '
            f'fill="{PALETTE[0]}" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_plot(x, series, *, title="", xlabel="", ylabel="") -> str:
    """series: list of (name, y-values) drawn over the shared x."""
    x = _finite_array(x, "x")
    if not series:
        raise InvalidInputError("need at least one series")
    cleaned = []
    for name, ys in series:
        ys = _finite_array(ys, f"series {name!r}")
        if ys.shape != x.shape:
            raise InvalidInputError(f"series {name!r} length differs from x")
        cleaned.append((str(name), ys))
    ymin = min(ys.min() for _, ys in cleaned)
    ymax = max(ys.max() for _, ys in cleaned)
    frame = _Frame(x.min(), x.max(), ymin, ymax)
    parts = _open_svg(title)
    _axes(parts, frame, xlabel, ylabel)
    for i, (name, ys) in enumerate(cleaned):
        pts = " ".join(f"{_fmt(frame.x(px))},{_fmt(frame.y(py))}" for px, py in zip(x, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.5"/>'
        )
    _legend(parts, [name for name, _ in cleaned])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
