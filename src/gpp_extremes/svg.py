"""Self-contained SVG line charts and grid heat maps.

Rendering is plain string assembly with fixed-precision coordinates, so a
given input always produces identical bytes; output files diff cleanly in
tests. Titles and labels are XML-escaped, so any region or period name
gives a well-formed file.
"""

from __future__ import annotations

import math

import numpy as np

LINE_WIDTH, LINE_HEIGHT = 720, 360  # line chart size in px
HEAT_WIDTH = 480  # heat map width budget in px, which sets the cell size

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]

# white -> yellow -> orange -> dark red
HEAT_STOPS = [
    (0.0, (255, 255, 255)),
    (0.25, (254, 227, 145)),
    (0.5, (254, 153, 41)),
    (0.75, (217, 71, 1)),
    (1.0, (127, 39, 4)),
]


def _escape(text: str) -> str:
    """``text`` as XML character data, as ``html.escape(text, quote=False)``
    gives it; importing ``html`` would load its entity table, about 0.45 MB."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5):
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def line_chart(x, series: dict, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Multi-series line chart; ``series`` maps label -> y array."""
    title, xlabel, ylabel = (_escape(t) for t in (title, xlabel, ylabel))
    width, height = LINE_WIDTH, LINE_HEIGHT
    x = np.asarray(x, dtype=float)
    left, right, top, bottom = 64, 16, 28, 44
    pw = width - left - right
    ph = height - top - bottom

    ys = [np.asarray(v, dtype=float) for v in series.values()]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys]) if ys else np.array([0.0])
    if finite.size == 0:
        finite = np.array([0.0])
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return top + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" font-size="13">{title}</text>',
    ]
    # axes and ticks
    out.append(
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{top + ph}" x2="{_fmt(px)}" '
            f'y2="{top + ph + 4}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{top + ph + 16}" text-anchor="middle">'
            f"{_tick_label(t)}</text>"
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{left - 4}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{left - 7}" y="{_fmt(py + 3)}" text-anchor="end">{_tick_label(t)}</text>'
        )
    out.append(
        f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>'
    )

    for idx, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        color = PALETTE[idx % len(PALETTE)]
        keep = np.isfinite(y)  # a gap: the point is left out
        pts = " ".join(f"{px:.2f},{py:.2f}"
                       for px, py in zip(sx(x[keep]).tolist(), sy(y[keep]).tolist()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        lx = left + pw - 120
        ly = top + 14 + 14 * idx
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _heat_color(frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    for (f0, c0), (f1, c1) in zip(HEAT_STOPS, HEAT_STOPS[1:]):
        if frac <= f1:
            t = 0.0 if f1 == f0 else (frac - f0) / (f1 - f0)
            rgb = [round(a + (b - a) * t) for a, b in zip(c0, c1)]
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"
    return "rgb(127,39,4)"


def heat_map(values: np.ndarray, title: str = "") -> str:
    """Grid heat map with the color scale normalized to this map's maximum.

    NaN cells (outside the region mask) render light gray. Each rendered
    map therefore carries its own scale, one per region.
    """
    title = _escape(title)
    values = np.asarray(values, dtype=float)
    n_lat, n_lon = values.shape
    cell_px = max(6, min(40, (HEAT_WIDTH - 80) // max(n_lon, 1)))
    legend_h = 40
    w = n_lon * cell_px + 32
    h = n_lat * cell_px + 40 + legend_h

    finite = values[np.isfinite(values)]
    vmax = float(finite.max()) if finite.size else 0.0
    if vmax <= 0:
        vmax = 1.0

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="16" text-anchor="middle" font-size="13">{title}</text>',
    ]
    x0, y0 = 16, 28
    for i in range(n_lat):
        for j in range(n_lon):
            v = values[i, j]
            fill = "#dddddd" if not math.isfinite(v) else _heat_color(v / vmax)
            out.append(
                f'<rect x="{x0 + j * cell_px}" y="{y0 + i * cell_px}" '
                f'width="{cell_px}" height="{cell_px}" fill="{fill}" '
                f'stroke="#999" stroke-width="0.5"/>'
            )
    # legend ramp
    ly = y0 + n_lat * cell_px + 14
    steps = 32
    ramp_w = max(n_lon * cell_px - 40, 80)
    for k in range(steps):
        out.append(
            f'<rect x="{_fmt(x0 + k * ramp_w / steps)}" y="{ly}" '
            f'width="{_fmt(ramp_w / steps + 0.5)}" height="10" '
            f'fill="{_heat_color(k / (steps - 1))}"/>'
        )
    out.append(f'<text x="{x0}" y="{ly + 22}">0</text>')
    out.append(
        f'<text x="{_fmt(x0 + ramp_w)}" y="{ly + 22}" text-anchor="end">{_tick_label(vmax)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
