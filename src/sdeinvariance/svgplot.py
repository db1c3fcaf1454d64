"""Tiny deterministic SVG line charts (no plotting dependency).

Output depends only on the input arrays and labels: fixed canvas, fixed
palette, fixed float formatting.  Long series are decimated to at most
_MAX_POINTS vertices with a uniform stride (endpoints kept), which is
plenty for a 720-pixel-wide plot.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

_WIDTH = 720
_HEIGHT = 420
_MARGIN_L = 62
_MARGIN_R = 14
_MARGIN_T = 30
_MARGIN_B = 44
_MAX_POINTS = 2000
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b")
_MAX = float(np.finfo(float).max)


def _spread(values: np.ndarray) -> Tuple[float, float]:
    """Halves, which are exact and keep every span finite, of the axis
    limits padding the finite values; (-1, 1) if there are none."""
    finite = values[np.isfinite(values)] / 2
    if finite.size == 0:
        finite = np.zeros(1)
    lo, hi = float(finite.min()), float(finite.max())
    pad = 0.04 * (hi - lo)
    if hi <= lo:  # a flat series
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.1
    return max(lo - pad, -_MAX / 2), min(hi + pad, _MAX / 2)


def _decimate(n: int) -> np.ndarray:
    if n <= _MAX_POINTS:
        return np.arange(n)
    stride = int(np.ceil(n / _MAX_POINTS))
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def line_chart(x, series: Sequence[Tuple[str, Sequence[float]]],
               title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render labelled series over a shared x axis to an SVG string."""
    x = np.asarray(x, dtype=float)
    ys = [(str(label), np.asarray(y, dtype=float)) for label, y in series]
    for label, y in ys:
        if y.shape != x.shape:
            raise ValueError(f"series {label!r} length does not match x")
    x_lo, x_hi = _spread(x)  # halves, as are px's and py's arithmetic
    y_lo, y_hi = _spread(np.concatenate([y for _, y in ys]) if ys else x[:0])

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v / 2 - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v / 2) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">']
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" '
               'fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{_MARGIN_L}" y="19" font-family="sans-serif" '
                   f'font-size="14" fill="#222222">{_esc(title)}</text>')
    # axes box and ticks
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#444444" '
               'stroke-width="1"/>')
    for k in range(5):
        frac = k / 4
        # doubled back: an end rounded past _MAX / 2 stays _MAX
        xv, yv = (min(max(2.0 * (lo + frac * (hi - lo)), -_MAX), _MAX)
                  for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)))
        xp = _MARGIN_L + frac * plot_w
        yp = _MARGIN_T + plot_h - frac * plot_h
        out.append(f'<line x1="{xp:.2f}" y1="{_MARGIN_T + plot_h}" '
                   f'x2="{xp:.2f}" y2="{_MARGIN_T + plot_h + 5}" '
                   'stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{xp:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                   'font-family="sans-serif" font-size="11" fill="#333333" '
                   f'text-anchor="middle">{xv:.4g}</text>')
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{yp:.2f}" '
                   f'x2="{_MARGIN_L}" y2="{yp:.2f}" stroke="#444444" '
                   'stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{yp + 4:.2f}" '
                   'font-family="sans-serif" font-size="11" fill="#333333" '
                   f'text-anchor="end">{yv:.4g}</text>')
    if x_label:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" '
                   f'y="{_HEIGHT - 8}" font-family="sans-serif" '
                   'font-size="12" fill="#222222" '
                   f'text-anchor="middle">{_esc(x_label)}</text>')
    if y_label:
        yc = _MARGIN_T + plot_h / 2
        out.append(f'<text x="16" y="{yc:.2f}" font-family="sans-serif" '
                   'font-size="12" fill="#222222" text-anchor="middle" '
                   f'transform="rotate(-90 16 {yc:.2f})">'
                   f'{_esc(y_label)}</text>')
    idx = _decimate(x.size)
    xs = x[idx].tolist()
    for s, (label, y) in enumerate(ys):
        color = _PALETTE[s % len(_PALETTE)]
        pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}"
                       for xv, yv in zip(xs, y[idx].tolist())
                       if math.isfinite(xv) and math.isfinite(yv))
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.5" points="{pts}"/>')
        lx = _MARGIN_L + plot_w - 110
        ly = _MARGIN_T + 16 + 16 * s
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11" fill="#222222">{_esc(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
