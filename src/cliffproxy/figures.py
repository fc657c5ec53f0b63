"""Self-contained SVG rendering for the scenario summary figures.

Histograms, grouped bar charts with error bars, and scatter plots are
simple enough to emit directly as SVG text; no plotting dependency and no
external renderer, so figures regenerate bit-identically from their CSVs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["svg_histogram", "svg_grouped_bars", "svg_scatter"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 60


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>',
    ]


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes(x0, x1, y0, y1, xlabel, ylabel):
    parts = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 15}" text-anchor="middle">{_escape(xlabel)}</text>',
        f'<text x="18" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2})">{_escape(ylabel)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        xpix = _ML + frac * (_W - _ML - _MR)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{_H - _MB}" x2="{_fmt(xpix)}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xpix)}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(xv)}</text>'
        )
        yv = y0 + frac * (y1 - y0)
        ypix = _H - _MB - frac * (_H - _MT - _MB)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(ypix)}" x2="{_ML}" y2="{_fmt(ypix)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(ypix + 4)}" text-anchor="end">{_fmt(yv)}</text>'
        )
    return parts


def _xpix(v, x0, x1):
    return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)


def _ypix(v, y0, y1):
    return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)


def svg_histogram(values, bins: int, title: str, xlabel: str) -> str:
    values = np.asarray(list(values), dtype=float)
    if len(values) == 0:
        raise ValueError("no data to plot")
    counts, edges = np.histogram(values, bins=bins)
    x0, x1 = float(edges[0]), float(edges[-1])
    if x0 == x1:
        x0 -= 0.5
        x1 += 0.5
    y1 = max(1.0, counts.max() * 1.1)
    parts = _header(title) + _axes(x0, x1, 0.0, y1, xlabel, "count")
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        xp = _xpix(lo, x0, x1)
        wp = _xpix(hi, x0, x1) - xp
        yp = _ypix(float(c), 0.0, y1)
        hp = _H - _MB - yp
        parts.append(
            f'<rect x="{_fmt(xp)}" y="{_fmt(yp)}" width="{_fmt(wp)}" height="{_fmt(hp)}" '
            f'fill="#4878cf" stroke="white" stroke-width="0.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_SERIES_COLORS = ("#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4", "#8c613c")


def svg_grouped_bars(group_labels, series: dict, title: str, xlabel: str, ylabel: str) -> str:
    """``series`` maps name -> (means, stderrs) aligned with ``group_labels``."""
    if not group_labels or not series:
        raise ValueError("no data to plot")
    names = list(series)
    num_groups = len(group_labels)
    num_series = len(names)
    tops = [
        m + (e or 0.0)
        for name in names
        for m, e in zip(series[name][0], series[name][1])
        if m is not None
    ]
    if not tops:
        raise ValueError("no data to plot")
    y1 = max(tops) * 1.15
    y0 = min(0.0, min(m for name in names for m in series[name][0] if m is not None))
    parts = _header(title) + _axes(0, num_groups, y0, y1, xlabel, ylabel)
    span = _W - _ML - _MR
    group_w = span / num_groups
    bar_w = group_w * 0.8 / num_series
    for gi, glabel in enumerate(group_labels):
        gx = _ML + gi * group_w
        parts.append(
            f'<text x="{_fmt(gx + group_w / 2)}" y="{_H - _MB + 32}" text-anchor="middle">{_escape(str(glabel))}</text>'
        )
        for si, name in enumerate(names):
            mean = series[name][0][gi]
            err = series[name][1][gi]
            if mean is None:
                continue
            x = gx + group_w * 0.1 + si * bar_w
            ybase = _ypix(max(y0, 0.0), y0, y1)
            ytop = _ypix(mean, y0, y1)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(min(ytop, ybase))}" width="{_fmt(bar_w * 0.9)}" '
                f'height="{_fmt(abs(ybase - ytop))}" fill="{_SERIES_COLORS[si % len(_SERIES_COLORS)]}"/>'
            )
            if err:
                cx = x + bar_w * 0.45
                ylo = _ypix(mean - err, y0, y1)
                yhi = _ypix(mean + err, y0, y1)
                parts.append(
                    f'<line x1="{_fmt(cx)}" y1="{_fmt(ylo)}" x2="{_fmt(cx)}" y2="{_fmt(yhi)}" stroke="black"/>'
                )
                for yy in (ylo, yhi):
                    parts.append(
                        f'<line x1="{_fmt(cx - 3)}" y1="{_fmt(yy)}" x2="{_fmt(cx + 3)}" y2="{_fmt(yy)}" stroke="black"/>'
                    )
    for si, name in enumerate(names):
        lx = _ML + 10
        ly = _MT + 14 * si
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="10" height="10" fill="{_SERIES_COLORS[si % len(_SERIES_COLORS)]}"/>'
        )
        parts.append(f'<text x="{lx + 14}" y="{ly + 9}">{_escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_scatter(xs, ys, title: str, xlabel: str, ylabel: str) -> str:
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if len(xs) == 0 or len(xs) != len(ys):
        raise ValueError("no data to plot")
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(min(ys.min(), 0.0)), float(ys.max())
    if x0 == x1:
        x0 -= 0.5
        x1 += 0.5
    if y0 == y1:
        y0 -= 0.5
        y1 += 0.5
    y1 += 0.05 * (y1 - y0)
    parts = _header(title) + _axes(x0, x1, y0, y1, xlabel, ylabel)
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(_xpix(x, x0, x1))}" cy="{_fmt(_ypix(y, y0, y1))}" r="3.5" '
            f'fill="#4878cf" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
