"""Standalone SVG plots, no external renderer required.

Output is a pure function of the inputs (fixed canvas, fixed float
formatting, no timestamps), so identical data produces byte-identical
files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import EmptySeries

__all__ = ["line_plot", "histogram_plot"]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 5):
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float):
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_exp, hi_exp + 1)]


class _Frame:
    """Maps data coordinates to the pixel viewport."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, log_y=False):
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi <= y_lo:  # a decade either side on a log axis, which has no room below 0
            y_lo, y_hi = (y_lo / 10.0, y_hi * 10.0) if log_y else (y_lo - 0.5, y_hi + 0.5)
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.log_y = log_y

    def px(self, x):
        """Pixel column of a value or, element by element, of an array."""
        f = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _MARGIN_L + f * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y):
        """Pixel row of a value or, element by element, of an array."""
        if self.log_y:
            # math.log10 per value, so the bits do not depend on numpy's log10
            log = (np.array(list(map(math.log10, y.tolist())))
                   if isinstance(y, np.ndarray) else math.log10(y))
            f = (log - math.log10(self.y_lo)) / (
                math.log10(self.y_hi) - math.log10(self.y_lo))
        else:
            f = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _HEIGHT - _MARGIN_B - f * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def _axes(frame, title, xlabel, ylabel):
    parts = []
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 'fill="none" stroke="#333333" stroke-width="1"/>')
    xticks = _nice_ticks(frame.x_lo, frame.x_hi)
    yticks = (_log_ticks(frame.y_lo, frame.y_hi) if frame.log_y
              else _nice_ticks(frame.y_lo, frame.y_hi))
    for t in xticks:
        px = frame.px(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" '
                     'stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#333333">{_label(t)}</text>')
    for t in yticks:
        if frame.log_y and not (frame.y_lo <= t <= frame.y_hi):
            continue
        py = frame.py(t)
        parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
                     'stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end" fill="#333333">{_label(t)}</text>')
    if title:
        parts.append(f'<text x="{_WIDTH // 2}" y="{_MARGIN_T - 12}" font-size="14" '
                     f'text-anchor="middle" fill="#111111">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" font-size="12" '
                     f'text-anchor="middle" fill="#111111">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_HEIGHT // 2}" font-size="12" text-anchor="middle" '
                     f'fill="#111111" transform="rotate(-90 16 {_HEIGHT // 2})">{ylabel}</text>')
    return parts


def _polyline(frame, xs, ys, color) -> str:
    points = " ".join(map("{:.2f},{:.2f}".format, frame.px(xs).tolist(), frame.py(ys).tolist()))
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _write(path, parts) -> Path:
    """The SVG document of ``parts`` written to ``path``, its directory made if missing."""
    body = "\n".join(parts)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
                    f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
                    f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n'
                    f"{body}\n</svg>\n", encoding="utf-8")
    return path


def line_plot(path, x, series, labels=None, title="", xlabel="", ylabel="",
              log_y=False) -> Path:
    """Polyline plot of one or more y-series against shared x values.

    With ``log_y`` non-positive samples are dropped from the plot (log
    axes cannot show them); a series with nothing left raises EmptySeries.
    """
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    if x.size == 0 or not series or any(s.size != x.size for s in series):
        raise EmptySeries("line plot needs one or more non-empty series matching x")
    if log_y:
        kept = [(x[s > 0], s[s > 0]) for s in series]
        if any(xs.size == 0 for xs, _ in kept):
            raise EmptySeries("log-scale plot has no positive samples")
        y_lo = min(ys.min() for _, ys in kept)
        y_hi = max(ys.max() for _, ys in kept)
        frame = _Frame(x.min(), x.max(), y_lo, y_hi, log_y=True)
    else:
        kept = [(x, s) for s in series]
        frame = _Frame(x.min(), x.max(), min(s.min() for s in series),
                       max(s.max() for s in series))

    parts = _axes(frame, title, xlabel, ylabel)
    for i, (xs, ys) in enumerate(kept):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(_polyline(frame, xs, ys, color))
        if labels:
            ly = _MARGIN_T + 14 + 14 * i
            lx = _WIDTH - _MARGIN_R - 140
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 24}" y="{ly}" font-size="11" '
                         f'fill="#111111">{labels[i]}</text>')
    return _write(path, parts)


def histogram_plot(path, edges, counts, overlay=None, title="", xlabel="",
                   ylabel="") -> Path:
    """Bar plot of binned counts, optionally with an (x, y) overlay curve."""
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0 or edges.size != counts.size + 1:
        raise EmptySeries("histogram needs counts and matching edges")
    y_hi = counts.max()
    if overlay is not None:
        y_hi = max(y_hi, np.asarray(overlay[1], float).max())
    frame = _Frame(edges[0], edges[-1], 0.0, float(y_hi) * 1.05)

    parts = _axes(frame, title, xlabel, ylabel)
    base = frame.py(0.0)
    for i, c in enumerate(counts):
        x_left = frame.px(edges[i])
        x_right = frame.px(edges[i + 1])
        top = frame.py(c)
        parts.append(f'<rect x="{_fmt(x_left)}" y="{_fmt(top)}" '
                     f'width="{_fmt(x_right - x_left)}" height="{_fmt(base - top)}" '
                     'fill="#1f77b4" fill-opacity="0.6" stroke="#1f77b4"/>')
    if overlay is not None:
        parts.append(_polyline(frame, np.asarray(overlay[0], float),
                               np.asarray(overlay[1], float), "#d62728"))
    return _write(path, parts)
