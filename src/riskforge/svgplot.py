"""Minimal deterministic SVG line charts.

No display or plotting dependency: charts are written as plain SVG text
with fixed formatting, so identical inputs produce byte-identical files
(required for reproducible run directories). ``line_chart`` writes its
file in place; a caller that needs the write to be atomic writes to a
temporary path and renames it.
"""

import math
from dataclasses import dataclass

PALETTE = ("#1f6fb4", "#d1495b", "#2e8b57", "#e0a100", "#6f42c1",
           "#178a9e", "#8a5a44", "#5c5c5c")

W, H = 720, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 44, 56


@dataclass
class Series:
    name: str
    xs: list
    ys: list
    dash: str = ""      # e.g. "6,4" for dashed


def _fmt(v):
    return f"{v:.6g}"


def _nice_ticks(lo, hi, n=5):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for step in (1, 2, 2.5, 5, 10):
        if raw <= step * mag:
            break
    step *= mag
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


def line_chart(path, series, *, title="", xlabel="", ylabel="",
               vlines=(), diagonal=False, ylim=None):
    """Write a line chart; ``vlines`` are (value, label) pairs."""
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys if math.isfinite(y)]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    for v, _ in vlines:
        x_lo, x_hi = min(x_lo, v), max(x_hi, v)
    if ylim is not None:
        y_lo, y_hi = ylim
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = W - MARGIN_L - MARGIN_R
    ih = H - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + iw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + ih * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis_style = 'stroke="#333333" stroke-width="1"'
    parts.append(f'<line x1="{MARGIN_L}" y1="{H - MARGIN_B}" x2="{W - MARGIN_R}" '
                 f'y2="{H - MARGIN_B}" {axis_style}/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{H - MARGIN_B}" {axis_style}/>')
    for t in _nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        x = px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{H - MARGIN_B}" x2="{_fmt(x)}" '
                     f'y2="{H - MARGIN_B + 5}" {axis_style}/>')
        parts.append(f'<text x="{_fmt(x)}" y="{H - MARGIN_B + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if t < y_lo - 1e-12 or t > y_hi + 1e-12:
            continue
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
                     f'y2="{_fmt(y)}" {axis_style}/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{W / 2:.1f}" y="{H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{H / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {H / 2:.1f})">{ylabel}</text>')

    if diagonal:
        parts.append(f'<line x1="{_fmt(px(max(x_lo, y_lo)))}" y1="{_fmt(py(max(x_lo, y_lo)))}" '
                     f'x2="{_fmt(px(min(x_hi, y_hi)))}" y2="{_fmt(py(min(x_hi, y_hi)))}" '
                     f'stroke="#999999" stroke-width="1" stroke-dasharray="4,4"/>')
    for v, label in vlines:
        parts.append(f'<line x1="{_fmt(px(v))}" y1="{MARGIN_T}" x2="{_fmt(px(v))}" '
                     f'y2="{H - MARGIN_B}" stroke="#555555" stroke-width="1" '
                     f'stroke-dasharray="6,4"/>')
        if label:
            parts.append(f'<text x="{_fmt(px(v) + 4)}" y="{MARGIN_T + 14}" '
                         f'font-family="sans-serif" font-size="11">{label}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                       for x, y in zip(s.xs, s.ys) if math.isfinite(y))
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"{dash}/>')
        ly = MARGIN_T + 16 + 16 * i
        lx = W - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{s.name}</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
