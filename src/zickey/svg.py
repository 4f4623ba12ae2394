"""Small dependency-free SVG line charts for the command line tools.

Output is plain text built from the data alone (no timestamps, no
randomness), so rerunning a command reproduces the file byte for byte.
"""

from __future__ import annotations

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 660, 460
_ML, _MR, _MT, _MB = 62, 170, 34, 50


def escape(text: str) -> str:
    """text with &, < and > as character references; quotes stay."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _span(vals):
    lo, hi = min(vals), max(vals)
    lo = min(lo, 0.0)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.04 * (hi - lo)
    return lo, hi + pad


def polyline_chart(series, xlabel: str, ylabel: str, title: str = "") -> str:
    """SVG chart of named polylines.

    `series` is a sequence of (name, points) pairs with points a
    sequence of (x, y). Colors follow the series order.
    """
    pts_all = [p for _, pts in series for p in pts]
    if not pts_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _span([p[0] for p in pts_all])
    y_lo, y_hi = _span([p[1] for p in pts_all])
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * iw

    def sy(y):
        return _MT + ih - (y - y_lo) / (y_hi - y_lo) * ih

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        out.append(f'<text x="{_ML}" y="20" font-family="sans-serif" '
                   f'font-size="14" font-weight="bold">{escape(title)}</text>')

    n_ticks = 6
    for i in range(n_ticks):
        fx = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        fy = y_lo + (y_hi - y_lo) * i / (n_ticks - 1)
        px, py = _fmt(sx(fx)), _fmt(sy(fy))
        out.append(f'<line x1="{px}" y1="{_MT}" x2="{px}" y2="{_MT + ih}" '
                   'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<line x1="{_ML}" y1="{py}" x2="{_ML + iw}" y2="{py}" '
                   'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px}" y="{_MT + ih + 16}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{_fmt(fx)}</text>')
        out.append(f'<text x="{_ML - 6}" y="{py}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end" '
                   f'dominant-baseline="middle">{_fmt(fy)}</text>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" '
               'fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{_ML + iw / 2:.6g}" y="{_H - 10}" '
               'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">{escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{_MT + ih / 2:.6g}" font-family="sans-serif" '
               'font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 16 {_MT + ih / 2:.6g})">'
               f'{escape(ylabel)}</text>')

    for idx, (name, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                       f'r="2.2" fill="{color}"/>')
        ly = _MT + 14 + 18 * idx
        out.append(f'<line x1="{_ML + iw + 12}" y1="{ly}" '
                   f'x2="{_ML + iw + 34}" y2="{ly}" stroke="{color}" '
                   'stroke-width="1.8"/>')
        out.append(f'<text x="{_ML + iw + 40}" y="{ly + 4}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{escape(name)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
