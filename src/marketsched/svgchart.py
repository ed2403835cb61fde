"""Dependency-free SVG line charts with mean +/- std bands.

Output is plain polylines and polygons with fixed-precision coordinates, so
the same input always produces the same bytes.
"""

from __future__ import annotations

PALETTE = ["#2ca02c", "#d62728", "#1f77b4", "#ff7f0e", "#9467bd", "#8c564b",
           "#e377c2", "#17becf"]

WIDTH = 880
HEIGHT = 520
MARGIN_LEFT = 70
MARGIN_RIGHT = 210
MARGIN_TOP = 40
MARGIN_BOTTOM = 55


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def render_line_chart(series: list, title: str, x_label: str, y_label: str) -> str:
    """One line per series, labelled ``name``, through its ``steps`` and
    ``values``, in a band of half-width ``stds``: the fields of a
    ``harness.CsvSeries``, of which the list holds one or more."""
    xs_all = [x for s in series for x in s.steps]
    lo_all, hi_all = [], []
    for s in series:
        lo_all.extend(y - b for y, b in zip(s.values, s.stds))
        hi_all.extend(y + b for y, b in zip(s.values, s.stds))
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(lo_all), max(hi_all)
    if x_min == x_max:
        x_max = x_min + 1
    if y_min == y_max:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    plot_left, plot_right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_top, plot_bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def px(x: float) -> float:
        return plot_left + (x - x_min) / (x_max - x_min) * (plot_right - plot_left)

    def py(y: float) -> float:
        return plot_bottom - (y - y_min) / (y_max - y_min) * (plot_bottom - plot_top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{(plot_left + plot_right) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{_escape(title)}</text>',
    ]

    # horizontal grid with y tick labels
    ticks = 5
    for i in range(ticks + 1):
        value = y_min + (y_max - y_min) * i / ticks
        y = py(value)
        out.append(f'<line x1="{plot_left}" y1="{y:.2f}" x2="{plot_right}" '
                   f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{plot_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{value:.3g}</text>')
    for i in range(ticks + 1):
        value = x_min + (x_max - x_min) * i / ticks
        x = px(value)
        out.append(f'<line x1="{x:.2f}" y1="{plot_bottom}" x2="{x:.2f}" '
                   f'y2="{plot_bottom + 5}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{plot_bottom + 20}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{value:.6g}</text>')

    out.append(f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" '
               f'y2="{plot_bottom}" stroke="#000000" stroke-width="1.5"/>')
    out.append(f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" '
               f'y2="{plot_bottom}" stroke="#000000" stroke-width="1.5"/>')
    out.append(f'<text x="{(plot_left + plot_right) / 2:.1f}" y="{HEIGHT - 14}" '
               f'text-anchor="middle" font-size="13" font-family="sans-serif">'
               f'{_escape(x_label)}</text>')
    out.append(f'<text x="18" y="{(plot_top + plot_bottom) / 2:.1f}" '
               f'text-anchor="middle" font-size="13" font-family="sans-serif" '
               f'transform="rotate(-90 18 {(plot_top + plot_bottom) / 2:.1f})">'
               f'{_escape(y_label)}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if any(b > 0 for b in s.stds):
            upper = [(px(x), py(y + b)) for x, y, b in zip(s.steps, s.values, s.stds)]
            lower = [(px(x), py(y - b)) for x, y, b in zip(s.steps, s.values, s.stds)]
            points = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
            out.append(f'<polygon points="{points}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.steps, s.values))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
        ly = plot_top + 16 + idx * 20
        lx = plot_right + 14
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="3"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
                   f'font-family="sans-serif">{_escape(s.name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
