"""Static SVG pictures of instances: vertices, unit-distance edges, color
hues, and optional cover-region overlays from a disk-case trace.

Output is built from sorted data with fixed number formatting, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from .core import Instance
from .cover import REGIONS, DiskCaseTrace
from .geom import Point, _homogeneous, hull_decomposition
from .matching import Coloring

_WIDTH = 640.0
_PAD = 0.15  # world-units of padding around the drawing

_REGION_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd")  # one per REGIONS


def _hue(i: int, total: int) -> str:
    return f"hsl({(i * 360) // max(total, 1)},65%,55%)"


def render_svg(inst: Instance, coloring: Coloring | None = None,
               trace: DiskCaseTrace | None = None) -> str:
    pts = list(inst.points)
    h = list(inst.homogeneous)
    if trace is not None and trace.p_virtual:
        pts.append(trace.p_point)
        h.append(_homogeneous(trace.p_point))
    xs = [float(p.x) for p in pts] or [0.0]
    ys = [float(p.y) for p in pts] or [0.0]
    lo_x, hi_x = min(xs) - _PAD, max(xs) + _PAD
    lo_y, hi_y = min(ys) - _PAD, max(ys) + _PAD
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = _WIDTH / span
    height = (hi_y - lo_y) * scale

    def sx(p: Point) -> float:
        return (float(p.x) - lo_x) * scale

    def sy(p: Point) -> float:
        return (hi_y - float(p.y)) * scale  # flip: SVG y grows downward

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {_WIDTH:.0f} {height:.0f}">']
    out.append(f'<!-- instance {inst.id} n={inst.n} -->')

    g = inst.graph
    for u, v in g.edges():
        a, b = inst.points[u], inst.points[v]
        out.append(f'<line x1="{sx(a):.2f}" y1="{sy(a):.2f}" '
                   f'x2="{sx(b):.2f}" y2="{sy(b):.2f}" '
                   f'stroke="#999999" stroke-width="1.2"/>')

    if trace is not None:
        for name, color in zip(REGIONS, _REGION_COLORS):
            ids = sorted(trace.sets[f"region {name}"])
            if len(ids) < 2:
                continue
            hd = hull_decomposition([h[i] for i in ids])
            ring = [pts[ids[i]] for i in hd.boundary]
            path = " ".join(f"{sx(p):.2f},{sy(p):.2f}" for p in ring)
            out.append(f'<polygon points="{path}" fill="{color}" '
                       f'fill-opacity="0.10" stroke="{color}" '
                       f'stroke-width="1.5" stroke-dasharray="6,3">'
                       f'<title>{name}</title></polygon>')

    total = coloring.num_colors if coloring is not None else 1
    for v, p in enumerate(inst.points):
        fill = _hue(coloring.assignment[v], total) if coloring is not None else "#4488cc"
        out.append(f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="6" '
                   f'fill="{fill}" stroke="#222222" stroke-width="1"/>')
        out.append(f'<text x="{sx(p) + 8:.2f}" y="{sy(p) - 8:.2f}" '
                   f'font-size="11" font-family="monospace" '
                   f'fill="#333333">{v}</text>')

    if trace is not None and trace.p_virtual:
        p = trace.p_point
        out.append(f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="4" '
                   f'fill="none" stroke="#000000" stroke-width="1.5" '
                   f'stroke-dasharray="2,2"><title>p</title></circle>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
