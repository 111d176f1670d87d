"""Static SVG pictures of instances: vertices, unit-distance edges, color
hues, and optional cover-region overlays from a disk-case trace.

Output is built from sorted data with fixed number formatting, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from .core import Instance
from .cover import REGIONS, DiskCaseTrace
from .errors import ParseError
from .geom import _homogeneous, hull_decomposition
from .matching import Coloring

_WIDTH = 640.0
_PAD = 0.15  # world-units of padding around the drawing

_REGION_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd")  # one per REGIONS


def _hue(i: int, total: int) -> str:
    return f"hsl({(i * 360) // max(total, 1)},65%,55%)"


def render_svg(inst: Instance, coloring: Coloring | None = None,
               trace: DiskCaseTrace | None = None) -> str:
    """The SVG text; ParseError names a point it cannot draw in floats."""
    pts = list(inst.points)
    h = list(inst.homogeneous)
    if trace is not None and trace.p_virtual:
        pts.append(trace.p_point)  # drawn as vertex n
        h.append(_homogeneous(trace.p_point))
    xy = []
    for v, p in enumerate(pts):
        try:
            xy.append((float(p.x), float(p.y)))
        except OverflowError:
            name = "trace p" if v == inst.n else f"vertex {v}"
            raise ParseError(1, f"{name} has a coordinate beyond the float range") from None
    xs, ys = zip(*xy) if xy else ((0.0,), (0.0,))
    lo_x, hi_x = min(xs) - _PAD, max(xs) + _PAD
    lo_y, hi_y = min(ys) - _PAD, max(ys) + _PAD
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = _WIDTH / span
    height = (hi_y - lo_y) * scale

    def sx(v: int) -> float:
        return (xy[v][0] - lo_x) * scale

    def sy(v: int) -> float:
        return (hi_y - xy[v][1]) * scale  # flip: SVG y grows downward

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {_WIDTH:.0f} {height:.0f}">']
    out.append(f'<!-- instance {inst.id} n={inst.n} -->')

    g = inst.graph
    for u, v in g.edges():
        out.append(f'<line x1="{sx(u):.2f}" y1="{sy(u):.2f}" '
                   f'x2="{sx(v):.2f}" y2="{sy(v):.2f}" '
                   f'stroke="#999999" stroke-width="1.2"/>')

    if trace is not None:
        for name, color in zip(REGIONS, _REGION_COLORS):
            ids = sorted(trace.sets[f"region {name}"])
            if len(ids) < 2:
                continue
            hd = hull_decomposition([h[i] for i in ids])
            path = " ".join(f"{sx(ids[i]):.2f},{sy(ids[i]):.2f}" for i in hd.boundary)
            out.append(f'<polygon points="{path}" fill="{color}" '
                       f'fill-opacity="0.10" stroke="{color}" '
                       f'stroke-width="1.5" stroke-dasharray="6,3">'
                       f'<title>{name}</title></polygon>')

    total = coloring.num_colors if coloring is not None else 1
    for v in range(inst.n):
        fill = _hue(coloring.assignment[v], total) if coloring is not None else "#4488cc"
        out.append(f'<circle cx="{sx(v):.2f}" cy="{sy(v):.2f}" r="6" '
                   f'fill="{fill}" stroke="#222222" stroke-width="1"/>')
        out.append(f'<text x="{sx(v) + 8:.2f}" y="{sy(v) - 8:.2f}" '
                   f'font-size="11" font-family="monospace" '
                   f'fill="#333333">{v}</text>')

    if trace is not None and trace.p_virtual:
        out.append(f'<circle cx="{sx(inst.n):.2f}" cy="{sy(inst.n):.2f}" r="4" '
                   f'fill="none" stroke="#000000" stroke-width="1.5" '
                   f'stroke-dasharray="2,2"><title>p</title></circle>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
