"""Exact planar geometry over rational coordinates.

Every predicate is exact; there are no floating-point code paths and no
epsilons.  Adjacency thresholds elsewhere in the library reduce to comparing
squared distances against 1 and 3.

The convex hull, the smallest enclosing disk, the (x, y) order
(``_lex_order``), orientation and segment crossing, and the cover's dispatch
tests (``_sq_dist_sign``, ``_line``) run on per-point homogeneous integers:
a point becomes (X, Y, W) with W the lcm of its own two denominators
(``_homogeneous``), a disk (UX, UY, UW, R2) with centre (UX/UW, UY/UW) and
squared radius R2/UW**2, and every test is a cross-multiplied integer
comparison with no gcd.  ``hull_decomposition``, ``smallest_enclosing_disk``
and ``PreparedHull`` take these triples.  ``core.build_instance`` converts
each point once (``Instance.homogeneous``), the disk case its centre, and
``point_in_hull``, ``orientation`` and ``segments_cross`` their Points on
entry.  The enclosing disk is turned back into Fractions once, so it equals
what the same decisions on Fractions give.

Only ``sq_dist`` and ``cross``, which return a rational value, compute in
Fractions, and ``core.instance_graph`` still builds the unit-distance graph
with ``sq_dist``.  The integer build is ``core._unit_masks``
(``_sq_dist_sign(a, b, 1) <= 0``, inlined, over ``Instance.homogeneous``);
it and ``instance_graph`` are tested against a Fraction pair loop kept in
the tests, and so far it serves only the circulant generator's check, which
``cover``, ``color`` and ``audit`` never reach.  On integers the build is
many times faster, but
``perfbench/run.py`` keeps every pass's artifacts until a run ends (a
``disk`` pass: about 254 KB of strings, 229 KB of them the audit text held
twice, as the ``-o`` file and stdout), so more passes read as more memory.
A 30 s ``disk`` run at seed 1 made 11 passes of the Fraction build and
peaked at 25.5 MB; a prototype with the integer build, artifacts unchanged,
made 56 passes and peaked at 37.7 MB (+48 %), and on ``far_pair`` 60 passes
against 9, 35.5 MB against 24.4 MB (Python 3.11, 2 vCPU Xeon): far beyond
the 5 % bound on ``peak_rss_mb``, by an amount that depends on the host's
speed.  The build moves, as a switch of ``instance_graph`` to
``_unit_masks``, once the benchmark keeps only what its metrics need
(ROADMAP item 1, step A).

There is deliberately no global lcm.  A common denominator grows with the
number of distinct denominators: for 120 points with distinct 20-bit prime
denominators it has about 4,700 bits.  Scaled by it, the hull chain alone
took 123 ms and the enclosing disk 1.7 s, against 30 ms and 35 ms for the
Fraction hull decomposition and disk, and 1.6 ms and 1.7 ms on per-point
integers (Python 3.11, one Xeon core).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import EmptyInput

# orientation() results
CCW = 1
COLLINEAR = 0
CW = -1

# point_in_hull() results
INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

# Fixed seed for the enclosing-disk insertion order; recorded here so runs
# are reproducible byte for byte.
_SED_SHUFFLE_SEED = 4099


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction


def point(x: int | str | Fraction, y: int | str | Fraction) -> Point:
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Disk:
    center: Point
    radius_sq: Fraction


@dataclass(frozen=True)
class HullDecomposition:
    """Circular boundary order plus strict-interior set of the input indices.

    ``boundary`` walks the hull of the input points and includes points lying
    on hull edges, ordered by position along each edge.  When all points are
    collinear there is no circular structure: ``boundary`` is then the sorted
    order along the line and ``is_collinear`` is set so callers can branch.
    """

    boundary: tuple[int, ...]
    interior: frozenset[int]
    is_collinear: bool


def sq_dist(p: Point, q: Point) -> Fraction:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed parallelogram area of (a-o) x (b-o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


# A point (X/W, Y/W) as the integers (X, Y, W), with W > 0.
Homogeneous = tuple[int, int, int]


def _homogeneous(p: Point) -> Homogeneous:
    """p as (X, Y, W) with W the lcm of its two denominators."""
    x, y = p.x, p.y
    xd, yd = x.denominator, y.denominator
    if xd == yd:
        return x.numerator, y.numerator, xd
    w = math.lcm(xd, yd)
    return x.numerator * (w // xd), y.numerator * (w // yd), w


def _sq_dist_sign(a: Homogeneous, b: Homogeneous, t: int) -> int:
    """An integer of the sign of |ab|**2 - t: |ab|**2 is
    (DX**2 + DY**2) / (Wa*Wb)**2 with DX = Xa*Wb - Xb*Wa and DY likewise."""
    ax, ay, aw = a
    bx, by, bw = b
    dx = ax * bw - bx * aw
    dy = ay * bw - by * aw
    ww = aw * bw
    return dx * dx + dy * dy - t * ww * ww


def _line(a: Homogeneous, b: Homogeneous) -> Homogeneous:
    """The cross product a x b: the line through a and b as (LX, LY, LW),
    with LX*X + LY*Y + LW*W of the sign of orientation(a, b, c) for every
    c = (X, Y, W)."""
    ax, ay, aw = a
    bx, by, bw = b
    return ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx


def _in_box(a: Homogeneous, b: Homogeneous, c: Homogeneous) -> bool:
    """c lies in the closed bounding box of a and b."""
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    return ((cx * aw - ax * cw) * (cx * bw - bx * cw) <= 0
            and (cy * aw - ay * cw) * (cy * bw - by * cw) <= 0)


def _orientation(a: Homogeneous, b: Homogeneous, c: Homogeneous) -> int:
    lx, ly, lw = _line(a, b)
    side = lx * c[0] + ly * c[1] + lw * c[2]
    return CCW if side > 0 else CW if side < 0 else COLLINEAR


def orientation(a: Point, b: Point, c: Point) -> int:
    return _orientation(_homogeneous(a), _homogeneous(b), _homogeneous(c))


def segments_cross(u: Point, v: Point, x: Point, y: Point) -> bool:
    """True iff the closed segments uv and xy share at least one point.

    Endpoint contact and collinear overlap count as crossing.
    """
    u, v, x, y = map(_homogeneous, (u, v, x, y))
    d1, d2 = _orientation(u, v, x), _orientation(u, v, y)
    d3, d4 = _orientation(x, y, u), _orientation(x, y, v)
    if any(d == COLLINEAR and _in_box(a, b, q)
           for d, a, b, q in ((d1, u, v, x), (d2, u, v, y), (d3, x, y, u), (d4, x, y, v))):
        return True
    return d1 * d2 < 0 and d3 * d4 < 0


def _strict_hull(h: Sequence[Homogeneous], order: Sequence[int]) -> list[int]:
    """Extreme points only, in counterclockwise order (y up), from the
    lexicographically sorted index order."""

    def build(idxs: Iterable[int]) -> list[int]:
        chain: list[int] = []
        for i in idxs:
            cx, cy, cw = h[i]
            while len(chain) >= 2:
                lx, ly, lw = _line(h[chain[-2]], h[chain[-1]])
                if lx * cx + ly * cy + lw * cw > 0:
                    break
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    return lower[:-1] + upper[:-1]


def _lex_order(h: Sequence[Homogeneous], idxs: Iterable[int] | None = None,
               reverse: bool = False) -> list[int]:
    """The indices idxs (all of h by default) in exact (x, y) order, descending
    with reverse; tied points keep their order in idxs."""
    def compare(i: int, j: int) -> int:
        (xi, yi, wi), (xj, yj, wj) = h[i], h[j]
        return xi * wj - xj * wi or yi * wj - yj * wi  # cross-multiplied: every W > 0
    return sorted(range(len(h)) if idxs is None else idxs, key=cmp_to_key(compare), reverse=reverse)


def hull_decomposition(h: Sequence[Homogeneous]) -> HullDecomposition:
    """Boundary walk (edge-collinear points included) and interior split of
    the points with homogeneous triples h.

    The walk starts at the lexicographically smallest point, the first
    vertex of the strict hull; the direction is fixed so that for the unit
    square with an edge midpoint the boundary reads
    (0,0),(1,0),(2,0),(2,2),(0,2).
    """
    n = len(h)
    if n == 0:
        raise EmptyInput("hull of an empty point set")
    if n == 1:
        return HullDecomposition((0,), frozenset(), False)

    order = _lex_order(h)
    hull = _strict_hull(h, order)
    if len(hull) <= 2:
        return HullDecomposition(tuple(order), frozenset(), True)

    hull_set = set(hull)
    rest = [i for i in order if i not in hull_set]  # lex order is monotone along an edge
    boundary: list[int] = []
    m = len(hull)
    for t in range(m):
        a, b = hull[t], hull[(t + 1) % m]
        boundary.append(a)
        # every point lies in the hull, so one on an edge's line is on the edge
        lx, ly, lw = _line(h[a], h[b])
        on_edge = [i for i in rest if lx * h[i][0] + ly * h[i][1] + lw * h[i][2] == 0]
        if on_edge:
            # from a to b, which may run down the (x, y) order; ties stay ascending
            boundary.extend(_lex_order(h, on_edge, reverse=_lex_order(h, (a, b))[0] == b))
            placed = set(on_edge)
            rest = [i for i in rest if i not in placed]
    return HullDecomposition(tuple(boundary), frozenset(rest), False)


class PreparedHull:
    """Closed convex hull of a set of homogeneous triples, built once for
    repeated exact location of triples.

    Each counterclockwise hull edge a->b is stored as its homogeneous line
    (see ``_line``), so locating a point costs three integer products per
    edge and no rational normalization.  A hull that degenerates to a
    segment, or to a single point (a segment from the point to itself),
    keeps that one line plus its endpoints for the bounding-box test.
    """

    __slots__ = ("_segment", "_edges")

    def __init__(self, points: Iterable[Homogeneous]):
        h = list(dict.fromkeys(points))  # equal points have equal triples
        if not h:
            raise EmptyInput("hull of an empty point set")
        order = _lex_order(h)
        hull = _strict_hull(h, order)
        self._segment: tuple[Homogeneous, Homogeneous] | None = None
        if len(hull) <= 2:
            self._segment = (h[order[0]], h[order[-1]])
            self._edges = [_line(*self._segment)]
            return
        m = len(hull)
        self._edges = [_line(h[hull[t]], h[hull[(t + 1) % m]]) for t in range(m)]

    def locate(self, c: Homogeneous) -> str:
        """INTERIOR, BOUNDARY or OUTSIDE for the closed hull."""
        x, y, w = c
        if self._segment is not None:
            lx, ly, lw = self._edges[0]
            if lx * x + ly * y + lw * w == 0 and _in_box(*self._segment, c):
                return BOUNDARY
            return OUTSIDE
        on_edge = False
        for lx, ly, lw in self._edges:
            side = lx * x + ly * y + lw * w
            if side < 0:
                return OUTSIDE
            if side == 0:
                on_edge = True
        return BOUNDARY if on_edge else INTERIOR


def point_in_hull(p: Point, points: Sequence[Point]) -> str:
    """Exact location of p relative to the closed convex hull of points."""
    return PreparedHull(map(_homogeneous, points)).locate(_homogeneous(p))


# A closed disk with centre (UX/UW, UY/UW) and squared radius R2/UW**2, as
# the integers (UX, UY, UW, R2) with UW != 0.
IntDisk = tuple[int, int, int, int]


def _contains(d: IntDisk, p: Homogeneous) -> bool:
    ux, uy, uw, r2 = d
    x, y, w = p
    dx = x * uw - ux * w
    dy = y * uw - uy * w
    return dx * dx + dy * dy <= r2 * w * w


def _diameter_disk(a: Homogeneous, b: Homogeneous) -> IntDisk:
    ax, ay, aw = a
    bx, by, bw = b
    dx = bx * aw - ax * bw
    dy = by * aw - ay * bw
    return ax * bw + bx * aw, ay * bw + by * aw, 2 * aw * bw, dx * dx + dy * dy


def smallest_enclosing_disk(h: Sequence[Homogeneous]) -> Disk:
    """Unique minimal closed disk containing the points with homogeneous
    triples h, exactly.

    Incremental construction on homogeneous integers; the insertion order
    is a seeded permutation so results and running time are reproducible.
    """
    if not h:
        raise EmptyInput("enclosing disk of an empty point set")
    pts = list(h)
    random.Random(_SED_SHUFFLE_SEED).shuffle(pts)
    d: IntDisk | None = None
    for i, p in enumerate(pts):
        if d is None or not _contains(d, p):
            d = _sed_one_boundary(pts[: i + 1], p)
    assert d is not None
    ux, uy, uw, r2 = d
    return Disk(Point(Fraction(ux, uw), Fraction(uy, uw)), Fraction(r2, uw * uw))


def _sed_one_boundary(pts: Sequence[Homogeneous], p: Homogeneous) -> IntDisk:
    d = (*p, 0)
    for i, q in enumerate(pts):
        if not _contains(d, q):
            if d[3] == 0:
                d = _diameter_disk(p, q)
            else:
                d = _sed_two_boundary(pts[: i + 1], p, q)
    return d


def _sed_two_boundary(pts: Sequence[Homogeneous], p: Homogeneous,
                      q: Homogeneous) -> IntDisk:
    """Smallest disk through p and q that contains pts.

    The incremental construction calls this only when p and q lie on the
    boundary of the smallest disk D containing pts.  A point outside the
    diameter disk of pq lies in D, so on the side of pq that holds D's
    centre (D's part on the far side lies inside the diameter disk), and
    sees pq under an acute angle, so its circumcentre with p and q is on
    that side too.  The candidates therefore all lie on one side, and the
    answer is the one farthest from pq.

    Coordinates are taken relative to p: q - p = (bx, by)/bw and
    r - p = (cx, cy)/cw.  The circumcentre of p, q, r is then p + (nx, ny)/den
    and cross(p, q, centre) = g/(bw*den) with g = bx*ny - by*nx, so the
    distances from pq compare by |g1*den2| against |g2*den1|.
    """
    circ = _diameter_disk(p, q)
    px, py, pw = p
    qx, qy, qw = q
    bx, by, bw = qx * pw - px * qw, qy * pw - py * qw, pw * qw
    bb = bx * bx + by * by
    best: tuple[int, int, int, int] | None = None  # (g, nx, ny, den)
    for r in pts:
        if _contains(circ, r):
            continue
        rx, ry, rw = r
        cx, cy, cw = rx * pw - px * rw, ry * pw - py * rw, pw * rw
        side = bx * cy - by * cx  # cross(p, q, r) * bw * cw
        if side == 0:
            continue
        cc = cx * cx + cy * cy
        nx = bb * cy * cw - cc * by * bw
        ny = cc * bx * bw - bb * cx * cw
        den = 2 * side * bw * cw
        g = bx * ny - by * nx
        if best is None or abs(g * best[3]) > abs(best[0] * den):
            best = (g, nx, ny, den)
    if best is None:
        return circ
    _, nx, ny, den = best
    return px * den + nx * pw, py * den + ny * pw, pw * den, (nx * nx + ny * ny) * pw * pw
