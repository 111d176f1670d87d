"""Exact planar geometry over rational coordinates.

Every predicate is decided by integer-exact rational arithmetic; there are no
floating-point code paths and no epsilons.  Adjacency thresholds elsewhere in
the library reduce to comparing squared distances against 1 and 3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyInput

Scalar = Fraction

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


def scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or "num/den" string to a canonical rational."""
    return Fraction(value)


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction


def point(x: int | str | Fraction, y: int | str | Fraction) -> Point:
    return Point(scalar(x), scalar(y))


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


def orientation(a: Point, b: Point, c: Point) -> int:
    v = cross(a, b, c)
    if v > 0:
        return CCW
    if v < 0:
        return CW
    return COLLINEAR


def _within_bbox(a: Point, b: Point, q: Point) -> bool:
    return (min(a.x, b.x) <= q.x <= max(a.x, b.x)
            and min(a.y, b.y) <= q.y <= max(a.y, b.y))


def segments_cross(u: Point, v: Point, x: Point, y: Point) -> bool:
    """True iff the closed segments uv and xy share at least one point.

    Endpoint contact and collinear overlap count as crossing.
    """
    d1 = orientation(u, v, x)
    d2 = orientation(u, v, y)
    d3 = orientation(x, y, u)
    d4 = orientation(x, y, v)
    if d1 == COLLINEAR and _within_bbox(u, v, x):
        return True
    if d2 == COLLINEAR and _within_bbox(u, v, y):
        return True
    if d3 == COLLINEAR and _within_bbox(x, y, u):
        return True
    if d4 == COLLINEAR and _within_bbox(x, y, v):
        return True
    return d1 * d2 < 0 and d3 * d4 < 0


def _strict_hull(points: Sequence[Point], order: Sequence[int]) -> list[int]:
    """Extreme points only, in counterclockwise order (y up), from the
    lexicographically sorted index order."""

    def build(idxs: Iterable[int]) -> list[int]:
        chain: list[int] = []
        for i in idxs:
            while len(chain) >= 2 and cross(points[chain[-2]], points[chain[-1]], points[i]) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    return lower[:-1] + upper[:-1]


def hull_decomposition(points: Sequence[Point]) -> HullDecomposition:
    """Boundary walk (edge-collinear points included) and interior split.

    The walk starts at the lexicographically smallest point; the direction is
    fixed so that for the unit square with an edge midpoint the boundary reads
    (0,0),(1,0),(2,0),(2,2),(0,2).
    """
    n = len(points)
    if n == 0:
        raise EmptyInput("hull of an empty point set")
    if n == 1:
        return HullDecomposition((0,), frozenset(), False)

    order = sorted(range(n), key=lambda i: (points[i].x, points[i].y))
    hull = _strict_hull(points, order)
    if len(hull) <= 2:
        return HullDecomposition(tuple(order), frozenset(), True)

    hull_set = set(hull)
    placed: set[int] = set()
    boundary: list[int] = []
    m = len(hull)
    for t in range(m):
        a = hull[t]
        b = hull[(t + 1) % m]
        pa, pb = points[a], points[b]
        on_edge = [i for i in range(n)
                   if i not in hull_set and i not in placed
                   and orientation(pa, pb, points[i]) == COLLINEAR
                   and _within_bbox(pa, pb, points[i])]
        on_edge.sort(key=lambda i: sq_dist(pa, points[i]))
        placed.update(on_edge)
        boundary.append(a)
        boundary.extend(on_edge)

    interior = frozenset(i for i in range(n) if i not in hull_set and i not in placed)
    start = boundary.index(min(boundary, key=lambda i: (points[i].x, points[i].y)))
    boundary = boundary[start:] + boundary[:start]
    return HullDecomposition(tuple(boundary), interior, False)


class PreparedHull:
    """Closed convex hull of a point set, built once for repeated exact
    point location.

    Each counterclockwise hull edge a->b is stored as integers (A, B, K)
    with sign(A*y - B*x - K) == orientation(a, b, (x, y)): the rational edge
    line scaled by the positive lcm of its denominators.  Locating a point
    then costs three integer products per edge and no rational
    normalization.  A hull that degenerates to a segment, or to a single
    point (a segment from the point to itself), keeps that one line plus its
    bounding box.
    """

    __slots__ = ("_segment", "_edges")

    def __init__(self, points: Iterable[Point]):
        uniq = list(dict.fromkeys(points))
        if not uniq:
            raise EmptyInput("hull of an empty point set")
        self._segment: tuple[Point, Point] | None = None
        self._edges: list[tuple[int, int, int]] = []
        order = sorted(range(len(uniq)), key=lambda i: (uniq[i].x, uniq[i].y))
        hull = _strict_hull(uniq, order)
        if len(hull) <= 2:
            a, b = uniq[order[0]], uniq[order[-1]]
            self._segment = (a, b)
            self._edges.append(_edge_line(a, b))
            return
        m = len(hull)
        self._edges.extend(_edge_line(uniq[hull[t]], uniq[hull[(t + 1) % m]])
                           for t in range(m))

    def locate(self, p: Point) -> str:
        """INTERIOR, BOUNDARY or OUTSIDE for the closed hull."""
        xn, xd = p.x.numerator, p.x.denominator
        yn, yd = p.y.numerator, p.y.denominator
        px, py, scale = xn * yd, yn * xd, xd * yd
        if self._segment is not None:
            a, b, k = self._edges[0]
            if a * py - b * px - k * scale == 0 and _within_bbox(*self._segment, p):
                return BOUNDARY
            return OUTSIDE
        on_edge = False
        for a, b, k in self._edges:
            side = a * py - b * px - k * scale
            if side < 0:
                return OUTSIDE
            if side == 0:
                on_edge = True
        return BOUNDARY if on_edge else INTERIOR


def _edge_line(a: Point, b: Point) -> tuple[int, int, int]:
    """Integers (A, B, K) with sign(A*y - B*x - K) == orientation(a, b, (x, y))."""
    dx = b.x - a.x
    dy = b.y - a.y
    k = dx * a.y - dy * a.x
    lcm = math.lcm(dx.denominator, dy.denominator, k.denominator)
    return (dx.numerator * (lcm // dx.denominator),
            dy.numerator * (lcm // dy.denominator),
            k.numerator * (lcm // k.denominator))


def point_in_hull(p: Point, points: Sequence[Point]) -> str:
    """Exact location of p relative to the closed convex hull of points."""
    return PreparedHull(points).locate(p)


def disk_contains(d: Disk, p: Point) -> bool:
    return sq_dist(d.center, p) <= d.radius_sq


def _diameter_disk(a: Point, b: Point) -> Disk:
    center = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
    return Disk(center, sq_dist(center, a))


def _circum_disk(a: Point, b: Point, c: Point) -> Disk | None:
    """Exact circumdisk of three points; None when they are collinear."""
    d = 2 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if d == 0:
        return None
    sa = a.x * a.x + a.y * a.y
    sb = b.x * b.x + b.y * b.y
    sc = c.x * c.x + c.y * c.y
    ux = (sa * (b.y - c.y) + sb * (c.y - a.y) + sc * (a.y - b.y)) / d
    uy = (sa * (c.x - b.x) + sb * (a.x - c.x) + sc * (b.x - a.x)) / d
    center = Point(ux, uy)
    return Disk(center, sq_dist(center, a))


def smallest_enclosing_disk(points: Sequence[Point]) -> Disk:
    """Unique minimal closed disk containing all points, exactly.

    Move-to-front incremental construction; the insertion order is a seeded
    permutation so results and running time are reproducible.
    """
    if not points:
        raise EmptyInput("enclosing disk of an empty point set")
    pts = list(points)
    random.Random(_SED_SHUFFLE_SEED).shuffle(pts)
    d: Disk | None = None
    for i, p in enumerate(pts):
        if d is None or not disk_contains(d, p):
            d = _sed_one_boundary(pts[: i + 1], p)
    assert d is not None
    return d


def _sed_one_boundary(pts: Sequence[Point], p: Point) -> Disk:
    d = Disk(p, Fraction(0))
    for i, q in enumerate(pts):
        if not disk_contains(d, q):
            if d.radius_sq == 0:
                d = _diameter_disk(p, q)
            else:
                d = _sed_two_boundary(pts[: i + 1], p, q)
    return d


def _sed_two_boundary(pts: Sequence[Point], p: Point, q: Point) -> Disk:
    circ = _diameter_disk(p, q)
    left: Disk | None = None
    right: Disk | None = None
    for r in pts:
        if disk_contains(circ, r):
            continue
        side = cross(p, q, r)
        d = _circum_disk(p, q, r)
        if d is None:
            continue
        dc = cross(p, q, d.center)
        if side > 0 and (left is None or dc > cross(p, q, left.center)):
            left = d
        elif side < 0 and (right is None or dc < cross(p, q, right.center)):
            right = d
    if left is None and right is None:
        return circ
    if left is None:
        assert right is not None
        return right
    if right is None:
        return left
    return left if left.radius_sq <= right.radius_sq else right
