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
entry.  The enclosing disk moves every point that enlarges it to the front
of its seeded order; the minimal disk is unique and turned back into
Fractions once, normalised, so the moves change the work, not the result.
The hull is one O(n log n) monotone chain that keeps the points on its
edges (``_hull_chain``): ``hull_decomposition`` reads its boundary walk and
``PreparedHull`` its edges.

Only ``sq_dist`` and ``cross``, which return a rational value, compute in
Fractions.  ``core.instance_graph`` still builds the unit-distance graph
with ``sq_dist``.  Nothing in the package calls ``cross``: it is kept only
for ``tests/corpora.py`` ``reference_orientation`` and the benchmark's call
counter, and leaves in ROADMAP item 2's deletion step.  The integer build
is ``core._unit_masks`` (``_sq_dist_sign(a, b, 1) <= 0``, inlined, over
``Instance.homogeneous``); it and ``instance_graph`` are tested against a
Fraction pair loop kept in the tests, and so far it serves only the
circulant generator's check, which ``cover``, ``color`` and ``audit`` never
reach.  The build moves to it once the benchmark stops keeping every pass's
artifacts, under which a faster build reads as more memory (ROADMAP items 1
and 2).

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
from itertools import groupby
from typing import Iterable, Sequence

from .errors import EmptyInstance

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


def _lex_order(h: Sequence[Homogeneous]) -> list[int]:
    """The indices of h in exact (x, y) order; equal points keep their
    index order."""
    def compare(i: int, j: int) -> int:
        (xi, yi, wi), (xj, yj, wj) = h[i], h[j]
        return xi * wj - xj * wi or yi * wj - yj * wi  # cross-multiplied: every W > 0
    return sorted(range(len(h)), key=cmp_to_key(compare))


def _hull_chain(h: Sequence[Homogeneous], order: Sequence[int]) -> list[list[int]]:
    """The hull boundary of the points with triples h, from their (x, y)
    order, as runs of equal points, counterclockwise (y up) from order[0]
    with the points on its edges; empty when the points are collinear.

    Andrew's monotone chain, forward for the lower chain and backward for
    the upper one, pops only on a strict right turn, so edge points stay.
    """
    lx, ly, lw = _line(h[order[0]], h[order[-1]])
    if all(lx * x + ly * y + lw * w == 0 for x, y, w in h):
        return []
    runs = [list(run) for _, run in groupby(order, key=h.__getitem__)]

    def chain(seq: Iterable[list[int]]) -> list[list[int]]:
        out: list[list[int]] = []
        for run in seq:
            while len(out) >= 2 and _orientation(h[out[-2][0]], h[out[-1][0]], h[run[0]]) == CW:
                out.pop()
            out.append(run)
        return out

    lower, upper = chain(runs), chain(reversed(runs))
    for a, b, c in zip(upper, upper[1:], upper[2:]):  # at an upper corner the least index goes last
        if _orientation(h[a[0]], h[b[0]], h[c[0]]) == CCW:
            b.append(b.pop(0))
    return lower[:-1] + upper[:-1]


def hull_decomposition(h: Sequence[Homogeneous]) -> HullDecomposition:
    """Boundary walk (edge-collinear points included) and interior split of
    the points with homogeneous triples h, from one monotone chain
    (``_hull_chain``).

    The walk starts at the lexicographically smallest point; the direction
    is fixed so that for the unit square with an edge midpoint the boundary
    reads (0,0),(1,0),(2,0),(2,2),(0,2).  Equal points stand together in
    ascending index order, except at a corner of the upper chain, where the
    least index comes last.
    """
    n = len(h)
    if n == 0:
        raise EmptyInstance("hull of an empty point set")
    if n == 1:
        return HullDecomposition((0,), frozenset(), False)

    order = _lex_order(h)
    runs = _hull_chain(h, order)
    if not runs:
        return HullDecomposition(tuple(order), frozenset(), True)
    boundary = tuple(i for run in runs for i in run)
    return HullDecomposition(boundary, frozenset(range(n)).difference(boundary), False)


class PreparedHull:
    """Closed convex hull of a set of homogeneous triples, built once for
    repeated exact location of triples.

    Each counterclockwise chain edge a->b is stored as its homogeneous line
    (see ``_line``), so locating a point costs three integer products per
    edge and no rational normalization.  A hull that degenerates to a
    segment, or to a single point (a segment from the point to itself),
    keeps that one line plus its endpoints for the bounding-box test.
    """

    __slots__ = ("_segment", "_edges")

    def __init__(self, points: Iterable[Homogeneous]):
        h = list(dict.fromkeys(points))  # equal points have equal triples
        if not h:
            raise EmptyInstance("hull of an empty point set")
        order = _lex_order(h)
        hull = [h[i] for (i,) in _hull_chain(h, order)]
        self._segment: tuple[Homogeneous, Homogeneous] | None = None
        if not hull:
            self._segment = (h[order[0]], h[order[-1]])
            self._edges = [_line(*self._segment)]
            return
        self._edges = [_line(a, b) for a, b in zip(hull, hull[1:] + hull[:1])]

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

    Welzl's incremental construction in a seeded order, with move-to-front:
    a point that enlarges the disk, at either level, moves to the front of
    the one list.  That changes the work, not the result: the minimal disk
    is unique, and its Fractions are normalised.
    """
    if not h:
        raise EmptyInstance("enclosing disk of an empty point set")
    pts = list(h)
    random.Random(_SED_SHUFFLE_SEED).shuffle(pts)
    d = (*pts[0], 0)
    # the scans run over copies; a move reorders only the prefix scanned
    for i, p in enumerate(pts[1:], 1):
        if _contains(d, p):
            continue
        d = (*p, 0)
        for j, q in enumerate(pts[:i]):
            if not _contains(d, q):
                d = _diameter_disk(p, q) if d[3] == 0 else _sed_two_boundary(pts[: j + 1], p, q)
                pts.insert(0, pts.pop(j))
        pts.insert(0, pts.pop(i))
    ux, uy, uw, r2 = d
    return Disk(Point(Fraction(ux, uw), Fraction(uy, uw)), Fraction(r2, uw * uw))


def _sed_two_boundary(pts: Sequence[Homogeneous], p: Homogeneous,
                      q: Homogeneous) -> IntDisk:
    """Smallest disk through p and q that contains pts.

    The incremental construction calls this only when p and q lie on the
    boundary of the smallest disk D containing pts.  A point outside the
    diameter disk of pq lies in D, so on the side of pq that holds D's
    centre (D's part on the far side lies inside the diameter disk).  The
    candidates thus lie on one side, and the answer passes through the one
    whose circumcentre with p and q is farthest from pq.

    Up to a positive factor, a = p - r and b = q - r give dot = a.b, which
    is |r - m|**2 - |pq|**2/4 for the midpoint m of pq, so dot <= 0 is the
    closed diameter-disk test, and cr = |a x b|, 0 for a collinear r.  Any
    other r sees pq under an acute angle t, and its circumcentre lies on
    its side, |pq|*cot(t)/2 from m: the farthest has the largest
    cot(t) = dot/cr, compared cross-multiplied (the first of equals wins).
    Only its circumcentre is computed, as p + (nx, ny)/den from
    q - p = (bx, by)/bw and r - p = (cx, cy)/cw.
    """
    px, py, pw = p
    qx, qy, qw = q
    best: tuple[int, int, Homogeneous] | None = None  # (dot, cr, r)
    for r in pts:
        rx, ry, rw = r
        ax, ay = px * rw - rx * pw, py * rw - ry * pw
        bx, by = qx * rw - rx * qw, qy * rw - ry * qw
        dot = ax * bx + ay * by
        cr = abs(ax * by - ay * bx)
        if dot > 0 and cr and (best is None or dot * best[1] > best[0] * cr):
            best = (dot, cr, r)
    if best is None:
        return _diameter_disk(p, q)
    rx, ry, rw = best[2]
    bx, by, bw = qx * pw - px * qw, qy * pw - py * qw, pw * qw
    cx, cy, cw = rx * pw - px * rw, ry * pw - py * rw, pw * rw
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    nx = bb * cy * cw - cc * by * bw
    ny = cc * bx * bw - bb * cx * cw
    den = 2 * (bx * cy - by * cx) * bw * cw
    return px * den + nx * pw, py * den + ny * pw, pw * den, (nx * nx + ny * ny) * pw * pw
