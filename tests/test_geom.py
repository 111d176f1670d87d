import math
import random
import time
from fractions import Fraction
from typing import Iterable, Sequence

import pytest

from corpora import (acceptance_corpus, benchmark_circulants,
                     benchmark_toy_instances, circulant_blowups, homogeneous,
                     lattice_worlds, mixed_denominator_points,
                     perturbed_blowups, reference_orientation)
from udgcolor import geom
from udgcolor.errors import EmptyInstance
from udgcolor.geom import (_SED_SHUFFLE_SEED, BOUNDARY, CCW, COLLINEAR, CW,
                           INTERIOR, OUTSIDE, Disk, HullDecomposition, Point,
                           cross, hull_decomposition, orientation, point,
                           point_in_hull, segments_cross,
                           smallest_enclosing_disk, sq_dist)
from udgcolor.instances import gen_two_cluster


# Fraction reference for the integer hull and enclosing disk: the bodies the
# library ran on Fractions before it moved to homogeneous integers, kept
# unchanged as the differential oracle.

def _within_bbox(a: Point, b: Point, q: Point) -> bool:
    return (min(a.x, b.x) <= q.x <= max(a.x, b.x)
            and min(a.y, b.y) <= q.y <= max(a.y, b.y))


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


def reference_hull_decomposition(points: Sequence[Point]) -> HullDecomposition:
    """Boundary walk (edge-collinear points included) and interior split.

    The walk starts at the lexicographically smallest point; the direction is
    fixed so that for the unit square with an edge midpoint the boundary reads
    (0,0),(1,0),(2,0),(2,2),(0,2).
    """
    n = len(points)
    if n == 0:
        raise EmptyInstance("hull of an empty point set")
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
                   and reference_orientation(pa, pb, points[i]) == COLLINEAR
                   and _within_bbox(pa, pb, points[i])]
        on_edge.sort(key=lambda i: sq_dist(pa, points[i]))
        placed.update(on_edge)
        boundary.append(a)
        boundary.extend(on_edge)

    interior = frozenset(i for i in range(n) if i not in hull_set and i not in placed)
    start = boundary.index(min(boundary, key=lambda i: (points[i].x, points[i].y)))
    boundary = boundary[start:] + boundary[:start]
    return HullDecomposition(tuple(boundary), interior, False)


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


def reference_smallest_enclosing_disk(points: Sequence[Point]) -> Disk:
    """Unique minimal closed disk containing all points, exactly.

    Incremental construction over one seeded permutation of the points
    (no point is moved to the front), so results and running time are
    reproducible.  The library moves every point that enlarges the disk to
    the front, so comparing the two compares two insertion strategies.
    """
    if not points:
        raise EmptyInstance("enclosing disk of an empty point set")
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


def test_sq_dist_three_four_five():
    assert sq_dist(point(0, 0), point("3/5", "4/5")) == 1


def test_sq_dist_identity():
    assert sq_dist(point(0, 0), point(0, 0)) == 0


def test_sq_dist_axis():
    assert sq_dist(point(0, 0), point(2, 0)) == 4


def test_orientation_basic():
    assert orientation(point(0, 0), point(1, 0), point(0, 1)) == CCW
    assert orientation(point(0, 0), point(1, 1), point(2, 2)) == COLLINEAR
    assert orientation(point(0, 0), point(0, 1), point(1, 0)) == CW


def test_segments_cross_x_shape():
    assert segments_cross(point(0, 0), point(1, 1), point(0, 1), point(1, 0))


def test_segments_cross_parallel_disjoint():
    assert not segments_cross(point(0, 0), point(1, 0), point(0, 1), point(1, 1))


def test_segments_cross_shared_endpoint():
    assert segments_cross(point(0, 0), point(1, 0), point(1, 0), point(2, 1))


def test_segments_cross_collinear_overlap():
    assert segments_cross(point(0, 0), point(2, 0), point(1, 0), point(3, 0))


# Fraction reference for segments_cross: the crossing test built from the
# sign of the Fraction cross product (corpora.reference_orientation) and the
# bounding box above.

def reference_segments_cross(u: Point, v: Point, x: Point, y: Point) -> bool:
    d1, d2 = reference_orientation(u, v, x), reference_orientation(u, v, y)
    d3, d4 = reference_orientation(x, y, u), reference_orientation(x, y, v)
    if any(d == COLLINEAR and _within_bbox(a, b, q)
           for d, a, b, q in ((d1, u, v, x), (d2, u, v, y), (d3, x, y, u), (d4, x, y, v))):
        return True
    return d1 * d2 < 0 and d3 * d4 < 0


def random_sign_test_points(rng: random.Random) -> list[Point]:
    """Four points, each on the (1/2)Z**2 grid near the origin (collinear
    triples, touching segments and shared endpoints) or with two large
    unrelated denominators below 2**31."""
    pts = []
    for _ in range(4):
        if rng.random() < 0.5:
            pts.append(Point(Fraction(rng.randrange(-3, 4), 2), Fraction(rng.randrange(-3, 4), 2)))
        else:
            dx, dy = rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31)
            pts.append(Point(Fraction(rng.randrange(-2 * dx, 2 * dx), dx),
                             Fraction(rng.randrange(-2 * dy, 2 * dy), dy)))
    return pts


def test_orientation_and_segments_cross_match_the_fraction_reference():
    rng = random.Random(23)
    seen = {CCW: 0, CW: 0, COLLINEAR: 0, "cross": 0, "touch": 0}
    for _ in range(10_000):
        u, v, x, y = random_sign_test_points(rng)
        o = reference_orientation(u, v, x)
        assert orientation(u, v, x) == o, (u, v, x)
        crossing = reference_segments_cross(u, v, x, y)
        assert segments_cross(u, v, x, y) == crossing, (u, v, x, y)
        seen[o] += 1
        if crossing:
            seen["cross" if o * reference_orientation(u, v, y) < 0 else "touch"] += 1
    assert min(seen.values()) > 100, seen


def test_sign_tests_do_no_fraction_arithmetic(monkeypatch):
    """orientation and segments_cross answer on each point's integers."""
    rng = random.Random(24)
    cases = [random_sign_test_points(rng) for _ in range(300)]
    expected = [(reference_orientation(u, v, x), reference_segments_cross(u, v, x, y))
                for u, v, x, y in cases]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic")
    monkeypatch.setattr(Fraction, "__sub__", refuse)
    monkeypatch.setattr(Fraction, "__mul__", refuse)
    assert [(orientation(u, v, x), segments_cross(u, v, x, y))
            for u, v, x, y in cases] == expected


def test_hull_midpoint_on_edge_is_boundary():
    pts = [point(0, 0), point(2, 0), point(2, 2), point(0, 2), point(1, 0)]
    hd = hull_decomposition(homogeneous(pts))
    assert not hd.is_collinear
    assert hd.interior == frozenset()
    assert [pts[i] for i in hd.boundary] == [
        point(0, 0), point(1, 0), point(2, 0), point(2, 2), point(0, 2)]


def test_hull_center_is_interior():
    pts = [point(0, 0), point(2, 0), point(2, 2), point(0, 2), point(1, 1)]
    hd = hull_decomposition(homogeneous(pts))
    assert hd.interior == frozenset({4})
    assert set(hd.boundary) == {0, 1, 2, 3}


def test_hull_single_point():
    hd = hull_decomposition(homogeneous([point(0, 0)]))
    assert hd.boundary == (0,)
    assert hd.interior == frozenset()
    assert not hd.is_collinear


def test_hull_collinear_flag_and_order():
    pts = [point(2, 0), point(0, 0), point(1, 0)]
    hd = hull_decomposition(homogeneous(pts))
    assert hd.is_collinear
    assert [pts[i] for i in hd.boundary] == [point(0, 0), point(1, 0), point(2, 0)]


def test_hull_empty_raises():
    with pytest.raises(EmptyInstance):
        hull_decomposition([])


SQUARE = [point(0, 0), point(2, 0), point(0, 2), point(2, 2)]


def test_point_in_hull_square():
    assert point_in_hull(point(1, 1), SQUARE) == INTERIOR
    assert point_in_hull(point(1, 0), SQUARE) == BOUNDARY
    assert point_in_hull(point(3, 0), SQUARE) == OUTSIDE


def test_point_in_hull_degenerate():
    seg = [point(0, 0), point(2, 0)]
    assert point_in_hull(point(1, 0), seg) == BOUNDARY
    assert point_in_hull(point(3, 0), seg) == OUTSIDE
    assert point_in_hull(point(1, 1), seg) == OUTSIDE
    assert point_in_hull(point(0, 0), [point(0, 0)]) == BOUNDARY


def test_enclosing_disk_diameter_pair():
    d = smallest_enclosing_disk(homogeneous([point(0, 0), point(2, 0)]))
    assert d == Disk(point(1, 0), Fraction(1))


def test_enclosing_disk_right_triangle():
    d = smallest_enclosing_disk(homogeneous([point(0, 0), point(2, 0), point(0, 2)]))
    assert d == Disk(point(1, 1), Fraction(2))


def test_enclosing_disk_single_point():
    d = smallest_enclosing_disk(homogeneous([point(0, 0)]))
    assert d == Disk(point(0, 0), Fraction(0))


def test_enclosing_disk_empty_raises():
    with pytest.raises(EmptyInstance):
        smallest_enclosing_disk([])


def _random_points(rng, n, denom=8, span=4):
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randrange(-span * denom, span * denom + 1), denom),
                 Fraction(rng.randrange(-span * denom, span * denom + 1), denom)))
    return [Point(x, y) for x, y in sorted(pts)]


def test_enclosing_disk_contains_all_and_support():
    rng = random.Random(42)
    for _ in range(150):
        pts = _random_points(rng, rng.randrange(2, 9))
        d = smallest_enclosing_disk(homogeneous(pts))
        assert all(disk_contains(d, p) for p in pts)
        support = [p for p in pts if sq_dist(d.center, p) == d.radius_sq]
        assert len(support) >= 2
        # the center never lies outside the hull of its support set
        assert point_in_hull(d.center, support) != OUTSIDE


def test_enclosing_disk_radius_under_bounded_diameter():
    # pairwise squared distance <= 3 forces enclosing radius_sq <= 1
    rng = random.Random(7)
    done = 0
    while done < 60:
        pts = _random_points(rng, rng.randrange(2, 7), denom=10, span=1)
        if max(sq_dist(a, b) for a in pts for b in pts) > 3:
            continue
        d = smallest_enclosing_disk(homogeneous(pts))
        assert d.radius_sq <= 1
        done += 1


def test_hull_boundary_and_point_location_agree():
    rng = random.Random(99)
    for _ in range(80):
        pts = _random_points(rng, rng.randrange(3, 9))
        hd = hull_decomposition(homogeneous(pts))
        if hd.is_collinear:
            continue
        for i, p in enumerate(pts):
            where = point_in_hull(p, pts)
            if i in hd.interior:
                assert where == INTERIOR
            else:
                assert where == BOUNDARY


def _reference_location(p, pts):
    """Point location by rational orientation tests against every
    supporting line, i.e. every ordered pair of input points with no input
    point strictly to its right."""
    uniq = set(pts)
    if len(uniq) == 1:
        return BOUNDARY if p in uniq else OUTSIDE
    supporting = [(a, b) for a in uniq for b in uniq
                  if a != b and all(reference_orientation(a, b, q) != CW for q in uniq)]
    if any(reference_orientation(a, b, p) == CW for a, b in supporting):
        return OUTSIDE
    if all(reference_orientation(a, b, q) == COLLINEAR for a, b in supporting for q in uniq):
        # a segment: p is on its line, so only the extent is left to check
        xs = [q.x for q in uniq]
        ys = [q.y for q in uniq]
        inside = min(xs) <= p.x <= max(xs) and min(ys) <= p.y <= max(ys)
        return BOUNDARY if inside else OUTSIDE
    on_edge = any(reference_orientation(a, b, p) == COLLINEAR for a, b in supporting)
    return BOUNDARY if on_edge else INTERIOR


def test_point_location_matches_rational_reference():
    rng = random.Random(4242)
    for _ in range(300):
        pts = _random_points(rng, rng.randrange(1, 7), denom=rng.choice((1, 3, 7)), span=2)
        if rng.random() < 0.2:
            pts = pts + pts[:2]  # repeated points
        for q in _random_points(rng, 6, denom=rng.choice((1, 3, 7)), span=2) + pts:
            assert point_in_hull(q, pts) == _reference_location(q, pts), (q, pts)


def _assert_matches_reference(pts):
    """Hull and enclosing disk equal the Fraction reference, also on the
    points plus the disk centre (the augmented set the disk case hulls)."""
    assert hull_decomposition(homogeneous(pts)) == reference_hull_decomposition(pts), pts
    disk = smallest_enclosing_disk(homogeneous(pts))
    assert disk == reference_smallest_enclosing_disk(pts), pts
    augmented = list(pts) + [disk.center]
    assert hull_decomposition(homogeneous(augmented)) == reference_hull_decomposition(augmented), pts


def test_integer_kernel_matches_reference_on_random_sets():
    rng = random.Random(2024)
    for _ in range(400):
        denom = rng.choice((1, 2, 3, 8))
        span = rng.choice((1, 2, 4))
        pts = _random_points(rng, rng.randrange(1, 9), denom=denom, span=span)
        rng.shuffle(pts)
        if rng.random() < 0.2:
            pts = pts + pts[:2]  # repeated points
        _assert_matches_reference(pts)


def test_integer_kernel_matches_reference_on_small_grids():
    # Small grids put points inside hull edges that run both ways in lex
    # order (the lower chain ascends, the upper one descends), which is how
    # the hull orders points along an edge without distances.
    rng = random.Random(3206)
    forward = backward = 0
    for _ in range(500):
        step = Fraction(1, rng.choice((1, 2, 3)))
        side = rng.randrange(2, 5)
        grid = [Point(x * step, y * step) for x in range(side) for y in range(side)]
        pts = rng.sample(grid, rng.randrange(3, min(len(grid), 12) + 1))
        if rng.random() < 0.2:
            pts = pts + pts[:2]  # repeated points
        _assert_matches_reference(pts)
        hd = hull_decomposition(homogeneous(pts))
        if hd.is_collinear:
            continue
        ring = [pts[i] for i in hd.boundary]
        for p, q, r in zip(ring, ring[1:] + ring[:1], ring[2:] + ring[:2]):
            if p != q != r and reference_orientation(p, q, r) == COLLINEAR:
                if (p.x, p.y) < (r.x, r.y):
                    forward += 1
                else:
                    backward += 1
    assert forward > 100 and backward > 100, (forward, backward)


def test_hull_matches_reference_on_grids_with_repeated_points():
    """Grid sets with up to four copies of a point, in shuffled index order.
    Equal points stand together on the boundary in ascending index order,
    except at a corner of the upper chain, where the least index comes
    last; the count checks that three or more copies sit at such a corner."""
    rng = random.Random(3207)
    upper_corners = 0
    for _ in range(600):
        step = Fraction(1, rng.choice((1, 2, 3)))
        side = rng.randrange(2, 5)
        grid = [Point(x * step, y * step) for x in range(side) for y in range(side)]
        pts = rng.sample(grid, rng.randrange(1, min(len(grid), 8) + 1))
        pts = [p for p in pts for _ in range(rng.randrange(1, 5))]
        rng.shuffle(pts)
        _assert_matches_reference(pts)
        boundary = hull_decomposition(homogeneous(pts)).boundary
        runs = [[i for i in boundary if pts[i] == p] for p in dict.fromkeys(pts[i] for i in boundary)]
        upper_corners += any(len(run) >= 3 and run[-1] == min(run) for run in runs)
    assert upper_corners > 100, upper_corners


def _ring_band(n, seed):
    """n distinct points 0.98r to r from the origin, r = 577/1000, snapped
    to 1/10**6."""
    rng = random.Random(seed)
    pts: dict[Point, None] = {}
    while len(pts) < n:
        r = 0.577 * (0.98 + 0.02 * rng.random())
        t = 2 * math.pi * rng.random()
        pts[Point(Fraction(round(r * math.cos(t) * 10 ** 6), 10 ** 6),
                  Fraction(round(r * math.sin(t) * 10 ** 6), 10 ** 6))] = None
    return list(pts)


def _two_cluster_and_centre():
    inst = gen_two_cluster(1000, seed=1, separation=Fraction(7, 10))
    return [*inst.points, smallest_enclosing_disk(inst.homogeneous).center]


@pytest.mark.parametrize("make", [_two_cluster_and_centre, lambda: _ring_band(1000, seed=3)],
                         ids=["two-cluster-and-centre", "ring-band"])
def test_hull_matches_reference_at_a_thousand_points(make):
    pts = make()
    hd = hull_decomposition(homogeneous(pts))
    assert len(hd.boundary) > 20
    assert hd == reference_hull_decomposition(pts)


# the integer points of the circle x^2 + y^2 = 25
CIRCLE_25 = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]


def test_enclosing_disk_outside_points_lie_on_one_side(monkeypatch):
    """Small grids with denominators up to 7, 30 % of them with nine
    cocircular lattice points added, match the Fraction reference; in every
    _sed_two_boundary call the points outside the diameter disk of pq lie
    strictly on one side of pq, so one candidate side is enough."""
    two_boundary = geom._sed_two_boundary
    calls = one_sided = 0

    def checked(pts, p, q):
        nonlocal calls, one_sided
        circ = geom._diameter_disk(p, q)
        lx, ly, lw = geom._line(p, q)
        sides = {(lx * x + ly * y + lw * w > 0) - (lx * x + ly * y + lw * w < 0)
                 for x, y, w in pts if not geom._contains(circ, (x, y, w))}
        assert sides in (set(), {1}, {-1}), (pts, p, q)
        calls += 1
        one_sided += bool(sides)
        return two_boundary(pts, p, q)

    monkeypatch.setattr(geom, "_sed_two_boundary", checked)
    rng = random.Random(1507)
    cocircular = 0
    for _ in range(600):
        step = Fraction(1, rng.randrange(1, 8))
        side = rng.randrange(2, 5)
        grid = [Point(x * step, y * step) for x in range(side) for y in range(side)]
        pts = rng.sample(grid, rng.randrange(2, min(len(grid), 10) + 1))
        if rng.random() < 0.3:
            centre = rng.choice(grid)
            radius = Fraction(rng.randrange(1, 4), 5) * step
            pts += [Point(centre.x + x * radius, centre.y + y * radius)
                    for x, y in rng.sample(CIRCLE_25, 9)]
            cocircular += 1
        _assert_matches_reference(list(dict.fromkeys(pts)))
    assert cocircular > 150 and one_sided > 500 and calls > one_sided, (cocircular, one_sided, calls)


@pytest.mark.parametrize("pts", [
    [point(0, 0)],
    [point("1/3", "-2/7")],
    [point(0, 0), point(2, 0)],
    [point("1/2", "1/3"), point("-5/7", "2/9")],
    [point(2, 0), point(0, 0), point(1, 0), point("1/2", 0), point("3/2", 0)],
    [point(0, 0), point("1/3", "1/3"), point("2/3", "2/3"), point(1, 1), point("5/7", "5/7")],
    [point(0, 0), point(0, "1/5"), point(0, 3), point(0, "-2/3")],
    [point(1, 0), point(-1, 0), point(0, 1), point(0, -1),
     point("3/5", "4/5"), point("-3/5", "4/5"), point("3/5", "-4/5"), point("-3/5", "-4/5")],
    [point("3/5", "4/5"), point("-4/5", "3/5"), point("-3/5", "-4/5"), point("4/5", "-3/5"),
     point("5/13", "12/13"), point(0, 0)],
    [point(0, 0), point(2, 0), point(2, 2), point(0, 2), point(1, 0), point(2, 1),
     point(1, 2), point(0, 1), point(1, 1)],
], ids=["one-point", "one-rational-point", "two-points", "two-rational-points",
        "collinear-x", "collinear-diagonal", "collinear-y", "cocircular",
        "cocircular-with-centre", "square-with-edge-midpoints"])
def test_integer_kernel_matches_reference_on_degenerate_sets(pts):
    _assert_matches_reference(pts)


def _best_time(fn, pts, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(pts)
        best = min(best, time.perf_counter() - start)
    return best


def test_integer_kernel_on_mixed_denominators_matches_and_is_no_slower():
    pts = mixed_denominator_points()
    _assert_matches_reference(pts)
    for fast, reference in ((hull_decomposition, reference_hull_decomposition),
                            (smallest_enclosing_disk, reference_smallest_enclosing_disk)):
        # the timed call includes the conversion to integers
        assert (_best_time(lambda p: fast(homogeneous(p)), pts)
                <= _best_time(reference, pts)), fast.__name__


def test_integer_kernel_matches_reference_on_acceptance_corpus():
    for inst in acceptance_corpus():
        _assert_matches_reference(inst.points)


@pytest.mark.parametrize("seed", [1, 3, 7919])
def test_integer_kernel_matches_reference_on_benchmark_toy_instances(seed):
    for inst in benchmark_toy_instances(seed):
        _assert_matches_reference(inst.points)


@pytest.mark.parametrize("corpus", [
    lambda: benchmark_circulants(1), lambda: benchmark_circulants(7919), circulant_blowups,
    lambda: (inst for inst, _ in perturbed_blowups())],
    ids=["benchmark-1", "benchmark-7919", "blowups", "perturbed"])
def test_enclosing_disk_matches_reference_at_benchmark_size(corpus):
    """The full-size benchmark circulants (n up to 59) and both blow-up
    corpora, whose points all lie on or near one circle, in their own order
    and reversed: the disk depends neither on the insertion strategy nor on
    the input order."""
    for inst in corpus():
        expected = reference_smallest_enclosing_disk(inst.points)
        assert smallest_enclosing_disk(inst.homogeneous) == expected, inst.id
        assert smallest_enclosing_disk(inst.homogeneous[::-1]) == expected, inst.id
        assert reference_smallest_enclosing_disk(inst.points[::-1]) == expected, inst.id


@pytest.mark.parametrize("scale,shift", [(1, (0, 0)), (Fraction(1, 7), (Fraction(2, 3), -1))],
                         ids=["integer", "rational"])
@pytest.mark.parametrize("with_centre", [False, True], ids=["circle", "circle-and-centre"])
def test_enclosing_disk_of_cocircular_lattice_points(scale, shift, with_centre):
    """The twelve lattice points on x^2 + y^2 = 25, scaled and shifted: many
    support triples give the one disk, which every order of the points and
    both insertion strategies reach."""
    centre = Point(Fraction(shift[0]), Fraction(shift[1]))
    pts = [Point(centre.x + x * scale, centre.y + y * scale) for x, y in CIRCLE_25]
    if with_centre:
        pts.append(centre)
    expected = Disk(centre, 25 * Fraction(scale) ** 2)
    rng = random.Random(25)
    orders = [pts, pts[::-1]] + [rng.sample(pts, len(pts)) for _ in range(20)]
    for order in orders:
        assert smallest_enclosing_disk(homogeneous(order)) == expected, order
        assert reference_smallest_enclosing_disk(order) == expected, order


def test_enclosing_disk_two_boundary_work_on_benchmark_circulants(monkeypatch):
    """On the twelve seed-1 benchmark circulants the disk takes at most 178
    two-boundary steps testing 568 candidates in all (386 and 2,741 with no
    point moved to the front).  The order is seeded, so the counts repeat
    exactly."""
    two_boundary = geom._sed_two_boundary
    steps = candidates = 0

    def counted(pts, p, q):
        nonlocal steps, candidates
        steps += 1
        candidates += len(pts)
        return two_boundary(pts, p, q)

    monkeypatch.setattr(geom, "_sed_two_boundary", counted)
    instances = list(benchmark_circulants(1))
    assert len(instances) == 12
    for inst in instances:
        smallest_enclosing_disk(inst.homogeneous)
    assert steps <= 178 and candidates <= 568, (steps, candidates)


def _reference_lex_order(pts, idxs):
    """The Fraction key the hull, the collinear cover and the sweep-greedy
    coloring sorted by before they moved to homogeneous integers."""
    return sorted(idxs, key=lambda i: (pts[i].x, pts[i].y))


def _mixed_sets(rng, count):
    """Mixed-denominator sets with negative coordinates, x values shared by
    several points, and repeated points."""
    for _ in range(count):
        xs = [Fraction(rng.randrange(-60, 61), rng.choice((1, 2, 3, 7, 10, 2 ** 61 - 1)))
              for _ in range(rng.randrange(1, 5))]
        pts = [Point(rng.choice(xs), Fraction(rng.randrange(-60, 61), rng.randrange(1, 12)))
               for _ in range(rng.randrange(1, 12))]
        pts += rng.choices(pts, k=rng.randrange(4))
        rng.shuffle(pts)
        yield pts


def test_lex_order_matches_the_fraction_key():
    rng = random.Random(2020)
    sets = [list(inst.points) for inst in acceptance_corpus()]
    sets += [list(inst.points) for world in lattice_worlds().values() for inst in world]
    sets += [mixed_denominator_points(), *_mixed_sets(rng, 500)]
    ties = 0
    for pts in sets:
        h = homogeneous(pts)
        n = len(pts)
        assert geom._lex_order(h) == _reference_lex_order(pts, range(n)), pts
        ties += len(set(pts)) < n
    assert ties > 300, ties
