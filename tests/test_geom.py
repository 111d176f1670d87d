import random
from fractions import Fraction

import pytest

from udgcolor.errors import EmptyInput
from udgcolor.geom import (BOUNDARY, CCW, COLLINEAR, CW, INTERIOR, OUTSIDE,
                           Disk, Point, disk_contains, hull_decomposition,
                           orientation, point, point_in_hull, segments_cross,
                           smallest_enclosing_disk, sq_dist)


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


def test_hull_midpoint_on_edge_is_boundary():
    pts = [point(0, 0), point(2, 0), point(2, 2), point(0, 2), point(1, 0)]
    hd = hull_decomposition(pts)
    assert not hd.is_collinear
    assert hd.interior == frozenset()
    assert [pts[i] for i in hd.boundary] == [
        point(0, 0), point(1, 0), point(2, 0), point(2, 2), point(0, 2)]


def test_hull_center_is_interior():
    pts = [point(0, 0), point(2, 0), point(2, 2), point(0, 2), point(1, 1)]
    hd = hull_decomposition(pts)
    assert hd.interior == frozenset({4})
    assert set(hd.boundary) == {0, 1, 2, 3}


def test_hull_single_point():
    hd = hull_decomposition([point(0, 0)])
    assert hd.boundary == (0,)
    assert hd.interior == frozenset()
    assert not hd.is_collinear


def test_hull_collinear_flag_and_order():
    pts = [point(2, 0), point(0, 0), point(1, 0)]
    hd = hull_decomposition(pts)
    assert hd.is_collinear
    assert [pts[i] for i in hd.boundary] == [point(0, 0), point(1, 0), point(2, 0)]


def test_hull_empty_raises():
    with pytest.raises(EmptyInput):
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
    d = smallest_enclosing_disk([point(0, 0), point(2, 0)])
    assert d == Disk(point(1, 0), Fraction(1))


def test_enclosing_disk_right_triangle():
    d = smallest_enclosing_disk([point(0, 0), point(2, 0), point(0, 2)])
    assert d == Disk(point(1, 1), Fraction(2))


def test_enclosing_disk_single_point():
    d = smallest_enclosing_disk([point(0, 0)])
    assert d == Disk(point(0, 0), Fraction(0))


def test_enclosing_disk_empty_raises():
    with pytest.raises(EmptyInput):
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
        d = smallest_enclosing_disk(pts)
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
        d = smallest_enclosing_disk(pts)
        assert d.radius_sq <= 1
        done += 1


def test_hull_boundary_and_point_location_agree():
    rng = random.Random(99)
    for _ in range(80):
        pts = _random_points(rng, rng.randrange(3, 9))
        hd = hull_decomposition(pts)
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
                  if a != b and all(orientation(a, b, q) != CW for q in uniq)]
    if any(orientation(a, b, p) == CW for a, b in supporting):
        return OUTSIDE
    if all(orientation(a, b, q) == COLLINEAR for a, b in supporting for q in uniq):
        # a segment: p is on its line, so only the extent is left to check
        xs = [q.x for q in uniq]
        ys = [q.y for q in uniq]
        inside = min(xs) <= p.x <= max(xs) and min(ys) <= p.y <= max(ys)
        return BOUNDARY if inside else OUTSIDE
    on_edge = any(orientation(a, b, p) == COLLINEAR for a, b in supporting)
    return BOUNDARY if on_edge else INTERIOR


def test_point_location_matches_rational_reference():
    rng = random.Random(4242)
    for _ in range(300):
        pts = _random_points(rng, rng.randrange(1, 7), denom=rng.choice((1, 3, 7)), span=2)
        if rng.random() < 0.2:
            pts = pts + pts[:2]  # repeated points
        for q in _random_points(rng, 6, denom=rng.choice((1, 3, 7)), span=2) + pts:
            assert point_in_hull(q, pts) == _reference_location(q, pts), (q, pts)
