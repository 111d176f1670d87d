"""Invariant suites: geometry predicates, boundary intervals, and the
combinatorial facts the cover engine leans on, exercised on randomized
configurations at unit-test scale."""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from corpora import homogeneous
from udgcolor.core import (build_instance, complement, instance_graph,
                           interval_closed, is_clique, stability_witness)
from udgcolor.cover import cover_three_cliques, partition_from_cover
from udgcolor.geom import (INTERIOR, OUTSIDE, Point, hull_decomposition,
                           point_in_hull, segments_cross,
                           smallest_enclosing_disk, sq_dist)
from udgcolor.instances import gen_two_cluster
from udgcolor.matching import color_via_complement_matching
from udgcolor.oracles import (brute_chi, brute_clique_cover_number,
                              check_k16_free, check_nbhprop, verify_cover,
                              verify_coloring)

coords = st.integers(min_value=-24, max_value=24)
points = st.builds(lambda a, b: Point(Fraction(a, 8), Fraction(b, 8)), coords, coords)


@given(points, points)
@settings(max_examples=150)
def test_sq_dist_symmetric_and_definite(p, q):
    assert sq_dist(p, q) == sq_dist(q, p)
    assert (sq_dist(p, q) == 0) == (p == q)
    assert sq_dist(p, q) >= 0


@given(points, points, points, points)
@settings(max_examples=150)
def test_segments_cross_symmetries(u, v, x, y):
    base = segments_cross(u, v, x, y)
    assert base == segments_cross(x, y, u, v)
    assert base == segments_cross(v, u, x, y)
    assert base == segments_cross(u, v, y, x)


@given(st.lists(points, min_size=1, max_size=9, unique=True))
@settings(max_examples=120, deadline=None)
def test_hull_partitions_and_agrees_with_locator(pts):
    from udgcolor.geom import hull_decomposition

    hd = hull_decomposition(homogeneous(pts))
    assert len(hd.boundary) == len(set(hd.boundary))
    assert not set(hd.boundary) & hd.interior
    assert set(hd.boundary) | hd.interior == set(range(len(pts)))
    for i, p in enumerate(pts):
        where = point_in_hull(p, pts)
        assert where != OUTSIDE
        if hd.is_collinear:
            continue
        assert (where == INTERIOR) == (i in hd.interior)


@given(st.lists(points, min_size=2, max_size=8, unique=True))
@settings(max_examples=120, deadline=None)
def test_enclosing_disk_support_properties(pts):
    d = smallest_enclosing_disk(homogeneous(pts))
    assert all(sq_dist(d.center, p) <= d.radius_sq for p in pts)
    support = [p for p in pts if sq_dist(d.center, p) == d.radius_sq]
    assert len(support) >= 2
    assert point_in_hull(d.center, support) != OUTSIDE


def _random_instance(rng, n, denom=7, span=2):
    raw = set()
    while len(raw) < n:
        raw.add((Fraction(rng.randrange(-span * denom, span * denom + 1), denom),
                 Fraction(rng.randrange(-span * denom, span * denom + 1), denom)))
    return build_instance("rnd", [Point(x, y) for x, y in sorted(raw)])


def test_crossing_edges_force_a_triangle():
    rng = random.Random(404)
    hits = 0
    for _ in range(800):
        inst = _random_instance(rng, 4, denom=5, span=1)
        g = instance_graph(inst)
        pts = inst.points
        for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            if not (g.adjacent(a, b) and g.adjacent(c, d)):
                continue
            if not segments_cross(pts[a], pts[b], pts[c], pts[d]):
                continue
            hits += 1
            assert any(is_clique(g, tri) for tri in combinations((a, b, c, d), 3))
    assert hits > 20


def test_triangle_containment_forces_adjacency():
    rng = random.Random(405)
    hits = 0
    for _ in range(120):
        inst = _random_instance(rng, 6, denom=6, span=1)
        g = instance_graph(inst)
        pts = inst.points
        for v in range(inst.n):
            nbrs = [u for u in range(inst.n) if g.adjacent(v, u)]
            for u, w in combinations(nbrs, 2):
                hull = [pts[u], pts[v], pts[w]]
                for x in range(inst.n):
                    if x in (u, v, w):
                        continue
                    if point_in_hull(pts[x], hull) != OUTSIDE:
                        hits += 1
                        assert g.adjacent(v, x)
    assert hits > 50


def test_far_pairs_have_clique_common_neighborhood():
    rng = random.Random(406)
    hits = 0
    for _ in range(300):
        inst = _random_instance(rng, 6, denom=4, span=1)
        g = instance_graph(inst)
        pts = inst.points
        for u in range(inst.n):
            for v in range(u + 1, inst.n):
                if sq_dist(pts[u], pts[v]) >= 3:
                    hits += 1
                    assert is_clique(g, [w for w in range(inst.n)
                                         if g.adjacent(u, w) and g.adjacent(v, w)])
    assert hits > 100


def test_complete_to_clique_extends_across_hull():
    rng = random.Random(407)
    hits = 0
    for _ in range(120):
        inst = _random_instance(rng, 6, denom=6, span=1)
        g = instance_graph(inst)
        pts = inst.points
        for size in (2, 3):
            for clique in combinations(range(inst.n), size):
                if not is_clique(g, clique):
                    continue
                hull = [pts[i] for i in clique]
                for v in range(inst.n):
                    if v in clique or not all(g.adjacent(v, w) for w in clique):
                        continue
                    for x in range(inst.n):
                        if x == v or x in clique:
                            continue
                        if point_in_hull(pts[x], hull) != OUTSIDE:
                            hits += 1
                            assert g.adjacent(v, x)
    assert hits > 20


def test_boundary_has_no_three_nested_nonadjacent_pairs():
    # six boundary vertices x1,y1,x2,y2,x3,y3 in circular order with all three
    # pairs non-adjacent would force stability three
    rng = random.Random(408)
    checked = 0
    while checked < 40:
        inst = gen_two_cluster(6 + rng.randrange(7), seed=rng.randrange(100000),
                               separation="1")
        g = instance_graph(inst)
        hd = hull_decomposition(inst.homogeneous)
        if stability_witness(g) is not None or hd.is_collinear:
            continue
        checked += 1
        seq = hd.boundary
        m = len(seq)
        if m < 6:
            continue
        for sel in combinations(range(m), 6):
            chosen = [seq[i] for i in sel]
            for rot in (0, 1):  # both circular pairings of the six positions
                ring = chosen[rot:] + chosen[:rot]
                x1, y1, x2, y2, x3, y3 = ring
                if (not g.adjacent(x1, y1) and not g.adjacent(x2, y2)
                        and not g.adjacent(x3, y3)):
                    raise AssertionError((inst.id, sel, rot))


def test_interval_identities_on_generated_boundaries():
    rng = random.Random(409)
    done = 0
    while done < 20:
        inst = gen_two_cluster(5 + rng.randrange(8), seed=rng.randrange(100000),
                               separation="3/4")
        hd = hull_decomposition(inst.homogeneous)
        if hd.is_collinear:
            continue
        order = hd.boundary
        done += 1
        for u in order:
            assert interval_closed(order, u, u) == (u,)
            for v in order:
                if u == v:
                    continue
                closed = interval_closed(order, u, v)
                back = interval_closed(order, v, u)
                assert len(closed) + len(back) == len(order) + 2
                assert set(closed) | set(back) == set(order)
                assert set(closed) & set(back) == {u, v}


def test_udg_abstract_properties_on_corpus():
    for seed in range(8):
        inst = gen_two_cluster(10 + seed, seed=seed, separation="1/2")
        g = instance_graph(inst)
        assert check_k16_free(g) == (True, None)
        assert check_nbhprop(g) == (True, None)


def test_cover_pipeline_on_random_valid_instances():
    rng = random.Random(410)
    for trial in range(30):
        inst = gen_two_cluster(3 + rng.randrange(18), seed=trial * 7 + 1,
                               separation=["1", "3/4", "1/2"][trial % 3])
        g = instance_graph(inst)
        cover, _ = cover_three_cliques(inst)
        assert verify_cover(g, cover) is None
        partition = partition_from_cover(cover)
        assert verify_cover(g, partition) is None
        sizes = sorted(len(p) for p in partition.parts)
        assert len(set(sizes)) >= 2
        if inst.n <= 12:
            assert brute_clique_cover_number(g) <= 3


def test_matching_coloring_optimal_and_within_bound():
    rng = random.Random(411)
    for trial in range(10):
        inst = gen_two_cluster(4 + rng.randrange(8), seed=trial + 100,
                               separation="3/4")
        g = instance_graph(inst)
        coloring = color_via_complement_matching(inst)
        assert verify_coloring(g, coloring, max_class_size=2) is None
        assert coloring.num_colors == brute_chi(g)
        h = complement(g)
        # complement of a stability-two graph has no triangle
        for i in range(h.n):
            for j in range(i + 1, h.n):
                if h.adjacent(i, j):
                    assert not h.masks[i] & h.masks[j]
