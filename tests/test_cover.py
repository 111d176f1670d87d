import functools
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from corpora import (acceptance_corpus, benchmark_toy_instances,
                     circulant_blowups, explicit_centre_cases, homogeneous,
                     lattice_disk_instances, lattice_worlds,
                     mixed_denominator_points, perturbed_blowups,
                     reference_orientation)
from udgcolor import core as core_module
from udgcolor import cover as cover_module
from udgcolor.core import (AbstractGraph, _boundary_position, build_instance,
                           instance_graph, interval_closed, is_clique)
from udgcolor.cover import (REGIONS, CliqueCover, _clique_arc_lengths, _pivot_pair,
                            _with_universal, collinear_cover, cover_from_text,
                            cover_three_cliques, cover_to_text,
                            disk_case_cover, far_pair_cover, hollow_pivot,
                            partition_from_cover, trace_from_text,
                            trace_to_text)
from udgcolor.errors import (EmptyInstance, InvalidVertex, StabilityViolated,
                             StructureViolation, UdgError)
from udgcolor.geom import (COLLINEAR, OUTSIDE, Point, PreparedHull, _homogeneous,
                           hull_decomposition, point, smallest_enclosing_disk,
                           sq_dist)
from udgcolor.instances import gen_circulant, gen_two_cluster
from udgcolor.matching import audit_bound, color_via_complement_matching
from udgcolor.oracles import (brute_chi, brute_cover_exists, brute_omega,
                              verify_coloring, verify_cover)


def _check(inst, cover):
    assert verify_cover(instance_graph(inst), cover) is None


def test_cover_single_vertex():
    inst = build_instance("one", [point(0, 0)])
    cover, trace = cover_three_cliques(inst)
    assert cover.cliques == (frozenset({0}), frozenset({0}), frozenset())
    assert cover.shared_vertex == 0
    assert trace is None


def test_cover_two_far_points():
    inst = build_instance("two", [point(0, 0), point(2, 0)])
    cover, _ = cover_three_cliques(inst)
    assert cover.cliques == (frozenset({0}), frozenset({0}), frozenset({1}))
    assert cover.shared_vertex == 0


def test_cover_c5_matches_brute_force_existence():
    inst = gen_circulant(5, 2)
    cover, trace = cover_three_cliques(inst)
    _check(inst, cover)
    g = instance_graph(inst)
    assert brute_cover_exists(g, shared=True) is not None
    containing = [i for i in range(3) if cover.shared_vertex in cover.cliques[i]]
    assert len(containing) >= 2


def test_cover_gate_rejects_independent_triple():
    inst = build_instance("bad", [point(0, 0), point(2, 0), point(4, 0)])
    with pytest.raises(StabilityViolated) as err:
        cover_three_cliques(inst)
    assert err.value.witness == (0, 1, 2)


def test_cover_empty_instance():
    with pytest.raises(EmptyInstance):
        cover_three_cliques(build_instance("none", []))


def test_far_pair_two_points():
    inst = build_instance("fp", [point(0, 0), point(2, 0)])
    cover = far_pair_cover(inst.graph, inst.homogeneous, 0, 1)
    assert cover.cliques == (frozenset({0}), frozenset({0}), frozenset({1}))


def test_far_pair_cover_refuses_a_pair_closer_than_sqrt3():
    inst = build_instance("near", [point(0, 0), point("3/2", 0)])
    with pytest.raises(InvalidVertex, match=r"^pair \(0,1\) is not a far pair$"):
        far_pair_cover(inst.graph, inst.homogeneous, 0, 1)


def test_far_pair_with_midpoint():
    inst = build_instance("fp", [point(0, 0), point(2, 0), point(1, 0)])
    cover = far_pair_cover(inst.graph, inst.homogeneous, 0, 1)
    assert cover.cliques == (frozenset({0}), frozenset({0, 2}), frozenset({1}))
    _check(inst, cover)


def test_far_pair_four_collinear():
    inst = build_instance("fp", [point(0, 0), point(2, 0), point("1/2", 0),
                                 point("3/2", 0)])
    cover = far_pair_cover(inst.graph, inst.homogeneous, 0, 1)
    assert cover.cliques == (frozenset({0, 2}), frozenset({0}), frozenset({1, 3}))
    _check(inst, cover)


def test_collinear_cover_all_close():
    inst = build_instance("ln", [point(0, 0), point("1/2", 0), point(1, 0)])
    cover = collinear_cover(inst.graph, inst.homogeneous)
    assert cover.cliques == (frozenset({0, 1, 2}), frozenset(), frozenset({0}))
    _check(inst, cover)


def test_collinear_cover_two_groups():
    inst = build_instance("ln", [point(0, 0), point(1, 0), point("3/2", 0),
                                 point(2, 0)])
    cover = collinear_cover(inst.graph, inst.homogeneous)
    assert cover.cliques == (frozenset({0, 1}), frozenset({2, 3}), frozenset({0}))
    _check(inst, cover)


def test_collinear_cover_far_pair_only():
    inst = build_instance("ln", [point(0, 0), point(2, 0)])
    cover = collinear_cover(inst.graph, inst.homogeneous)
    assert cover.cliques == (frozenset({0}), frozenset({1}), frozenset({0}))
    _check(inst, cover)


def test_hollow_pivot_complete_boundary():
    inst = build_instance("sq", [point(0, 0), point("1/2", 0),
                                 point("1/2", "1/2"), point(0, "1/2")])
    order = hull_decomposition(inst.homogeneous).boundary
    g = instance_graph(inst)
    v = order[0]
    assert hollow_pivot(order, g, v) == (order[1], order[-1])


def test_hollow_pivot_c8():
    inst = gen_circulant(8, 3)
    order = hull_decomposition(inst.homogeneous).boundary
    g = instance_graph(inst)
    assert hollow_pivot(order, g, 0) == (6, 2)
    with pytest.raises(InvalidVertex, match="vertex 8 is not on the boundary"):
        hollow_pivot(order, g, 8)


def test_hollow_pivot_c5():
    inst = gen_circulant(5, 2)
    order = hull_decomposition(inst.homogeneous).boundary
    g = instance_graph(inst)
    v_minus, v_plus = hollow_pivot(order, g, 0)
    assert (v_minus, v_plus) == (4, 1)
    # the leftover arc is the middle clique {2,3}
    assert is_clique(g, {2, 3})


def test_hollow_pivot_conclusion_holds_on_random_boundaries():
    rng = random.Random(31)
    done = 0
    while done < 25:
        inst = gen_two_cluster(4 + rng.randrange(12), seed=rng.randrange(10000),
                               separation="3/4")
        g = instance_graph(inst)
        hd = hull_decomposition(inst.homogeneous)
        if hd.is_collinear:
            continue
        order = hd.boundary
        for v in order:
            v_minus, v_plus = hollow_pivot(order, g, v)
            left = interval_closed(order, v_minus, v)
            right = interval_closed(order, v, v_plus)
            rest = [w for w in order
                    if w not in set(interval_closed(order, v_minus, v_plus))]
            assert is_clique(g, left) and is_clique(g, right) and is_clique(g, rest)
        done += 1


def _reference_hollow_pivot(boundary, g, v):
    """hollow_pivot as a greedy walk, before it read clique arc lengths: an
    all-pairs completeness test, the clique prefix and suffix walks from v,
    and the three arcs checked with interval_closed and is_clique."""
    m = len(boundary)
    pos = _boundary_position(boundary, v)

    if all(g.adjacent(boundary[a], boundary[b]) for a in range(m) for b in range(a + 1, m)):
        return boundary[(pos + 1) % m], boundary[(pos - 1) % m]

    prefix = [v]
    idx = pos
    while True:
        nxt = boundary[(idx + 1) % m]
        if any(not g.adjacent(nxt, w) for w in prefix):
            y_plus = nxt
            break
        prefix.append(nxt)
        idx += 1
    v_plus = prefix[-1]

    suffix = [v]
    idx = pos
    while True:
        prv = boundary[(idx - 1) % m]
        if any(not g.adjacent(prv, w) for w in suffix):
            y_minus = prv
            break
        suffix.append(prv)
        idx -= 1

    v_minus = y_plus if y_minus in prefix else suffix[-1]

    middle = [w for w in boundary if w not in set(interval_closed(boundary, v_minus, v_plus))]
    for part in (interval_closed(boundary, v_minus, v),
                 interval_closed(boundary, v, v_plus), middle):
        if not is_clique(g, part):
            raise StructureViolation(
                f"hollow pivot produced a non-clique around vertex {v}; "
                f"only possible when stability exceeds 2")
    return v_minus, v_plus


def _outcome(fn, *args):
    """fn's result, or the type and message of the UdgError it raises."""
    try:
        return fn(*args)
    except UdgError as exc:
        return type(exc), str(exc)


def _hollow_pivot_outcomes(order, g, vertices):
    """Check hollow_pivot against the greedy walk at each vertex given; the
    count of each outcome: a pair, or the error raised."""
    seen = Counter()
    for v in vertices:
        expected = _outcome(_reference_hollow_pivot, order, g, v)
        assert _outcome(hollow_pivot, order, g, v) == expected, (order, g.masks, v)
        seen[expected[0] if isinstance(expected[0], type) else "pair"] += 1
    return seen


def test_hollow_pivot_matches_greedy_walk_on_random_boundaries():
    rng = random.Random(26)
    seen = Counter()
    for trial in range(1500):
        n = 1 + rng.randrange(10)
        density = rng.choice((0.3, 0.6, 0.8, 0.9, 1.0))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = AbstractGraph(n, edges)
        order = rng.sample(range(n), 1 + rng.randrange(n))
        # every boundary vertex, and vertex n, which no boundary holds
        seen += _hollow_pivot_outcomes(order if trial % 2 else tuple(order), g, [*order, n])
    assert set(seen) == {"pair", InvalidVertex, StructureViolation}


def test_hollow_pivot_matches_greedy_walk_on_hull_boundaries():
    instances = [gen_two_cluster(n, seed=seed, separation=sep)
                 for n in (4, 9, 16, 30) for seed in range(4) for sep in ("1/2", "3/4", "1")]
    for n in range(3, 40):
        for k in range(2, n // 2 + 2):
            try:
                instances.append(gen_circulant(n, k))
            except UdgError:  # not realizable on a circle at this precision
                pass
    seen = Counter()
    for inst in instances:
        hd = hull_decomposition(inst.homogeneous)
        if not hd.is_collinear:
            seen += _hollow_pivot_outcomes(hd.boundary, inst.graph, hd.boundary)
    assert set(seen) == {"pair", StructureViolation}


def _reference_pivot_pair(order, g, b):
    """Exhaustive O(m^4) reference for _pivot_pair: every (b-, b+) whose
    arcs [b-,b], [b,b+] and remainder are cliques meeting pairwise in at
    most {b}, minimized by (remainder size, offset b+, offset b-)."""
    m = len(order)
    pos_b = order.index(b)

    def offset(v):
        return (order.index(v) - pos_b) % m

    best = None
    for b_minus in order:
        for b_plus in order:
            if b_minus == b_plus and m > 1:
                continue
            closed = set(interval_closed(order, b_minus, b_plus))
            if b not in closed:
                continue
            arc_minus = interval_closed(order, b_minus, b)
            arc_plus = interval_closed(order, b, b_plus)
            if (set(arc_minus) & set(arc_plus)) - {b}:
                continue
            remainder = [w for w in order if w not in closed]
            if not (is_clique(g, arc_minus) and is_clique(g, arc_plus)
                    and is_clique(g, remainder)):
                continue
            key = (len(remainder), offset(b_plus), offset(b_minus))
            if best is None or key < best[0]:
                best = (key, b_minus, b_plus)
    return None if best is None else best[1:]


def _pivot_vertices(order, g, b):
    """_pivot_pair's offsets (j, s) mapped back to the pair (b-, b+) on the
    boundary rotated to start at b; None when it finds no pair."""
    pos_b = order.index(b)
    rot = order[pos_b:] + order[:pos_b]
    m = len(rot)
    pivot = _pivot_pair(_clique_arc_lengths(rot, g))
    if pivot is None:
        return None
    j, s = pivot
    return rot[-s % m], rot[j]


def test_pivot_scan_matches_enumeration_on_random_boundaries():
    rng = random.Random(2024)
    seen_none = seen_pair = 0
    for m in range(1, 10):
        for trial in range(150):
            n = m + rng.randrange(3)
            density = 1.0 if trial < 5 else rng.choice((0.5, 0.7, 0.85, 0.95))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < density]
            g = AbstractGraph(n, edges)
            order = tuple(rng.sample(range(n), m))
            for b in order:
                expected = _reference_pivot_pair(order, g, b)
                assert _pivot_vertices(order, g, b) == expected, (m, edges, order, b)
                if expected is None:
                    seen_none += 1
                else:
                    seen_pair += 1
    assert seen_none > 0 and seen_pair > 0


def _disk_case_boundary(inst, center=None):
    """The augmented graph and boundary order disk_case_cover works on, around
    center (default: the smallest enclosing disk's, as the dispatch picks).
    Every point lies within unit distance of the center, so the center is a
    universal vertex: the instance graph plus vertex n joined to everything,
    unless the center is an instance point."""
    if center is None:
        center = smallest_enclosing_disk(inst.homogeneous).center
    if center in inst.points:
        return inst.graph, hull_decomposition(inst.homogeneous).boundary
    return (_with_universal(inst.graph),
            hull_decomposition((*inst.homogeneous, _homogeneous(center))).boundary)


def test_pivot_scan_matches_enumeration_on_acceptance_disk_cases():
    checked = 0
    for inst in acceptance_corpus():
        _, trace = cover_three_cliques(inst)
        if trace is None:
            continue
        g, order = _disk_case_boundary(inst)
        for b in order:
            pair = _pivot_vertices(order, g, b)
            assert pair == _reference_pivot_pair(order, g, b), (inst.id, b)
            # a geometric boundary with no gap always has a pivot pair
            assert pair is not None or trace.mode == "nonedge", (inst.id, b)
            checked += 1
    assert checked > 100


def _reference_nonedge_pair(g, boundary):
    """The first consecutive non-adjacent pair of the boundary, in its own
    order; None when there is none.  The loop disk_case_cover ran before
    the clique-arc scan answered this question too."""
    m = len(boundary)
    for t in range(m):
        u, w = boundary[t], boundary[(t + 1) % m]
        if u != w and not g.adjacent(u, w):
            return u, w
    return None


@functools.cache
def _disk_cases():
    """(instance, center, trace) for every disk case of the acceptance
    corpus, the benchmark toys and the lattice corpus, and for every
    explicit-centre case; built once for the tests that read it."""
    instances = itertools.chain(acceptance_corpus(),
                                *(benchmark_toy_instances(seed) for seed in (1, 3, 7919)),
                                lattice_disk_instances())
    traced = itertools.chain(((inst, cover_three_cliques(inst)[1]) for inst in instances),
                             ((inst, disk_case_cover(inst.graph, inst.homogeneous, center)[1])
                              for inst, center in explicit_centre_cases()))
    return tuple((inst, trace.p_point, trace) for inst, trace in traced if trace is not None)


def test_nonedge_mode_matches_the_consecutive_pair_reference():
    modes = Counter()
    for inst, center, trace in _disk_cases():
        g, order = _disk_case_boundary(inst, center)
        expected = _reference_nonedge_pair(g, order)
        assert (trace.mode == "nonedge") == (expected is not None), inst.id
        assert trace.nonedge_pair == expected, inst.id
        if expected is None:
            assert all(_pivot_vertices(order, g, b) is not None for b in order), inst.id
        modes[trace.mode] += 1
    assert set(modes) == {"nonedge", "narrow", "split"}, modes


def _reference_regions(inst, trace):
    """The five region sets by the loop disk_case_cover ran before an arc
    vertex skipped its own region's hull: the arcs are read off the trace's
    pivots, and every vertex but p and b goes to the first region, in
    REGIONS order, whose prepared hull does not leave it OUTSIDE."""
    h = homogeneous(list(inst.points) + ([trace.p_point] if trace.p_virtual else []))
    order = hull_decomposition(h).boundary
    p, piv = trace.p_id, trace.pivots
    start = 1 if order[0] == p else 0
    rot = order[start:] + order[:start]
    b, m = rot[0], len(rot)
    assert b == piv["b"], inst.id
    j, s = rot.index(piv["b+"]), (m - rot.index(piv["b-"])) % m
    middle = rot[j + 1:m - s]
    regions = dict(zip(REGIONS, (rot[:j + 1], rot[m - s:] + rot[:1], middle,
                                 (piv["b+"], piv["r+"]), (piv["r-"], piv["b-"]) if middle else ())))
    hulls = [(name, PreparedHull([h[w] for w in ids] + [h[p]]))
             for name, ids in regions.items() if ids]
    assigned = {name: {p} if ids else set() for name, ids in regions.items()}
    assigned["B+"].add(b)
    assigned["B-"].add(b)
    for w in range(len(h)):
        if w != b and w != p:
            assigned[next(name for name, hull in hulls if hull.locate(h[w]) != OUTSIDE)].add(w)
    return {name: frozenset(ws) for name, ws in assigned.items()}


def test_fan_regions_match_the_exhaustive_loop():
    """Every disk-case trace of _disk_cases(), the lattice worlds and both
    blow-up corpora has the exhaustive loop's region sets."""
    instances = itertools.chain(*lattice_worlds().values(), circulant_blowups(),
                                (inst for inst, _ in perturbed_blowups()))
    traced = itertools.chain(((inst, trace) for inst, _, trace in _disk_cases()),
                             ((inst, cover_three_cliques(inst)[1]) for inst in instances))
    modes = Counter()
    for inst, trace in traced:
        if trace is None:
            continue
        modes[trace.mode] += 1
        if trace.mode != "nonedge":
            assert ({name: trace.sets[f"region {name}"] for name in REGIONS}
                    == _reference_regions(inst, trace)), inst.id
    assert modes["narrow"] > 50 and modes["split"] > 100, modes


def test_fan_locates_no_vertex_against_the_hull_of_its_own_arc(monkeypatch):
    """A shuffled C(35, 12) has every vertex on the hull boundary, so on an
    arc; none is located against a hull that it is a point of."""
    base = gen_circulant(35, 12)
    order = list(range(base.n))
    random.Random(35).shuffle(order)
    inst = build_instance("circulant-35-12-shuffled", [base.points[v] for v in order])
    located = []

    class Recording(PreparedHull):
        def __init__(self, points):
            self.points = list(points)
            super().__init__(self.points)

        def locate(self, c):
            located.append((self.points, c))
            return super().locate(c)

    monkeypatch.setattr(cover_module, "PreparedHull", Recording)
    _, trace = cover_three_cliques(inst)
    assert trace.mode == "split"
    assert located and all(c not in points for points, c in located)


# SHA-256 over the cover, trace and audit texts of lattice_disk_instances()
# followed by the cover and trace texts of explicit_centre_cases(), recorded
# before the disk case read its boundary off one clique-arc scan.
GOLDEN_DISK_CORPORA = "a7606c66131167706d894a414a8311327acadec12ff04244063bcc88b5af59cf"


def test_disk_case_corpora_texts_match_one_golden_hash():
    digest = hashlib.sha256()
    for inst in lattice_disk_instances():
        cover, trace = cover_three_cliques(inst)
        digest.update(cover_to_text(cover, inst.id).encode())
        if trace is not None:
            digest.update(trace_to_text(trace, inst.id).encode())
        digest.update(audit_bound(inst).to_text().encode())
    for inst, center in explicit_centre_cases():
        cover, trace = disk_case_cover(inst.graph, inst.homogeneous, center)
        digest.update(cover_to_text(cover, inst.id).encode())
        digest.update(trace_to_text(trace, inst.id).encode())
    assert digest.hexdigest() == GOLDEN_DISK_CORPORA


# SHA-256 over the cover, trace and audit texts of circulant_blowups(),
# recorded before the disk case built its fan from one region table.
GOLDEN_BLOWUPS = "3a11f8e1b1e3a374c32aaed81675d3fbeb1ba825d820cc7bd7d1a9355b05c835"


def test_circulant_blowups_reach_split_and_match_one_golden_hash():
    digest = hashlib.sha256()
    modes = Counter()
    for inst in circulant_blowups():
        cover, trace = cover_three_cliques(inst)
        modes[trace.mode] += 1
        digest.update(cover_to_text(cover, inst.id).encode())
        digest.update(trace_to_text(trace, inst.id).encode())
        digest.update(audit_bound(inst).to_text().encode())
    assert modes == {"split": 25}
    assert digest.hexdigest() == GOLDEN_BLOWUPS


def test_brute_oracles_agree_on_lattice_corpus_and_blowups():
    """The matching coloring is optimal (n <= 16), a shared-vertex cover
    exists (n <= 14), and every audit passes with 2 * colors <= 3|A|."""
    brute = 0
    for inst in itertools.chain(lattice_disk_instances(), circulant_blowups()):
        g = inst.graph
        colors = color_via_complement_matching(inst).num_colors
        if inst.n <= 16:
            assert colors == brute_chi(g), inst.id
            brute += 1
        if inst.n <= 14:
            assert brute_cover_exists(g, shared=True) is not None, inst.id
        audit = audit_bound(inst)
        assert audit.all_pass, inst.id
        assert 2 * colors <= 3 * len(audit.clique), inst.id
    assert brute > 400


def test_perturbed_blowups_reach_chi_above_omega_off_the_circulant_points():
    """Blow-ups of C(3k-1, k) with every point moved off the exact circulant
    points: each passes the cover and coloring checks and the audit, colors
    within 3/2 omega, and at least 50 of them have chi > omega.  omega is the
    largest total cluster size over k consecutive circulant vertices; the
    coloring is optimal since it is n minus a maximum complement matching,
    and brute_chi confirms it where n <= 14."""
    tight = brute = 0
    for inst, sizes in perturbed_blowups():
        n, k = len(sizes), (len(sizes) + 1) // 3
        assert not set(inst.points) & set(gen_circulant(n, k).points), inst.id
        g = inst.graph
        omega = max(sum(sizes[(s + j) % n] for j in range(k)) for s in range(n))
        if inst.n <= 30:
            assert brute_omega(g) == omega, inst.id
        cover, _ = cover_three_cliques(inst)
        assert verify_cover(g, cover) is None, inst.id
        coloring = color_via_complement_matching(inst)
        assert verify_coloring(g, coloring, max_class_size=2) is None, inst.id
        assert audit_bound(inst).all_pass, inst.id
        assert 2 * coloring.num_colors <= 3 * omega, inst.id
        if inst.n <= 14:
            assert coloring.num_colors == brute_chi(g), inst.id
            brute += 1
        tight += coloring.num_colors > omega
    assert tight >= 50
    assert brute >= 5


def test_doubled_c5_is_below_the_three_halves_bound():
    # every vertex of C5 doubled: omega = 4 and chi = 5 < floor(3 * 4 / 2)
    inst = next(inst for inst in circulant_blowups() if inst.id == "blowup-5-2-22222")
    colors = color_via_complement_matching(inst).num_colors
    assert (len(audit_bound(inst).clique), colors, brute_chi(inst.graph)) == (4, 5, 5)


def test_disk_case_calls_no_boundary_order_helper(monkeypatch):
    instances = [*acceptance_corpus(), *(gen_circulant(3 * k - 1, k) for k in range(2, 13))]

    def texts():
        out = []
        for inst in instances:
            cover, trace = cover_three_cliques(inst)
            out.append(cover_to_text(cover, inst.id))
            out.append(None if trace is None else trace_to_text(trace, inst.id))
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("the cover called a boundary-order helper")

    expected = texts()
    assert any(text is not None and text.startswith("trace circulant") for text in expected)
    # cover imports neither core helper, so they are refused where they live
    for name in ("interval_closed", "is_clique"):
        monkeypatch.setattr(core_module, name, refuse)
    monkeypatch.setattr(cover_module, "hollow_pivot", refuse)
    assert texts() == expected


# SHA-256 of cover_to_text and trace_to_text (None: no trace), recorded
# before the disk case moved to the linear pivot scan and prepared fan-region
# hulls; the far-pair and nonedge entries before those two branches came to
# share one pair construction.
GOLDEN_COVERS = {
    "circulant-35-12": (
        "b6a7ca1d8ab13f70a31ad1fe000fb4154d468a588b51a3ee68a912ede48d0693",
        "0282c3a0d25f6527d228397711c51d7c78ed3c01997d69a5b046cbede5edc686"),
    "circulant-59-20": (
        "519793833f68c10ae6dd3a2cd9b7c1a3d289588da288d303512dd0ae37206bf6",
        "18e48757fa9524b1c851ada9c6393cba3c0937345d0e5d5315a65f18650f0137"),
    "twocluster-80-3-1x2": (
        "5b075d1e9bcbe2c93d7b7a6f4509cc8cc0a25a6d7f7cfe3681815c2751ab8cf8",
        "beaaf7be623b64e55f987fac73385cc2b480911fab89925e3902cd5a42bbc6b4"),
    "twocluster-30-0-1x1": (
        "38610a2d55ba0a34bbb230c8605b83a901041e082aa6ed9683b91e47a2cbc358",
        None),
    "twocluster-30-3-3x4": (
        "a819da527f0c6feacecbb053ada15c9e329c97d3f27142c5c88cda654e932786",
        "c0780977d1b9a5f95fbe33fbdfcc7185a2e1dc7b9cfb7b1acaea0766dbdae7d2"),
}


@pytest.mark.parametrize("inst", [gen_circulant(35, 12), gen_circulant(59, 20),
                                  gen_two_cluster(80, seed=3, separation="1/2"),
                                  gen_two_cluster(30, seed=0, separation=1),
                                  gen_two_cluster(30, seed=3, separation="3/4")],
                         ids=lambda inst: inst.id)
def test_disk_case_artifacts_match_golden_hashes(inst):
    cover, trace = cover_three_cliques(inst)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    cover_text = cover_to_text(cover, inst.id)
    trace_text = None if trace is None else trace_to_text(trace, inst.id)
    assert (digest(cover_text), trace_text and digest(trace_text)) == GOLDEN_COVERS[inst.id]
    # each artifact reads back, also with blank lines, to what writes it again
    for text in (cover_text, cover_text.replace("\n", "\n\n")):
        assert cover_to_text(cover_from_text(text)[1], inst.id) == cover_text
    if trace_text is not None:
        for text in (trace_text, trace_text.replace("\n", "\n\n")):
            assert trace_from_text(text) == (inst.id, trace)
            assert trace_to_text(trace_from_text(text)[1], inst.id) == trace_text


def test_disk_case_small_square_complete():
    inst = build_instance("sq", [point(0, 0), point("1/2", 0),
                                 point("1/2", "1/2"), point(0, "1/2")])
    center = smallest_enclosing_disk(inst.homogeneous).center
    cover, trace = disk_case_cover(inst.graph, inst.homogeneous, center)
    _check(inst, cover)
    assert trace.mode in ("narrow", "split")
    shared = cover.shared_vertex
    assert sum(shared in part for part in cover.cliques) >= 2


def test_disk_case_c8_by_invariants():
    inst = gen_circulant(8, 3)
    cover, trace = cover_three_cliques(inst)
    _check(inst, cover)
    assert trace is not None and trace.p_virtual
    assert sum(len(c) for c in cover.cliques) >= 8
    assert brute_cover_exists(instance_graph(inst), shared=True) is not None


def test_disk_case_c5_by_invariants():
    inst = gen_circulant(5, 2)
    cover, trace = cover_three_cliques(inst)
    _check(inst, cover)
    assert brute_cover_exists(instance_graph(inst), shared=True) is not None


def test_disk_case_real_universal_vertex():
    pts = [point(0, 0), point("3/5", 0), point("-3/5", 0),
           point(0, "3/5"), point(0, "-3/5")]
    inst = build_instance("cross", pts)
    cover, trace = cover_three_cliques(inst)
    _check(inst, cover)
    assert not trace.p_virtual
    assert trace.p_id == 0


def test_disk_case_nonedge_shortcut():
    # acute triangle: base pair non-adjacent, enclosing center strictly inside
    pts = [point(0, 0), point("6/5", 0), point("3/5", "4/5")]
    inst = build_instance("acute", pts)
    cover, trace = cover_three_cliques(inst)
    _check(inst, cover)
    assert trace.mode == "nonedge"
    assert trace.nonedge_pair == (0, 1)


def test_disk_case_trace_regions_cover_everything():
    inst = gen_circulant(11, 4)
    cover, trace = cover_three_cliques(inst)
    _check(inst, cover)
    assert trace.mode == "split"
    sets = trace.sets
    region_union = (sets["region B+"] | sets["region B-"] | sets["region R"]
                    | sets["region T+"] | sets["region T-"])
    expected = set(range(inst.n)) | {trace.p_id}
    assert region_union == expected
    assert sets["split T+B"] | sets["split T+R"] | sets["split T+*"] == sets["region T+"]
    assert sets["split T-B"] | sets["split T-R"] | sets["split T-*"] == sets["region T-"]
    g = instance_graph(inst)
    # the two R-complete zones must join into one clique
    assert is_clique(g, (sets["split T+R"] | sets["split T-R"]) - {trace.p_id})


def test_partition_single_vertex_cover():
    part = partition_from_cover(
        CliqueCover((frozenset({0}), frozenset({0}), frozenset()), 0))
    assert part.parts == (frozenset({0}), frozenset(), frozenset())


def test_partition_disjointification_rule():
    cover = CliqueCover((frozenset({0, 1}), frozenset({1, 2}), frozenset({3, 4})), 1)
    part = partition_from_cover(cover)
    assert part.parts == (frozenset({0, 1}), frozenset({2}), frozenset({3, 4}))


def test_partition_from_engine_cover_c5():
    inst = gen_circulant(5, 2)
    cover, _ = cover_three_cliques(inst)
    part = partition_from_cover(cover)
    sizes = sorted(len(p) for p in part.parts)
    assert sum(sizes) == 5
    assert len(set(sizes)) >= 2
    assert verify_cover(instance_graph(inst), part) is None


def test_partition_empty_rejected():
    with pytest.raises(EmptyInstance):
        partition_from_cover(CliqueCover((frozenset(), frozenset(), frozenset()), None))


def test_partition_keeps_shared_in_larger():
    cover = CliqueCover((frozenset({0}), frozenset({0, 1, 2}), frozenset({3})), 0)
    part = partition_from_cover(cover)
    assert part.parts[1] == frozenset({0, 1, 2})
    assert part.parts[0] == frozenset()


def test_determinism_identical_cover():
    inst = gen_two_cluster(24, seed=9, separation="1/2")
    c1, t1 = cover_three_cliques(inst)
    c2, t2 = cover_three_cliques(inst)
    assert c1 == c2
    assert t1 == t2


def test_cover_round_trip_text():
    inst = gen_circulant(8, 3)
    cover, trace = cover_three_cliques(inst)
    text = cover_to_text(cover, inst.id)
    rid, parsed = cover_from_text(text)
    assert rid == inst.id
    assert parsed == cover
    ttext = trace_to_text(trace, inst.id)
    rid, tparsed = trace_from_text(ttext)
    assert rid == inst.id
    assert tparsed == trace


def test_structure_violation_is_hard_error():
    # disk_case_cover on points outside the claimed disk must refuse
    inst = build_instance("off", [point(0, 0), point(3, 0)])
    with pytest.raises(StructureViolation):
        disk_case_cover(inst.graph, inst.homogeneous, point(0, 0))


# Fraction reference for the dispatch predicates: the tests cover.py ran on
# Fractions before they moved to per-point homogeneous integers, kept as the
# differential oracle.

def reference_collinear(pts):
    return all(reference_orientation(pts[0], pts[1], p) == COLLINEAR for p in pts[2:])


def reference_far_pair(pts):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if sq_dist(pts[i], pts[j]) >= 3:
                return i, j
    return None


def reference_outside(center, pts):
    return next((i for i, p in enumerate(pts) if sq_dist(center, p) > 1), None)


def reference_branch(pts):
    """The constructor the dispatch calls; None for the complete graph and
    the single non-adjacent pair, which need no constructor."""
    if all(sq_dist(p, q) <= 1 for p in pts for q in pts) or len(pts) == 2:
        return None
    if reference_collinear(pts):
        return "collinear"
    if reference_far_pair(pts) is not None:
        return "far_pair"
    return "disk"


@pytest.fixture
def dispatched(monkeypatch):
    """cover_module._dispatch with its three constructors replaced by recorders, so
    the branch shows on any instance, stable or not."""
    calls = []
    dummy = CliqueCover((frozenset(), frozenset(), frozenset()), None)
    monkeypatch.setattr(cover_module, "far_pair_cover",
                        lambda g, h, u, v: calls.append(("far_pair", (u, v))) or dummy)
    monkeypatch.setattr(cover_module, "collinear_cover",
                        lambda g, h: calls.append(("collinear", None)) or dummy)
    monkeypatch.setattr(cover_module, "disk_case_cover",
                        lambda g, h, center: calls.append(("disk", center)) or (dummy, None))

    def run(inst):
        calls.clear()
        cover_module._dispatch(inst.graph, inst.homogeneous)
        return calls[0] if calls else (None, None)
    return run


def _assert_dispatch_matches_reference(inst, dispatched):
    pts = inst.points
    h = inst.homogeneous
    assert [(Fraction(x, w), Fraction(y, w)) for x, y, w in h] == [(p.x, p.y) for p in pts]
    branch, witness = dispatched(inst)
    assert branch == reference_branch(pts), inst.id
    if branch == "far_pair":
        assert witness == reference_far_pair(pts), inst.id
    if inst.n >= 2:
        assert cover_module._collinear(h) == reference_collinear(pts), inst.id
    assert cover_module._far_pair(inst.graph, h) == reference_far_pair(pts), inst.id
    center = smallest_enclosing_disk(h).center
    if branch == "disk":
        assert witness == center
    for c in (center, point(0, 0), pts[0]):
        assert (cover_module._outside_unit_disk(*homogeneous([c]), h)
                == reference_outside(c, pts)), (inst.id, c)


def test_dispatch_predicates_match_reference_on_acceptance_corpus(dispatched):
    branches = set()
    for inst in acceptance_corpus():
        _assert_dispatch_matches_reference(inst, dispatched)
        branches.add(reference_branch(inst.points))
    assert branches == {None, "far_pair", "disk"}


@pytest.mark.parametrize("seed", [1, 3, 7919])
def test_dispatch_predicates_match_reference_on_benchmark_toy_instances(seed, dispatched):
    for inst in benchmark_toy_instances(seed):
        _assert_dispatch_matches_reference(inst, dispatched)


def test_dispatch_predicates_match_reference_on_mixed_denominators(dispatched):
    pts = mixed_denominator_points()
    _assert_dispatch_matches_reference(build_instance("mixed", pts), dispatched)
    # points 0 and 1 stay, so the first pair is not always the far one
    rng = random.Random(5)
    for size in (3, 5, 9, 20):
        sample = pts[:2] + rng.sample(pts[2:], size)
        _assert_dispatch_matches_reference(build_instance("mixed", sample), dispatched)


def _big_prime_fraction(rng):
    return Fraction(rng.randrange(-10 ** 40, 10 ** 40), 2 ** 127 - 1)


def test_dispatch_predicates_match_reference_on_collinear_sets(dispatched):
    rng = random.Random(31)
    checked = set()
    for _ in range(60):
        a = Point(_big_prime_fraction(rng), _big_prime_fraction(rng))
        d = Point(Fraction(rng.randrange(10 ** 8, 10 ** 9), 10 ** 9 + 7),
                  Fraction(rng.randrange(-3 ** 40, 3 ** 40), 3 ** 41))
        ts = rng.sample(range(-40, 41), rng.randrange(3, 9))
        scale = Fraction(rng.randrange(1, 60), 10)
        pts = [Point(a.x + scale * t * d.x / 40, a.y + scale * t * d.y / 40) for t in ts]
        if rng.random() < 0.5:
            i = rng.randrange(len(pts))
            pts[i] = Point(pts[i].x, pts[i].y + Fraction(1, 2 ** 200))  # just off the line
        inst = build_instance("line", pts)
        _assert_dispatch_matches_reference(inst, dispatched)
        checked.add(reference_branch(pts))
    assert {"collinear", "far_pair", "disk"} <= checked


@pytest.fixture
def sq_dist_tests(monkeypatch):
    """The arguments of every cover._sq_dist_sign call, recorded as it answers."""
    calls = []
    sign = cover_module._sq_dist_sign
    monkeypatch.setattr(cover_module, "_sq_dist_sign",
                        lambda a, b, t: calls.append((a, b, t)) or sign(a, b, t))
    return calls


OFFSETS = [point(0, 0), point("1/3", "-2/7"),
           Point(Fraction(1, 2 ** 61 - 1), Fraction(-3, 10 ** 25))]


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("root2, box_is_short",
                         [(Fraction(14142135, 10 ** 7), True),    # square just below 2
                          (Fraction(14142136, 10 ** 7), False)],  # square just above 2
                         ids=["short-box", "long-box"])
def test_far_pair_box_certificate_on_both_sides_of_sqrt3(offset, root2, box_is_short,
                                                         sq_dist_tests):
    # each box is 1 by root2, so its squared diagonal is just below or just
    # above 3; x^2 + y^2 = 3 has no rational solution, so no pair ties sqrt(3)
    corners = [point(0, 0), point("1/3", "2/7"), Point(Fraction(1), root2)]
    # four different points set the box's sides, and every pair is closer
    # than sqrt(3): the long box must still be scanned to find no far pair
    spread = [point(0, "1/2"), point(1, "1/3"), point("1/2", 0), Point(Fraction(1, 4), root2),
              point("3/5", "5/7")]
    for pts, far in ((corners, None if box_is_short else (0, 2)), (spread, None)):
        pts = [Point(p.x + offset.x, p.y + offset.y) for p in pts]
        inst = build_instance("box", pts)
        sq_dist_tests.clear()
        assert cover_module._far_pair(inst.graph, inst.homogeneous) == far
        assert reference_far_pair(pts) == far
        assert (sq_dist_tests == []) == box_is_short


def test_far_pair_tests_no_pair_inside_a_short_box(sq_dist_tests):
    short = [gen_circulant(59, 20),
             next(inst for inst in benchmark_toy_instances(1) if inst.id.endswith("-1x4"))]
    for inst in short:
        assert cover_module._far_pair(inst.graph, inst.homogeneous) is None, inst.id
        assert sq_dist_tests == [], inst.id
        assert reference_far_pair(inst.points) is None, inst.id
    far = gen_two_cluster(50, 1, 1)
    assert cover_module._far_pair(far.graph, far.homogeneous) == reference_far_pair(far.points)
    assert sq_dist_tests


ON_CIRCLE = [point("3/5", "4/5"), point(0, 1), point(-1, 0), point("5/13", "-12/13"),
             point("-8/17", "-15/17"), point(1, 0)]
TINY = Fraction(1, 10 ** 30)


@pytest.mark.parametrize("offset", OFFSETS)
def test_centre_test_on_and_just_off_the_unit_circle(offset, dispatched):
    def shifted(pts):
        return [Point(p.x + offset.x, p.y + offset.y) for p in pts]

    on = shifted(ON_CIRCLE)
    inside = shifted([point("3/5", "4/5") if p == point(1, 0) else p for p in ON_CIRCLE]
                     + [Point(Fraction(3, 5) - TINY, Fraction(4, 5))])
    outside = shifted(ON_CIRCLE[:3] + [Point(Fraction(3, 5) + TINY, Fraction(4, 5))]
                      + ON_CIRCLE[3:])
    for pts, expected in ((on, None), (outside, 3)):
        inst = build_instance("circle", pts)
        assert cover_module._outside_unit_disk(*homogeneous([offset]), inst.homogeneous) == expected
        assert reference_outside(offset, pts) == expected
        _assert_dispatch_matches_reference(inst, dispatched)
    inst = build_instance("circle", inside[1:])
    assert cover_module._outside_unit_disk(*homogeneous([offset]), inst.homogeneous) is None
    inst = build_instance("circle", outside)
    with pytest.raises(StructureViolation, match="vertex 3 lies outside the unit disk"):
        disk_case_cover(inst.graph, inst.homogeneous, offset)
