import hashlib
import random

import pytest

from udgcolor.core import AbstractGraph, build_instance, instance_graph
from udgcolor.errors import AuditFailure, StabilityViolated
from udgcolor.geom import point
from udgcolor.instances import gen_circulant, gen_two_cluster
from udgcolor.matching import (_augment_search, _neighbor_lists, audit_bound,
                               color_via_complement_matching,
                               coloring_from_text, coloring_to_text,
                               gallai_edmonds, max_matching,
                               sweep_greedy_color)
from udgcolor.oracles import brute_chi, verify_coloring


def _brute_nu(g: AbstractGraph) -> int:
    edges = list(g.edges())
    best = 0

    def rec(idx, used, size):
        nonlocal best
        best = max(best, size)
        if idx == len(edges) or size + (len(edges) - idx) <= best:
            return
        a, b = edges[idx]
        if a not in used and b not in used:
            rec(idx + 1, used | {a, b}, size + 1)
        rec(idx + 1, used, size)

    rec(0, frozenset(), 0)
    return best


def test_matching_path():
    p4 = AbstractGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert max_matching(p4).size == 2


def test_matching_odd_cycle():
    c5 = AbstractGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert max_matching(c5).size == 2


def test_matching_blossom_forcing():
    # 5-cycle with two pendants: augmenting must pass through the blossom
    g = AbstractGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 6)])
    assert max_matching(g).size == _brute_nu(g) == 3
    petersen = AbstractGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    assert max_matching(petersen).size == 5


def test_matching_equals_brute_force_exhaustively():
    rng = random.Random(2024)
    for _ in range(250):
        n = rng.randrange(0, 13)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = AbstractGraph(n, edges)
        m = max_matching(g)
        assert m.size == _brute_nu(g)
        seen = set()
        for u, v in m.edges:
            assert g.adjacent(u, v)
            assert u not in seen and v not in seen
            seen.update((u, v))


def test_forest_search_refuses_a_non_maximum_matching():
    # P4 with only its middle edge matched: the trees of 0 and 3 meet at 0-1-2-3
    p4 = AbstractGraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(AuditFailure, match="not maximum"):
        _augment_search(_neighbor_lists(p4), [-1, 2, 1, -1], [0, 3])
    # the same forest over a maximum matching marks the even vertices
    c5 = AbstractGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert _augment_search(_neighbor_lists(c5), [1, 0, 3, 2, -1], [4]) == [True] * 5


def test_gallai_edmonds_c5_factor_critical():
    c5 = AbstractGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    ge = gallai_edmonds(c5)
    assert ge.A == frozenset(range(5))
    assert ge.X == frozenset()
    assert len(ge.odd_components) == 1
    assert ge.O_prime == (0,)
    assert ge.M_X == frozenset()


def test_gallai_edmonds_p4_perfectly_matchable():
    p4 = AbstractGraph(4, [(0, 1), (1, 2), (2, 3)])
    ge = gallai_edmonds(p4)
    assert ge.A == frozenset()
    assert ge.X == frozenset()
    assert ge.B == frozenset(range(4))


def test_gallai_edmonds_star():
    star = AbstractGraph(4, [(0, 1), (0, 2), (0, 3)])
    ge = gallai_edmonds(star)
    assert ge.A == frozenset({1, 2, 3})
    assert ge.X == frozenset({0})
    assert len(ge.odd_components) == 3
    assert len(ge.O_X) == 1
    assert len(ge.O_prime) == 2


def test_gallai_edmonds_matches_definition():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randrange(1, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        g = AbstractGraph(n, edges)
        ge = gallai_edmonds(g)
        nu = _brute_nu(g)
        for v in range(n):
            sub, _ = g.induced(set(range(n)) - {v})
            assert (v in ge.A) == (_brute_nu(sub) == nu)
        # every odd component is factor-critical
        for comp in ge.odd_components:
            for v in comp:
                sub, _ = g.induced(comp - {v})
                assert 2 * max_matching(sub).size == len(comp) - 1
        # M_X matches each vertex of X into its own odd component
        assert len(ge.M_X) == len(ge.X)
        hit = []
        for edge in ge.M_X:
            assert g.adjacent(*edge)
            (x,) = set(edge) & ge.X
            (w,) = set(edge) - {x}
            hit.append(next(i for i, comp in enumerate(ge.odd_components) if w in comp))
        assert len(set(hit)) == len(hit)
        assert sorted(hit) == list(ge.O_X)
        assert sorted(ge.O_X + ge.O_prime) == list(range(len(ge.odd_components)))


def test_coloring_c5():
    inst = gen_circulant(5, 2)
    coloring = color_via_complement_matching(inst)
    assert coloring.num_colors == 3
    assert verify_coloring(instance_graph(inst), coloring, max_class_size=2) is None


def test_coloring_k4():
    inst = build_instance("k4", [point(0, 0), point("1/4", 0),
                                 point(0, "1/4"), point("1/4", "1/4")])
    coloring = color_via_complement_matching(inst)
    assert coloring.num_colors == 4


def test_coloring_c8():
    coloring = color_via_complement_matching(gen_circulant(8, 3))
    assert coloring.num_colors == 4


def test_coloring_rejects_unstable():
    inst = build_instance("bad", [point(0, 0), point(2, 0), point(4, 0)])
    with pytest.raises(StabilityViolated):
        color_via_complement_matching(inst)


def test_coloring_optimal_at_desk_scale():
    rng = random.Random(5)
    for seed in range(12):
        inst = gen_two_cluster(4 + rng.randrange(9), seed=seed, separation="3/4")
        coloring = color_via_complement_matching(inst)
        assert coloring.num_colors == brute_chi(instance_graph(inst))


def test_audit_single_vertex():
    report = audit_bound(build_instance("one", [point(0, 0)]))
    assert report.all_pass
    assert report.m_total == 0


def test_audit_c5_exact_numbers():
    report = audit_bound(gen_circulant(5, 2))
    assert report.all_pass
    assert report.m_total == 2
    assert report.num_o_prime == 1
    assert report.alpha_h == 2
    final = [c for c in report.checks if c.name.startswith("2(|M|")][0]
    assert (final.lhs, final.rhs) == (6, 6)


def test_audit_two_cluster():
    report = audit_bound(gen_two_cluster(20, seed=7, separation="1"))
    assert report.all_pass


GOLDEN_AUDITS = {
    "circulant-14-5": "dc2567f894f943247761230c4eae8a6566f8cdc6da5f23c0d16c9ecba1732b43",
    "circulant-35-12": "cff1495a99517af69a1d7f7694a0dc5952a53ba2b1aa9d24c6d43147f517f058",
    "twocluster-8-4-1x1": "2c50fa2b199a06fae7e0f772c7e1068511401bdfcfafb6283145c9dc80e531c7",
    "twocluster-16-12-1x1": "0f9e9d209401e7a4a091b7a2b9a048941103d7be843450a0cfe1a7d60c259f12",
    "twocluster-60-1-1x1": "f2019889540ccf0977534a2b44e7f02101145570f1c10e2135b9115b477a1cd8",
    "twocluster-60-2-1x2": "0e42fbf683a223a269817f333b19902e96a3d1f97103c682cc648a71d14a7bdd",
}


@pytest.mark.parametrize("inst", [gen_circulant(14, 5), gen_circulant(35, 12),
                                  gen_two_cluster(8, seed=4, separation=1),
                                  gen_two_cluster(16, seed=12, separation=1),
                                  gen_two_cluster(60, seed=1, separation=1),
                                  gen_two_cluster(60, seed=2, separation="1/2")],
                         ids=lambda inst: inst.id)
def test_audit_text_matches_golden_hashes(inst):
    # the last two are a far-pair and a disk-case instance, with |M_X| = 29 and 10
    text = audit_bound(inst).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_AUDITS[inst.id]


def test_audit_text_shape():
    text = audit_bound(gen_circulant(5, 2)).to_text()
    lines = text.splitlines()
    assert lines[0] == "audit circulant-5-2"
    assert lines[-1] == "result PASS"
    assert any(ln.startswith("check sizeofC[K0]:") and ln.endswith("PASS")
               for ln in lines)


def test_sweep_greedy_k4():
    inst = build_instance("k4", [point(0, 0), point("1/4", 0),
                                 point(0, "1/4"), point("1/4", "1/4")])
    assert sweep_greedy_color(inst).num_colors == 4


def test_sweep_greedy_two_far_triangles():
    pts = [point(0, 0), point("1/2", 0), point("1/4", "1/3"),
           point(10, 0), point("21/2", 0), point("41/4", "1/3")]
    inst = build_instance("two-tri", pts)
    coloring = sweep_greedy_color(inst)
    assert coloring.num_colors == 3
    assert verify_coloring(instance_graph(inst), coloring) is None


def test_sweep_greedy_c5_within_baseline_bound():
    inst = gen_circulant(5, 2)
    coloring = sweep_greedy_color(inst)
    assert verify_coloring(instance_graph(inst), coloring) is None
    assert coloring.num_colors <= 3 * 2 - 2


def test_sweep_greedy_allows_big_classes():
    # stability 3 instance: greedy still works, matching coloring refuses
    inst = build_instance("spread", [point(0, 0), point(2, 0), point(4, 0)])
    coloring = sweep_greedy_color(inst)
    assert coloring.num_colors == 1
    assert verify_coloring(instance_graph(inst), coloring) is None


def test_coloring_round_trip_text():
    inst = gen_circulant(8, 3)
    coloring = color_via_complement_matching(inst)
    text = coloring_to_text(coloring, inst.id)
    rid, parsed = coloring_from_text(text)
    assert rid == inst.id
    assert parsed == coloring


def test_coloring_classes_deterministic_order():
    inst = gen_circulant(8, 3)
    c1 = color_via_complement_matching(inst)
    c2 = color_via_complement_matching(inst)
    assert c1 == c2
    firsts = [c1.assignment.index(c) for c in range(c1.num_colors)]
    assert firsts == sorted(firsts)
