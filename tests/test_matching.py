import ast
import dataclasses
import hashlib
import inspect
import itertools
import random
from collections import Counter

import pytest

from corpora import (acceptance_corpus, benchmark_toy_instances,
                     lattice_disk_instances)
from udgcolor import matching
from udgcolor.core import (AbstractGraph, build_instance, complement,
                           instance_graph, is_clique)
from udgcolor.cover import _dispatch, partition_from_cover
from udgcolor.errors import StabilityViolated, StructureViolation
from udgcolor.geom import point
from udgcolor.instances import gen_circulant, gen_two_cluster
from udgcolor.matching import (_augment_search, _neighbor_lists, audit_bound,
                               color_via_complement_matching,
                               coloring_from_text, coloring_to_text,
                               gallai_edmonds, max_matching,
                               sweep_greedy_color)
from udgcolor.oracles import brute_chi, max_independent_set, verify_coloring


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
    with pytest.raises(StructureViolation, match="not maximum"):
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
        # M is a maximum matching of g, and Tutte-Berge with X as the barrier
        # certifies it: 2|M| = n + |X| - odd(g - X)
        ends = [v for edge in ge.M for v in edge]
        assert len(ends) == len(set(ends))
        assert all(u < v and g.adjacent(u, v) for u, v in ge.M)
        assert len(ge.M) == nu
        assert 2 * len(ge.M) == n + len(ge.X) - len(ge.odd_components)
        assert ge.M_X <= ge.M


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
    assert len(report.clique) == 2
    final = [c for c in report.checks if c.name.startswith("2(|M|")][0]
    assert (final.lhs, final.rhs) == (6, 6)


def test_audit_two_cluster():
    report = audit_bound(gen_two_cluster(20, seed=7, separation="1"))
    assert report.all_pass


def test_audit_rejects_an_independent_triple():
    inst = build_instance("bad", [point(0, 0), point(2, 0), point(4, 0)])
    with pytest.raises(StabilityViolated) as exc:
        audit_bound(inst)
    assert exc.value.witness == (0, 1, 2)


def _certified(inst) -> tuple[int, int]:
    """(2(|M|+|O'|), |A|) of the audit, after checking A as a reader of the
    report would: every pair of A adjacent in the instance."""
    report = audit_bound(inst)
    assert report.all_pass, inst.id
    assert list(report.clique) == sorted(set(report.clique)), inst.id
    assert is_clique(inst.graph, report.clique), inst.id
    final = report.checks[-1]
    assert final.name == "2(|M|+|O'|)<=3|A|" and final.rhs == 3 * len(report.clique)
    return final.lhs, len(report.clique)


@pytest.mark.parametrize("corpus", ["acceptance", "toy-1", "toy-7919"])
def test_audit_clique_bound_sits_below_alpha_of_the_complement(corpus):
    # alpha(H) = omega(G) stays a test oracle: 2(|M|+|O'|) <= 3|A| <= 3 alpha(H)
    instances = (acceptance_corpus() if corpus == "acceptance"
                 else benchmark_toy_instances(int(corpus.split("-")[1])))
    for inst in instances:
        lhs, a = _certified(inst)
        alpha_h = len(max_independent_set(complement(inst.graph)))
        assert lhs <= 3 * a <= 3 * alpha_h, inst.id


def test_circulant_colorings_are_optimal_and_certified_up_to_k_40():
    # C(3k-1, k) has alpha 2, so chi >= ceil((3k-1)/2) = floor(3k/2); the
    # audit's clique shows floor(3|A|/2) >= colors, far past brute_chi's n <= 16
    for k in range(2, 41):
        inst = gen_circulant(3 * k - 1, k)
        colors = color_via_complement_matching(inst).num_colors
        assert colors == 3 * k // 2, k
        lhs, a = _certified(inst)
        assert lhs == 2 * colors, k
        assert 3 * a // 2 >= colors, k


def test_matching_imports_nothing_from_the_oracles():
    tree = ast.parse(inspect.getsource(matching))
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not [m for m in imported if m and m.split(".")[-1] == "oracles"]
    assert not [name for name, value in vars(matching).items()
                if getattr(value, "__module__", None) == "udgcolor.oracles"]


GOLDEN_AUDITS = {
    "circulant-14-5": "685fccec92640aa5255719d357a9ffd2a4f5f50f9113f85b2069d978dc11a20f",
    "circulant-35-12": "bf2591740870fd858662fb163a6e1f2ca62c2b61def32854382cf71ad95770eb",
    "twocluster-8-4-1x1": "c41c203a6ab91b0511c06897ab299e0147cadd223acf233a783f5fee4db081f7",
    "twocluster-16-12-1x1": "6fd3deef05e6e51b881efe047b590c0281fc73d660e55c09e2dd9c48120c0906",
    "twocluster-60-1-1x1": "3c18587671dea7c515c70375a9a9bd7cfea186e937fe57dfcd5c7790edecde42",
    "twocluster-60-2-1x2": "8bbe6a11f7ea7bd92e5d8264a054a24578421d4a368797eafbb0fd049c0b9227",
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


GOLDEN_CORPUS_AUDITS = "108d6510c29a520628012cf201a1fa982dfbd65c405e48dc4ef69ff3d2fffdad"


def test_audit_texts_over_the_corpora_match_one_golden_hash():
    # 246 instances: acceptance, benchmark toys at seeds 1 and 7919, C(3k-1,k) k = 2..24
    instances = itertools.chain(acceptance_corpus(), benchmark_toy_instances(1),
                                benchmark_toy_instances(7919),
                                (gen_circulant(3 * k - 1, k) for k in range(2, 25)))
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(audit_bound(inst).to_text().encode())
    assert digest.hexdigest() == GOLDEN_CORPUS_AUDITS


def test_audit_runs_no_blossom_search_of_its_own(monkeypatch):
    # the decomposition's one matching is all the audit searches for
    def refuse(g):
        raise AssertionError("audit_bound called max_matching")

    def counted(adj):
        searches.append(len(adj))
        return matching_array(adj)

    searches = []
    matching_array = matching._matching_array
    monkeypatch.setattr(matching, "max_matching", refuse)
    monkeypatch.setattr(matching, "_matching_array", counted)
    for audits, inst in enumerate(acceptance_corpus(), start=1):
        assert audit_bound(inst).all_pass, inst.id
        assert len(searches) == audits, inst.id


def test_audit_induces_a_subgraph_only_for_pieces_of_two_or_more(monkeypatch):
    # R and every odd component of H - X are the audit's pieces; a single
    # vertex is a clique, its own partition, and needs no cover
    def counted(g, vertices):
        covered.append(frozenset(vertices))
        return induced(g, vertices)

    induced = AbstractGraph.induced
    monkeypatch.setattr(AbstractGraph, "induced", counted)
    sizes = Counter()
    instances = itertools.chain(acceptance_corpus(), benchmark_toy_instances(1),
                                benchmark_toy_instances(7919), lattice_disk_instances())
    for inst in instances:
        covered = []
        assert audit_bound(inst).all_pass, inst.id
        ge = gallai_edmonds(complement(inst.graph))
        pieces = [p for p in (ge.B, *ge.odd_components) if p]
        sizes.update("single" if len(p) == 1 else "larger" for p in pieces)
        assert sorted(covered, key=sorted) == sorted((p for p in pieces if len(p) >= 2),
                                                     key=sorted), inst.id
    assert sizes == {"single": 4443, "larger": 286}


def test_a_whole_instance_piece_leaves_the_instance_graph_alone():
    # H - X of the tight circulant is one odd piece holding every vertex, so
    # the audit covers the subgraph induced on all of them, a copy of the
    # instance's cached graph; the cached graph keeps its id
    inst = gen_circulant(59, 20)
    ge = gallai_edmonds(complement(inst.graph))
    assert [p for p in (ge.B, *ge.odd_components) if p] == [frozenset(range(59))]
    assert audit_bound(inst).all_pass
    assert inst.graph.id == inst.id

def _reference_partition(inst, vertices):
    """The partition every piece took before clique pieces kept their own:
    cover the induced graph and its triples through _dispatch and
    disjointify the cover."""
    sub, glb = inst.graph.induced(vertices)
    cover, _ = _dispatch(sub, tuple(inst.homogeneous[v] for v in glb))
    ordered = sorted(partition_from_cover(cover).parts, key=lambda p: (-len(p), sorted(p)))
    return tuple(len(p) for p in ordered), frozenset(glb[v] for v in ordered[0])


def test_clique_pieces_partition_as_the_dispatched_cover_does(monkeypatch):
    # no audit reaches a clique piece of two or more vertices, so cliques of
    # sizes 1-5 are grown greedily from circulant and two-cluster instances
    instances = [gen_circulant(3 * k - 1, k) for k in (2, 4, 6)]
    instances += [gen_two_cluster(n, seed=n, separation=sep)
                  for n in (12, 20) for sep in ("1", "1/2")]
    cases = []
    for inst in instances:
        g = inst.graph
        for start in range(0, inst.n, 3):
            clique = [start]
            for v in range(g.n):  # clique holds start, so only its neighbours join
                if all(g.adjacent(v, w) for w in clique):
                    clique.append(v)
            cases.extend((inst, clique[:size]) for size in range(1, min(len(clique), 5) + 1))
    expected = [_reference_partition(inst, clique) for inst, clique in cases]

    def refuse(g, h):
        raise AssertionError("a clique piece was covered")

    monkeypatch.setattr(matching, "_dispatch", refuse)
    got = [matching._partition_sizes_and_largest(inst, clique) for inst, clique in cases]
    assert got == expected
    assert {len(clique) for _, clique in cases} == {1, 2, 3, 4, 5}


def _drop_an_m_edge(ge):
    return dataclasses.replace(ge, M=ge.M - {min(ge.M)})


def _widen_x_into_r(ge):
    return dataclasses.replace(ge, X=ge.X | {min(ge.B)})


@pytest.mark.parametrize("inst, doctor, message", [
    # C(14,5) has a perfect complement matching, so R is all 14 vertices
    (gen_circulant(14, 5), _drop_an_m_edge, "even part has no perfect matching"),
    # C(5,2)'s complement is a 5-cycle, one factor-critical component
    (gen_circulant(5, 2), _drop_an_m_edge, "near-perfect"),
    # one more barrier vertex raises the Tutte-Berge bound above 2|M|
    (gen_circulant(14, 5), _widen_x_into_r, "not maximum"),
], ids=["perfect-on-R", "near-perfect-on-K", "tutte-berge"])
def test_audit_refuses_a_doctored_decomposition(monkeypatch, inst, doctor, message):
    original = matching.gallai_edmonds
    ge = original(complement(inst.graph))
    assert ge.B == frozenset(range(inst.n)) or ge.odd_components == (frozenset(range(inst.n)),)
    monkeypatch.setattr(matching, "gallai_edmonds", lambda g: doctor(original(g)))
    with pytest.raises(StructureViolation, match=message):
        audit_bound(inst)


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
