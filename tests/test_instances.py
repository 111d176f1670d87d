import random

import pytest

from udgcolor.core import AbstractGraph, build_instance, instance_graph
from udgcolor.errors import (DuplicatePoint, EmptyInstance, ParseError,
                             SnapFailure)
from udgcolor.geom import point
from udgcolor.instances import (_first_difference, circulant_graph,
                                gen_circulant, gen_cs,
                                gen_two_cluster, graph_from_text,
                                graph_to_text, instance_from_text,
                                instance_to_text, read_graph, read_instance,
                                write_graph, write_instance)
from udgcolor.oracles import brute_stats, check_nbhprop


@pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (11, 4), (14, 5), (17, 6)])
def test_circulant_realizes_abstract_adjacency(n, k):
    inst = gen_circulant(n, k)
    realized = instance_graph(inst)
    intended = circulant_graph(n, k)
    assert realized == intended


def _pairwise_first_difference(g, h):
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adjacent(i, j) != h.adjacent(i, j):
                return i, j
    return None


def test_first_difference_matches_the_pairwise_loop():
    rng = random.Random(5)
    for n in range(1, 30):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = AbstractGraph(n, edges)
        assert _first_difference(g, g) is None
        for _ in range(3):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            toggled = set(rng.sample(pairs, min(len(pairs), rng.randrange(1, 4))))
            h = AbstractGraph(n, set(edges) ^ toggled)
            assert _first_difference(g, h) == _pairwise_first_difference(g, h)
            assert _first_difference(h, g) == _pairwise_first_difference(h, g)


def test_circulant_snap_failure_names_the_first_changed_pair(monkeypatch):
    import udgcolor.instances as instances_module

    def off_by_two(n, k):
        exact = circulant_graph(n, k)
        return AbstractGraph(n, set(exact.edges()) ^ {(3, 6), (1, 5)}, id=exact.id)

    monkeypatch.setattr(instances_module, "circulant_graph", off_by_two)
    with pytest.raises(SnapFailure, match=r"changes adjacency of \(1,5\)$"):
        gen_circulant(8, 3)


def test_circulant_c5_stats():
    stats = brute_stats(instance_graph(gen_circulant(5, 2)))
    assert (stats.alpha, stats.omega) == (2, 2)


def test_circulant_c8_stats():
    stats = brute_stats(instance_graph(gen_circulant(8, 3)))
    assert (stats.alpha, stats.omega) == (2, 3)


def test_circulant_c11_coloring():
    from udgcolor.matching import color_via_complement_matching

    inst = gen_circulant(11, 4)
    stats = brute_stats(instance_graph(inst))
    assert (stats.alpha, stats.omega) == (2, 4)
    assert color_via_complement_matching(inst).num_colors == 6


def test_circulant_complete_case():
    inst = gen_circulant(4, 4)
    g = instance_graph(inst)
    assert all(g.adjacent(i, j) for i in range(4) for j in range(i + 1, 4))


def test_circulant_parameter_validation():
    with pytest.raises(ValueError):
        gen_circulant(2, 2)
    with pytest.raises(ValueError):
        gen_circulant(5, 1)
    with pytest.raises(ValueError):
        gen_circulant(5, 6)


def test_cs_k1_edges():
    g = gen_cs(1)
    assert sorted(g.edges()) == [(0, 2), (1, 3)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cs_satisfies_common_neighborhood_property(k):
    assert check_nbhprop(gen_cs(k)) == (True, None)


def test_cs3_exact_parameters():
    stats = brute_stats(gen_cs(3))
    assert stats.alpha == 2
    assert stats.omega == 4
    assert stats.chi == 6
    assert check_nbhprop(gen_cs(3)) == (True, None)


def test_cs4_exceeds_three_halves_bound():
    from udgcolor.oracles import brute_chi, brute_omega

    cs4 = gen_cs(4)
    chi = brute_chi(cs4)
    omega = brute_omega(cs4)
    assert (chi, omega) == (8, 5)
    assert 2 * chi > 3 * omega  # nbhprop + stability two do not cap chi at 3/2 omega


def test_cs_adjacency_rules():
    k = 3
    g = gen_cs(k)
    a = lambda i: i
    b = lambda i: k + i
    c = lambda i: 2 * k + i
    d = lambda i: 3 * k + i
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            assert g.adjacent(a(i), b(j))
            assert g.adjacent(a(i), d(j))
            assert g.adjacent(b(i), c(j))
            assert g.adjacent(c(i), d(j))
            assert not g.adjacent(a(i), c(j))
            assert not g.adjacent(b(i), d(j))
        assert g.adjacent(a(i), c(i))
        assert g.adjacent(b(i), d(i))
        assert not g.adjacent(a(i), b(i))
        assert not g.adjacent(a(i), d(i))


def test_two_cluster_stability_guarantee():
    from udgcolor.core import stability_witness

    inst = gen_two_cluster(20, seed=7, separation=1)
    assert inst.n == 20
    assert stability_witness(instance_graph(inst)) is None


def test_two_cluster_deterministic():
    a = gen_two_cluster(15, seed=3, separation="3/4")
    b = gen_two_cluster(15, seed=3, separation="3/4")
    assert a == b
    c = gen_two_cluster(15, seed=4, separation="3/4")
    assert a != c


def test_two_cluster_tiny():
    inst = gen_two_cluster(2, seed=0, separation="1/2")
    assert inst.n == 2


def test_two_cluster_separation_validated():
    with pytest.raises(ValueError):
        gen_two_cluster(5, seed=0, separation=2)
    with pytest.raises(ValueError):
        gen_two_cluster(5, seed=0, separation=0)


@pytest.mark.parametrize("n", [0, -4])
def test_two_cluster_requires_a_point(n):
    with pytest.raises(ValueError):
        gen_two_cluster(n, seed=1)


def test_writers_reject_what_readers_reject():
    # `udg e 0` and `graph anon 0` are parse errors, so neither is written
    with pytest.raises(EmptyInstance):
        instance_to_text(build_instance("e", []))
    with pytest.raises(EmptyInstance):
        graph_to_text(AbstractGraph(0, []))


def test_instance_round_trip(tmp_path):
    inst = gen_two_cluster(12, seed=5, separation="1/2")
    path = tmp_path / "a.udg"
    write_instance(path, inst)
    again = read_instance(path)
    assert again == inst
    assert instance_to_text(again) == path.read_text()


def test_instance_plain_integers_accepted():
    inst = instance_from_text("udg grid 2\n0 0\n1 2\n")
    assert inst.points[1] == point(1, 2)


def test_instance_malformed_rational():
    with pytest.raises(ParseError) as err:
        instance_from_text("udg bad 1\n3/ 0\n")
    assert err.value.line_no == 2


@pytest.mark.parametrize("token", ["1e3", "1e400", "0.5", "+1", "1/0", "1/-2"])
def test_instance_rejects_tokens_outside_the_rational_grammar(token):
    with pytest.raises(ParseError) as err:
        instance_from_text(f"udg bad 1\n{token} 0\n")
    assert err.value.line_no == 2


def test_instance_duplicate_point_file():
    with pytest.raises(DuplicatePoint):
        instance_from_text("udg dup 2\n1/2 1/2\n1/2 1/2\n")


def test_instance_count_mismatch():
    with pytest.raises(ParseError):
        instance_from_text("udg short 3\n0 0\n1 0\n")


def test_graph_round_trip(tmp_path):
    g = gen_cs(2)
    path = tmp_path / "g.graph"
    write_graph(path, g)
    again = read_graph(path)
    assert again == g
    assert again.id == g.id
    assert graph_to_text(again) == path.read_text()


def test_graph_bad_header():
    with pytest.raises(ParseError):
        graph_from_text("nope x 3\n")
