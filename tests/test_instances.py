import hashlib
import random
from fractions import Fraction

import pytest

from udgcolor.core import AbstractGraph, build_instance, instance_graph
from udgcolor.errors import (DuplicatePoint, EmptyInstance, ParseError,
                             SnapFailure)
from udgcolor import instances
from udgcolor.geom import point
from udgcolor.instances import (_first_difference, circulant_graph,
                                gen_circulant, gen_cs,
                                gen_two_cluster, graph_from_text,
                                graph_to_text, instance_from_text,
                                instance_to_text, parse_scalar, read_graph,
                                read_instance, write_graph, write_instance)
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


# sha256 over instance_to_text of gen_two_cluster(n, seed, separation) for
# every separation, n and seed below, in that nesting order; recorded before
# the generator built each coordinate as one numerator over one denominator.
# 1/3 and 2/7 have denominators that do not divide the 10**9 snapping grid.
GOLDEN_TWO_CLUSTER = "ea2b64f62ea6fe0be043363d0fdd56ac97d85855f9ae5839e965b51f1a25a6e7"


def test_two_cluster_texts_match_golden_hash():
    digest = hashlib.sha256()
    for separation in ("1", "7/10", "1/2", "1/4", "3/4", "1/3", "2/7"):
        for n in (1, 2, 50, 80, 110):
            for seed in (0, 1, 2, 7919):
                digest.update(instance_to_text(gen_two_cluster(n, seed, separation)).encode())
    assert digest.hexdigest() == GOLDEN_TWO_CLUSTER


def test_two_cluster_redraws_a_repeated_point(monkeypatch):
    real_random = random.Random
    made = []

    class RepeatFirstDraw:
        """Draws the first point twice, then draws as random.Random does."""

        def __init__(self, seed):
            self.rng = real_random(seed)
            # cluster, radius draw and angle draw of one point, twice
            self.script = [1, 0.25, 0.5] * 2
            made.append(self)

        def randrange(self, stop):
            return self.script.pop(0) if self.script else self.rng.randrange(stop)

        def random(self):
            return self.script.pop(0) if self.script else self.rng.random()

    monkeypatch.setattr(instances.random, "Random", RepeatFirstDraw)
    inst = gen_two_cluster(6, seed=0, separation="1/3")
    assert made[0].script == []  # both scripted draws were taken
    assert inst.n == 6
    assert len({(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
                for p in inst.points}) == 6
    # the repeated draw is the first point, kept once; the second is fresh
    again = gen_two_cluster(1, seed=0, separation="1/3")
    assert inst.points[0] == again.points[0]
    assert inst.points[1] != inst.points[0]


@pytest.mark.parametrize("token", [
    "0", "-0", "00", "-00/7", "007", "-007/010", "3/5", "-7/2", "4", "10/4", "-10/4",
    "0/5", "1/0", "-1/0", "0/0", "00/000", "9" * 4300, "9" * 4301, "1/" + "9" * 4301,
    "-" + "12" * 2000 + "/" + "34" * 2000])
def test_parse_scalar_agrees_with_fraction(token):
    """On tokens of the coordinate grammar parse_scalar gives Fraction(token),
    and a ParseError wherever Fraction(token) raises."""
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            parse_scalar(token, 3)
    else:
        got = parse_scalar(token, 3)
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


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
