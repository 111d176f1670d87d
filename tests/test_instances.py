import hashlib
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from udgcolor.core import AbstractGraph, build_instance, instance_graph
from udgcolor.errors import (DuplicatePoint, EmptyInstance, ParseError,
                             SnapFailure)
from udgcolor import geom, instances
from udgcolor.geom import point
from udgcolor.instances import (GEN_MAX_N, circulant_graph, gen_circulant, gen_cs,
                                gen_two_cluster, graph_from_text,
                                instance_from_text,
                                instance_to_text, parse_scalar, read_graph,
                                read_instance, write_graph, write_instance)
from udgcolor.oracles import brute_stats, check_nbhprop


# n = 2k - 1, (7, 4) and (10, 6) have k - 1 >= n // 2: the complete graph
CIRCULANT_PARAMETERS = sorted({(n, k) for k in range(2, 31)
                               for n in (2 * k - 1, 2 * k + 1, 3 * k - 2, 3 * k - 1, 3 * k)}
                              | {(7, 4), (10, 6)})


@pytest.mark.parametrize("n,k", CIRCULANT_PARAMETERS)
def test_circulant_realizes_abstract_adjacency(n, k):
    """The generator's integer check stores its graph; it equals the
    Fraction build of the same points and the abstract circulant."""
    inst = gen_circulant(n, k)
    assert "graph" in vars(inst)
    fresh = instance_graph(build_instance(inst.id, inst.points))
    intended = circulant_graph(n, k)
    assert inst.graph == fresh == intended
    assert inst.graph.id == fresh.id == intended.id


def test_circulant_snap_failure_names_the_first_changed_pair(monkeypatch):
    import udgcolor.instances as instances_module

    def off_by_two(n, k):
        exact = circulant_graph(n, k)
        return AbstractGraph(n, set(exact.edges()) ^ {(3, 6), (1, 5)}, id=exact.id)

    monkeypatch.setattr(instances_module, "circulant_graph", off_by_two)
    with pytest.raises(SnapFailure, match=r"changes adjacency of \(1,5\)$"):
        gen_circulant(8, 3)


# sha256 of instance_to_text(gen_circulant(n, k)), recorded while the
# generator still checked its placement with Fraction distances
GOLDEN_CIRCULANTS = {
    (35, 12): "d1ea125a24d8dc8247f9dce7db5e8a8b71f1396082419e4831a626dfb38811ea",
    (47, 16): "a54854a1f20b6e4842b93a6a1fe68516f83773057c3cf70f8aaf5bee26ba5f78",
    (59, 20): "e433c83a0eb2e5d9c5a8e8022190be7eaa31d1658173be9c977cb3df2b2307ba",
}


@pytest.mark.parametrize("n,k", sorted(GOLDEN_CIRCULANTS))
def test_circulant_texts_match_golden_hash(n, k):
    text = instance_to_text(gen_circulant(n, k))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CIRCULANTS[n, k]


def test_circulant_check_compares_no_fraction_distance(monkeypatch):
    def refused(p, q):
        raise AssertionError("sq_dist was called")
    for module in list(sys.modules.values()):
        if module.__name__.startswith("udgcolor") and vars(module).get("sq_dist") is geom.sq_dist:
            monkeypatch.setattr(module, "sq_dist", refused)
    inst = gen_circulant(59, 20)
    assert inst.graph == circulant_graph(59, 20)


def test_circulant_snap_failure_on_a_coarse_grid(monkeypatch):
    """The exact adjacency check is the generator's only check.  On a grid
    of 1/20 it refuses C(59,20), whose rounded points move a chord across
    the unit distance; on a grid of 1/100 C(59,20), whose chords sit within
    0.031 of 1 in squared length, and C(8,3) both place exactly."""
    monkeypatch.setattr(instances, "_CIRC_DENOM", 20)
    with pytest.raises(SnapFailure, match=r"^rounded placement of C_59\^20 changes "
                                          r"adjacency of \(1,20\)$"):
        gen_circulant(59, 20)
    monkeypatch.setattr(instances, "_CIRC_DENOM", 100)
    for n, k in ((59, 20), (8, 3)):
        inst = gen_circulant(n, k)
        assert all(100 % p.x.denominator == 100 % p.y.denominator == 0 for p in inst.points)
        assert instance_graph(build_instance(inst.id, inst.points)) == circulant_graph(n, k)


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


def test_generators_refuse_more_than_gen_max_n_vertices_before_building(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(instances, "build_instance", built)
    monkeypatch.setattr(instances.AbstractGraph, "from_masks", built)
    above = [lambda: gen_circulant(GEN_MAX_N + 1, 3), lambda: gen_cs(GEN_MAX_N // 4 + 1),
             lambda: gen_two_cluster(GEN_MAX_N + 1, seed=0)]
    for make in above:
        with pytest.raises(ValueError, match=f"<= {GEN_MAX_N}$"):
            make()
    # at the bound the generators go on to build
    for make in (lambda: gen_circulant(GEN_MAX_N, 3), lambda: gen_cs(GEN_MAX_N // 4),
                 lambda: gen_two_cluster(GEN_MAX_N, seed=0)):
        with pytest.raises(AssertionError, match="built"):
            make()


def reference_circulant_graph(n, k):
    """The abstract circulant from its quadratic edge list, as the generator
    built it before it built mask rows."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if min(j - i, n - (j - i)) <= k - 1]
    return AbstractGraph(n, edges, id=f"circulant-{n}-{k}")


def reference_cs(k):
    """The cs gadget from its quadratic edge list, likewise."""
    def a(i): return i
    def b(i): return k + i
    def c(i): return 2 * k + i
    def d(i): return 3 * k + i

    edges = []
    for block in (a, b, c, d):
        edges.extend((block(i), block(j)) for i in range(k) for j in range(i + 1, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                edges += [(a(i), b(j)), (a(i), d(j)), (b(i), c(j)), (c(i), d(j))]
        edges += [(a(i), c(i)), (b(i), d(i))]
    return AbstractGraph(4 * k, edges, id=f"cs-{k}")


def test_generators_match_their_edge_lists():
    for n in range(3, 40):
        for k in range(n + 2):
            g = circulant_graph(n, k)
            assert g == reference_circulant_graph(n, k) and g.id == f"circulant-{n}-{k}", (n, k)
    for k in range(1, 13):
        g = gen_cs(k)
        assert g == reference_cs(k) and g.id == f"cs-{k}", k


@pytest.mark.parametrize("make", [lambda: gen_cs(200), lambda: circulant_graph(1000, 334)],
                         ids=["cs-200", "circulant-1000-334"])
def test_generators_build_rows_without_an_edge_list(make):
    """The graphs hold about 0.1 MB of masks; their edge lists (about 240,000
    and 333,000 pairs) would take tens of MB."""
    tracemalloc.start()
    try:
        g = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(m.bit_count() for m in g.masks) > 400_000
    assert peak < 2 * 1024 * 1024, peak


def test_write_graph_writes_one_edge_line_at_a_time(tmp_path):
    """gen_cs(200)'s file is about 240,000 edge lines, 1.85 MB; building
    its whole text first took 19 MB."""
    g = gen_cs(200)
    path = tmp_path / "cs200.graph"
    tracemalloc.start()
    try:
        write_graph(path, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak
    assert path.read_bytes() == ("graph cs-200 800\n"
                                 + "".join(f"{u} {v}\n" for u, v in g.edges())).encode()


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


@pytest.mark.parametrize("separation", [
    "1e-3000000", "1e-999999999", "0.5", "1e0", "+1", " 1", "1_0", "1/0", "one"])
def test_two_cluster_refuses_separations_outside_the_rational_grammar(separation):
    """Fraction(str) would take the exponents and compute 10**3000000 or
    10**999999999 first; the generator refuses them on sight."""
    with pytest.raises(ValueError, match="separation must be an integer or num/den"):
        gen_two_cluster(5, seed=0, separation=separation)


@pytest.mark.parametrize("separation", [0.7, 0.5, 1.0, True, False])
def test_two_cluster_refuses_float_and_bool_separations(separation):
    """A float would be taken as its binary value (0.7 as
    3152519739159347/2**52) and True as 1; neither is a separation."""
    with pytest.raises(ValueError, match="separation must be an integer or num/den"):
        gen_two_cluster(5, seed=0, separation=separation)


def test_two_cluster_string_separation_is_the_fraction():
    assert gen_two_cluster(9, 2, "3/4") == gen_two_cluster(9, 2, Fraction(3, 4))
    assert gen_two_cluster(9, 2, "1") == gen_two_cluster(9, 2, 1)
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        gen_two_cluster(5, seed=0, separation="-1/2")


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


def test_writers_reject_what_readers_reject(tmp_path):
    # `udg e 0` and `graph anon 0` are parse errors, so neither is written
    with pytest.raises(EmptyInstance):
        instance_to_text(build_instance("e", []))
    with pytest.raises(EmptyInstance):
        write_graph(tmp_path / "e.graph", AbstractGraph(0, []))
    assert not (tmp_path / "e.graph").exists()


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
    write_graph(tmp_path / "again.graph", again)
    assert (tmp_path / "again.graph").read_text() == path.read_text()


def test_graph_bad_header():
    with pytest.raises(ParseError):
        graph_from_text("nope x 3\n")
