import pytest

from udgcolor.core import AbstractGraph, instance_graph
from udgcolor.cover import CliqueCover, CliquePartition
from udgcolor.errors import LimitExceeded
from udgcolor.instances import circulant_graph, gen_cs
from udgcolor.matching import Coloring
from udgcolor.oracles import (OracleLimits, brute_cover_exists, brute_stats,
                              check_k16_free, check_nbhprop, verify_cover,
                              verify_coloring)


def _complete(n):
    return AbstractGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_brute_stats_c5():
    stats = brute_stats(circulant_graph(5, 2))
    assert (stats.alpha, stats.omega, stats.chi, stats.clique_cover_number) == (2, 2, 3, 3)


def test_brute_stats_c8():
    stats = brute_stats(circulant_graph(8, 3))
    assert (stats.alpha, stats.omega, stats.chi) == (2, 3, 4)


def test_brute_stats_k5():
    stats = brute_stats(_complete(5))
    assert (stats.alpha, stats.omega, stats.chi, stats.clique_cover_number) == (1, 5, 5, 1)


def test_stats_internal_orderings():
    import random

    rng = random.Random(88)
    for _ in range(25):
        n = rng.randrange(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        stats = brute_stats(AbstractGraph(n, edges))
        assert stats.alpha <= stats.clique_cover_number
        assert stats.omega <= stats.chi


def test_brute_stats_limit():
    with pytest.raises(LimitExceeded):
        brute_stats(_complete(8), OracleLimits(alpha_omega_max=7))
    stats = brute_stats(_complete(8), OracleLimits(chroma_max=7))
    assert stats.omega == 8
    assert stats.chi is None


def test_verify_cover_accepts_valid():
    c5 = circulant_graph(5, 2)
    cover = CliqueCover((frozenset({0, 1}), frozenset({1, 2}), frozenset({3, 4})), 1)
    assert verify_cover(c5, cover) is None


def test_verify_cover_rejects_non_clique_part():
    c5 = circulant_graph(5, 2)
    cover = CliqueCover((frozenset({0, 2}), frozenset({1, 3}), frozenset({4})), None)
    bad = verify_cover(c5, cover)
    assert bad is not None and bad.kind == "not-a-clique"
    assert bad.witness == (0, 0, 2)


def test_verify_cover_rejects_uncovered_vertex():
    c5 = circulant_graph(5, 2)
    cover = CliqueCover((frozenset({0, 1}), frozenset({2, 3}), frozenset()), 0)
    bad = verify_cover(c5, cover)
    assert bad is not None and bad.kind == "coverage"


def test_verify_cover_rejects_shared_vertex_in_one_part():
    c5 = circulant_graph(5, 2)
    cover = CliqueCover((frozenset({0, 1}), frozenset({2, 3}), frozenset({4})), 0)
    bad = verify_cover(c5, cover)
    assert bad is not None and bad.kind == "shared"


def test_verify_partition_checks_disjoint_and_sizes():
    c5 = circulant_graph(5, 2)
    bad = verify_cover(c5, CliquePartition((frozenset({0, 1}), frozenset({1, 2}),
                                            frozenset({3, 4}))))
    assert bad is not None and bad.kind == "overlap"
    k3 = _complete(3)
    bad = verify_cover(k3, CliquePartition((frozenset({0}), frozenset({1}),
                                            frozenset({2}))))
    assert bad is not None and bad.kind == "equal-sizes"


def test_verify_coloring():
    c5 = circulant_graph(5, 2)
    assert verify_coloring(c5, Coloring((0, 1, 0, 1, 2))) is None
    bad = verify_coloring(c5, Coloring((0, 0, 1, 0, 1)))
    assert bad is not None and bad.kind == "improper"
    bad = verify_coloring(c5, Coloring((0, 2, 0, 2, 3)))
    assert bad is not None and bad.kind == "contiguity"
    bad = verify_coloring(_complete(0), Coloring((0,)))
    assert bad is not None and bad.kind == "length"


def test_nbhprop_on_gadget_and_udg():
    assert check_nbhprop(gen_cs(3)) == (True, None)
    from udgcolor.instances import gen_two_cluster
    g = instance_graph(gen_two_cluster(15, seed=3, separation="3/4"))
    assert check_nbhprop(g) == (True, None)


def test_k16_star_detected():
    star = AbstractGraph(7, [(0, i) for i in range(1, 7)])
    ok, witness = check_k16_free(star)
    assert not ok and witness == 0
    g = instance_graph(__import__("udgcolor").gen_circulant(8, 3))
    assert check_k16_free(g) == (True, None)


def test_brute_cover_exists_c5():
    got = brute_cover_exists(circulant_graph(5, 2), shared=True)
    assert got is not None
    assert verify_cover(circulant_graph(5, 2), got) is None
    assert got.shared_vertex is not None


def test_brute_cover_exists_p7_none():
    p7 = AbstractGraph(7, [(i, i + 1) for i in range(6)])
    assert brute_cover_exists(p7, shared=True) is None
    assert brute_cover_exists(p7, shared=False) is None


def test_brute_cover_exists_triangle():
    got = brute_cover_exists(_complete(3), shared=False)
    assert got is not None
    assert verify_cover(_complete(3), got) is None


def test_brute_cover_limit():
    with pytest.raises(LimitExceeded):
        brute_cover_exists(_complete(15), shared=False)
