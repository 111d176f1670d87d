import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from udgcolor.core import AbstractGraph, instance_graph
from udgcolor.cover import CliqueCover, CliquePartition
from udgcolor.errors import LimitExceeded
from udgcolor.instances import circulant_graph, gen_cs
from udgcolor.matching import Coloring
from udgcolor.oracles import (Violation, brute_chi, brute_clique_cover_number,
                              brute_cover_exists, brute_omega, brute_stats,
                              check_k16_free, check_nbhprop, max_independent_set,
                              verify_cover, verify_coloring)


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
    with pytest.raises(LimitExceeded, match="^n=31 exceeds alpha/omega limit 30$"):
        brute_stats(_complete(31))
    stats = brute_stats(_complete(17))  # above the chromatic limit of 16
    assert (stats.alpha, stats.omega) == (1, 17)
    assert stats.chi is None and stats.clique_cover_number is None


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


def test_verify_coloring_caps_the_class_size():
    edgeless = AbstractGraph(4, [])
    assert verify_coloring(edgeless, Coloring((0, 1, 1, 0)), max_class_size=2) is None
    bad = verify_coloring(edgeless, Coloring((0, 1, 1, 1)), max_class_size=2)
    assert bad == Violation("class-size", (1,), "color class 1 exceeds size 2")


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
    with pytest.raises(LimitExceeded, match="^n=15 exceeds cover-search limit 14$"):
        brute_cover_exists(_complete(15), shared=False)


# ---------------------------------------------------------------------------
# the oracles against plain itertools enumeration


def _random_graph(rng, n):
    p = rng.choice((0.2, 0.4, 0.5, 0.6, 0.8))
    return AbstractGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < p])


def _is_clique(g, s):
    return all(g.adjacent(u, v) for u, v in combinations(s, 2))


def _is_stable(g, s):
    return not any(g.adjacent(u, v) for u, v in combinations(s, 2))


def _largest(g, test):
    return max(r for r in range(g.n + 1)
               if any(test(g, s) for s in combinations(range(g.n), r)))


def _fewest_classes(g, test):
    """The least k for which some map V -> range(k) has every class pass test."""
    return next(k for k in range(g.n + 1)
                if any(all(test(g, [v for v in range(g.n) if assignment[v] == c])
                           for c in range(k))
                       for assignment in product(range(k), repeat=g.n)))


def _cover_exists(g, shared):
    """Three cliques covering V, two of them sharing a vertex when shared.
    Any such cover grows into one of maximal cliques, so only triples of
    maximal cliques, repeats allowed, are tried."""
    cliques = [set(s) for r in range(1, g.n + 1)
               for s in combinations(range(g.n), r) if _is_clique(g, s)]
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return any(set().union(*triple) == set(range(g.n))
               and (not shared or any(a & b for a, b in combinations(triple, 2)))
               for triple in combinations_with_replacement(maximal, 3))


def _two_cliques(g, vertices):
    return any(_is_clique(g, [w for w, side in zip(vertices, sides) if side])
               and _is_clique(g, [w for w, side in zip(vertices, sides) if not side])
               for sides in product((0, 1), repeat=len(vertices)))


def _nbhprop(g):
    """The first non-adjacent pair whose common neighbourhood is not the
    union of two cliques, or None."""
    for u, v in combinations(range(g.n), 2):
        common = [w for w in range(g.n) if g.adjacent(u, w) and g.adjacent(v, w)]
        if not g.adjacent(u, v) and not _two_cliques(g, common):
            return (u, v)
    return None


def test_oracles_match_exhaustive_enumeration_on_random_graphs():
    rng = random.Random(3111)
    for trial in range(160):
        n = rng.randrange(1, 9)
        g = _random_graph(rng, n)
        stable = max_independent_set(g)
        assert _is_stable(g, stable) and len(stable) == _largest(g, _is_stable), trial
        assert brute_omega(g) == _largest(g, _is_clique), trial
        for shared in (False, True):
            got = brute_cover_exists(g, shared)
            assert (got is not None) == _cover_exists(g, shared), (trial, shared)
            if got is not None:
                assert verify_cover(g, got) is None
                assert (got.shared_vertex is not None) == shared
        witness = _nbhprop(g)
        assert check_nbhprop(g) == (witness is None, witness), trial
        if n <= 6:
            assert brute_chi(g) == _fewest_classes(g, _is_stable), trial
            assert brute_clique_cover_number(g) == _fewest_classes(g, _is_clique), trial


def test_max_independent_set_improves_on_its_greedy_start():
    # the least-degree greedy start takes 3, then 1 from the triangle
    # {1, 4, 5}; the search must find {0, 2, 5}
    g = AbstractGraph(6, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5),
                          (2, 3), (2, 4), (4, 5)])
    assert max_independent_set(g) == frozenset({0, 2, 5})
    assert _largest(g, _is_stable) == 3


def test_cover_oracles_tell_shared_from_unshared():
    # three disjoint triangles: a partition into three cliques, and no cover
    # with a shared vertex
    g = AbstractGraph(9, [(3 * t + a, 3 * t + b) for t in range(3)
                          for a, b in ((0, 1), (0, 2), (1, 2))])
    assert _cover_exists(g, shared=False) and not _cover_exists(g, shared=True)
    assert brute_cover_exists(g, shared=False) is not None
    assert brute_cover_exists(g, shared=True) is None


@pytest.mark.parametrize("leaves,centre", [(5, 0), (6, 0), (6, 3), (5, 5), (6, 6)])
def test_k16_free_on_stars(leaves, centre):
    others = [v for v in range(leaves + 1) if v != centre]
    star = AbstractGraph(leaves + 1, [(min(centre, v), max(centre, v)) for v in others])
    assert check_k16_free(star) == ((True, None) if leaves < 6 else (False, centre))


def test_verify_cover_names_the_first_non_adjacent_pair():
    # K5 less the missing pairs, all in one part: the first non-adjacent
    # pair need not hold the part's smallest vertex
    all_pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for missing, pair in (([(2, 3)], (2, 3)), ([(2, 3), (1, 3)], (1, 3)),
                          ([(3, 4), (2, 4)], (2, 4))):
        g = AbstractGraph(5, [e for e in all_pairs if e not in missing])
        cover = CliqueCover((frozenset({0}), frozenset({0, 1, 2, 3, 4}), frozenset({4})), 0)
        bad = verify_cover(g, cover)
        assert (bad.kind, bad.witness) == ("not-a-clique", (1, *pair))
        assert bad.message == f"part 1 contains non-adjacent pair ({pair[0]},{pair[1]})"


def test_verify_cover_witness_matches_sorted_pair_scan():
    rng = random.Random(3112)
    for _ in range(300):
        n = rng.randrange(1, 10)
        g = _random_graph(rng, n)
        parts = tuple(frozenset(rng.sample(range(n), rng.randrange(n + 1))) for _ in range(3))
        first = next(((idx, u, v) for idx, part in enumerate(parts)
                      for u, v in combinations(sorted(part), 2) if not g.adjacent(u, v)), None)
        bad = verify_cover(g, CliquePartition(parts))
        if first is not None:
            assert (bad.kind, bad.witness) == ("not-a-clique", first)
        else:
            assert bad is None or bad.kind != "not-a-clique"
