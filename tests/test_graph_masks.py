"""The bit-mask AbstractGraph against a frozenset reference.

ReferenceGraph and the reference_* functions below hold the adjacency as one
frozenset per vertex and keep the straightforward algorithms over it: a pair
loop for the graph build and the complement, a triple loop for the stability
witness and a pair loop for the clique test.  The engine's graph must agree
with them on adjacency, neighbours, degrees, edges, induced subgraphs,
complements, the witness triple and the clique test, on every corpus the
differential tests of the geometry kernels use, on random abstract graphs
and on the disk case's graphs with the universal centre vertex.
"""

import random
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest

from corpora import (acceptance_corpus, benchmark_toy_instances, circulant_blowups,
                     fraction_masks, lattice_disk_instances, mixed_denominator_points)
from udgcolor.core import (AbstractGraph, build_instance, complement,
                           instance_graph, is_clique, stability_witness)
from udgcolor.cover import _with_universal
from udgcolor.errors import InvalidVertex
from udgcolor.geom import Point
from udgcolor.instances import gen_circulant, gen_two_cluster
from udgcolor.oracles import max_independent_set


class ReferenceGraph:
    """Finite simple graph with one frozenset of neighbours per vertex."""

    def __init__(self, n, edges, id=""):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidVertex(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.id = id
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)

    def adjacent(self, i, j):
        return j in self._adj[i]

    def neighbors(self, i):
        return self._adj[i]

    def degree(self, i):
        return len(self._adj[i])

    def edges(self):
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def induced(self, vertices):
        glb = tuple(sorted(set(vertices)))
        pos = {g: l for l, g in enumerate(glb)}
        edges = [(pos[u], pos[v]) for u in glb for v in self._adj[u] if u < v and v in pos]
        return ReferenceGraph(len(glb), edges, id=self.id), glb


def reference_instance_graph(inst):
    """The unit-distance graph from corpora.fraction_masks, a Fraction pair
    loop that shares no code with the engine's build."""
    masks = fraction_masks(inst.points)
    edges = [(i, j) for i in range(inst.n) for j in range(i + 1, inst.n) if masks[i] >> j & 1]
    return ReferenceGraph(inst.n, edges, id=inst.id)


def reference_stability_witness(g):
    for i in range(g.n):
        ni = g.neighbors(i)
        for j in range(i + 1, g.n):
            if j in ni:
                continue
            nj = g.neighbors(j)
            for k in range(j + 1, g.n):
                if k not in ni and k not in nj:
                    return (i, j, k)
    return None


def reference_is_clique(g, s):
    members = sorted(set(s))
    for a in range(len(members)):
        na = g.neighbors(members[a])
        for b in range(a + 1, len(members)):
            if members[b] not in na:
                return False
    return True


def reference_complement(g):
    edges = [(u, v)
             for u in range(g.n)
             for v in range(u + 1, g.n)
             if not g.adjacent(u, v)]
    return ReferenceGraph(g.n, edges, id=g.id)


def assert_same_graph(g, ref):
    assert (g.n, g.id) == (ref.n, ref.id)
    for v in range(g.n):
        assert g.masks[v] == sum(1 << u for u in ref.neighbors(v)), (g.id, v)
        assert [g.adjacent(v, u) for u in range(g.n)] == [ref.adjacent(v, u) for u in range(g.n)]
    assert list(g.edges()) == sorted(ref.edges())


def subsets(g, ref, rng):
    """Random vertex subsets of every size, plus neighbourhoods, which are
    cliques often enough to exercise both answers of the clique test."""
    n = g.n
    yield []
    yield range(n)
    for size in (1, 2, 3, n // 2, n):
        yield rng.sample(range(n), min(size, n))
    for v in rng.sample(range(n), min(n, 4)):
        yield list(ref.neighbors(v)) + [v]
        u = rng.randrange(n)
        yield list(ref.neighbors(v) & ref.neighbors(u))


def check_against_reference(g, ref, rng):
    assert_same_graph(g, ref)
    assert_same_graph(complement(g), reference_complement(ref))
    assert stability_witness(g) == reference_stability_witness(ref)
    for s in subsets(g, ref, rng):
        assert is_clique(g, s) == reference_is_clique(ref, s), (g.id, sorted(s))
        sub, glb = g.induced(s)
        ref_sub, ref_glb = ref.induced(s)
        assert glb == ref_glb
        assert_same_graph(sub, ref_sub)


def check_instance(inst, rng):
    g = instance_graph(inst)
    ref = reference_instance_graph(inst)
    check_against_reference(g, ref, rng)
    # the disk case's graph: the instance plus a universal centre vertex
    n = g.n
    check_against_reference(
        _with_universal(g),
        ReferenceGraph(n + 1, chain(ref.edges(), ((w, n) for w in range(n))), id=g.id), rng)


def test_masks_match_reference_on_acceptance_corpus():
    rng = random.Random(11)
    for inst in acceptance_corpus():
        check_instance(inst, rng)


@pytest.mark.parametrize("seed", [1, 3, 7919])
def test_masks_match_reference_on_benchmark_toy_instances(seed):
    rng = random.Random(seed)
    for inst in benchmark_toy_instances(seed):
        check_instance(inst, rng)


def test_masks_match_reference_on_large_instances():
    rng = random.Random(59)
    check_instance(gen_circulant(59, 20), rng)
    check_instance(build_instance("mixed", mixed_denominator_points()), rng)


def test_masks_match_reference_on_random_graphs():
    rng = random.Random(40)
    for n in range(1, 41):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            rng.shuffle(edges)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            g = AbstractGraph(n, edges, id=f"r{n}")
            ref = ReferenceGraph(n, edges, id=f"r{n}")
            check_against_reference(g, ref, rng)
            assert g == AbstractGraph.from_masks(g.masks, id="other")
            assert hash(g) == hash(AbstractGraph(n, reversed(edges)))


def test_graph_and_complement_stay_small():
    inst = gen_two_cluster(110, seed=1, separation="1/2")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = instance_graph(inst)
        h = complement(g)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.n == h.n == 110
    assert sum(m.bit_count() for m in g.masks) > 110 * 109 // 4   # dense, as the paper's graphs are
    assert grown < 32 * 1024


def complement_triangle(g):
    """The lexicographically first triangle of complement(g), by a triple
    loop over adjacent(); None when there is none."""
    h = complement(g)
    for i in range(h.n):
        for j in range(i + 1, h.n):
            if h.adjacent(i, j):
                for k in range(j + 1, h.n):
                    if h.adjacent(i, k) and h.adjacent(j, k):
                        return (i, j, k)
    return None


def stability_three_instances(count=150, seed=17):
    """Instances with stability exactly three: 5 to 12 points of (1/q)Z^2
    in [0, 2] x [0, 1], q in 2..5, rejection-sampled with the brute
    independent-set oracle."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        q = rng.randrange(2, 6)
        cells = [(x, y) for x in range(2 * q + 1) for y in range(q + 1)]
        chosen = rng.sample(cells, rng.randrange(5, 13))
        inst = build_instance(f"alpha3-{made}-q{q}",
                              [Point(Fraction(x, q), Fraction(y, q)) for x, y in chosen])
        if len(max_independent_set(inst.graph)) == 3:
            made += 1
            yield inst


def test_stability_gate_rules_out_complement_triangles():
    """The audit takes H = complement(G) to be triangle-free once the
    stability gate has passed: a triangle of H is an independent triple of
    G, and the gate's witness is H's first triangle."""
    corpora = (acceptance_corpus(), lattice_disk_instances(), circulant_blowups(),
               stability_three_instances())
    gated = 0
    for inst in chain(*corpora):
        witness = stability_witness(inst.graph)
        assert witness == complement_triangle(inst.graph), inst.id
        gated += witness is None
    assert gated == 205 + 400 + 25
