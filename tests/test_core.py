import pytest

from udgcolor.core import (AbstractGraph, adjacent, boundary_order,
                           build_instance, complement, consecutive,
                           instance_graph, interval_closed, interval_open,
                           is_clique, stability_witness)
from udgcolor.errors import (DegenerateCollinear, DuplicatePoint,
                             InvalidVertex)
from udgcolor.geom import point
from udgcolor.instances import circulant_graph


def test_build_instance_basic():
    inst = build_instance("t", [point(0, 0), point(1, 1)])
    assert inst.n == 2


def test_build_instance_duplicate():
    with pytest.raises(DuplicatePoint) as err:
        build_instance("t", [point(1, 1), point(0, 0), point(1, 1)])
    assert (err.value.i, err.value.j) == (0, 2)


def test_build_instance_empty_ok():
    assert build_instance("t", []).n == 0


def test_adjacent_threshold():
    inst = build_instance("t", [point(0, 0), point(1, 0), point(1, 1),
                                point("3/5", "4/5")])
    assert adjacent(inst, 0, 1)          # distance exactly 1
    assert not adjacent(inst, 0, 2)      # sq_dist 2
    assert adjacent(inst, 0, 3)          # sq_dist exactly 1
    with pytest.raises(InvalidVertex):
        adjacent(inst, 0, 0)
    with pytest.raises(InvalidVertex):
        adjacent(inst, 0, 9)


def test_stability_witness_collinear_triple():
    inst = build_instance("t", [point(0, 0), point(2, 0), point(4, 0)])
    assert stability_witness(instance_graph(inst)) == (0, 1, 2)


def test_stability_witness_absent():
    assert stability_witness(circulant_graph(5, 2)) is None
    k4 = AbstractGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert stability_witness(k4) is None


def test_is_clique():
    c5 = circulant_graph(5, 2)
    assert is_clique(c5, set())
    assert is_clique(c5, {0, 1})
    assert not is_clique(c5, {0, 2})


def test_complement():
    k3 = AbstractGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert list(complement(k3).edges()) == []
    e2 = AbstractGraph(2, [])
    assert list(complement(e2).edges()) == [(0, 1)]
    c5 = circulant_graph(5, 2)
    assert complement(complement(c5)) == c5


SQUARE = build_instance("sq", [point(0, 0), point(1, 0), point(1, 1), point(0, 1)])


def test_boundary_order_square_intervals():
    order = boundary_order(SQUARE)
    assert set(order.sequence) == {0, 1, 2, 3}
    a = order.sequence[0]
    c = order.sequence[2]
    b = order.sequence[1]
    assert interval_closed(order, a, a) == (a,)
    assert interval_open(order, a, c) == (b,)
    u, v = order.sequence[0], order.sequence[1]
    assert interval_open(order, u, v) == ()
    assert consecutive(order, u, v)
    assert not consecutive(order, a, c)
    assert not consecutive(order, a, a)


def test_boundary_order_collinear_raises():
    line = build_instance("ln", [point(0, 0), point(1, 0), point(2, 0)])
    with pytest.raises(DegenerateCollinear):
        boundary_order(line)


def test_interval_variants():
    order = boundary_order(SQUARE)
    a, b, c, d = order.sequence
    assert interval_closed(order, a, c) == (a, b, c)
    assert interval_closed(order, c, a) == (c, d, a)


def test_interval_identity_partition():
    inst = build_instance("pent", [p for p in __import__("udgcolor").gen_circulant(5, 2).points])
    order = boundary_order(inst)
    seq = order.sequence
    for u in seq:
        for v in seq:
            if u == v:
                continue
            closed = interval_closed(order, u, v)
            other = interval_open(order, v, u)
            assert len(closed) + len(other) == len(seq)
            assert set(closed) | set(other) == set(seq)
            assert not (set(closed) & set(other))


def test_instance_graph_symmetric_irreflexive():
    g = instance_graph(SQUARE)
    for i in range(g.n):
        assert i not in g.neighbors(i)
        for j in g.neighbors(i):
            assert i in g.neighbors(j)
