import pytest

from udgcolor.core import (AbstractGraph, build_instance, complement,
                           instance_graph, interval_closed, is_clique,
                           stability_witness)
from udgcolor.errors import DuplicatePoint, InvalidVertex
from udgcolor.geom import hull_decomposition, point
from udgcolor.instances import circulant_graph


def test_build_instance_basic():
    inst = build_instance("t", [point(0, 0), point(1, 1)])
    assert inst.n == 2


def test_build_instance_duplicate():
    with pytest.raises(DuplicatePoint) as err:
        build_instance("t", [point(1, 1), point(0, 0), point(1, 1)])
    assert (err.value.i, err.value.j) == (0, 2)


def test_build_instance_stores_each_points_triple():
    inst = build_instance("t", [point("1/2", "1/3"), point(-2, "3/4"), point(0, 0)])
    assert inst.homogeneous == ((3, 2, 6), (-8, 3, 4), (0, 0, 1))


def test_build_instance_empty_ok():
    assert build_instance("t", []).n == 0


def test_instance_graph_is_built_once_and_shared():
    inst = build_instance("t", [point(0, 0), point(1, 0), point(3, 0)])
    g = inst.graph
    assert g is inst.graph
    assert g == instance_graph(inst)
    again = build_instance("t", list(inst.points))
    assert inst == again and hash(inst) == hash(again)


def test_adjacent_threshold():
    inst = build_instance("t", [point(0, 0), point(1, 0), point(1, 1),
                                point("3/5", "4/5")])
    g = inst.graph
    assert g.adjacent(0, 1)          # distance exactly 1
    assert not g.adjacent(0, 2)      # sq_dist 2
    assert g.adjacent(0, 3)          # sq_dist exactly 1


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


def test_edges_ascending_with_smaller_endpoint_first():
    g = AbstractGraph(5, [(3, 2), (4, 0), (1, 0), (2, 1), (0, 3)])
    assert list(g.edges()) == [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3)]
    c11 = circulant_graph(11, 4)
    assert list(c11.edges()) == sorted(c11.edges())


@pytest.mark.parametrize("ids", [[-1, 0, 1], [-1, 1], [-3], [5], [0, 3], [2, 3]])
def test_out_of_range_vertex_ids_raise(ids):
    path = AbstractGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidVertex):
        path.induced(ids)
    with pytest.raises(InvalidVertex):
        is_clique(path, ids)


def test_in_range_vertex_ids_still_work():
    path = AbstractGraph(3, [(0, 1), (1, 2)])
    sub, glb = path.induced([2, 0, 2])
    assert (sub.n, glb, list(sub.edges())) == (2, (0, 2), [])
    assert is_clique(path, [1, 2]) and not is_clique(path, [0, 2])
    assert path.induced([]) == (AbstractGraph(0, []), ())


SQUARE = build_instance("sq", [point(0, 0), point(1, 0), point(1, 1), point(0, 1)])


def _boundary(inst):
    return hull_decomposition(inst.homogeneous).boundary


def test_boundary_order_square_intervals():
    order = _boundary(SQUARE)
    assert set(order) == {0, 1, 2, 3}
    a = order[0]
    c = order[2]
    b = order[1]
    assert interval_closed(order, a, a) == (a,)
    assert interval_closed(order, a, c) == (a, b, c)
    # consecutive vertices: nothing lies strictly between them
    assert interval_closed(order, a, b) == (a, b)


def test_interval_variants():
    order = _boundary(SQUARE)
    a, b, c, d = order
    assert interval_closed(order, a, c) == (a, b, c)
    assert interval_closed(order, c, a) == (c, d, a)
    # the boundary is a plain tuple; a vertex not on it is still refused
    for u, v in ((a, 4), (4, a), (4, 4)):
        with pytest.raises(InvalidVertex, match="vertex 4 is not on the boundary"):
            interval_closed(order, u, v)


def test_interval_identity_partition():
    inst = build_instance("pent", [p for p in __import__("udgcolor").gen_circulant(5, 2).points])
    order = _boundary(inst)
    for u in order:
        for v in order:
            if u == v:
                continue
            closed = interval_closed(order, u, v)
            back = interval_closed(order, v, u)
            assert len(closed) + len(back) == len(order) + 2
            assert set(closed) | set(back) == set(order)
            assert set(closed) & set(back) == {u, v}


def test_instance_graph_symmetric_irreflexive():
    g = instance_graph(SQUARE)
    for i in range(g.n):
        assert i not in g.neighbors(i)
        for j in g.neighbors(i):
            assert i in g.neighbors(j)
