"""Unit disk graph instances, abstract graphs, and boundary intervals.

Instances live in the distance model: vertices are pairwise distinct planar
points, adjacent exactly when their squared distance is at most 1.  Vertex
identity is the index into the point list, so every output of the library
refers to indices, never to coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DuplicatePoint, InvalidVertex
from .geom import Point, sq_dist


@dataclass(frozen=True)
class Instance:
    id: str
    points: tuple[Point, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def graph(self) -> AbstractGraph:
        """The unit-distance graph, built on first use and shared after."""
        return instance_graph(self)


def build_instance(id: str, points: Sequence[Point]) -> Instance:
    """Validate pairwise distinctness and freeze the point list."""
    seen: dict[Point, int] = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DuplicatePoint(seen[p], i)
        seen[p] = i
    return Instance(id, tuple(points))


class AbstractGraph:
    """Finite simple graph: symmetric irreflexive adjacency over 0..n-1."""

    __slots__ = ("id", "n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], id: str = ""):
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidVertex(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.id = id
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def neighbors(self, i: int) -> frozenset[int]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def induced(self, vertices: Iterable[int]) -> tuple["AbstractGraph", tuple[int, ...]]:
        """Induced subgraph on sorted(vertices); returns it with the
        local-index -> global-index map."""
        glb = tuple(sorted(set(vertices)))
        pos = {g: l for l, g in enumerate(glb)}
        edges = [(pos[u], pos[v]) for u in glb for v in self._adj[u] if u < v and v in pos]
        return AbstractGraph(len(glb), edges, id=self.id), glb

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"AbstractGraph(n={self.n}, m={sum(len(a) for a in self._adj) // 2})"


def instance_graph(inst: Instance) -> AbstractGraph:
    """Derive the unit-distance adjacency of an instance, exactly."""
    edges = [(i, j)
             for i in range(inst.n)
             for j in range(i + 1, inst.n)
             if sq_dist(inst.points[i], inst.points[j]) <= 1]
    return AbstractGraph(inst.n, edges, id=inst.id)


def stability_witness(g: AbstractGraph) -> tuple[int, int, int] | None:
    """Lexicographically first independent triple, or None when none exists.

    Exhaustive O(n^3) scan; used as a hard precondition gate, so exactness
    matters more than speed at the target scale.
    """
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


def is_clique(g: AbstractGraph, s: Iterable[int]) -> bool:
    """True iff all pairs in s are adjacent; empty and singleton sets pass."""
    members = sorted(set(s))
    for a in range(len(members)):
        na = g.neighbors(members[a])
        for b in range(a + 1, len(members)):
            if members[b] not in na:
                return False
    return True


def complement(g: AbstractGraph) -> AbstractGraph:
    edges = [(u, v)
             for u in range(g.n)
             for v in range(u + 1, g.n)
             if not g.adjacent(u, v)]
    return AbstractGraph(g.n, edges, id=g.id)


@dataclass(frozen=True)
class BoundaryOrder:
    """Circular clockwise order of the vertices on the hull boundary."""

    sequence: tuple[int, ...]

    def __post_init__(self):
        if not self.sequence:
            raise InvalidVertex("boundary order must be nonempty")

    def position(self, v: int) -> int:
        try:
            return self.sequence.index(v)
        except ValueError:
            raise InvalidVertex(f"vertex {v} is not on the boundary") from None

    def successor(self, v: int) -> int:
        return self.sequence[(self.position(v) + 1) % len(self.sequence)]

    def predecessor(self, v: int) -> int:
        return self.sequence[(self.position(v) - 1) % len(self.sequence)]


def interval_closed(order: BoundaryOrder, u: int, v: int) -> tuple[int, ...]:
    """[u,v]: boundary vertices from u clockwise through v; [u,u] = (u,)."""
    if u == v:
        order.position(u)
        return (u,)
    seq = order.sequence
    m = len(seq)
    pu = order.position(u)
    pv = order.position(v)
    span = (pv - pu) % m
    return tuple(seq[(pu + t) % m] for t in range(span + 1))


def interval_open(order: BoundaryOrder, u: int, v: int) -> tuple[int, ...]:
    """(u,v) = [u,v] minus both endpoints."""
    closed = interval_closed(order, u, v)
    return closed[1:-1] if len(closed) > 1 else ()
