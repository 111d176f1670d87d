"""Unit disk graph instances, abstract graphs, and boundary intervals.

Instances live in the distance model: vertices are pairwise distinct planar
points, adjacent exactly when their squared distance is at most 1.  Vertex
identity is the index into the point list, so every output of the library
refers to indices, never to coordinates.  build_instance converts each
point once to the homogeneous integers (X, Y, W) that every geometric
predicate reads, and stores them as Instance.homogeneous.

A graph's only adjacency is one int per vertex (AbstractGraph.masks): bit j
of masks[i] is set exactly when i ~ j.  A 110-vertex graph is then about
5 KB instead of the half megabyte one frozenset per vertex took, and the
graph layers (stability gate, complement, clique test, induced subgraph,
matching, Gallai-Edmonds, the cover constructions, and the oracles with
decoding of their own) work on whole rows with int operations.  Code that
walks neighbours decodes a mask with bits() at most once per vertex per
call, into an ascending list, so searches visit neighbours in index order
and their results do not depend on set iteration order; the lists live for
that call only.  adjacent() is the one-bit query.

The cover step's two results, CliqueCover and CliquePartition, live here
too, below both the engine that builds them (cover) and the verifier that
checks them (oracles.verify_cover).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import DuplicatePoint, InvalidVertex, StabilityViolated
from .geom import Homogeneous, Point, _homogeneous, sq_dist


@dataclass(frozen=True)
class Instance:
    id: str
    points: tuple[Point, ...]
    homogeneous: tuple[Homogeneous, ...]

    @property
    def n(self) -> int:
        return len(self.homogeneous)

    @cached_property
    def graph(self) -> AbstractGraph:
        """The unit-distance graph, built on first use and shared after."""
        return instance_graph(self)


def build_instance(id: str, points: Sequence[Point]) -> Instance:
    """Convert each point once, validate pairwise distinctness on the
    triples, and freeze both lists.  Fractions are kept in lowest terms, so
    equal points have equal triples; hashing these integers skips the
    modular inverse that Fraction.__hash__ computes for each coordinate."""
    homogeneous = tuple(_homogeneous(p) for p in points)
    seen: dict[Homogeneous, int] = {}
    for i, key in enumerate(homogeneous):
        first = seen.setdefault(key, i)
        if first != i:
            raise DuplicatePoint(first, i)
    return Instance(id, tuple(points), homogeneous)


class AbstractGraph:
    """Finite simple graph: symmetric irreflexive adjacency over 0..n-1.

    masks[i] is the int whose bit j is set exactly when i ~ j; it is the
    graph's only adjacency (see the module docstring)."""

    __slots__ = ("id", "n", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], id: str = ""):
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidVertex(f"self-loop at {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.id = id
        self.n = n
        self.masks: tuple[int, ...] = tuple(masks)

    @classmethod
    def from_masks(cls, masks: Iterable[int], id: str = "") -> "AbstractGraph":
        """The graph with these adjacency masks, taken as they are: each must
        be symmetric, irreflexive and below 1 << len(masks)."""
        g = cls.__new__(cls)
        g.id = id
        g.masks = tuple(masks)
        g.n = len(g.masks)
        return g

    def adjacent(self, i: int, j: int) -> bool:
        return self.masks[i] >> j & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once as (u, v) with u < v, in ascending order."""
        for u, mask in enumerate(self.masks):
            for v in bits(mask >> u + 1):
                yield (u, u + 1 + v)

    def induced(self, vertices: Iterable[int]) -> tuple["AbstractGraph", tuple[int, ...]]:
        """Induced subgraph on sorted(vertices); returns it with the
        local-index -> global-index map.  Ids outside 0..n-1 raise
        InvalidVertex.  The subgraph on every vertex is a new graph over
        this one's masks, with the identity map: nothing is renumbered."""
        glb = tuple(sorted(set(vertices)))
        _require_vertices(self, glb)
        if len(glb) == self.n:
            return AbstractGraph.from_masks(self.masks, id=self.id), glb
        pos = {g: l for l, g in enumerate(glb)}
        chosen = mask_of(glb)
        masks = []
        for u in glb:
            local = 0
            for v in bits(self.masks[u] & chosen):
                local |= 1 << pos[v]
            masks.append(local)
        return AbstractGraph.from_masks(masks, id=self.id), glb

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractGraph):
            return NotImplemented
        return self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"AbstractGraph(n={self.n}, m={sum(m.bit_count() for m in self.masks) // 2})"


@dataclass(frozen=True)
class CliqueCover:
    """Three cliques whose union is V; two of them contain shared_vertex.

    The parts may overlap.  shared_vertex is None only for covers produced
    by the brute-force existence oracle without the shared requirement.
    """

    cliques: tuple[frozenset[int], frozenset[int], frozenset[int]]
    shared_vertex: int | None


@dataclass(frozen=True)
class CliquePartition:
    """Three disjoint cliques covering V, not all of the same cardinality."""

    parts: tuple[frozenset[int], frozenset[int], frozenset[int]]


# bin() digits as the bytes 0 and 1, for itertools.compress
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending: the vertices of a
    vertex set, or the neighbours of a vertex from its adjacency mask.
    One pass in C over the binary digits, lowest first."""
    return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def mask_of(vertices: Iterable[int]) -> int:
    """The vertex mask of a set of vertices: the inverse of bits()."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _require_vertices(g: AbstractGraph, ascending: Sequence[int]) -> None:
    if ascending and (ascending[0] < 0 or ascending[-1] >= g.n):
        bad = ascending[0] if ascending[0] < 0 else ascending[-1]
        raise InvalidVertex(f"vertex {bad} out of range for n={g.n}")


def instance_graph(inst: Instance) -> AbstractGraph:
    """Derive the unit-distance adjacency of an instance, exactly."""
    pts = inst.points
    n = inst.n
    masks = [0] * n
    for i in range(n):
        p = pts[i]
        for j in range(i + 1, n):
            if sq_dist(p, pts[j]) <= 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return AbstractGraph.from_masks(masks, id=inst.id)


def _unit_masks(triples: Sequence[Homogeneous]) -> list[int]:
    """The adjacency masks of the unit-distance graph over homogeneous
    (X, Y, W) triples: i ~ j exactly when DX**2 + DY**2 <= (Wi*Wj)**2, with
    DX = Xi*Wj - Xj*Wi and DY likewise (geom._sq_dist_sign(a, b, 1) <= 0,
    inlined).  Equal to instance_graph's masks on the same points."""
    n = len(triples)
    masks = [0] * n
    for i, (ix, iy, iw) in enumerate(triples):
        for j in range(i + 1, n):
            jx, jy, jw = triples[j]
            dx = ix * jw - jx * iw
            dy = iy * jw - jy * iw
            ww = iw * jw
            if dx * dx + dy * dy <= ww * ww:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def stability_witness(g: AbstractGraph) -> tuple[int, int, int] | None:
    """Lexicographically first independent triple, or None when none exists.

    For each non-adjacent pair i < j in row order, the lowest k > j outside
    N(i) | N(j) completes the triple: O(n^2) mask operations.
    """
    masks = g.masks
    full = (1 << g.n) - 1
    for i, mi in enumerate(masks):
        for j in bits((full >> i + 1 << i + 1) & ~mi):
            rest = (~(mi | masks[j]) & full) >> j + 1
            if rest:
                return (i, j, j + (rest & -rest).bit_length())
    return None


def require_stability(g: AbstractGraph) -> None:
    """The stability gate of cover, color and audit: StabilityViolated with
    stability_witness's triple when g has an independent triple."""
    witness = stability_witness(g)
    if witness is not None:
        raise StabilityViolated(witness)


def _is_clique_mask(g: AbstractGraph, chosen: int) -> bool:
    """Every vertex of the vertex mask chosen is adjacent to all the others;
    the empty mask and one-vertex masks pass."""
    masks = g.masks
    return all(chosen & ~masks[v] == 1 << v for v in bits(chosen))


def is_clique(g: AbstractGraph, s: Iterable[int]) -> bool:
    """True iff all pairs in s are adjacent; empty and singleton sets pass.
    Ids outside 0..n-1 raise InvalidVertex."""
    members = sorted(set(s))
    _require_vertices(g, members)
    return _is_clique_mask(g, mask_of(members))


def complement(g: AbstractGraph) -> AbstractGraph:
    full = (1 << g.n) - 1
    return AbstractGraph.from_masks((full ^ m ^ 1 << v for v, m in enumerate(g.masks)),
                                    id=g.id)


def _boundary_position(boundary: Sequence[int], v: int) -> int:
    """The index of v in a circular boundary order; InvalidVertex when v is
    not on it."""
    try:
        return boundary.index(v)
    except ValueError:
        raise InvalidVertex(f"vertex {v} is not on the boundary") from None


def interval_closed(boundary: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """[u,v]: boundary vertices from u clockwise through v; [u,u] = (u,)."""
    pu = _boundary_position(boundary, u)
    span = (_boundary_position(boundary, v) - pu) % len(boundary)
    return tuple(boundary[(pu + t) % len(boundary)] for t in range(span + 1))
