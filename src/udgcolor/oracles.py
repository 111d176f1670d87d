"""Exponential-time ground truth for desk-scale graphs.

Everything here is an independent check path: exact stability, clique number,
chromatic number and clique-cover searches, plus verifiers for the artifacts
the constructive modules emit.  None of it shares code with the engines it
validates: from core it imports the graph and its complement, and the cover
types CliqueCover and CliquePartition, which sit there, below cover, so that
verify_cover can name them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import AbstractGraph, CliqueCover, CliquePartition, complement
from .errors import LimitExceeded


@dataclass(frozen=True)
class OracleLimits:
    alpha_omega_max: int = 30
    chroma_max: int = 16


DEFAULT_LIMITS = OracleLimits()


@dataclass(frozen=True)
class GraphStats:
    """Exact alpha, omega, chi and clique partition number.

    chi and clique_cover_number are None when the graph exceeds the
    coloring limit while alpha/omega are still feasible.
    """

    alpha: int
    omega: int
    chi: int | None
    clique_cover_number: int | None


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple
    message: str


def _greedy_independent(adj: Sequence[frozenset[int]], candidates: set[int]) -> list[int]:
    chosen: list[int] = []
    cand = set(candidates)
    while cand:
        v = min(cand, key=lambda u: (len(adj[u] & cand), u))
        chosen.append(v)
        cand -= adj[v]
        cand.discard(v)
    return chosen


def _matching_upper_bound(adj: Sequence[frozenset[int]], cand: set[int]) -> int:
    """alpha(G[cand]) <= |cand| - m for any matching of size m inside cand."""
    seen: set[int] = set()
    m = 0
    for v in sorted(cand):
        if v in seen:
            continue
        for u in adj[v]:
            if u in cand and u not in seen and u != v:
                seen.add(v)
                seen.add(u)
                m += 1
                break
    return len(cand) - m


def max_independent_set(g: AbstractGraph) -> frozenset[int]:
    """Exact maximum stable set via branch and bound with a matching bound."""
    adj = [g.neighbors(v) for v in range(g.n)]
    best = _greedy_independent(adj, set(range(g.n)))

    def search(current: list[int], cand: set[int]) -> None:
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = list(current)
            return
        if len(current) + _matching_upper_bound(adj, cand) <= len(best):
            return
        pivot = max(cand, key=lambda v: (len(adj[v] & cand), -v))
        if not adj[pivot] & cand:
            # isolated in the candidate subgraph: always take it
            current.append(pivot)
            cand.discard(pivot)
            search(current, cand)
            cand.add(pivot)
            current.pop()
            return
        current.append(pivot)
        search(current, cand - adj[pivot] - {pivot})
        current.pop()
        cand.discard(pivot)
        search(current, cand)
        cand.add(pivot)

    search([], set(range(g.n)))
    return frozenset(best)


def brute_omega(g: AbstractGraph) -> int:
    return len(max_independent_set(complement(g)))


def k_coloring(g: AbstractGraph, k: int) -> tuple[int, ...] | None:
    """Some proper k-coloring, or None.  Vertices are tried in descending
    degree order with first-use symmetry breaking."""
    if g.n == 0:
        return ()
    if k <= 0:
        return None
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n

    def assign(idx: int, used: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        banned = {colors[u] for u in g.neighbors(v) if colors[u] >= 0}
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[v] = c
            if assign(idx + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    if not assign(0, 0):
        return None
    return tuple(colors)


def brute_chi(g: AbstractGraph) -> int:
    """Exact chromatic number by iterative deepening from the clique bound."""
    if g.n == 0:
        return 0
    for k in range(brute_omega(g), g.n + 1):
        if k_coloring(g, k) is not None:
            return k
    raise AssertionError("n colors always suffice")


def brute_clique_cover_number(g: AbstractGraph) -> int:
    return brute_chi(complement(g))


def _require_alpha_omega(n: int, limits: OracleLimits) -> None:
    if n > limits.alpha_omega_max:
        raise LimitExceeded(f"n={n} exceeds alpha/omega limit {limits.alpha_omega_max}")


def brute_stats(g: AbstractGraph, limits: OracleLimits = DEFAULT_LIMITS) -> GraphStats:
    _require_alpha_omega(g.n, limits)
    alpha = len(max_independent_set(g))
    omega = brute_omega(g)
    if g.n > limits.chroma_max:
        return GraphStats(alpha, omega, None, None)
    return GraphStats(alpha, omega, brute_chi(g), brute_clique_cover_number(g))


# ---------------------------------------------------------------------------
# artifact verifiers


def verify_cover(g: AbstractGraph, cover: CliqueCover | CliquePartition) -> Violation | None:
    """Check every invariant of a CliqueCover or a CliquePartition.

    Returns None when valid, otherwise the first violation found with a
    witness.  Both must be three cliques covering V; a CliqueCover's
    shared_vertex, when set, must lie in two of them, and a
    CliquePartition's parts must be disjoint and not all of one size.
    """
    partition = isinstance(cover, CliquePartition)
    parts = tuple(cover.parts if partition else cover.cliques)
    shared = None if partition else cover.shared_vertex

    if len(parts) != 3:
        return Violation("arity", (len(parts),), f"expected 3 parts, got {len(parts)}")

    everything = set(range(g.n))
    union: set[int] = set()
    for idx, part in enumerate(parts):
        for v in part:
            if v not in everything:
                return Violation("range", (idx, v), f"vertex {v} out of range in part {idx}")
        members = sorted(part)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if not g.adjacent(members[a], members[b]):
                    return Violation(
                        "not-a-clique", (idx, members[a], members[b]),
                        f"part {idx} contains non-adjacent pair ({members[a]},{members[b]})")
        union |= set(part)

    if union != everything:
        missing = min(everything - union)
        return Violation("coverage", (missing,), f"vertex {missing} is uncovered")

    if partition:
        for i in range(3):
            for j in range(i + 1, 3):
                both = set(parts[i]) & set(parts[j])
                if both:
                    w = min(both)
                    return Violation("overlap", (i, j, w),
                                     f"parts {i} and {j} share vertex {w}")
        sizes = [len(p) for p in parts]
        if g.n > 0 and len(set(sizes)) == 1:
            return Violation("equal-sizes", tuple(sizes),
                             "all three parts have the same cardinality")

    if shared is not None:
        containing = [i for i in range(3) if shared in parts[i]]
        if len(containing) < 2:
            return Violation("shared", (shared,),
                             f"shared vertex {shared} lies in fewer than two parts")
    return None


def verify_coloring(g: AbstractGraph, coloring, max_class_size: int | None = None) -> Violation | None:
    """Properness, contiguity of color indices, and optional class-size cap."""
    assignment = tuple(coloring.assignment)
    if len(assignment) != g.n:
        return Violation("length", (len(assignment),),
                         f"assignment covers {len(assignment)} of {g.n} vertices")
    if g.n == 0:
        return None
    used = sorted(set(assignment))
    if used != list(range(len(used))):
        return Violation("contiguity", tuple(used), "color indices are not 0-based contiguous")
    for u, v in g.edges():
        if assignment[u] == assignment[v]:
            return Violation("improper", (u, v),
                             f"adjacent vertices {u},{v} share color {assignment[u]}")
    if max_class_size is not None:
        counts: dict[int, int] = {}
        for v, c in enumerate(assignment):
            counts[c] = counts.get(c, 0) + 1
            if counts[c] > max_class_size:
                return Violation("class-size", (c,),
                                 f"color class {c} exceeds size {max_class_size}")
    return None


# ---------------------------------------------------------------------------
# abstract property checkers


def _is_bipartite(g: AbstractGraph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def check_nbhprop(g: AbstractGraph) -> tuple[bool, tuple[int, int] | None]:
    """For every non-adjacent pair, the common neighborhood must induce a
    co-bipartite graph (complement 2-colorable)."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adjacent(u, v):
                continue
            common = g.neighbors(u) & g.neighbors(v)
            if len(common) < 3:
                continue
            sub, _ = g.induced(common)
            if not _is_bipartite(complement(sub)):
                return False, (u, v)
    return True, None


def _has_independent_of_size(g: AbstractGraph, vertices: list[int], k: int) -> bool:
    if k == 0:
        return True
    if len(vertices) < k:
        return False
    v = vertices[0]
    rest = vertices[1:]
    nv = g.neighbors(v)
    if _has_independent_of_size(g, [u for u in rest if u not in nv], k - 1):
        return True
    return _has_independent_of_size(g, rest, k)


def check_k16_free(g: AbstractGraph) -> tuple[bool, int | None]:
    """No vertex may have six pairwise non-adjacent neighbors."""
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        if len(nbrs) < 6:
            continue
        if _has_independent_of_size(g, nbrs, 6):
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# cover existence ground truth


def _three_clique_partitions(g: AbstractGraph):
    """Yield partitions of V into at most three cliques (canonical order)."""
    parts: list[list[int]] = []

    def place(v: int):
        if v == g.n:
            yield [list(p) for p in parts]
            return
        nv = g.neighbors(v)
        for part in parts:
            if all(w in nv for w in part):
                part.append(v)
                yield from place(v + 1)
                part.pop()
        if len(parts) < 3:
            parts.append([v])
            yield from place(v + 1)
            parts.pop()

    yield from place(0)


def brute_cover_exists(g: AbstractGraph, shared: bool) -> CliqueCover | None:
    """Exhaustive search for three cliques covering V; optionally two of them
    must share a vertex.  Returns a CliqueCover witness or None."""
    if g.n > 14:
        raise LimitExceeded(f"n={g.n} exceeds cover-search limit 14")
    if g.n == 0:
        empty = frozenset()
        return CliqueCover((empty, empty, empty), None)

    for raw in _three_clique_partitions(g):
        parts = [frozenset(p) for p in raw] + [frozenset()] * (3 - len(raw))
        if not shared:
            return CliqueCover((parts[0], parts[1], parts[2]), None)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                for v in sorted(parts[i]):
                    target = parts[j] | {v}
                    if all(g.adjacent(v, w) for w in parts[j]):
                        ordered = [parts[i], target] + [parts[t] for t in range(3) if t not in (i, j)]
                        return CliqueCover((ordered[0], ordered[1], ordered[2]), v)
    return None
