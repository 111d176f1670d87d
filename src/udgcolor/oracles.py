"""Exponential-time ground truth for desk-scale graphs.

Everything here is an independent check path: exact stability, clique number,
chromatic number and clique-cover searches, plus verifiers for the artifacts
the constructive modules emit.  None of it shares code with the engines it
validates: from core it imports the graph and its complement, and the cover
types CliqueCover and CliquePartition, which sit there, below cover, so that
verify_cover can name them.

Every search and verifier reads the graph's adjacency masks
(AbstractGraph.masks) with int operations, and decodes a mask with its own
lowest-bit loop, _members.  One enumerator, _colorings, walks the colorings
with at most k colors: k_coloring takes its first, check_nbhprop asks it for
a 2-coloring of the complement of each common neighbourhood, and
brute_cover_exists walks the 3-colorings of the complement, which are the
partitions of V into at most three cliques.  Three constants bound the
searches, in vertices: ALPHA_OMEGA_MAX brute_stats' alpha and omega,
CHROMA_MAX its chi and clique cover number, COVER_SEARCH_MAX brute_cover_exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import AbstractGraph, CliqueCover, CliquePartition, complement
from .errors import LimitExceeded

ALPHA_OMEGA_MAX = 30
CHROMA_MAX = 16
COVER_SEARCH_MAX = 14


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


def _lowest(mask: int) -> int:
    """The lowest set bit of a positive mask: its least vertex."""
    return (mask & -mask).bit_length() - 1


def _members(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        out.append(_lowest(mask))
        mask &= mask - 1
    return out


def max_independent_set(g: AbstractGraph) -> frozenset[int]:
    """Exact maximum stable set via branch and bound with a matching bound.

    The search starts from a greedy set (least candidate degree first) and
    branches on a candidate of largest candidate degree.  A branch is cut
    when its size plus |cand| - m, for a greedy matching of size m inside
    cand, cannot beat the best set so far."""
    masks = g.masks

    def bound(cand: int) -> int:
        m = 0
        free = cand
        while free:
            v = _lowest(free)
            free ^= 1 << v
            mate = masks[v] & free
            if mate:
                free ^= mate & -mate
                m += 1
        return cand.bit_count() - m

    best = []
    cand = (1 << g.n) - 1
    while cand:
        v = min(_members(cand), key=lambda u: ((masks[u] & cand).bit_count(), u))
        best.append(v)
        cand &= ~(masks[v] | 1 << v)

    def search(current: list[int], cand: int) -> None:
        nonlocal best
        if not cand:
            if len(current) > len(best):
                best = list(current)
            return
        if len(current) + bound(cand) <= len(best):
            return
        pivot = max(_members(cand), key=lambda v: ((masks[v] & cand).bit_count(), -v))
        rest = cand & ~(1 << pivot)
        current.append(pivot)
        search(current, rest & ~masks[pivot])
        current.pop()
        if masks[pivot] & cand:  # an isolated pivot is always taken, not skipped
            search(current, rest)

    search([], (1 << g.n) - 1)
    return frozenset(best)


def brute_omega(g: AbstractGraph) -> int:
    return len(max_independent_set(complement(g)))


def _colorings(g: AbstractGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Every proper coloring with at most k colors, once up to renaming the
    colors, depth first.  Vertices are colored in descending degree order,
    and a vertex takes either a color already used or the next unused one."""
    masks = g.masks
    order = sorted(range(g.n), key=lambda v: (-masks[v].bit_count(), v))
    colors = [-1] * g.n
    classes: list[int] = []  # classes[c]: the mask of the vertices colored c

    def assign(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == g.n:
            yield tuple(colors)
            return
        v = order[idx]
        bit = 1 << v
        for c in range(len(classes)):
            if not masks[v] & classes[c]:
                classes[c] |= bit
                colors[v] = c
                yield from assign(idx + 1)
                classes[c] ^= bit
        if len(classes) < k:
            colors[v] = len(classes)
            classes.append(bit)
            yield from assign(idx + 1)
            classes.pop()

    return assign(0)


def k_coloring(g: AbstractGraph, k: int) -> tuple[int, ...] | None:
    """The first proper k-coloring _colorings finds, or None."""
    return next(_colorings(g, k), None)


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


def _require_alpha_omega(n: int) -> None:
    if n > ALPHA_OMEGA_MAX:
        raise LimitExceeded(f"n={n} exceeds alpha/omega limit {ALPHA_OMEGA_MAX}")


def brute_stats(g: AbstractGraph) -> GraphStats:
    _require_alpha_omega(g.n)
    alpha = len(max_independent_set(g))
    omega = brute_omega(g)
    if g.n > CHROMA_MAX:
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

    masks = g.masks
    part_masks = []
    for idx, part in enumerate(parts):
        chosen = 0
        for v in part:
            if not 0 <= v < g.n:
                return Violation("range", (idx, v), f"vertex {v} out of range in part {idx}")
            chosen |= 1 << v
        for a in _members(chosen):
            strangers = chosen & ~masks[a] & -(2 << a)  # non-neighbours above a
            if strangers:
                b = _lowest(strangers)
                return Violation("not-a-clique", (idx, a, b),
                                 f"part {idx} contains non-adjacent pair ({a},{b})")
        part_masks.append(chosen)

    uncovered = (1 << g.n) - 1 & ~(part_masks[0] | part_masks[1] | part_masks[2])
    if uncovered:
        missing = _lowest(uncovered)
        return Violation("coverage", (missing,), f"vertex {missing} is uncovered")

    if partition:
        for i in range(3):
            for j in range(i + 1, 3):
                both = part_masks[i] & part_masks[j]
                if both:
                    w = _lowest(both)
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


def check_nbhprop(g: AbstractGraph) -> tuple[bool, tuple[int, int] | None]:
    """For every non-adjacent pair, the common neighborhood must induce a
    co-bipartite graph (complement 2-colorable)."""
    masks = g.masks
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in _members(full & ~masks[u] & -(2 << u)):  # non-neighbours above u
            common = masks[u] & masks[v]
            if common.bit_count() < 3:
                continue
            sub, _ = g.induced(_members(common))
            if k_coloring(complement(sub), 2) is None:
                return False, (u, v)
    return True, None


def _has_stable_set(masks: Sequence[int], cand: int, k: int) -> bool:
    """Whether the vertex mask cand holds k pairwise non-adjacent vertices:
    its lowest vertex is taken, or it is not."""
    if k == 0:
        return True
    if cand.bit_count() < k:
        return False
    v = _lowest(cand)
    rest = cand ^ 1 << v
    return _has_stable_set(masks, rest & ~masks[v], k - 1) or _has_stable_set(masks, rest, k)


def check_k16_free(g: AbstractGraph) -> tuple[bool, int | None]:
    """No vertex may have six pairwise non-adjacent neighbors."""
    for v, nbrs in enumerate(g.masks):
        if _has_stable_set(g.masks, nbrs, 6):
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# cover existence ground truth


def brute_cover_exists(g: AbstractGraph, shared: bool) -> CliqueCover | None:
    """Exhaustive search for three cliques covering V; optionally two of them
    must share a vertex.  Returns a CliqueCover witness or None.

    The partitions of V into at most three cliques are the colorings of the
    complement with at most three colors.  A partition gives a cover with a
    shared vertex when some vertex of one part is adjacent to every vertex
    of another, which then takes it in as well."""
    if g.n > COVER_SEARCH_MAX:
        raise LimitExceeded(f"n={g.n} exceeds cover-search limit {COVER_SEARCH_MAX}")
    masks = g.masks
    full = (1 << g.n) - 1

    def cover(parts, v: int | None) -> CliqueCover:
        return CliqueCover(tuple(frozenset(_members(p)) for p in parts), v)

    for coloring in _colorings(complement(g), 3):
        parts = [0, 0, 0]
        for v, c in enumerate(coloring):
            parts[c] |= 1 << v
        if not shared or g.n == 0:  # the empty graph has no vertex to share
            return cover(parts, None)
        for j in range(3):
            common = full  # the vertices adjacent to all of part j
            for w in _members(parts[j]):
                common &= masks[w]
            for i in range(3):
                if i != j and parts[i] & common:
                    v = _lowest(parts[i] & common)
                    return cover((parts[i], parts[j] | 1 << v, parts[3 - i - j]), v)
    return None
