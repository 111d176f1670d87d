"""Maximum matching, Gallai-Edmonds structure, and matching-based coloring.

The coloring path is deliberately simple: complement the instance graph,
take any maximum matching, and turn matched pairs plus leftover singletons
into color classes.  The decomposition machinery exists to audit the
counting argument that bounds the number of classes by 3/2 of the clique
number; it is not on the coloring hot path.  The Gallai-Edmonds
decomposition is read off one maximum matching and one alternating forest
of the same blossom search; there is no second matching algorithm.  The
audit counts on that matching, proves it maximum by Tutte-Berge instead of
a second search, certifies the bound with a clique it assembles, and uses
no oracle.  A piece of the decomposition that is a clique of G (in practice
a single vertex) is its own partition; only the other pieces are covered,
on the subgraph each induces with its points' homogeneous triples (no
Instance is built), and each such cover is checked by its constructor only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (AbstractGraph, Instance, _is_clique_mask, bits, complement,
                   mask_of, require_stability)
from .cover import _dispatch, partition_from_cover
from .errors import ParseError, StructureViolation
from .geom import _lex_order
from .instances import parse_int, read_records


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges, each stored as (min, max)."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)


def _neighbor_lists(g: AbstractGraph) -> list[list[int]]:
    """Each vertex's neighbours, ascending, decoded once for one search."""
    return [bits(m) for m in g.masks]


def _augment_search(adj: list[list[int]], match: list[int],
                    roots: list[int]) -> list[bool] | None:
    """One alternating-forest search from exposed roots over the ascending
    neighbour lists adj, contracting blossoms on the fly.

    Returns None after augmenting match in place along a path from a root
    to an exposed vertex that is not a root.  Otherwise returns the
    forest's even marks: the vertices an even alternating path reaches from
    a root, blossoms included.  Two trees that meet raise
    StructureViolation: they hold an augmenting path, so match was not
    maximum.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    for root in roots:
        used[root] = True
    queue = deque(roots)

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = base[b]
        while not seen[y]:
            if match[y] == -1:
                raise StructureViolation(f"alternating trees of roots {x} and {y} meet; "
                                         f"the matching is not maximum")
            y = base[parent[match[y]]]
        return y

    def mark_path(x: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[x] != stem:
            in_blossom[base[x]] = True
            in_blossom[base[match[x]]] = True
            parent[x] = child
            child = match[x]
            x = parent[match[x]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if used[to]:
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return None
                used[match[to]] = True
                queue.append(match[to])
    return used


def _matching_array(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] != -1:
            continue
        for u in adj[v]:
            if match[u] == -1:
                match[v] = u
                match[u] = v
                break
    for v in range(n):
        if match[v] == -1:
            _augment_search(adj, match, [v])
    return match


def max_matching(g: AbstractGraph) -> Matching:
    """Maximum-cardinality matching via repeated blossom searches."""
    match = _matching_array(_neighbor_lists(g))
    edges = frozenset((v, match[v]) for v in range(g.n) if match[v] > v)
    return Matching(edges)


@dataclass(frozen=True)
class GallaiEdmonds:
    """Canonical decomposition: A missed by some maximum matching,
    X = N(A) \\ A, B the rest, plus the odd (factor-critical) components of
    G - X, the maximum matching M it was read off, and M's edges at X,
    which match X into distinct odd components."""

    A: frozenset[int]
    X: frozenset[int]
    B: frozenset[int]
    odd_components: tuple[frozenset[int], ...]
    O_X: tuple[int, ...]        # indices into odd_components matched into X
    O_prime: tuple[int, ...]    # the remaining component indices
    M: frozenset[tuple[int, int]]    # the maximum matching, edges (min, max)
    M_X: frozenset[tuple[int, int]]  # M's x--component edges


def _components(g: AbstractGraph, left: int) -> list[int]:
    """The connected components of the subgraph induced on the vertex mask
    left, as vertex masks in order of their lowest vertex."""
    masks = g.masks
    comps: list[int] = []
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= masks[v]
            frontier = reach & left & ~comp
            comp |= frontier
        left &= ~comp
        comps.append(comp)
    return comps


def gallai_edmonds(g: AbstractGraph) -> GallaiEdmonds:
    """Decomposition read off one maximum matching M (Gallai-Edmonds
    structure theorem; Lovasz and Plummer, Matching Theory, ch. 3).

    A, the vertices some maximum matching misses, is the even set of one
    alternating forest grown from every vertex M misses.  M matches each
    vertex of X into a distinct odd component, so M_X is M's edges at X.
    """
    n = g.n
    adj = _neighbor_lists(g)
    match = _matching_array(adj)
    even = _augment_search(adj, match, [v for v in range(n) if match[v] == -1])
    a_mask = mask_of(v for v in range(n) if even[v])
    x_mask = 0
    for v in bits(a_mask):
        x_mask |= g.masks[v]
    x_mask &= ~a_mask
    A = frozenset(bits(a_mask))
    X = frozenset(bits(x_mask))
    B = frozenset(range(n)) - A - X

    odd_masks = [c for c in _components(g, (1 << n) - 1 & ~x_mask) if c & a_mask]
    for c in odd_masks:
        if c & ~a_mask:
            raise StructureViolation(f"component {bits(c)} straddles the A boundary")
        if c.bit_count() % 2 == 0:
            raise StructureViolation(f"component {bits(c)} inside A has even size")
    odd = tuple(frozenset(bits(c)) for c in odd_masks)

    comp_of = {v: idx for idx, c in enumerate(odd) for v in c}
    x_of: dict[int, int] = {}  # odd component index -> the X vertex matched into it
    for x in sorted(X):
        idx = comp_of.get(match[x])
        if idx is None:
            raise StructureViolation(f"vertex {x} of X is not matched into an odd component")
        if idx in x_of:
            raise StructureViolation(f"vertices {x_of[idx]} and {x} of X are matched "
                                     f"into one odd component")
        x_of[idx] = x

    m = frozenset((v, match[v]) for v in range(n) if match[v] > v)
    m_x = frozenset((min(x, match[x]), max(x, match[x])) for x in X)
    o_x = tuple(sorted(x_of))
    o_prime = tuple(i for i in range(len(odd)) if i not in x_of)
    return GallaiEdmonds(A, X, B, odd, o_x, o_prime, m, m_x)


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color assignment, color indices 0-based contiguous.

    Matching-based colorings have classes of size at most two; the sweep
    greedy baseline returns the same shape without that guarantee.
    """

    assignment: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0


def color_via_complement_matching(inst: Instance) -> Coloring:
    """Proper coloring with classes of size at most two: matched pairs of the
    complement graph plus singletons.  Uses n - nu(complement) colors."""
    g = inst.graph
    require_stability(g)
    partner = list(range(inst.n))  # unmatched vertices are their own partner
    for u, v in max_matching(complement(g)).edges:
        partner[u], partner[v] = v, u
    # colors in the order of each class's lowest vertex
    assignment = [-1] * inst.n
    colors = 0
    for v, w in enumerate(partner):
        if assignment[v] < 0:
            assignment[v] = assignment[w] = colors
            colors += 1
    return Coloring(tuple(assignment))


def sweep_greedy_color(inst: Instance) -> Coloring:
    """Left-to-right greedy coloring; works for any instance.

    Earlier neighbors of each vertex fit in three cliques, which caps the
    color count at 3*omega - 2.
    """
    g = inst.graph
    order = _lex_order(inst.homogeneous)
    assignment = [-1] * inst.n
    for v in order:
        taken = {assignment[u] for u in bits(g.masks[v]) if assignment[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        assignment[v] = c
    return Coloring(tuple(assignment))


# ---------------------------------------------------------------------------
# the counting-argument audit


@dataclass(frozen=True)
class ComponentAudit:
    label: str                      # "R" or "K<i>"
    vertices: tuple[int, ...]
    part_sizes: tuple[int, int, int]   # descending
    matching_size: int


@dataclass(frozen=True)
class AuditCheck:
    name: str
    lhs: int
    rhs: int
    relation: str                   # "<=" or "=="

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs if self.relation == "<=" else self.lhs == self.rhs


@dataclass(frozen=True)
class AuditReport:
    instance_id: str
    clique: tuple[int, ...]         # A, ascending
    m_total: int
    m_r: int
    m_x: int
    num_odd: int
    num_o_x: int
    num_o_prime: int
    components: tuple[ComponentAudit, ...]
    checks: tuple[AuditCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"audit {self.instance_id}"]
        lines.append(" ".join([f"A {len(self.clique)}:", *map(str, self.clique)]))
        lines.append(f"M {self.m_total} M_R {self.m_r} M_X {self.m_x}")
        lines.append(f"O {self.num_odd} O_X {self.num_o_x} O' {self.num_o_prime}")
        for comp in self.components:
            a, b, c = comp.part_sizes
            lines.append(f"component {comp.label}: size={len(comp.vertices)} "
                         f"parts={a},{b},{c} matching={comp.matching_size}")
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(f"check {check.name}: lhs={check.lhs} rhs={check.rhs} {verdict}")
        lines.append(f"result {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _partition_sizes_and_largest(inst: Instance, vertices) -> tuple[tuple[int, int, int], frozenset[int]]:
    """Clique partition of the vertices, sizes descending, plus its largest
    part in global vertex ids; a clique K is its own partition, (|K|, 0, 0),
    as _dispatch's complete cover would make it.  Any other piece is covered
    on the subgraph it induces, which is the unit-distance graph of its
    points, with their triples: neither is rebuilt from coordinates."""
    if _is_clique_mask(inst.graph, mask_of(vertices)):
        return (len(vertices), 0, 0), frozenset(vertices)
    graph, glb = inst.graph.induced(vertices)
    cover, _ = _dispatch(graph, tuple(inst.homogeneous[v] for v in glb))
    ordered = sorted(partition_from_cover(cover).parts, key=lambda p: (-len(p), sorted(p)))
    sizes = tuple(len(p) for p in ordered)
    return sizes, frozenset(glb[v] for v in ordered[0])  # type: ignore[return-value]


def audit_bound(inst: Instance) -> AuditReport:
    """Recompute the full counting argument behind the 3/2 bound and record
    every inequality with exact sides.  The last check is the certificate:
    2(|M|+|O'|), twice the matching coloring's colors, is at most 3|A| for
    the clique A the report lists (the largest parts of the components'
    partitions, stable in H), so colors <= 3/2 omega.

    Every matching count is M's, the decomposition's one maximum matching:
    M_R and M_K are its edges inside R and inside K.  Tutte-Berge proves M
    maximum with no second search: the components O are odd in H - X, so
    2 nu(H) <= n + |X| - |O| = 2|M|.  StructureViolation is raised for M not
    perfect on R or not near-perfect on a K, and for M short of that bound;
    arithmetic checks are recorded with pass flags and never fail on valid
    input.  The stability gate also rules out a triangle in H, which would
    be an independent triple of G.  A clique piece (in practice a single
    vertex: a larger piece holds an edge of H) is its own partition; only
    the other pieces are covered, on the subgraph of G each induces with
    its points' triples, skipping the gate.
    """
    g = inst.graph
    require_stability(g)
    h = complement(g)
    ge = gallai_edmonds(h)
    odd = ge.odd_components
    pieces = (ge.B, *odd)  # R = B, then the odd components, which cover A
    piece_of = {v: idx for idx, piece in enumerate(pieces) for v in piece}  # X is in none
    inside = [0] * len(pieces)  # M's edges inside each piece
    for u, v in ge.M:
        if u in piece_of and piece_of[u] == piece_of.get(v):
            inside[piece_of[u]] += 1

    checks: list[AuditCheck] = []
    components: list[ComponentAudit] = []
    a_union: set[int] = set()
    for idx, piece in enumerate(pieces):
        # M is perfect on R and near-perfect on each K, whose A-bound is 2 lower
        odd_piece = int(idx > 0)
        label = f"K{idx - 1}" if odd_piece else "R"
        m_p = inside[idx]
        if 2 * m_p != len(piece) - odd_piece:
            raise StructureViolation(f"odd component {idx - 1} has no near-perfect matching "
                                     f"avoiding its X-endpoint" if odd_piece
                                     else "the even part has no perfect matching")
        sizes, largest = _partition_sizes_and_largest(inst, piece)
        a_union |= largest
        components.append(ComponentAudit(label, tuple(sorted(piece)), sizes, m_p))
        if odd_piece:
            checks.append(AuditCheck(f"sizeofC[{label}]", sizes[2] + 1, sizes[0], "<="))
        checks.append(AuditCheck(f"2|M_{label}|<=3|A_{label}|" + "-2" * odd_piece,
                                 2 * m_p, 3 * sizes[0] - 2 * odd_piece, "<="))

    m_total = sum(inside) + len(ge.M_X)
    if 2 * m_total != h.n + len(ge.X) - len(odd):
        raise StructureViolation("assembled matching is not maximum")

    checks.append(AuditCheck("|M_X|=|O_X|", len(ge.M_X), len(ge.O_X), "=="))

    a_mask = mask_of(a_union)
    stable_violations = sum((h.masks[u] & a_mask).bit_count() for u in a_union) // 2
    checks.append(AuditCheck("A-union stable in complement", stable_violations, 0, "=="))

    num_o_prime = len(ge.O_prime)
    checks.append(AuditCheck("2(|M|+|O'|)<=3|A|",
                             2 * (m_total + num_o_prime), 3 * len(a_union), "<="))

    return AuditReport(
        instance_id=inst.id,
        clique=tuple(sorted(a_union)),
        m_total=m_total,
        m_r=inside[0],
        m_x=len(ge.M_X),
        num_odd=len(odd),
        num_o_x=len(ge.O_X),
        num_o_prime=num_o_prime,
        components=tuple(components),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# coloring serialization


def coloring_to_text(coloring: Coloring, instance_id: str) -> str:
    lines = [f"coloring {instance_id} {coloring.num_colors}"]
    for v, c in enumerate(coloring.assignment):
        lines.append(f"{v} {c}")
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str) -> tuple[str, Coloring]:
    instance_id, declared, records = read_records(text, "coloring", 0, "v color")
    pairs: dict[int, int] = {}
    for no, (v, color) in records:
        vertex = parse_int(v, no)
        if vertex in pairs:
            raise ParseError(no, f"vertex {vertex} is colored twice")
        pairs[vertex] = parse_int(color, no)
    n = len(pairs)
    if sorted(pairs) != list(range(n)):
        raise ParseError(len(text.splitlines()), "vertex ids are not 0..n-1")
    coloring = Coloring(tuple(pairs[v] for v in range(n)))
    if coloring.num_colors != declared:
        raise ParseError(1, f"header declares {declared} colors, body uses "
                            f"{coloring.num_colors}")
    return instance_id, coloring
