"""Maximum matching, Gallai-Edmonds structure, and matching-based coloring.

The coloring path is deliberately simple: complement the instance graph,
take any maximum matching, and turn matched pairs plus leftover singletons
into color classes.  The decomposition machinery exists to audit the
counting argument that bounds the number of classes by 3/2 of the clique
number; it is not on the coloring hot path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (AbstractGraph, Instance, complement, instance_graph,
                   is_clique, stability_witness)
from .errors import AuditFailure, StabilityViolated
from .oracles import max_independent_set


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges, each stored as (min, max)."""

    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.edges)


def _augment_search(g: AbstractGraph, match: list[int], root: int,
                    banned: int = -1) -> bool:
    """One alternating-forest search from an exposed root, contracting
    blossoms on the fly; augments match in place when a path is found.

    banned (if >= 0) is treated as deleted from the graph.
    """
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            y = parent[match[y]]

    def mark_path(x: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[x] != stem:
            in_blossom[base[x]] = True
            in_blossom[base[match[x]]] = True
            parent[x] = child
            child = match[x]
            x = parent[match[x]]

    while queue:
        v = queue.popleft()
        for to in sorted(g.neighbors(v)):
            if to == banned or base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
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
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _matching_array(g: AbstractGraph, banned: int = -1) -> list[int]:
    match = [-1] * g.n
    for v in range(g.n):
        if v == banned or match[v] != -1:
            continue
        for u in sorted(g.neighbors(v)):
            if u != banned and match[u] == -1:
                match[v] = u
                match[u] = v
                break
    for v in range(g.n):
        if v != banned and match[v] == -1:
            _augment_search(g, match, v, banned)
    return match


def max_matching(g: AbstractGraph) -> Matching:
    """Maximum-cardinality matching via repeated blossom searches."""
    match = _matching_array(g)
    edges = frozenset((v, match[v]) for v in range(g.n) if match[v] > v)
    return Matching(edges)


@dataclass(frozen=True)
class GallaiEdmonds:
    """Canonical decomposition: A missed by some maximum matching,
    X = N(A) \\ A, B the rest, plus the odd (factor-critical) components of
    G - X and a matching of X into distinct odd components."""

    A: frozenset[int]
    X: frozenset[int]
    B: frozenset[int]
    odd_components: tuple[frozenset[int], ...]
    O_X: tuple[int, ...]        # indices into odd_components matched into X
    O_prime: tuple[int, ...]    # the remaining component indices
    M_X: frozenset[tuple[int, int]]  # concrete x--component edges


def _components(g: AbstractGraph, removed: frozenset[int]) -> list[frozenset[int]]:
    seen: set[int] = set(removed)
    comps: list[frozenset[int]] = []
    for s in range(g.n):
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = {s}
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def gallai_edmonds(g: AbstractGraph) -> GallaiEdmonds:
    """Decomposition computed from the definition: v is in A exactly when
    deleting v does not drop the maximum matching size.

    Each per-vertex test reuses one blossom search: restricted to G - v, the
    base matching loses at most the edge at v, and any augmenting path in
    G - v must end at the freed mate.
    """
    n = g.n
    base_match = _matching_array(g)

    a_set: set[int] = set()
    for v in range(n):
        if base_match[v] == -1:
            a_set.add(v)
            continue
        mate = base_match[v]
        trial = list(base_match)
        trial[v] = -1
        trial[mate] = -1
        if _augment_search(g, trial, mate, banned=v):
            a_set.add(v)

    A = frozenset(a_set)
    X = frozenset(u for a in A for u in g.neighbors(a)) - A
    B = frozenset(range(n)) - A - X

    comps = _components(g, X)
    odd = tuple(c for c in comps if c & A)
    for c in odd:
        if not c <= A:
            raise AuditFailure(f"component {sorted(c)} straddles the A boundary")
        if len(c) % 2 == 0:
            raise AuditFailure(f"component {sorted(c)} inside A has even size")

    comp_of: dict[int, int] = {}
    for idx, c in enumerate(odd):
        for v in c:
            comp_of[v] = idx

    # match X into distinct odd components (guaranteed total by the
    # decomposition's Hall property)
    comp_mate: dict[int, int] = {}
    x_mate: dict[int, int] = {}

    def try_assign(x: int, visited: set[int]) -> bool:
        for idx in sorted({comp_of[w] for w in g.neighbors(x) if w in comp_of}):
            if idx in visited:
                continue
            visited.add(idx)
            if idx not in comp_mate or try_assign(comp_mate[idx], visited):
                comp_mate[idx] = x
                x_mate[x] = idx
                return True
        return False

    for x in sorted(X):
        if not try_assign(x, set()):
            raise AuditFailure(f"vertex {x} of X cannot be matched into an odd component")

    m_x = set()
    for x in sorted(X):
        idx = x_mate[x]
        endpoint = min(w for w in g.neighbors(x) if comp_of.get(w) == idx)
        m_x.add((min(x, endpoint), max(x, endpoint)))

    o_x = tuple(sorted(x_mate.values()))
    o_prime = tuple(i for i in range(len(odd)) if i not in set(o_x))
    return GallaiEdmonds(A, X, B, odd, o_x, o_prime, frozenset(m_x))


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

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_colors)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return out


def _coloring_from_classes(n: int, classes: list[list[int]]) -> Coloring:
    classes = sorted((sorted(cl) for cl in classes if cl), key=lambda cl: cl[0])
    assignment = [-1] * n
    for color, members in enumerate(classes):
        for v in members:
            assignment[v] = color
    return Coloring(tuple(assignment))


def color_via_complement_matching(inst: Instance) -> Coloring:
    """Proper coloring with classes of size at most two: matched pairs of the
    complement graph plus singletons.  Uses n - nu(complement) colors."""
    g = instance_graph(inst)
    witness = stability_witness(g)
    if witness is not None:
        raise StabilityViolated(witness)
    h = complement(g)
    matched = max_matching(h)
    classes = [[u, v] for u, v in sorted(matched.edges)]
    covered = {v for e in matched.edges for v in e}
    classes.extend([v] for v in range(inst.n) if v not in covered)
    return _coloring_from_classes(inst.n, classes)


def sweep_greedy_color(inst: Instance) -> Coloring:
    """Left-to-right greedy coloring; works for any instance.

    Earlier neighbors of each vertex fit in three cliques, which caps the
    color count at 3*omega - 2.
    """
    g = instance_graph(inst)
    pts = inst.points
    order = sorted(range(inst.n), key=lambda v: (pts[v].x, pts[v].y))
    assignment = [-1] * inst.n
    for v in order:
        taken = {assignment[u] for u in g.neighbors(v) if assignment[u] >= 0}
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
    alpha_h: int
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
        lines.append(f"alpha_H {self.alpha_h}")
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


def _sub_instance(inst: Instance, vertices) -> tuple[Instance, tuple[int, ...]]:
    glb = tuple(sorted(vertices))
    sub = Instance(f"{inst.id}/sub", tuple(inst.points[v] for v in glb))
    return sub, glb


def _partition_sizes_and_largest(inst: Instance, vertices) -> tuple[tuple[int, int, int], frozenset[int]]:
    """Clique partition of the induced sub-instance, sizes descending, plus
    the largest part mapped back to global vertex ids."""
    from .cover import cover_three_cliques, partition_from_cover

    sub, glb = _sub_instance(inst, vertices)
    cover, _ = cover_three_cliques(sub)
    partition = partition_from_cover(cover)
    ordered = sorted(partition.parts, key=lambda p: (-len(p), sorted(p)))
    sizes = tuple(len(p) for p in ordered)
    largest_global = frozenset(glb[v] for v in ordered[0])
    return sizes, largest_global  # type: ignore[return-value]


def audit_bound(inst: Instance) -> AuditReport:
    """Recompute the full counting argument behind the 3/2 bound and record
    every inequality with exact両 sides.

    Structural impossibilities (non-perfect matchings where perfect ones are
    guaranteed, unmatched X vertices) raise AuditFailure; arithmetic checks
    are recorded with pass flags and never fail on valid input.
    """
    g = instance_graph(inst)
    witness = stability_witness(g)
    if witness is not None:
        raise StabilityViolated(witness)
    h = complement(g)
    n = inst.n

    for i in range(n):
        ni = h.neighbors(i)
        for j in sorted(ni):
            if j <= i:
                continue
            if ni & h.neighbors(j):
                k = min(ni & h.neighbors(j))
                raise AuditFailure(
                    f"complement contains triangle {(i, j, k)}; stability gate is broken")

    ge = gallai_edmonds(h)
    odd = ge.odd_components
    in_odd = set().union(*odd) if odd else set()
    r_vertices = frozenset(range(n)) - ge.X - in_odd

    checks: list[AuditCheck] = []
    components: list[ComponentAudit] = []
    a_union: set[int] = set()

    sub_r, _ = h.induced(r_vertices)
    m_r = max_matching(sub_r)
    if 2 * m_r.size != len(r_vertices):
        raise AuditFailure("the even part has no perfect matching")

    if r_vertices:
        sizes_r, largest_r = _partition_sizes_and_largest(inst, r_vertices)
        a_union |= largest_r
    else:
        sizes_r = (0, 0, 0)
    components.append(ComponentAudit("R", tuple(sorted(r_vertices)), sizes_r, m_r.size))
    checks.append(AuditCheck("2|M_R|<=3|A_R|", 2 * m_r.size, 3 * sizes_r[0], "<="))

    mates_x = {}
    for x, w in ((a, b) if a in ge.X else (b, a) for a, b in ge.M_X):
        mates_x[x] = w
    matched_endpoints = set(mates_x.values())

    m_k_total = 0
    for idx, comp in enumerate(odd):
        missed = sorted(comp & matched_endpoints)
        if len(missed) > 1:
            raise AuditFailure(f"odd component {idx} touches two X-matching edges")
        if missed:
            sub_k, _ = h.induced(comp - {missed[0]})
        else:
            sub_k, _ = h.induced(comp)
        m_k = max_matching(sub_k)
        expected = (len(comp) - 1) // 2
        if m_k.size != expected:
            raise AuditFailure(
                f"odd component {idx} has no near-perfect matching avoiding its X-endpoint")
        m_k_total += m_k.size

        sizes_k, largest_k = _partition_sizes_and_largest(inst, comp)
        a_union |= largest_k
        components.append(ComponentAudit(f"K{idx}", tuple(sorted(comp)), sizes_k, m_k.size))
        checks.append(AuditCheck(f"sizeofC[K{idx}]", sizes_k[2] + 1, sizes_k[0], "<="))
        checks.append(AuditCheck(f"2|M_K{idx}|<=3|A_K{idx}|-2",
                                 2 * m_k.size, 3 * sizes_k[0] - 2, "<="))

    m_total = m_r.size + len(ge.M_X) + m_k_total
    if m_total != max_matching(h).size:
        raise AuditFailure("assembled matching is not maximum")

    checks.append(AuditCheck("|M_X|=|O_X|", len(ge.M_X), len(ge.O_X), "=="))

    stable_violations = sum(1 for u in a_union for v in a_union
                            if u < v and h.adjacent(u, v))
    checks.append(AuditCheck("A-union stable in complement", stable_violations, 0, "=="))
    if not is_clique(g, a_union):
        raise AuditFailure("largest parts do not assemble into a clique of the instance")

    alpha_h = len(max_independent_set(h))
    num_o_prime = len(ge.O_prime)
    checks.append(AuditCheck("2(|M|+|O'|)<=3alpha(H)",
                             2 * (m_total + num_o_prime), 3 * alpha_h, "<="))

    return AuditReport(
        instance_id=inst.id,
        alpha_h=alpha_h,
        m_total=m_total,
        m_r=m_r.size,
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
    from .errors import ParseError

    lines = text.splitlines()
    if not lines or not lines[0].startswith("coloring "):
        raise ParseError(1, "expected 'coloring <instance-id> <num-colors>' header")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(1, "malformed coloring header")
    instance_id = head[1]
    try:
        declared = int(head[2])
    except ValueError:
        raise ParseError(1, f"bad color count {head[2]!r}") from None
    pairs: dict[int, int] = {}
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        toks = ln.split()
        if len(toks) != 2:
            raise ParseError(no, f"expected 'v color', got {ln!r}")
        try:
            pairs[int(toks[0])] = int(toks[1])
        except ValueError:
            raise ParseError(no, f"bad integers in {ln!r}") from None
    n = len(pairs)
    if sorted(pairs) != list(range(n)):
        raise ParseError(len(lines), "vertex ids are not 0..n-1")
    coloring = Coloring(tuple(pairs[v] for v in range(n)))
    if coloring.num_colors != declared:
        raise ParseError(1, f"header declares {declared} colors, body uses "
                            f"{coloring.num_colors}")
    return instance_id, coloring
