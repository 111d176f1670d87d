"""Constructive three-clique covers for stability-two unit disk instances.

The engine produces three cliques covering the vertex set, two of them
sharing a vertex, and derives from any such cover a clique partition in
which not all parts have the same cardinality.  Dispatch:

  * all points on one line          -> collinear_cover
  * some pair at squared distance   -> far_pair_cover (no pair is tested
    at least 3                         when the bounding box's squared
                                       diagonal is below 3: there is none)
  * otherwise                       -> disk_case_cover around the exact
                                       smallest-enclosing-disk center

Each point is converted once, by build_instance, to the homogeneous
integers the instance stores (Instance.homogeneous); the disk case converts
only the disk centre, once.  Everything geometric reads these integers:
the dispatch tests (the collinearity test is one dot product with the line
through the first two points per point, the far-pair scan, behind its
bounding-box test, and the centre test compare squared distances against 3
and 1 with geom._sq_dist_sign),
the enclosing disk (geom.smallest_enclosing_disk), the collinear cover's
first point (geom._lex_order), and the disk case's hull
(geom.hull_decomposition) and fan location (geom.PreparedHull).  Only the
graph build (core.instance_graph) still takes Fraction distances; see the
geom module docstring for why it waits.

_dispatch and the three constructors take a graph and the homogeneous
triples of its points, the only parts of an instance they read:
cover_three_cliques passes the graph the instance builds once and caches
(Instance.graph), and the audit passes the subgraph a piece induces with
that piece's triples.  The disk case adds the disk center to the graph as a
universal vertex instead of rebuilding it from coordinates (each old mask
gains the center's bit, the center gets the full mask).  The disk case
scans its hull boundary of m vertices once for clique arc lengths (O(m)
adjacency-mask tests): an arc of length one is a non-adjacent consecutive
pair, covered by _pair_cover as in the far-pair branch; otherwise the
lengths alone give the pivot pair, and the three clique arcs are slices of
the boundary.  The plane is then fanned from the center into the regions
B+, B-, R, T+ and T-, each non-empty region's hull is read off its slice
of the boundary walk in one linear pass with no sort (_fan_hull), and each
vertex is located against the prepared hull edges by exact integer sign
tests, a vertex on a region's boundary arc only against the hulls ahead of
that region; one helper splits both triangles T+ and T-.

The disk case's labels are one table (REGIONS, PIVOTS, SET_LABELS), read by
disk_case_cover, the trace text writer and reader, and render.  Its trace,
DiskCaseTrace, holds two maps keyed by that table: pivots (label -> boundary
vertex) and sets (label -> vertex set).

Each cover is checked once, by the constructor that builds it (_pair_cover,
collinear_cover, disk_case_cover); a failed check raises StructureViolation
naming it, which is unreachable on valid input and therefore always
indicates a bug rather than a data condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (AbstractGraph, CliqueCover, CliquePartition, Instance, _boundary_position,
                   _is_clique_mask, bits, mask_of, require_stability)
from .errors import EmptyInstance, InvalidVertex, ParseError, StructureViolation
from .geom import (CW, OUTSIDE, Homogeneous, Point, PreparedHull, _homogeneous, _lex_order,
                   _line, _orientation, _sq_dist_sign, hull_decomposition, smallest_enclosing_disk)
from .instances import parse_int, parse_scalar, read_records
from .oracles import verify_cover


# The fan regions around p in location priority order, the boundary pivots,
# and the trace's vertex sets: each region, then T+ and T- split into the
# vertices complete to their B region (B), to R (R), and the rest (*).
REGIONS = ("B+", "B-", "R", "T+", "T-")
PIVOTS = ("b", "b+", "b-", "r+", "r-")
SET_LABELS = (*(f"region {name}" for name in REGIONS),
              *(f"split {zone}{part}" for zone in ("T+", "T-") for part in "BR*"))


@dataclass(frozen=True)
class DiskCaseTrace:
    """Everything the bounded-diameter case computed, for diagnosis.

    mode is "nonedge" (two consecutive boundary vertices are non-adjacent;
    the cover is the pair construction shared with far_pair_cover),
    "narrow" (empty middle arc, three-region cover) or "split" (full
    T+/T- redistribution).  pivots maps each PIVOTS label to its boundary
    vertex; it is empty in the nonedge mode, the only one with a
    nonedge_pair.  sets maps every SET_LABELS label to its vertex set (all
    empty in the nonedge mode).  Region sets are the priority-assigned,
    pairwise disjoint sets except that b sits in both B+ and B- and the
    universal vertex sits in every region containing it geometrically.
    """

    mode: str
    p_point: Point
    p_virtual: bool
    p_id: int
    pivots: dict[str, int]
    nonedge_pair: tuple[int, int] | None
    sets: dict[str, frozenset[int]]

    @property
    def vertices(self) -> frozenset[int]:
        """Every vertex id the trace names, p_id included."""
        named = {self.p_id, *(self.nonedge_pair or ()), *self.pivots.values()}
        return frozenset(named.union(*self.sets.values()))


def _require_cover(g: AbstractGraph, cover: CliqueCover, where: str) -> None:
    bad = verify_cover(g, cover)
    if bad is not None:
        raise StructureViolation(f"{where}: {bad.message}")


def cover_three_cliques(inst: Instance) -> tuple[CliqueCover, DiskCaseTrace | None]:
    """Three cliques covering V(G), two sharing a vertex.

    Requires stability at most two; the gate is checked here and violations
    raise StabilityViolated with the offending triple.
    """
    if inst.n == 0:
        raise EmptyInstance("cannot cover an empty instance")
    require_stability(inst.graph)
    return _dispatch(inst.graph, inst.homogeneous)


def _dispatch(g: AbstractGraph,
              h: tuple[Homogeneous, ...]) -> tuple[CliqueCover, DiskCaseTrace | None]:
    """The cover of the graph g of the points with triples h, by the first
    branch that applies; g is not empty and has stability at most two."""
    n = g.n
    everything = frozenset(range(n))

    if _is_clique_mask(g, (1 << n) - 1):
        return CliqueCover((everything, everything, frozenset()), 0), None
    if n == 2:
        # the single pair is non-adjacent here
        return CliqueCover((frozenset({0}), frozenset({0}), frozenset({1})), 0), None

    if _collinear(h):
        return collinear_cover(g, h), None
    far = _far_pair(g, h)
    if far is not None:
        return far_pair_cover(g, h, *far), None

    # all pairs are closer than sqrt(3), so by Jung's theorem the radius is
    # below 1; disk_case_cover checks that every point lies in the disk
    return disk_case_cover(g, h, smallest_enclosing_disk(h).center)


def _collinear(h: Sequence[Homogeneous]) -> bool:
    """All points lie on the line through the first two (distinct) points."""
    lx, ly, lw = _line(h[0], h[1])
    return all(lx * x + ly * y + lw * w == 0 for x, y, w in h[2:])


def _far_pair(g: AbstractGraph, h: Sequence[Homogeneous]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row order, at squared distance at
    least 3; None when there is none.  An adjacent pair has squared distance
    at most 1, so only non-edges are tested.

    No pair is farther apart than the diagonal of the points' exact bounding
    box, so when that diagonal is below sqrt(3) the answer is None and the
    pairs are not scanned.  The box's sides are the least and greatest X/W
    and Y/W, found by cross-multiplied comparison."""
    left = right = low = high = h[0]
    for p in h:
        x, y, w = p
        if x * left[2] < left[0] * w:
            left = p
        elif x * right[2] > right[0] * w:
            right = p
        if y * low[2] < low[1] * w:
            low = p
        elif y * high[2] > high[1] * w:
            high = p
    wx = left[2] * right[2]
    wy = low[2] * high[2]
    dx = (right[0] * left[2] - left[0] * right[2]) * wy
    dy = (high[1] * low[2] - low[1] * high[2]) * wx
    if dx * dx + dy * dy < 3 * (wx * wy) ** 2:
        return None
    full = (1 << len(h)) - 1
    for i, mi in enumerate(g.masks):
        hi = h[i]
        for j in bits((full >> i + 1 << i + 1) & ~mi):
            if _sq_dist_sign(hi, h[j], 3) >= 0:
                return i, j
    return None


def _outside_unit_disk(c: Homogeneous, h: Sequence[Homogeneous]) -> int | None:
    """The first point farther than 1 from c; None when there is none."""
    return next((i for i, p in enumerate(h) if _sq_dist_sign(c, p, 1) > 0), None)


def _pair_cover(g: AbstractGraph, u: int, v: int, where: str) -> CliqueCover:
    """(N(u)\\N(v)) + u, (N(u) & N(v)) + u and (N(v)\\N(u)) + v for a
    non-adjacent pair u, v, with u shared.

    With stability at most two every other vertex is adjacent to u or to v,
    so the three sets cover V, and a non-adjacent pair inside the first or
    the last would extend to an independent triple.  The caller's geometry
    is what makes the middle set a clique.
    """
    mu = g.masks[u]
    mv = g.masks[v]
    cover = CliqueCover((frozenset(bits(mu & ~mv | 1 << u)),
                         frozenset(bits(mu & mv | 1 << u)),
                         frozenset(bits(mv & ~mu | 1 << v))), u)
    _require_cover(g, cover, where)
    return cover


def far_pair_cover(g: AbstractGraph, h: Sequence[Homogeneous], u: int, v: int) -> CliqueCover:
    """Cover built from a pair at squared distance >= 3.

    The pair construction holds for any non-adjacent pair once stability is
    at most two (see _pair_cover); the far pair is what makes the middle set
    B = (N(u) & N(v)) + u a clique, because the common neighborhood of a far
    pair is one.
    """
    if _sq_dist_sign(h[u], h[v], 3) < 0:
        raise InvalidVertex(f"pair ({u},{v}) is not a far pair")
    return _pair_cover(g, u, v, "far_pair_cover")


def collinear_cover(g: AbstractGraph, h: Sequence[Homogeneous]) -> CliqueCover:
    """Cover for instances whose points all lie on one line.

    Sorted along the line: A is everything within unit distance of the first
    point (its closed neighbourhood), B the remainder (a clique, else the
    first point would complete an independent triple), C the first point
    alone.
    """
    if g.n == 0:
        raise EmptyInstance("cannot cover an empty instance")
    first = _lex_order(h)[0]
    closed = g.masks[first] | 1 << first
    a = frozenset(bits(closed))
    b = frozenset(bits((1 << g.n) - 1 & ~closed))
    c = frozenset({first})
    cover = CliqueCover((a, b, c), first)
    _require_cover(g, cover, "collinear_cover")
    return cover


def hollow_pivot(boundary: Sequence[int], g: AbstractGraph, v: int) -> tuple[int, int]:
    """Pivot pair (v-, v+) such that [v-,v], [v,v+] and the rest of the
    circular boundary order are all cliques.

    It reads the same clique arc lengths as _pivot_pair, on the boundary
    rotated to start at v: v+ ends the longest clockwise clique arc from v
    (J vertices) and v- the longest counterclockwise one (S steps), except
    that v- is the vertex after v+ when that arc reaches into [v,v+]
    (S >= m - J), which leaves the rest empty.  Both arcs are then cliques,
    and the rest is one exactly when the arc length at its first vertex
    spans it.  On a complete boundary the successor/predecessor pair is
    returned directly.  disk_case_cover does not use this pair: it needs
    the one with the smallest remainder, which _pivot_pair finds.
    """
    pos = _boundary_position(boundary, v)
    rot = [*boundary[pos:], *boundary[:pos]]
    m = len(rot)
    arc = _clique_arc_lengths(rot, g)
    cw = arc[0]  # [v,v+] = rot[:cw]
    if cw == m:
        return rot[1 % m], rot[-1]
    k = max(cw, m - _ccw_steps(arc))  # [v-,v] = rot[k:] + [v], within the ccw arc
    if arc[cw] < k - cw:  # the rest, rot[cw:k], is no clique arc
        raise StructureViolation(
            f"hollow pivot produced a non-clique around vertex {v}; "
            f"only possible when stability exceeds 2")
    return rot[k % m], rot[cw - 1]


def _split_triangle(g: AbstractGraph, zone: frozenset[int], own_mask: int,
                    r_mask: int) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """A triangle zone T+ or T- split into the vertices that its own B region
    (mask own_mask) stays a clique with, the rest that R stays a clique
    with, and the remainder."""
    to_b = frozenset(t for t in zone if _is_clique_mask(g, own_mask | 1 << t))
    to_r = frozenset(t for t in zone - to_b if _is_clique_mask(g, r_mask | 1 << t))
    return to_b, to_r, zone - to_b - to_r


def _clique_arc_lengths(seq: Sequence[int], g: AbstractGraph) -> list[int]:
    """lengths[i] = number of vertices in the longest clockwise clique arc
    starting at seq[i] (at most len(seq)); for len(seq) >= 2, lengths[i] == 1
    exactly when seq[i] and its successor are non-adjacent.

    Two-pointer: a clique arc minus its first vertex is still a clique, so
    the arc end never moves back, and each step either extends the arc or
    advances its start.  The arc is kept as a vertex mask, so each step is
    one mask test against the next vertex's adjacency: O(m) mask operations.
    """
    masks = g.masks
    m = len(seq)
    lengths = [0] * m
    end = 0
    arc = 0  # mask of seq[i..end-1]
    for i in range(m):
        if end == i:
            arc = 1 << seq[i]
            end += 1
        while end - i < m:
            w = seq[end % m]
            if arc & ~masks[w]:
                break
            arc |= 1 << w
            end += 1
        lengths[i] = end - i
        arc &= ~(1 << seq[i])
    return lengths


def _ccw_steps(arc: Sequence[int]) -> int:
    """The steps S of the longest counterclockwise clique arc from rot[0],
    read off arc = _clique_arc_lengths(rot, g); at most len(arc) - 1."""
    steps = 0
    while steps < len(arc) - 1 and arc[-1 - steps] >= steps + 2:
        steps += 1
    return steps


def _pivot_pair(arc: Sequence[int]) -> tuple[int, int] | None:
    """Offsets (j, s) of the pivot pair b+ = rot[j], b- = rot[-s % m] around
    b = rot[0], read off arc = _clique_arc_lengths(rot, g) alone: the pair
    minimizing (remainder size, offset b+, offset b-) among those for which
    [b-,b], [b,b+] and the remaining arc are cliques meeting pairwise in at
    most {b}; None when there is none.  j + s <= m-1 for m = len(arc), and
    j = s = 0 only when m = 1.

    [b,b+] is a clique iff j <= J and [b-,b] iff s <= S, where J and S are
    the step lengths of the longest clique arcs from b clockwise and
    counterclockwise.  For a fixed j the largest s leaves the smallest
    remainder, and a smaller s only grows the remainder, which cannot turn
    a non-clique into a clique; so only s = min(S, m-1-j) is tried for each
    j.  Each j then yields one pair, so scanning j upwards and keeping the
    first smallest remainder never needs the b- offset to break a tie.
    """
    m = len(arc)
    longest_ccw = _ccw_steps(arc)
    best = None
    for j in range(arc[0]):
        s = min(longest_ccw, m - 1 - j)
        if j == 0 and s == 0 and m > 1:
            continue
        rest = m - 1 - j - s
        if rest and arc[j + 1] < rest:
            continue
        if best is None or rest < best[0]:
            best = (rest, j, s)
    return None if best is None else best[1:]


def _with_universal(g: AbstractGraph) -> AbstractGraph:
    """g plus one more vertex, numbered g.n, adjacent to every vertex."""
    n = g.n
    return AbstractGraph.from_masks([m | 1 << n for m in g.masks] + [(1 << n) - 1], id=g.id)


def _fan_hull(arc: list[Homogeneous], c: Homogeneous) -> PreparedHull:
    """The hull of p (triple c) and its arc, a slice of the counterclockwise
    boundary walk: p is left of or on each walk step, so the ring p, arc turns
    right at most at p, which then lies inside the arc's hull and is dropped."""
    keep_p = c not in arc and _orientation(arc[-1], c, arc[0]) != CW
    return PreparedHull.from_ring([c, *arc] if keep_p else arc)


def disk_case_cover(g: AbstractGraph, h: tuple[Homogeneous, ...],
                    center: Point) -> tuple[CliqueCover, DiskCaseTrace]:
    """Cover for instances contained in a closed unit disk around center.

    g is the unit-distance graph of the points whose homogeneous triples are
    h, a tuple.  The center joins them as a universal vertex p (an existing
    vertex is reused when the center coincides with one); every vertex lying
    within unit distance of the center is what makes p universal, so the
    augmented graph is g plus p joined to everything.  The center is
    converted to homogeneous integers once; the hull and the fan read h plus
    that triple.  The boundary of m vertices, rotated to start at b (its
    first vertex other than p), is scanned once for clique arc lengths (O(m)
    adjacency-mask tests).  An arc of length one marks consecutive
    non-adjacent boundary vertices u, v: every point lies on one side of the
    line uv and _pair_cover on g is the cover.  Otherwise the lengths give
    the pivot pair (_pivot_pair), whose arcs [b-,b], [b,b+] and minimal
    middle arc R are slices of the rotated boundary.  One table fans the
    plane from p into B+, B-, R, T+ and T-, in location priority order (R
    and T- are empty in the narrow mode, where the middle arc is).  Each
    region's hull is p plus its slice of the rotated boundary, read off in
    one linear pass with no sort (_fan_hull).  p joins every non-empty
    region and b both B regions; every other vertex goes to the first
    region whose prepared hull does not leave it OUTSIDE (O(n * e)
    exact integer sign tests for e hull edges in all); a vertex on a
    region's arc is a point of its hull, so only the hulls ahead of that
    region are tried.  In the split mode _split_triangle then divides T+ and
    T- by completeness to their B region or to R.
    """
    if g.n == 0:
        raise EmptyInstance("cannot cover an empty instance")
    c = _homogeneous(center)
    outside = _outside_unit_disk(c, h)
    if outside is not None:
        raise StructureViolation(
            f"vertex {outside} lies outside the unit disk around the given center")

    virtual = c not in h  # equal points have equal triples
    p_id = g.n if virtual else h.index(c)
    gp = _with_universal(g) if virtual else g  # g plus p
    h = h + (c,) if virtual else h

    hd = hull_decomposition(h)
    if hd.is_collinear:
        raise StructureViolation("disk case requires a two-dimensional hull")
    # the boundary from b, its first vertex other than p
    start = 1 if hd.boundary[0] == p_id else 0
    rot = hd.boundary[start:] + hd.boundary[:start]
    b, m = rot[0], len(rot)
    arc = _clique_arc_lengths(rot, gp)

    # consecutive boundary vertices must be adjacent, else the one-sided case
    gap = next((t for t in range(m) if arc[t] == 1), None)
    if gap is not None:
        u, w = rot[gap], rot[(gap + 1) % m]
        trace = DiskCaseTrace("nonedge", center, virtual, p_id, {}, (u, w),
                              dict.fromkeys(SET_LABELS, frozenset()))
        return _pair_cover(g, u, w, "nonedge cover"), trace

    pivot = _pivot_pair(arc)
    if pivot is None:
        raise StructureViolation(
            f"no admissible boundary pivot pair at vertex {b}; "
            f"only possible when stability exceeds 2")
    j, s = pivot
    arc_plus = rot[:j + 1]
    arc_minus = rot[m - s:] + rot[:1]
    middle = rot[j + 1:m - s]
    b_plus, b_minus = arc_plus[-1], arc_minus[0]
    r_plus, r_minus = (middle[0], middle[-1]) if middle else (b_minus, b_plus)

    # the fan's boundary vertices per region; T- is empty when R is
    regions = dict(zip(REGIONS, (arc_plus, arc_minus, middle, (b_plus, r_plus),
                                 (r_minus, b_minus) if middle else ())))
    hulls = [(name, _fan_hull([h[w] for w in ids], c)) for name, ids in regions.items() if ids]
    # p is a vertex of every region's hull; b is in both of its arcs
    assigned = {name: {p_id} if ids else set() for name, ids in regions.items()}
    assigned["B+"].add(b)
    assigned["B-"].add(b)
    # an arc vertex is a point of its first region's hull, so only the hulls ahead need a test
    own = {w: t for t in reversed(range(len(hulls))) for w in regions[hulls[t][0]]}
    for w in range(len(h)):
        if w == b or w == p_id:
            continue
        t = own.get(w)
        name = next((name for name, hull in hulls[:t] if hull.locate(h[w]) != OUTSIDE),
                    None if t is None else hulls[t][0])
        if name is None:
            raise StructureViolation(f"vertex {w} escaped every fan region")
        assigned[name].add(w)
    region = {name: frozenset(ws) for name, ws in assigned.items()}

    if middle:
        mode = "split"
        r_mask = mask_of(region["R"])
        plus = _split_triangle(gp, region["T+"], mask_of(region["B+"]), r_mask)
        minus = _split_triangle(gp, region["T-"], mask_of(region["B-"]), r_mask)
        parts = (region["B+"] | plus[0] | minus[2],
                 region["B-"] | minus[0] | plus[2],
                 region["R"] | plus[1] | minus[1])
    else:
        mode = "narrow"
        plus = minus = (frozenset(),) * 3
        parts = (region["B+"], region["B-"], region["T+"])

    if virtual:
        parts = tuple(part - {p_id} for part in parts)  # type: ignore[assignment]
    cover = CliqueCover(parts, b)
    trace = DiskCaseTrace(mode, center, virtual, p_id,
                          dict(zip(PIVOTS, (b, b_plus, b_minus, r_plus, r_minus))), None,
                          dict(zip(SET_LABELS, (*region.values(), *plus, *minus))))
    _require_cover(g, cover, "disk_case_cover")
    return cover, trace


def partition_from_cover(cover: CliqueCover) -> CliquePartition:
    """Disjointify a cover into a partition with two distinct part sizes.

    The shared vertex stays in the larger of its containing cliques (ties by
    lower index); every other multiply-covered vertex goes to its lowest-index
    clique.  Each part remains a clique as a subset of one.
    """
    universe = set().union(*cover.cliques)
    if not universe:
        raise EmptyInstance("cannot partition an empty cover")
    cliques = cover.cliques
    shared = cover.shared_vertex
    keeper = None
    if shared is not None:
        containing = [i for i in range(3) if shared in cliques[i]]
        keeper = max(containing, key=lambda i: (len(cliques[i]), -i))

    parts: list[set[int]] = [set(), set(), set()]
    for w in sorted(universe):
        if w == shared:
            parts[keeper].add(w)  # type: ignore[index]
        else:
            parts[min(i for i in range(3) if w in cliques[i])].add(w)

    sizes = [len(p) for p in parts]
    if len(set(sizes)) == 1:
        raise StructureViolation(
            f"disjointification produced three equal parts of size {sizes[0]}")
    return CliquePartition(tuple(frozenset(p) for p in parts))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# text serialization


def cover_to_text(cover: CliqueCover, instance_id: str) -> str:
    lines = [f"cover {instance_id}"]
    for i, part in enumerate(cover.cliques):
        body = " ".join(str(v) for v in sorted(part))
        lines.append(f"clique {i}: {body}".rstrip())
    shared = "-" if cover.shared_vertex is None else str(cover.shared_vertex)
    lines.append(f"shared: {shared}")
    return "\n".join(lines) + "\n"


def cover_from_text(text: str) -> tuple[str, CliqueCover]:
    instance_id, _, records = read_records(text, "cover")
    if len(records) != 4:
        raise ParseError(records[-1][0] if records else 1,
                         "cover block needs 3 clique lines and a shared line")
    cliques = []
    for i, (no, toks) in enumerate(records[:3]):
        if toks[:2] != ["clique", f"{i}:"]:
            raise ParseError(no, f"expected 'clique {i}: ...'")
        cliques.append(frozenset(parse_int(tok, no) for tok in toks[2:]))
    no, toks = records[3]
    if len(toks) != 2 or toks[0] != "shared:":
        raise ParseError(no, "expected 'shared: <v>'")
    shared = None if toks[1] == "-" else parse_int(toks[1], no)
    return instance_id, CliqueCover((cliques[0], cliques[1], cliques[2]), shared)


_TRACE_MODES = ("nonedge", "narrow", "split")


def trace_to_text(trace: DiskCaseTrace, instance_id: str) -> str:
    lines = [f"trace {instance_id}", f"mode {trace.mode}"]
    lines.append(f"p {trace.p_point.x} {trace.p_point.y} "
                 f"virtual={int(trace.p_virtual)} id={trace.p_id}")
    lines += [f"{label} {trace.pivots[label]}" for label in PIVOTS if label in trace.pivots]
    if trace.nonedge_pair is not None:
        lines.append(f"nonedge {trace.nonedge_pair[0]} {trace.nonedge_pair[1]}")
    for label in SET_LABELS:
        members = " ".join(str(v) for v in sorted(trace.sets[label]))
        lines.append(f"{label}: {members}".rstrip())
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> tuple[str, DiskCaseTrace]:
    instance_id, _, records = read_records(text, "trace")
    fields: dict = {"nonedge_pair": None}
    pivots: dict[str, int] = {}
    sets = dict.fromkeys(SET_LABELS, frozenset())
    kinds_read: dict[str, int] = {}  # kind of line -> its line number
    for no, toks in records:
        head = " ".join(toks[:2])
        set_label = head[:-1] if head.endswith(":") and head[:-1] in sets else None
        kind = head if set_label else toks[0]
        if kind in kinds_read:
            raise ParseError(no, f"second {kind!r} line")
        kinds_read[kind] = no
        if toks[0] == "mode" and len(toks) == 2:
            if toks[1] not in _TRACE_MODES:
                raise ParseError(no, f"unknown mode {toks[1]!r}, expected "
                                     f"{', '.join(_TRACE_MODES)}")
            fields["mode"] = toks[1]
        elif (toks[0] == "p" and len(toks) == 5
              and toks[3] in ("virtual=0", "virtual=1") and toks[4].startswith("id=")):
            fields["p_point"] = Point(parse_scalar(toks[1], no), parse_scalar(toks[2], no))
            fields["p_virtual"] = toks[3] == "virtual=1"
            fields["p_id"] = parse_int(toks[4][3:], no)
        elif toks[0] == "nonedge" and len(toks) == 3:
            fields["nonedge_pair"] = (parse_int(toks[1], no), parse_int(toks[2], no))
        elif set_label:
            sets[set_label] = frozenset(parse_int(tok, no) for tok in toks[2:])
        elif toks[0] in PIVOTS and len(toks) == 2:
            pivots[toks[0]] = parse_int(toks[1], no)
        else:
            raise ParseError(no, f"unrecognized trace line {' '.join(toks)!r}")
    last = records[-1][0] if records else 1
    for key in ("mode", "p_point", "p_virtual", "p_id"):
        if key not in fields:
            raise ParseError(last, f"trace block is missing {key}")
    mode = fields["mode"]
    wanted, unwanted = (("nonedge",), PIVOTS) if mode == "nonedge" else (PIVOTS, ("nonedge",))
    for kind in unwanted:
        if kind in kinds_read:
            raise ParseError(kinds_read[kind], f"a {mode} trace has no {kind!r} line")
    for kind in wanted:
        if kind not in kinds_read:
            raise ParseError(last, f"a {mode} trace needs a {kind!r} line")
    for label in SET_LABELS:
        if mode == "nonedge" and sets[label]:
            raise ParseError(kinds_read[f"{label}:"],
                             f"a nonedge trace has an empty {label!r} line")
    return instance_id, DiskCaseTrace(pivots=pivots, sets=sets, **fields)
