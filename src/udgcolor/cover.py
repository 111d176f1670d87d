"""Constructive three-clique covers for stability-two unit disk instances.

The engine produces three cliques covering the vertex set, two of them
sharing a vertex, and derives from any such cover a clique partition in
which not all parts have the same cardinality.  Dispatch:

  * all points on one line          -> collinear_cover
  * some pair at squared distance   -> far_pair_cover
    at least 3
  * otherwise                       -> disk_case_cover around the exact
                                       smallest-enclosing-disk center

The dispatch tests are exact integer comparisons on the per-point
homogeneous integers the instance computes once (Instance.homogeneous): the
collinearity test is one dot product with the line through the first two
points per point, the far-pair scan and the centre test compare squared
distances against 3 and 1 (geom._sq_dist_sign).  Only the graph build
(core.instance_graph) still takes Fraction distances; see the geom module
docstring for why it waits.

Every branch reads the graph the instance builds once and caches
(Instance.graph); the disk case adds the disk center to it as a universal
vertex instead of rebuilding the graph from coordinates (each old mask
gains the center's bit, the center gets the full mask).  The far-pair
branch and the disk case's non-adjacent consecutive boundary pair share one
construction, _pair_cover.  Otherwise the disk case cuts the hull boundary
of m vertices into three clique arcs with one linear two-pointer scan
(O(m) adjacency-mask tests) and fans the plane from the center into
at most five regions whose hulls are built once; each vertex is located
against the prepared hull edges by exact integer sign tests.

Every constructor re-verifies its output; a failed check raises
StructureViolation, which is unreachable on valid input and therefore
always indicates a bug rather than a data condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (AbstractGraph, BoundaryOrder, Instance, bits,
                   interval_closed, interval_open, is_clique, mask_of,
                   stability_witness)
from .errors import (EmptyInstance, InvalidVertex, ParseError,
                     StabilityViolated, StructureViolation)
from .geom import (OUTSIDE, Homogeneous, Point, PreparedHull, _homogeneous, _line,
                   _sq_dist_sign, hull_decomposition, smallest_enclosing_disk)
from .instances import parse_int, parse_scalar, read_records


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


@dataclass(frozen=True)
class DiskCaseTrace:
    """Everything the bounded-diameter case computed, for diagnosis.

    mode is "nonedge" (two consecutive boundary vertices are non-adjacent;
    the cover is the pair construction shared with far_pair_cover),
    "narrow" (empty middle arc, three-region cover) or "split" (full
    T+/T- redistribution).  Region sets are the priority-assigned, pairwise
    disjoint sets except that b sits in both B+ and B- and the universal
    vertex sits in every region containing it geometrically.
    """

    mode: str
    p_point: Point
    p_virtual: bool
    p_id: int
    b: int | None = None
    b_plus: int | None = None
    b_minus: int | None = None
    r_plus: int | None = None
    r_minus: int | None = None
    nonedge_pair: tuple[int, int] | None = None
    region_b_plus: frozenset[int] = frozenset()
    region_b_minus: frozenset[int] = frozenset()
    region_r: frozenset[int] = frozenset()
    region_t_plus: frozenset[int] = frozenset()
    region_t_minus: frozenset[int] = frozenset()
    split_t_plus_b: frozenset[int] = frozenset()
    split_t_plus_r: frozenset[int] = frozenset()
    split_t_plus_star: frozenset[int] = frozenset()
    split_t_minus_b: frozenset[int] = frozenset()
    split_t_minus_r: frozenset[int] = frozenset()
    split_t_minus_star: frozenset[int] = frozenset()

    @property
    def vertices(self) -> frozenset[int]:
        """Every vertex id the trace names, p_id included."""
        named = {self.p_id, *(self.nonedge_pair or ())}
        named.update(v for _, attr in _TRACE_IDS
                     if (v := getattr(self, attr)) is not None)
        for _, attr in _TRACE_SETS:
            named |= getattr(self, attr)
        return frozenset(named)


def _require_cover(g: AbstractGraph, cover: CliqueCover, where: str) -> None:
    from .oracles import verify_cover

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
    g = inst.graph
    witness = stability_witness(g)
    if witness is not None:
        raise StabilityViolated(witness)

    cover, trace = _dispatch(inst)
    _require_cover(g, cover, "cover_three_cliques")
    return cover, trace


def _dispatch(inst: Instance) -> tuple[CliqueCover, DiskCaseTrace | None]:
    g = inst.graph
    n = inst.n
    everything = frozenset(range(n))

    full = (1 << n) - 1
    if all(m | 1 << v == full for v, m in enumerate(g.masks)):
        return CliqueCover((everything, everything, frozenset()), 0), None
    if n == 2:
        # the single pair is non-adjacent here
        return CliqueCover((frozenset({0}), frozenset({0}), frozenset({1})), 0), None

    h = inst.homogeneous
    if _collinear(h):
        return collinear_cover(inst), None
    far = _far_pair(g, h)
    if far is not None:
        return far_pair_cover(inst, *far), None

    sed = smallest_enclosing_disk(inst.points)
    if sed.radius_sq > 1:
        raise StructureViolation(
            f"enclosing disk radius_sq {sed.radius_sq} exceeds 1 although all "
            f"pairs are closer than sqrt(3)")
    return disk_case_cover(inst, sed.center)


def _collinear(h: Sequence[Homogeneous]) -> bool:
    """All points lie on the line through the first two (distinct) points."""
    lx, ly, lw = _line(h[0], h[1])
    return all(lx * x + ly * y + lw * w == 0 for x, y, w in h[2:])


def _far_pair(g: AbstractGraph, h: Sequence[Homogeneous]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row order, at squared distance at
    least 3; None when there is none.  An adjacent pair has squared distance
    at most 1, so only non-edges are tested."""
    full = (1 << len(h)) - 1
    for i, mi in enumerate(g.masks):
        hi = h[i]
        for j in bits((full >> i + 1 << i + 1) & ~mi):
            if _sq_dist_sign(hi, h[j], 3) >= 0:
                return i, j
    return None


def _outside_unit_disk(center: Point, h: Sequence[Homogeneous]) -> int | None:
    """The first point farther than 1 from center; None when there is none."""
    c = _homogeneous(center)
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


def far_pair_cover(inst: Instance, u: int, v: int) -> CliqueCover:
    """Cover built from a pair at squared distance >= 3.

    The pair construction holds for any non-adjacent pair once stability is
    at most two (see _pair_cover); the far pair is what makes the middle set
    B = (N(u) & N(v)) + u a clique, because the common neighborhood of a far
    pair is one.
    """
    h = inst.homogeneous
    if _sq_dist_sign(h[u], h[v], 3) < 0:
        raise InvalidVertex(f"pair ({u},{v}) is not a far pair")
    return _pair_cover(inst.graph, u, v, "far_pair_cover")


def collinear_cover(inst: Instance) -> CliqueCover:
    """Cover for instances whose points all lie on one line.

    Sorted along the line: A is everything within unit distance of the first
    point (its closed neighbourhood), B the remainder (a clique, else the
    first point would complete an independent triple), C the first point
    alone.
    """
    if inst.n == 0:
        raise EmptyInstance("cannot cover an empty instance")
    g = inst.graph
    pts = inst.points
    first = min(range(inst.n), key=lambda i: (pts[i].x, pts[i].y))
    closed = g.masks[first] | 1 << first
    a = frozenset(bits(closed))
    b = frozenset(bits((1 << inst.n) - 1 & ~closed))
    c = frozenset({first})
    cover = CliqueCover((a, b, c), first)
    _require_cover(g, cover, "collinear_cover")
    return cover


def hollow_pivot(order: BoundaryOrder, g: AbstractGraph, v: int) -> tuple[int, int]:
    """Pivot pair (v-, v+) such that [v-,v], [v,v+] and the rest of the
    boundary are all cliques.

    Greedy construction: extend the clockwise clique prefix from v until the
    first vertex y+ breaks it (v+ is its predecessor), symmetrically y-/v-
    counterclockwise, with the shortcut v- = y+ when y- already lies inside
    [v,v+].  On a complete boundary the successor/predecessor pair is
    returned directly.  disk_case_cover does not use this pair: it needs the
    one with the smallest remainder, which _pivot_pair finds.
    """
    seq = order.sequence
    m = len(seq)
    pos = order.position(v)

    if all(g.adjacent(seq[a], seq[b]) for a in range(m) for b in range(a + 1, m)):
        return order.successor(v), order.predecessor(v)

    prefix = [v]
    idx = pos
    while True:
        nxt = seq[(idx + 1) % m]
        if any(not g.adjacent(nxt, w) for w in prefix):
            y_plus = nxt
            break
        prefix.append(nxt)
        idx += 1
    v_plus = prefix[-1]

    suffix = [v]
    idx = pos
    while True:
        prv = seq[(idx - 1) % m]
        if any(not g.adjacent(prv, w) for w in suffix):
            y_minus = prv
            break
        suffix.append(prv)
        idx -= 1

    v_minus = y_plus if y_minus in prefix else suffix[-1]

    middle = [w for w in seq if w not in set(interval_closed(order, v_minus, v_plus))]
    for part in (interval_closed(order, v_minus, v), interval_closed(order, v, v_plus), middle):
        if not is_clique(g, part):
            raise StructureViolation(
                f"hollow pivot produced a non-clique around vertex {v}; "
                f"only possible when stability exceeds 2")
    return v_minus, v_plus


def _complete_to(g: AbstractGraph, v: int, targets: int) -> bool:
    """v is adjacent to every vertex of the mask targets except itself."""
    return targets & ~g.masks[v] & ~(1 << v) == 0


def _clique_arc_lengths(seq: Sequence[int], g: AbstractGraph) -> list[int]:
    """lengths[i] = number of vertices in the longest clockwise clique arc
    starting at seq[i] (at most len(seq)).

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


def _pivot_pair(order: BoundaryOrder, g: AbstractGraph, b: int) -> tuple[int, int] | None:
    """The (b-, b+) minimizing (remainder size, offset b+, offset b-) among
    the pairs for which [b-,b], [b,b+] and the remaining arc are cliques
    meeting pairwise in at most {b}; None when there is no such pair.

    With offsets taken clockwise from b, b+ sits at offset j and b- at
    offset m-s (mod m), j + s <= m-1, and j = s = 0 only when m = 1.
    [b,b+] is a clique iff j <= J and [b-,b] iff s <= S, where J and S are
    the step lengths of the longest clique arcs from b clockwise and
    counterclockwise.  For a fixed j the largest s leaves the smallest
    remainder, and a smaller s only grows the remainder, which cannot turn
    a non-clique into a clique; so only s = min(S, m-1-j) is tried for each
    j.  Each j then yields one pair, so scanning j upwards and keeping the
    first smallest remainder never needs the b- offset to break a tie.
    """
    seq = order.sequence
    m = len(seq)
    pos_b = order.position(b)
    rot = seq[pos_b:] + seq[:pos_b]
    arc = _clique_arc_lengths(rot, g)
    longest_ccw = 0
    while longest_ccw < m - 1 and arc[m - 1 - longest_ccw] >= longest_ccw + 2:
        longest_ccw += 1
    best = None
    for j in range(arc[0]):
        s = min(longest_ccw, m - 1 - j)
        if j == 0 and s == 0 and m > 1:
            continue
        rest = m - 1 - j - s
        if rest and arc[j + 1] < rest:
            continue
        if best is None or rest < best[0]:
            best = (rest, rot[(m - s) % m], rot[j])
    return None if best is None else best[1:]


def _with_universal(g: AbstractGraph) -> AbstractGraph:
    """g plus one more vertex, numbered g.n, adjacent to every vertex."""
    n = g.n
    return AbstractGraph.from_masks([m | 1 << n for m in g.masks] + [(1 << n) - 1], id=g.id)


def disk_case_cover(inst: Instance, center: Point) -> tuple[CliqueCover, DiskCaseTrace]:
    """Cover for instances contained in a closed unit disk around center.

    The center joins the instance as a universal vertex p (an existing vertex
    is reused when the center coincides with one); every vertex lying within
    unit distance of the center is what makes p universal, so the augmented
    graph is the instance graph (inst.graph) plus p joined to everything.
    If two consecutive boundary vertices u, v are non-adjacent, the whole
    instance lies on one side of the line uv and the pair construction of
    _pair_cover on the instance graph is the cover.  Otherwise the
    boundary of m vertices is cut around a pivot vertex b into the clique
    arcs [b-,b], [b,b+] and a minimal middle arc by one linear scan
    (O(m) adjacency-mask tests, see _pivot_pair), the plane is
    fanned into at most five regions from p, each region's hull is built
    once, and every vertex is located against the prepared hull edges in
    region priority order (O(n * h) exact integer sign tests for h hull
    edges in all).  The two triangular zones are then redistributed by
    completeness tests.
    """
    if inst.n == 0:
        raise EmptyInstance("cannot cover an empty instance")
    g0 = inst.graph
    pts = inst.points
    n0 = inst.n
    outside = _outside_unit_disk(center, inst.homogeneous)
    if outside is not None:
        raise StructureViolation(
            f"vertex {outside} lies outside the unit disk around the given center")

    if center in pts:
        p_id = pts.index(center)
        virtual = False
        apts = pts
        g = g0
    else:
        p_id = n0
        virtual = True
        apts = pts + (center,)
        g = _with_universal(g0)

    hd = hull_decomposition(apts)
    if hd.is_collinear:
        raise StructureViolation("disk case requires a two-dimensional hull")
    order = BoundaryOrder(hd.boundary)
    seq = order.sequence
    m = len(seq)

    p_point = apts[p_id]
    # consecutive boundary vertices must be adjacent, else the one-sided case
    for t in range(m):
        u, w = seq[t], seq[(t + 1) % m]
        if u != w and not g.adjacent(u, w):
            trace = DiskCaseTrace(mode="nonedge", p_point=p_point, p_virtual=virtual,
                                  p_id=p_id, nonedge_pair=(u, w))
            return _pair_cover(g0, u, w, "nonedge cover"), trace

    b = next(w for w in seq if w != p_id)
    pivot = _pivot_pair(order, g, b)
    if pivot is None:
        raise StructureViolation(
            f"no admissible boundary pivot pair at vertex {b}; "
            f"only possible when stability exceeds 2")
    b_minus, b_plus = pivot

    middle = interval_open(order, b_plus, b_minus) if b_plus != b_minus else ()
    if middle:
        r_plus, r_minus = middle[0], middle[-1]
    else:
        r_plus, r_minus = b_minus, b_plus

    def fan_region(ids) -> PreparedHull:
        return PreparedHull([apts[w] for w in ids] + [p_point])

    regions: list[tuple[str, PreparedHull]] = [
        ("B+", fan_region(interval_closed(order, b, b_plus))),
        ("B-", fan_region(interval_closed(order, b_minus, b))),
    ]
    if middle:
        regions.append(("R", fan_region(interval_closed(order, r_plus, r_minus))))
        regions.append(("T+", fan_region([b_plus, r_plus])))
        regions.append(("T-", fan_region([r_minus, b_minus])))
    else:
        regions.append(("T+", fan_region([b_plus, r_plus])))

    assigned: dict[str, set[int]] = {name: set() for name, _ in regions}
    for w in range(len(apts)):
        if w == b:
            assigned["B+"].add(w)
            assigned["B-"].add(w)
            continue
        if w == p_id:
            for name, hull in regions:
                assigned[name].add(w)
            continue
        for name, hull in regions:
            if hull.locate(apts[w]) != OUTSIDE:
                assigned[name].add(w)
                break
        else:
            raise StructureViolation(f"vertex {w} escaped every fan region")

    region_r = frozenset(assigned.get("R", set()))
    region_t_plus = frozenset(assigned["T+"])
    region_t_minus = frozenset(assigned.get("T-", set()))

    if not middle:
        parts = (frozenset(assigned["B+"]), frozenset(assigned["B-"]), region_t_plus)
        splits = {}
        mode = "narrow"
    else:
        b_plus_set = assigned["B+"]
        b_minus_set = assigned["B-"]
        r_mask = mask_of(region_r)
        b_plus_mask = mask_of(b_plus_set)
        b_minus_mask = mask_of(b_minus_set)
        t_plus_b = {t for t in region_t_plus if _complete_to(g, t, b_plus_mask)}
        t_plus_r = {t for t in region_t_plus - t_plus_b if _complete_to(g, t, r_mask)}
        t_plus_star = region_t_plus - t_plus_b - t_plus_r
        t_minus_b = {t for t in region_t_minus if _complete_to(g, t, b_minus_mask)}
        t_minus_r = {t for t in region_t_minus - t_minus_b if _complete_to(g, t, r_mask)}
        t_minus_star = region_t_minus - t_minus_b - t_minus_r
        parts = (
            frozenset(b_plus_set | t_plus_b | t_minus_star),
            frozenset(b_minus_set | t_minus_b | t_plus_star),
            frozenset(region_r | t_plus_r | t_minus_r),
        )
        splits = {
            "split_t_plus_b": frozenset(t_plus_b),
            "split_t_plus_r": frozenset(t_plus_r),
            "split_t_plus_star": frozenset(t_plus_star),
            "split_t_minus_b": frozenset(t_minus_b),
            "split_t_minus_r": frozenset(t_minus_r),
            "split_t_minus_star": frozenset(t_minus_star),
        }
        mode = "split"

    if virtual:
        parts = tuple(part - {p_id} for part in parts)  # type: ignore[assignment]
    cover = CliqueCover(parts, b)
    trace = DiskCaseTrace(
        mode=mode,
        p_point=p_point,
        p_virtual=virtual,
        p_id=p_id,
        b=b,
        b_plus=b_plus,
        b_minus=b_minus,
        r_plus=r_plus,
        r_minus=r_minus,
        region_b_plus=frozenset(assigned["B+"]),
        region_b_minus=frozenset(assigned["B-"]),
        region_r=region_r,
        region_t_plus=region_t_plus,
        region_t_minus=region_t_minus,
        **splits,
    )
    _require_cover(g0, cover, "disk_case_cover")
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
_TRACE_IDS = (("b", "b"), ("b+", "b_plus"), ("b-", "b_minus"),
              ("r+", "r_plus"), ("r-", "r_minus"))
_TRACE_SETS = (
    ("region B+", "region_b_plus"),
    ("region B-", "region_b_minus"),
    ("region R", "region_r"),
    ("region T+", "region_t_plus"),
    ("region T-", "region_t_minus"),
    ("split T+B", "split_t_plus_b"),
    ("split T+R", "split_t_plus_r"),
    ("split T+*", "split_t_plus_star"),
    ("split T-B", "split_t_minus_b"),
    ("split T-R", "split_t_minus_r"),
    ("split T-*", "split_t_minus_star"),
)


def trace_to_text(trace: DiskCaseTrace, instance_id: str) -> str:
    lines = [f"trace {instance_id}", f"mode {trace.mode}"]
    lines.append(f"p {trace.p_point.x} {trace.p_point.y} "
                 f"virtual={int(trace.p_virtual)} id={trace.p_id}")
    for label, attr in _TRACE_IDS:
        value = getattr(trace, attr)
        if value is not None:
            lines.append(f"{label} {value}")
    if trace.nonedge_pair is not None:
        lines.append(f"nonedge {trace.nonedge_pair[0]} {trace.nonedge_pair[1]}")
    for label, attr in _TRACE_SETS:
        members = " ".join(str(v) for v in sorted(getattr(trace, attr)))
        lines.append(f"{label}: {members}".rstrip())
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> tuple[str, DiskCaseTrace]:
    instance_id, _, records = read_records(text, "trace")
    fields: dict = {}
    set_by_label = {f"{label}:": attr for label, attr in _TRACE_SETS}
    scalar_by_label = dict(_TRACE_IDS)
    kinds_read: set[str] = set()
    for no, toks in records:
        set_label = " ".join(toks[:2])
        kind = set_label if set_label in set_by_label else toks[0]
        if kind in kinds_read:
            raise ParseError(no, f"second {kind!r} line")
        kinds_read.add(kind)
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
        elif set_label in set_by_label:
            fields[set_by_label[set_label]] = frozenset(parse_int(tok, no) for tok in toks[2:])
        elif toks[0] in scalar_by_label and len(toks) == 2:
            fields[scalar_by_label[toks[0]]] = parse_int(toks[1], no)
        else:
            raise ParseError(no, f"unrecognized trace line {' '.join(toks)!r}")
    for key in ("mode", "p_point", "p_virtual", "p_id"):
        if key not in fields:
            raise ParseError(records[-1][0] if records else 1, f"trace block is missing {key}")
    return instance_id, DiskCaseTrace(**fields)
