"""Instance generators for the benchmark families, plus text file I/O.

Generators are pure functions of their parameters (and seed); the circulant
family is placed on a circle and then verified against the intended abstract
adjacency with exact arithmetic, so a bad rounding can never slip through as
a silently different graph.  That check builds the unit-distance graph with
``core._unit_masks`` on the instance's homogeneous integers, with no
Fraction, and stores the graph it checked as the instance's graph; every
other instance graph is built on first use by ``core.instance_graph``, which
still compares Fraction distances.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from pathlib import Path

from .core import AbstractGraph, Instance, _unit_masks, build_instance
from .errors import EmptyInstance, NotRealizable, ParseError, SnapFailure
from .geom import Homogeneous, Point, _homogeneous

_CIRC_DENOM = 10 ** 12
_CLUSTER_DENOM = 10 ** 9
# keep sampled points strictly inside the radius-1/2 disks so that snapping
# to the rational grid cannot push an intra-cluster pair past distance 1
_CLUSTER_MARGIN = 1e-6


def circulant_graph(n: int, k: int) -> AbstractGraph:
    """Abstract circulant: i ~ j iff circular index distance <= k-1."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if min(j - i, n - (j - i)) <= k - 1]
    return AbstractGraph(n, edges, id=f"circulant-{n}-{k}")


def _snap(value: float, denom: int) -> Fraction:
    return Fraction(round(value * denom), denom)


def gen_circulant(n: int, k: int) -> Instance:
    """Circulant instance on a circle whose radius separates the chord
    lengths at index distances k-1 and k across the unit threshold.

    The realized exact adjacency is compared against the abstract relation;
    any mismatch raises SnapFailure instead of returning a wrong graph.  The
    returned instance carries the graph it was checked with.
    """
    if n < 3 or k < 2 or k > n:
        raise ValueError(f"circulant requires n >= 3 and 2 <= k <= n, got ({n},{k})")
    dmax = n // 2
    if k - 1 >= dmax:
        radius = 0.25  # complete graph: any circle of diameter <= 1 works
    else:
        radius = 1.0 / (2.0 * math.sin(math.pi * (k - 0.5) / n))
        chord_in = 2.0 * radius * math.sin(math.pi * (k - 1) / n)
        chord_out = 2.0 * radius * math.sin(math.pi * k / n)
        if not chord_in <= 1.0 < chord_out:
            raise NotRealizable(f"no radius places C_{n}^{k} on a circle")
        margin = min(1.0 - chord_in ** 2, chord_out ** 2 - 1.0)
        if margin <= 16.0 * radius / _CIRC_DENOM:
            raise SnapFailure(
                f"rounding margin too small for C_{n}^{k}; increase precision")

    points = []
    for i in range(n):
        theta = 2.0 * math.pi * i / n
        points.append(Point(_snap(radius * math.cos(theta), _CIRC_DENOM),
                            _snap(radius * math.sin(theta), _CIRC_DENOM)))
    inst = build_instance(f"circulant-{n}-{k}", points)

    realized = AbstractGraph.from_masks(_unit_masks(inst.homogeneous), id=inst.id)
    differ = _first_difference(realized, circulant_graph(n, k))
    if differ is not None:
        i, j = differ
        raise SnapFailure(
            f"rounded placement of C_{n}^{k} changes adjacency of ({i},{j})")
    vars(inst)["graph"] = realized  # the value the cached property would compute
    return inst


def _first_difference(g: AbstractGraph, h: AbstractGraph) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row order, adjacent in exactly one of
    two graphs on the same vertices; None when they are equal.  Adjacency is
    symmetric, so row i needs only its bits above i."""
    for i, (a, b) in enumerate(zip(g.masks, h.masks)):
        above = (a ^ b) >> i + 1
        if above:
            return i, i + (above & -above).bit_length()
    return None


def gen_cs(k: int) -> AbstractGraph:
    """Four k-cliques a, b, c, d with the fixed cross rules.

    For i != j: a_i~b_j, a_i~d_j, b_i~c_j, c_i~d_j; for every i: a_i~c_i and
    b_i~d_i.  All other cross pairs are non-adjacent.  Abstract only; no
    planar realization is attempted.
    """
    if k < 1:
        raise ValueError(f"cs gadget requires k >= 1, got {k}")

    def a(i): return i
    def b(i): return k + i
    def c(i): return 2 * k + i
    def d(i): return 3 * k + i

    edges: list[tuple[int, int]] = []
    for block in (a, b, c, d):
        edges.extend((block(i), block(j)) for i in range(k) for j in range(i + 1, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                edges.append((a(i), b(j)))
                edges.append((a(i), d(j)))
                edges.append((b(i), c(j)))
                edges.append((c(i), d(j)))
        edges.append((a(i), c(i)))
        edges.append((b(i), d(i)))
    return AbstractGraph(4 * k, edges, id=f"cs-{k}")


def gen_two_cluster(n: int, seed: int, separation: int | str | Fraction = 1) -> Instance:
    """n points sampled in two radius-1/2 disks whose centers sit separation
    apart; each disk induces a clique, so stability is at most 2 by
    construction.  Fully deterministic for a fixed (n, seed, separation).

    The separation is read from its str() by parse_scalar: an int, a
    Fraction, or a string integer or "num/den".  Anything else, floats,
    bools, decimals and exponents included, raises ValueError."""
    if n < 1:
        raise ValueError(f"two_cluster requires n >= 1, got {n}")
    try:
        sep = parse_scalar(str(separation), 1)
    except ParseError:
        raise ValueError(f"separation must be an integer or num/den, "
                         f"got {separation!r}") from None
    if not 0 < sep <= 1:
        raise ValueError(f"separation must be in (0, 1], got {sep}")
    rng = random.Random(seed)
    # each centre's x as (numerator, denominator); both centres have y = 0
    centers = ((0, 1), (sep.numerator, sep.denominator))
    radius = 0.5 - _CLUSTER_MARGIN

    points: list[Point] = []
    taken: set[Homogeneous] = set()
    for _ in range(n):
        while True:
            cnum, cden = centers[rng.randrange(2)]
            r = radius * math.sqrt(rng.random())
            theta = 2.0 * math.pi * rng.random()
            # the centre plus the offset snapped to 1/_CLUSTER_DENOM, as one
            # numerator over one denominator
            dx = round(r * math.cos(theta) * _CLUSTER_DENOM)
            p = Point(Fraction(cnum * _CLUSTER_DENOM + dx * cden, cden * _CLUSTER_DENOM),
                      _snap(r * math.sin(theta), _CLUSTER_DENOM))
            key = _homogeneous(p)
            if key not in taken:
                taken.add(key)
                points.append(p)
                break
    sep_tag = f"{sep.numerator}x{sep.denominator}"
    return build_instance(f"twocluster-{n}-{seed}-{sep_tag}", points)


# ---------------------------------------------------------------------------
# text formats (bit-exact round trip)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INT = re.compile(r"[0-9]+")


def parse_int(token: str, line_no: int) -> int:
    """A token of ASCII digits as an int, else ParseError.

    int() alone would also take a sign, '_' separators, surrounding
    whitespace and non-ASCII digits.
    """
    if _INT.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise ParseError(line_no, f"bad integer {token!r}, expected digits 0-9")


def parse_scalar(token: str, line_no: int) -> Fraction:
    """An integer or "num/den" token as an exact rational, else ParseError.

    This is exactly what str(Fraction) writes.  Fraction's own grammar also
    takes decimals and exponents, and computes 10**exp before any check; the
    integers matched here are handed to Fraction as they are.
    """
    match = _RATIONAL.fullmatch(token)
    if match:
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):  # zero denominator, digit limit
            pass
    raise ParseError(line_no, f"bad rational {token!r}, expected an integer or num/den")


def read_records(text: str, keyword: str, least: int | None = None,
                 shape: str | None = None) -> tuple[str, int | None, list[tuple[int, list[str]]]]:
    """The id, the count and the records of an artifact, else ParseError.

    The header is '<keyword> <id>', or '<keyword> <id> <count>' with a count
    of at least `least` when least is given (the count is None otherwise).
    Each non-blank line after it is one record, (line number, tokens); when
    shape is given, e.g. 'u v', every record has as many tokens as it has.
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    form = f"{keyword} <id>" if least is None else f"{keyword} <id> <count>"
    if len(head) != len(form.split()) or head[0] != keyword:
        raise ParseError(1, f"expected '{form}' header")
    count = None
    if least is not None:
        count = parse_int(head[2], 1)
        if count < least:
            raise ParseError(1, f"header count must be >= {least}, got {count}")
    records = []
    for no, ln in enumerate(lines[1:], start=2):
        toks = ln.split()
        if not toks:
            continue
        if shape is not None and len(toks) != len(shape.split()):
            raise ParseError(no, f"expected '{shape}', got {ln!r}")
        records.append((no, toks))
    return head[1], count, records


def instance_to_text(inst: Instance) -> str:
    if inst.n == 0:
        raise EmptyInstance("an instance file needs at least one point")
    lines = [f"udg {inst.id} {inst.n}"]
    for p in inst.points:
        lines.append(f"{p.x} {p.y}")
    return "\n".join(lines) + "\n"


def instance_from_text(text: str) -> Instance:
    inst_id, n, records = read_records(text, "udg", 1, "x y")
    points = [Point(parse_scalar(x, no), parse_scalar(y, no)) for no, (x, y) in records]
    if len(points) != n:
        raise ParseError(1, f"header promises {n} points, found {len(points)}")
    return build_instance(inst_id, points)


def write_instance(path: str | Path, inst: Instance) -> None:
    Path(path).write_text(instance_to_text(inst), newline="\n")


def read_instance(path: str | Path) -> Instance:
    return instance_from_text(Path(path).read_text())


def graph_to_text(g: AbstractGraph) -> str:
    if g.n == 0:
        raise EmptyInstance("a graph file needs at least one vertex")
    lines = [f"graph {g.id or 'anon'} {g.n}"]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _graph_edges(text: str) -> tuple[str, int, list[tuple[int, int]]]:
    """The id, vertex count and edges of a graph file, else ParseError."""
    graph_id, n, records = read_records(text, "graph", 1, "u v")
    edges: list[tuple[int, int]] = []
    for no, (a, b) in records:
        u, v = parse_int(a, no), parse_int(b, no)
        if u >= n or v >= n or u == v:
            raise ParseError(no, f"edge '{u} {v}' is a self-loop or out of range for n={n}")
        edges.append((u, v))
    return graph_id, n, edges  # type: ignore[return-value]


def graph_from_text(text: str) -> AbstractGraph:
    graph_id, n, edges = _graph_edges(text)
    return AbstractGraph(n, edges, id=graph_id)


def write_graph(path: str | Path, g: AbstractGraph) -> None:
    Path(path).write_text(graph_to_text(g), newline="\n")


def read_graph(path: str | Path) -> AbstractGraph:
    return graph_from_text(Path(path).read_text())
