"""Seeded instance corpora shared by the differential tests."""

import functools
import math
import random
from fractions import Fraction
from types import MappingProxyType

from udgcolor.core import (AbstractGraph, bits, build_instance, mask_of,
                           stability_witness)
from udgcolor.geom import CCW, COLLINEAR, CW, Point, _homogeneous, cross
from udgcolor.instances import circulant_graph, gen_circulant, gen_two_cluster


def homogeneous(points):
    """Each point as the integers (X, Y, W) that geom's hull and enclosing
    disk take; an instance has these as Instance.homogeneous."""
    return [_homogeneous(p) for p in points]


def reference_orientation(a: Point, b: Point, c: Point) -> int:
    """The sign of the Fraction cross product: the reference for every
    orientation test, independent of geom's integer line kernel."""
    v = cross(a, b, c)
    return CCW if v > 0 else CW if v < 0 else COLLINEAR


def fraction_masks(points):
    """The unit-distance masks of points by exact Fraction distances, one
    pair at a time: the reference for every graph build."""
    masks = [0] * len(points)
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            dx, dy = p.x - points[j].x, p.y - points[j].y
            if dx * dx + dy * dy <= 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def mixed_denominator_points():
    """120 points whose 240 coordinates have distinct 20-bit prime denominators."""
    rng = random.Random(20)
    primes: set[int] = set()
    while len(primes) < 240:
        c = rng.randrange(1 << 19, 1 << 20) | 1
        if all(c % d for d in range(3, int(c ** 0.5) + 1, 2)):
            primes.add(c)
    dens = sorted(primes)
    return [Point(Fraction(rng.randrange(-dens[2 * i], dens[2 * i]), dens[2 * i]),
                  Fraction(rng.randrange(-dens[2 * i + 1], dens[2 * i + 1]), dens[2 * i + 1]))
            for i in range(120)]


@functools.cache
def acceptance_corpus():
    """The instances of tests/test_acceptance.py's corpus.  Built once per
    session, like lattice_disk_instances, so a test that counts graph
    builds makes its own instances."""
    separations = ("1", "3/4", "1/2", "1/4")
    return (*(gen_circulant(3 * k - 1, k) for k in (2, 3, 4, 5, 6)),
            *(gen_two_cluster(4 + i % 37, seed=i, separation=separations[i % 4])
              for i in range(200)))


def benchmark_toy_instances(seed):
    """The benchmark's toy instances (perfbench/run.py make_instances with
    toy=True), rebuilt here so the tests do not import the benchmark."""
    for workload in ("far_pair", "disk"):
        rng = random.Random(f"{workload}:{seed}")
        separations = ("7/10", "1/2", "1/4") if workload == "disk" else (1,)
        for i, n in enumerate((10, 14, 18)):
            yield gen_two_cluster(n, rng.randrange(2 ** 31), separations[i % len(separations)])
    for base, points in _shuffled_circulants(seed, (4, 5, 6), 1):
        yield build_instance(f"{base.id}-shuffled", points)


def benchmark_circulants(seed):
    """The benchmark's full-size circulant instances (perfbench/run.py
    make_instances for the circulant workload): four shuffles each of
    C(3k-1, k) for k = 12, 16 and 20, rebuilt here so the tests do not
    import the benchmark."""
    for i, (base, points) in enumerate(_shuffled_circulants(seed, (12, 16, 20), 4)):
        yield build_instance(f"{base.id}-shuffled-{seed}-{i}", points)


def _shuffled_circulants(seed, ks, copies):
    """(C(3k-1, k), its points in a seeded order) for each k, copies times,
    in the benchmark's order of random draws."""
    rng = random.Random(f"circulant:{seed}")
    for k in ks:
        base = gen_circulant(3 * k - 1, k)
        for _ in range(copies):
            order = list(range(base.n))
            rng.shuffle(order)
            yield base, [base.points[v] for v in order]


@functools.cache
def lattice_disk_instances(count=400, seed=14):
    """Stability-two instances on the lattice (1/q)Z^2 inside the closed unit
    disk around the origin: q in 2..6 and 4 to 14 points, rejection-sampled.
    They reach the disk case's nonedge, narrow and split modes.  Built once
    per session; each instance carries its graph, so a test that counts graph
    builds makes its own instances."""
    rng = random.Random(seed)
    made = []
    while len(made) < count:
        q = rng.randrange(2, 7)
        cells = [(x, y) for x in range(-q, q + 1) for y in range(-q, q + 1)
                 if x * x + y * y <= q * q]
        chosen = rng.sample(cells, min(rng.randrange(4, 15), len(cells)))
        inst = build_instance(f"lattice-{len(made)}-q{q}",
                              [Point(Fraction(x, q), Fraction(y, q)) for x, y in chosen])
        if stability_witness(inst.graph) is None:
            made.append(inst)
    return tuple(made)


# the 8 symmetries of the square lattice, (a, b, c, d): (x, y) -> (ax + by, cx + dy)
_SQUARE_SYMMETRIES = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
                      (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))


def _canonical_image(cells):
    """The lex-least sorted image of a set of lattice cells under the 8
    square-lattice symmetries, translated to touch both axes from above."""
    best = None
    for a, b, c, d in _SQUARE_SYMMETRIES:
        image = [(a * x + b * y, c * x + d * y) for x, y in cells]
        dx = min(x for x, _ in image)
        dy = min(y for _, y in image)
        image = tuple(sorted((x - dx, y - dy) for x, y in image))
        if best is None or image < best:
            best = image
    return best


def lattice_world(name, q, cells):
    """Every non-empty stability-two subset of the lattice points cells (integer
    pairs read as (x/q, y/q)), one instance per class under the 8
    square-lattice symmetries and translation, at its canonical image and in
    canonical order.

    Sets grow in index order.  Stability two is hereditary, so a set with an
    independent triple is pruned with all its supersets; `blocked` holds the
    vertices that complete an independent triple with a non-adjacent pair of
    the set, so only triples through the new point are ever checked, with one
    mask test."""
    n = len(cells)
    far = [mask_of(j for j, (x2, y2) in enumerate(cells) if (x - x2) ** 2 + (y - y2) ** 2 > q * q)
           for x, y in cells]
    classes = set()

    def grow(last, chosen, blocked):
        classes.add(_canonical_image([cells[v] for v in bits(chosen)]))
        for j in range(last + 1, n):
            if blocked >> j & 1:
                continue
            grown = blocked
            for a in bits(chosen & far[j]):
                grown |= far[a] & far[j]
            grow(j, chosen | 1 << j, grown)

    for first in range(n):
        grow(first, 1 << first, 0)
    for i, image in enumerate(sorted(classes)):
        yield build_instance(f"world-{name}-{i}",
                             [Point(Fraction(x, q), Fraction(y, q)) for x, y in image])


@functools.cache
def lattice_worlds():
    """The two exhaustive worlds of the tests: (1/2)Z^2 inside the closed unit
    disk (13 points) and (1/2)Z^2 inside [0,2]x[0,1] (15 points).  Built once
    per session, like lattice_disk_instances, as a read-only mapping."""
    disk = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if x * x + y * y <= 4]
    strip = [(x, y) for x in range(5) for y in range(3)]
    return MappingProxyType({"disk": tuple(lattice_world("disk", 2, disk)),
                             "strip": tuple(lattice_world("strip", 2, strip))})


def explicit_centre_cases(count=200, seed=15):
    """(instance, centre) pairs for disk_case_cover called with an explicit
    centre: lattice points of (1/q)Z^2 strictly right of the centre and within
    distance 1 of it, so the centre is the first hull vertex.  q in 2..6 and
    3 to 12 points, rejection-sampled to stability two and to a hull that
    is not a segment."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        q = rng.randrange(2, 7)
        cx, cy = Fraction(rng.randrange(-q, q + 1), q), Fraction(rng.randrange(-q, q + 1), q)
        cells = [(x, y) for x in range(1, q + 1) for y in range(-q, q + 1)
                 if x * x + y * y <= q * q]
        chosen = rng.sample(cells, min(rng.randrange(3, 13), len(cells)))
        if all(y * chosen[0][0] == x * chosen[0][1] for x, y in chosen):
            continue  # every point on one line through the centre
        inst = build_instance(f"centre-{made}-q{q}",
                              [Point(cx + Fraction(x, q), cy + Fraction(y, q)) for x, y in chosen])
        if stability_witness(inst.graph) is None:
            made += 1
            yield inst, Point(cx, cy)


def blowup_graph(n, k, sizes):
    """The abstract blow-up of C(n, k) with vertex v a clique of sizes[v]
    vertices, numbered cluster by cluster: two vertices are adjacent exactly
    when they share a cluster or their clusters are circulant-adjacent."""
    ring = circulant_graph(n, k)
    cluster = [v for v in range(n) for _ in range(sizes[v])]
    return AbstractGraph(len(cluster), [
        (a, b) for a in range(len(cluster)) for b in range(a + 1, len(cluster))
        if cluster[a] == cluster[b] or ring.adjacent(cluster[a], cluster[b])])


def _blowup(base, k, sizes):
    """base = C(n, k) with vertex v replaced by sizes[v] points at x-offsets
    j/10^15, checked exactly against the abstract blow-up."""
    inst = build_instance(f"blowup-{base.n}-{k}-{''.join(map(str, sizes))}",
                          [Point(base.points[v].x + Fraction(j, 10 ** 15), base.points[v].y)
                           for v in range(base.n) for j in range(sizes[v])])
    assert inst.graph == blowup_graph(base.n, k, sizes), inst.id
    assert stability_witness(inst.graph) is None, inst.id
    return inst


def circulant_blowups(seed=16):
    """C(3k-1, k) from gen_circulant with vertex v blown up into a cluster of
    t_v points: k = 2..6, once with every t_v = t for t = 1..3 and once with
    t_v seeded in 1..t, not all equal, for t = 2, 3 (25 instances).  Two
    points are adjacent exactly when they share a cluster or their clusters
    are circulant-adjacent, and stability stays two; _blowup checks both."""
    rng = random.Random(seed)
    for k in range(2, 7):
        base = gen_circulant(3 * k - 1, k)
        for t in (1, 2, 3):
            yield _blowup(base, k, [t] * base.n)
            if t > 1:
                sizes = [t] * base.n
                while len(set(sizes)) == 1:
                    sizes = [rng.randint(1, t) for _ in range(base.n)]
                yield _blowup(base, k, sizes)


@functools.cache
def perturbed_blowups(seed=17):
    """(instance, sizes) pairs: C(3k-1, k) from gen_circulant with vertex v
    blown up into sizes[v] points, sizes[v] seeded in 1..4, at distinct
    seeded offsets within r of the circulant point, ten instances for each
    k = 2..9 (n = 11..79).  r = 1/ceil(1/r0) <= r0, where r0 is one eighth
    of the pair margin min |d^2 - 1| over the circulant's point pairs, so no
    pair crosses the unit distance: fraction_masks of the points is checked
    to equal the abstract blow-up.  The offsets are multiples of r/64 in
    both axes.  Built once per session, like lattice_disk_instances."""
    rng = random.Random(seed)
    made = []
    grid = [(a, b) for a in range(-64, 65) for b in range(-64, 65) if a * a + b * b <= 64 * 64]
    for k in range(2, 10):
        base = gen_circulant(3 * k - 1, k)
        pts = base.points
        margin = min(abs((p.x - q.x) ** 2 + (p.y - q.y) ** 2 - 1)
                     for i, p in enumerate(pts) for q in pts[i + 1:])
        step = Fraction(1, 64 * math.ceil(8 / margin))  # r / 64
        for i in range(10):
            sizes = [rng.randint(1, 4) for _ in range(base.n)]
            points = [Point(pts[v].x + a * step, pts[v].y + b * step)
                      for v in range(base.n) for a, b in rng.sample(grid, sizes[v])]
            inst = build_instance(f"perturbed-{base.n}-{k}-{i}", points)
            assert fraction_masks(points) == list(blowup_graph(base.n, k, sizes).masks), inst.id
            made.append((inst, tuple(sizes)))
    return tuple(made)
