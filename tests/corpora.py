"""Seeded instance corpora shared by the differential tests."""

import random
from fractions import Fraction

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


def acceptance_corpus():
    """The instances of tests/test_acceptance.py's corpus."""
    yield from (gen_circulant(3 * k - 1, k) for k in (2, 3, 4, 5, 6))
    separations = ("1", "3/4", "1/2", "1/4")
    for i in range(200):
        yield gen_two_cluster(4 + i % 37, seed=i, separation=separations[i % 4])


def benchmark_toy_instances(seed):
    """The benchmark's toy instances (perfbench/run.py make_instances with
    toy=True), rebuilt here so the tests do not import the benchmark."""
    for workload in ("far_pair", "disk"):
        rng = random.Random(f"{workload}:{seed}")
        separations = ("7/10", "1/2", "1/4") if workload == "disk" else (1,)
        for i, n in enumerate((10, 14, 18)):
            yield gen_two_cluster(n, rng.randrange(2 ** 31), separations[i % len(separations)])
    rng = random.Random(f"circulant:{seed}")
    for k in (4, 5, 6):
        base = gen_circulant(3 * k - 1, k)
        order = list(range(base.n))
        rng.shuffle(order)
        yield build_instance(f"{base.id}-shuffled", [base.points[v] for v in order])


def lattice_disk_instances(count=400, seed=14):
    """Stability-two instances on the lattice (1/q)Z^2 inside the closed unit
    disk around the origin: q in 2..6 and 4 to 14 points, rejection-sampled.
    They reach the disk case's nonedge, narrow and split modes."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        q = rng.randrange(2, 7)
        cells = [(x, y) for x in range(-q, q + 1) for y in range(-q, q + 1)
                 if x * x + y * y <= q * q]
        chosen = rng.sample(cells, min(rng.randrange(4, 15), len(cells)))
        inst = build_instance(f"lattice-{made}-q{q}",
                              [Point(Fraction(x, q), Fraction(y, q)) for x, y in chosen])
        if stability_witness(inst.graph) is None:
            made += 1
            yield inst


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


def lattice_worlds():
    """The two exhaustive worlds of the tests: (1/2)Z^2 inside the closed unit
    disk (13 points) and (1/2)Z^2 inside [0,2]x[0,1] (15 points)."""
    disk = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if x * x + y * y <= 4]
    strip = [(x, y) for x in range(5) for y in range(3)]
    return {"disk": list(lattice_world("disk", 2, disk)),
            "strip": list(lattice_world("strip", 2, strip))}


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


def _blowup(base, k, sizes):
    """base = C(n, k) with vertex v replaced by sizes[v] points at x-offsets
    j/10^15, checked exactly against the abstract blow-up."""
    ring = circulant_graph(base.n, k)
    cluster = [v for v in range(base.n) for _ in range(sizes[v])]
    inst = build_instance(f"blowup-{base.n}-{k}-{''.join(map(str, sizes))}",
                          [Point(base.points[v].x + Fraction(j, 10 ** 15), base.points[v].y)
                           for v in range(base.n) for j in range(sizes[v])])
    expected = AbstractGraph(len(cluster), [
        (a, b) for a in range(len(cluster)) for b in range(a + 1, len(cluster))
        if cluster[a] == cluster[b] or ring.adjacent(cluster[a], cluster[b])])
    assert inst.graph == expected, inst.id
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
