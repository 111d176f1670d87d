"""Seeded instance corpora shared by the differential tests."""

import random
from fractions import Fraction

from udgcolor.core import build_instance
from udgcolor.geom import Point
from udgcolor.instances import gen_circulant, gen_two_cluster


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
