"""The graph builds, core._unit_masks (the integer unit-distance kernel) and
core.instance_graph, against corpora.fraction_masks, a Fraction pair loop
kept in the tests.

The kernel compares DX**2 + DY**2 with (Wi*Wj)**2 on each instance's
homogeneous integers.  Both builds must give the reference's masks on every
corpus below, including pairs at distance exactly 1, where the closed
threshold decides.  The reference stays independent of the library, so the
test keeps its meaning whichever kernel instance_graph runs.
"""

import itertools
import random
from fractions import Fraction

import pytest

from corpora import (acceptance_corpus, circulant_blowups, fraction_masks,
                     lattice_disk_instances, lattice_worlds, mixed_denominator_points)
from udgcolor.core import _unit_masks, build_instance, instance_graph
from udgcolor.geom import Point, sq_dist

# rational points on the unit circle, from Pythagorean triples
_LEGS = [Fraction(a, c) for a, c in ((0, 1), (1, 1), (3, 5), (4, 5), (5, 13), (12, 13),
                                     (8, 17), (15, 17), (20, 29), (21, 29))]
UNIT_STEPS = [(a, b) for a in _LEGS for b in _LEGS if a * a + b * b == 1]


def assert_kernel_matches(inst):
    reference = fraction_masks(inst.points)
    assert _unit_masks(inst.homogeneous) == reference, inst.id
    assert list(instance_graph(inst).masks) == reference, inst.id


def test_kernel_matches_on_acceptance_corpus():
    for inst in acceptance_corpus():
        assert_kernel_matches(inst)


def test_kernel_matches_on_lattice_corpora():
    for inst in lattice_disk_instances():
        assert_kernel_matches(inst)
    for world in lattice_worlds().values():
        for inst in world:
            assert_kernel_matches(inst)


def test_kernel_matches_on_mixed_denominators_and_blowups():
    assert_kernel_matches(build_instance("mixed", mixed_denominator_points()))
    for inst in circulant_blowups():
        assert_kernel_matches(inst)


def unit_pair_points(rng, count):
    """count points with coordinates over mixed denominators, each after the
    first placed at distance exactly 1 from an earlier one, or just inside
    or outside that distance."""
    points = []
    seen = set()
    while len(points) < count:
        if not points:
            d = rng.randrange(1, 400)
            p = Point(Fraction(rng.randrange(-d, d), d), Fraction(rng.randrange(-d, d), d))
        else:
            base = rng.choice(points)
            sx, sy = rng.choice(UNIT_STEPS)
            sx, sy = sx * rng.choice((1, -1)), sy * rng.choice((1, -1))
            scale = rng.choice((1, 1, 1, Fraction(999, 1000), Fraction(1001, 1000),
                                1 - Fraction(1, 10 ** 12), 1 + Fraction(1, 10 ** 12)))
            p = Point(base.x + sx * scale, base.y + sy * scale)
        key = (p.x, p.y)
        if key not in seen:
            seen.add(key)
            points.append(p)
    return points


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_on_random_sets_with_unit_pairs(seed):
    rng = random.Random(seed)
    inst = build_instance(f"unit-pairs-{seed}", unit_pair_points(rng, 12 + 6 * seed))
    exact = sum(sq_dist(p, q) == 1 for p, q in itertools.combinations(inst.points, 2))
    assert exact > 0  # the closed threshold is reached
    assert_kernel_matches(inst)


def test_kernel_on_the_threshold():
    """Distance exactly 1 is an edge; one part in 10**12 more is not."""
    a = Point(Fraction(1, 7), Fraction(-2, 3))
    for (sx, sy), scale, adjacent in [((Fraction(3, 5), Fraction(4, 5)), 1, True),
                                      ((Fraction(3, 5), Fraction(4, 5)), 1 + Fraction(1, 10 ** 12), False),
                                      ((Fraction(-5, 13), Fraction(12, 13)), 1 - Fraction(1, 10 ** 12), True),
                                      ((0, 1), 1, True)]:
        b = Point(a.x + sx * scale, a.y + sy * scale)
        inst = build_instance("edge", [a, b])
        assert _unit_masks(inst.homogeneous) == ([2, 1] if adjacent else [0, 0])
        assert_kernel_matches(inst)


def test_kernel_on_empty_and_single_point_sets():
    assert _unit_masks([]) == []
    assert _unit_masks([(1, 2, 3)]) == [0]
