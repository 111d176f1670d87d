"""Exhaustive lattice worlds: every stability-two configuration of a small
patch of (1/2)Z^2, one per class under the square lattice's symmetries and
translation, checked against the brute oracles.

The worlds hold the degenerate cases seeded samples rarely reach:
cocircular, collinear and on-edge points, at distance exactly 1.
"""

import hashlib
from collections import Counter

import pytest

from corpora import lattice_worlds
from udgcolor.cover import cover_three_cliques, cover_to_text, trace_to_text
from udgcolor.matching import audit_bound, color_via_complement_matching
from udgcolor.oracles import brute_chi, brute_cover_exists, brute_omega, verify_cover

# classes per world by cover branch: the disk case's trace mode, else "other"
WORLD_CLASSES = {
    "disk": {"nonedge": 102, "split": 71, "narrow": 9, "other": 66},     # 13 points, 248
    "strip": {"nonedge": 99, "split": 72, "narrow": 9, "other": 557},    # 15 points, 737
}

# SHA-256 over the cover, trace and audit texts of both worlds, disk first,
# recorded before the audit stopped covering single-vertex pieces.
GOLDEN_WORLDS = "1493f463af43c84e0d64c92bc8d368e36a65eda923f1323cefb62609d5edfa46"


@pytest.fixture(scope="module")
def worlds():
    return lattice_worlds()


def test_world_class_counts_and_texts_match_one_golden_hash(worlds):
    digest = hashlib.sha256()
    for name, instances in worlds.items():
        modes = Counter()
        for inst in instances:
            cover, trace = cover_three_cliques(inst)
            modes["other" if trace is None else trace.mode] += 1
            digest.update(cover_to_text(cover, inst.id).encode())
            if trace is not None:
                digest.update(trace_to_text(trace, inst.id).encode())
            digest.update(audit_bound(inst).to_text().encode())
        assert modes == WORLD_CLASSES[name], name
    assert digest.hexdigest() == GOLDEN_WORLDS


@pytest.mark.parametrize("name", sorted(WORLD_CLASSES))
def test_every_world_class_agrees_with_the_brute_oracles(worlds, name):
    for inst in worlds[name]:
        g = inst.graph
        cover, _ = cover_three_cliques(inst)
        assert verify_cover(g, cover) is None, inst.id
        colors = color_via_complement_matching(inst).num_colors
        assert colors == brute_chi(g), inst.id
        assert brute_cover_exists(g, shared=True) is not None, inst.id
        assert audit_bound(inst).all_pass, inst.id
        assert 2 * colors <= 3 * brute_omega(g), inst.id
