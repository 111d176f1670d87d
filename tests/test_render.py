"""The SVG renderer's output, pinned byte for byte."""

import hashlib
from dataclasses import replace

import pytest

from corpora import mixed_denominator_points
from udgcolor.core import build_instance
from udgcolor.cover import cover_three_cliques
from udgcolor.errors import ParseError
from udgcolor.instances import gen_circulant, gen_two_cluster
from udgcolor.matching import Coloring, color_via_complement_matching, sweep_greedy_color
from udgcolor.render import render_svg

# SHA-256 of render_svg(inst, coloring, trace) with the matching coloring and
# the cover's trace, recorded before the disk-case trace became one label
# table.  The instances are those of test_cover.GOLDEN_COVERS (split, far-pair
# and nonedge) plus a narrow-mode two-cluster of tests/corpora.py's
# acceptance corpus.
GOLDEN_SVGS = {
    "circulant-35-12": ("split",
                        "15f43d70ff01699b631ebe7cbde1239b471e7431b533e9b657aa016faffae847"),
    "circulant-59-20": ("split",
                        "d63963b5ece1e9bea003ca8a83bb3a326932739f8b735a16bef4e2b1a11709eb"),
    "twocluster-80-3-1x2": ("split",
                            "4e02dedab2b39512ba017d97a498caf0b1a1f56664add89c2e6110955f18a38c"),
    "twocluster-30-0-1x1": (None,
                            "f0ba27af179b7e0c7e18f5a7e05c49776d03b4fba9d451c2d93f8ef387cbad73"),
    "twocluster-30-3-3x4": ("nonedge",
                            "b0cff35922a7c1ab5f771c2082286d620f76b9578d972baf86694e7ab2ddb3db"),
    "twocluster-19-15-1x4": ("narrow",
                             "80dd5952ad71ee1b1c47ea56e4af159af423bda6e774d983cda3a3633086d424"),
}


@pytest.mark.parametrize("inst", [gen_circulant(35, 12), gen_circulant(59, 20),
                                  gen_two_cluster(80, seed=3, separation="1/2"),
                                  gen_two_cluster(30, seed=0, separation=1),
                                  gen_two_cluster(30, seed=3, separation="3/4"),
                                  gen_two_cluster(19, seed=15, separation="1/4")],
                         ids=lambda inst: inst.id)
def test_svg_matches_golden_hash(inst):
    trace = cover_three_cliques(inst)[1]
    svg = render_svg(inst, color_via_complement_matching(inst), trace)
    mode = None if trace is None else trace.mode
    assert (mode, hashlib.sha256(svg.encode()).hexdigest()) == GOLDEN_SVGS[inst.id]


def test_svg_of_mixed_denominators_matches_golden_hash():
    """Coordinates over 240 distinct 20-bit prime denominators, drawn with
    the sweep-greedy coloring; the hash was recorded while the renderer
    still converted Fraction coordinates to floats."""
    inst = build_instance("mixed", mixed_denominator_points())
    svg = render_svg(inst, sweep_greedy_color(inst))
    assert (hashlib.sha256(svg.encode()).hexdigest()
            == "b106c40c19efdd0092cda3cc1c7eadf20a870846a4135ed9108ecf2b3c5af274")


def _misfits():
    """(coloring, trace, message) that do not fit gen_circulant(8, 3), whose
    split trace has a virtual p as vertex 8."""
    inst = gen_circulant(8, 3)
    trace = cover_three_cliques(inst)[1]
    beyond = replace(trace, sets={**trace.sets,
                                  "region B+": trace.sets["region B+"] | {inst.n + 1}})
    at_vertex = replace(trace, p_point=inst.points[0])
    return [(Coloring((0, 1)), None, r"^line 1: coloring does not match instance size$"),
            (None, beyond, r"^line 1: trace names vertex 9, outside 0\.\.8$"),
            (None, at_vertex, r"^line 1: a virtual trace p must be vertex 8, "
                              r"at no instance point$")]


@pytest.mark.parametrize("coloring,trace,message", _misfits(),
                         ids=["short-coloring", "vertex-beyond-n", "virtual-p-at-a-point"])
def test_render_svg_refuses_artifacts_that_do_not_fit_the_instance(coloring, trace, message):
    with pytest.raises(ParseError, match=message):
        render_svg(gen_circulant(8, 3), coloring, trace)
