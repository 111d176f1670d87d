"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.

The corpus is the five circulant lower-bound instances (k = 2..6) plus 200
seeded two-cluster instances with 4 <= n <= 40.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from corpora import homogeneous
from udgcolor.core import instance_graph, stability_witness
from udgcolor.cover import cover_three_cliques, partition_from_cover
from udgcolor.geom import (OUTSIDE, Point, point_in_hull, segments_cross,
                           smallest_enclosing_disk, sq_dist)
from udgcolor.instances import gen_circulant, gen_cs, gen_two_cluster
from udgcolor.matching import (audit_bound, color_via_complement_matching,
                               sweep_greedy_color)
from udgcolor.oracles import (OracleLimits, brute_chi,
                              brute_clique_cover_number, brute_cover_exists,
                              brute_omega, brute_stats, check_k16_free,
                              check_nbhprop, verify_cover, verify_coloring)

CIRCULANT_KS = (2, 3, 4, 5, 6)
TWO_CLUSTER_COUNT = 200
SEPARATIONS = ("1", "3/4", "1/2", "1/4")
DEFAULT_AO_LIMIT = 30          # the stock alpha/omega oracle limit


def _passline(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS — {detail}")


@pytest.fixture(scope="module")
def corpus():
    instances = [gen_circulant(3 * k - 1, k) for k in CIRCULANT_KS]
    for i in range(TWO_CLUSTER_COUNT):
        n = 4 + i % 37
        instances.append(gen_two_cluster(n, seed=i, separation=SEPARATIONS[i % 4]))
    return instances


@pytest.fixture(scope="module")
def corpus_data(corpus):
    """Per-instance graph, matching coloring, greedy coloring, exact omega."""
    data = {}
    for inst in corpus:
        g = instance_graph(inst)
        assert stability_witness(g) is None
        data[inst.id] = {
            "inst": inst,
            "graph": g,
            "coloring": color_via_complement_matching(inst),
            "greedy": sweep_greedy_color(inst),
            "omega": brute_omega(g),
        }
    return data


@pytest.fixture(scope="module")
def audits(corpus):
    return {inst.id: audit_bound(inst) for inst in corpus}


def test_criterion_1_lower_bound_family():
    start = time.perf_counter()
    for k in CIRCULANT_KS:
        inst = gen_circulant(3 * k - 1, k)
        stats = brute_stats(instance_graph(inst))
        assert stats.alpha == 2, (k, stats)
        assert stats.omega == k, (k, stats)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passline(1, "lower-bound family",
              f"alpha=2 and omega=k for k=2..6 in {elapsed:.2f}s")


def test_criterion_2_coloring_bound(corpus_data, audits):
    violations = 0
    fallback_used = 0
    for entry in corpus_data.values():
        inst = entry["inst"]
        colors = entry["coloring"].num_colors
        if inst.n <= DEFAULT_AO_LIMIT:
            omega = entry["omega"]
        else:
            # oracle limit binds: use the audit's clique A plus the
            # ceil(n/3) partition consequence
            witnessed = len(audits[inst.id].clique)
            omega = max(witnessed, math.ceil(inst.n / 3))
            assert omega <= entry["omega"]  # sanity: it is a lower bound
            fallback_used += 1
        if 2 * colors > 3 * omega:
            violations += 1
    assert violations == 0
    assert fallback_used > 0
    _passline(2, "three-halves coloring bound",
              f"2*colors <= 3*omega on {len(corpus_data)} instances "
              f"({fallback_used} via the cover-derived bound); 0 violations")


def test_criterion_3_optimality_at_desk_scale(corpus_data):
    start = time.perf_counter()
    checked = 0
    for entry in corpus_data.values():
        inst = entry["inst"]
        if inst.n > 14:
            continue
        chi = brute_chi(entry["graph"])
        assert entry["coloring"].num_colors == chi, inst.id
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _passline(3, "matching coloring optimality",
              f"colors == chi on all {checked} corpus instances with n<=14 "
              f"in {elapsed:.2f}s")


def test_criterion_4_three_clique_covers(corpus_data):
    crosschecked = 0
    for entry in corpus_data.values():
        inst = entry["inst"]
        g = entry["graph"]
        cover, _ = cover_three_cliques(inst)
        assert verify_cover(g, cover) is None, inst.id
        shared = cover.shared_vertex
        assert sum(shared in part for part in cover.cliques) >= 2, inst.id
        partition = partition_from_cover(cover)
        assert verify_cover(g, partition) is None, inst.id
        sizes = [len(p) for p in partition.parts]
        assert len(set(sizes)) >= 2, inst.id
        assert len(partition.parts) == 3
        if inst.n <= 14:
            assert brute_clique_cover_number(g) <= 3, inst.id
            assert brute_cover_exists(g, shared=True) is not None, inst.id
            crosschecked += 1
    _passline(4, "three-clique covers",
              f"cover+partition valid on 100% of {len(corpus_data)} instances; "
              f"{crosschecked} cross-checked against brute-force cover search")


def test_criterion_5_audit_chain(audits):
    failing = [iid for iid, report in audits.items() if not report.all_pass]
    total_checks = sum(len(r.checks) for r in audits.values())
    assert failing == []
    _passline(5, "audit chain",
              f"{total_checks} inequalities PASS across {len(audits)} instances")


def test_criterion_6_exact_chromatic_numbers():
    for k, expected in ((2, 3), (3, 4), (4, 6)):
        n = 3 * k - 1
        inst = gen_circulant(n, k)
        chi = brute_chi(instance_graph(inst))
        assert chi == expected, (k, chi)
        assert chi == math.ceil((3 * k - 1) / 2)
        colors = color_via_complement_matching(inst).num_colors
        assert colors == chi, (k, colors, chi)
    _passline(6, "lower-bound chromatic numbers",
              "chi(C_5^2)=3, chi(C_8^3)=4, chi(C_11^4)=6, matched by the coloring")


def test_criterion_7_cs_gadget():
    cs3 = gen_cs(3)
    stats = brute_stats(cs3)
    assert stats.alpha == 2
    assert stats.omega == 4
    assert stats.chi == 6
    assert check_nbhprop(cs3) == (True, None)
    assert 2 * stats.chi == 3 * stats.omega  # exactly on the boundary at k=3

    cs4 = gen_cs(4)
    stats4 = brute_stats(cs4, OracleLimits(chroma_max=15))  # chi search skipped
    assert stats4.alpha == 2
    assert stats4.omega == 5
    assert stats4.chi is None
    assert check_nbhprop(cs4) == (True, None)
    # with the known chi = 2k the excess over (3/2)omega is strict at k=4
    assert 2 * (2 * 4) > 3 * stats4.omega
    _passline(7, "CS gadget",
              "CS_3: alpha=2 omega=4 chi=6 nbhprop ok (2chi=3omega); "
              "CS_4: alpha=2 omega=5 nbhprop ok, strict excess by the formula")


def _grid_points(rng, n, denom, lo_num, hi_num):
    raw = set()
    while len(raw) < n:
        raw.add((Fraction(rng.randrange(lo_num, hi_num + 1), denom),
                 Fraction(rng.randrange(lo_num, hi_num + 1), denom)))
    return [Point(x, y) for x, y in sorted(raw)]


def test_criterion_8_geometric_property_suites():
    start = time.perf_counter()
    cases = 10_000

    rng = random.Random(8001)
    premise_hits = 0
    for _ in range(cases):
        pts = _grid_points(rng, 4, 5, -4, 4)
        adj = [[sq_dist(pts[i], pts[j]) <= 1 for j in range(4)] for i in range(4)]
        for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            if (adj[a][b] and adj[c][d]
                    and segments_cross(pts[a], pts[b], pts[c], pts[d])):
                premise_hits += 1
                assert any(adj[x][y] and adj[y][z] and adj[x][z]
                           for x, y, z in combinations((a, b, c, d), 3))
    assert premise_hits > 300

    rng = random.Random(8002)
    containment_hits = 0
    for _ in range(cases):
        pts = _grid_points(rng, 5, 6, -7, 7)
        adj = [[sq_dist(pts[i], pts[j]) <= 1 for j in range(5)] for i in range(5)]
        for v in range(5):
            nbrs = [w for w in range(5) if w != v and adj[v][w]]
            for u, w in combinations(nbrs, 2):
                hull = [pts[u], pts[v], pts[w]]
                for x in range(5):
                    if x not in (u, v, w) and point_in_hull(pts[x], hull) != OUTSIDE:
                        containment_hits += 1
                        assert adj[v][x]
    assert containment_hits > 300

    rng = random.Random(8003)
    rich_far_pairs = 0
    for _ in range(cases):
        raw = {(Fraction(rng.randrange(0, 3), 10), Fraction(rng.randrange(0, 7), 10)),
               (Fraction(rng.randrange(18, 21), 10), Fraction(rng.randrange(0, 7), 10))}
        while len(raw) < 7:
            raw.add((Fraction(rng.randrange(6, 15), 10),
                     Fraction(rng.randrange(0, 7), 10)))
        pts = [Point(x, y) for x, y in sorted(raw)]
        adj = [[sq_dist(pts[i], pts[j]) <= 1 for j in range(7)] for i in range(7)]
        for i in range(7):
            for j in range(i + 1, 7):
                if sq_dist(pts[i], pts[j]) >= 3:
                    common = [w for w in range(7)
                              if w not in (i, j) and adj[i][w] and adj[j][w]]
                    if len(common) >= 2:
                        rich_far_pairs += 1
                    for a, b in combinations(common, 2):
                        assert adj[a][b]
    assert rich_far_pairs > 100

    rng = random.Random(8004)
    for _ in range(cases):
        # box [0, 6/5]^2: squared diagonal 72/25 approaches the threshold 3
        pts = _grid_points(rng, 5, 10, 0, 12)
        assert max(sq_dist(p, q) for p in pts for q in pts) <= 3
        assert smallest_enclosing_disk(homogeneous(pts)).radius_sq <= 1

    rng = random.Random(8005)
    for i in range(cases):
        inst = gen_two_cluster(8, seed=900_000 + i,
                               separation=SEPARATIONS[i % 4])
        g = instance_graph(inst)
        assert check_k16_free(g) == (True, None)
        assert check_nbhprop(g) == (True, None)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _passline(8, "geometric property suites",
              f"5 suites x {cases} cases, 0 counterexamples, {elapsed:.1f}s "
              f"(crossing hits={premise_hits}, containment hits={containment_hits}, "
              f"rich far pairs={rich_far_pairs})")


def test_criterion_9_greedy_baseline(corpus_data):
    for entry in corpus_data.values():
        inst = entry["inst"]
        g = entry["graph"]
        greedy = entry["greedy"]
        assert verify_coloring(g, greedy) is None, inst.id
        omega = entry["omega"]
        assert greedy.num_colors <= 3 * omega - 2, inst.id
        assert entry["coloring"].num_colors <= greedy.num_colors, inst.id
    _passline(9, "sweep greedy baseline",
              f"greedy <= 3*omega-2 and matching <= greedy on all "
              f"{len(corpus_data)} instances")


def test_criterion_10_deterministic_artifacts(tmp_path):
    import contextlib
    import io

    from udgcolor.cli import EXIT_OK, run as _run

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return _run(argv)

    outputs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        files = {}
        for stem, argv in {
            "c11.udg": ["gen", "--family", "circulant", "--n", "11", "--k", "4",
                        "-o", str(d / "c11.udg")],
            "t.udg": ["gen", "--family", "two_cluster", "--n", "25", "--seed", "4",
                      "--separation", "3/4", "-o", str(d / "t.udg")],
        }.items():
            assert run(argv) == EXIT_OK
            files[stem] = d / stem
        for inst in ("c11.udg", "t.udg"):
            base = inst[:-4]
            assert run(["cover", str(d / inst), "-o", str(d / f"{base}.cover"),
                        "--trace", str(d / f"{base}.trace")]) == EXIT_OK
            assert run(["color", str(d / inst), "-o", str(d / f"{base}.coloring")]) == EXIT_OK
            assert run(["audit", str(d / inst), "-o", str(d / f"{base}.audit")]) == EXIT_OK
            assert run(["render", str(d / inst), "-o", str(d / f"{base}.svg"),
                        "--coloring", str(d / f"{base}.coloring"),
                        "--trace", str(d / f"{base}.trace")]) == EXIT_OK
        outputs.append(d)

    first, second = outputs
    compared = 0
    for path in sorted(first.iterdir()):
        other = second / path.name
        assert other.exists(), path.name
        assert path.read_bytes() == other.read_bytes(), path.name
        compared += 1
    _passline(10, "deterministic artifacts",
              f"{compared} files byte-identical across independent runs")
