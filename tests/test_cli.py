import dataclasses
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from udgcolor import cli, core, cover, errors, geom, matching, oracles
from udgcolor.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PARSE,
                          EXIT_PRECONDITION, EXIT_USAGE, run)
from udgcolor.core import build_instance
from udgcolor.instances import (GEN_MAX_N, gen_circulant, gen_cs, gen_two_cluster, write_graph,
                                write_instance)


def _gen(tmp_path, name="c8.udg", family=("circulant", "8", "3")) -> Path:
    out = tmp_path / name
    fam, n, k = family
    assert run(["gen", "--family", fam, "--n", n, "--k", k, "-o", str(out)]) == EXIT_OK
    return out


def test_gen_and_color_prints_bound(tmp_path, capsys):
    inst = _gen(tmp_path)
    assert run(["color", str(inst)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "colors=4" in out
    assert "omega=3" in out
    assert "bound=4" in out


def test_color_omega_question_mark_when_limited(tmp_path, capsys):
    # n = 35 is above the alpha/omega oracle limit of 30
    inst = _gen(tmp_path, "c35.udg", ("circulant", "35", "12"))
    assert run(["color", str(inst)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "omega=?" in out
    assert "bound" not in out


@pytest.mark.parametrize("value", ["6,6", "a,b"])
def test_cli_reads_no_environment(tmp_path, capsys, monkeypatch, value):
    """The oracle limits are fixed: no environment variable lowers them or
    makes a run fail."""
    inst = _gen(tmp_path)
    monkeypatch.setenv("UDG_CHROMA_LIMITS", value)
    capsys.readouterr()
    assert run(["color", str(inst)]) == EXIT_OK
    assert capsys.readouterr().out == "colors=4 omega=3 bound=4\n"
    assert run(["stats", str(inst)]) == EXIT_OK
    assert capsys.readouterr().out == "alpha=2 omega=3 chi=4 clique_cover_number=3\n"


def test_cover_writes_and_verifies(tmp_path):
    inst = _gen(tmp_path)
    cov = tmp_path / "c.cover"
    trc = tmp_path / "c.trace"
    assert run(["cover", str(inst), "-o", str(cov), "--trace", str(trc)]) == EXIT_OK
    assert cov.read_text().startswith("cover circulant-8-3\n")
    assert run(["verify", "--instance", str(inst), "--cover", str(cov)]) == EXIT_OK


def test_every_written_artifact_reverifies(tmp_path):
    inst = _gen(tmp_path)
    cov = tmp_path / "c.cover"
    col = tmp_path / "c.coloring"
    assert run(["cover", str(inst), "-o", str(cov)]) == EXIT_OK
    assert run(["color", str(inst), "-o", str(col)]) == EXIT_OK
    assert run(["verify", "--instance", str(inst), "--cover", str(cov),
                "--coloring", str(col)]) == EXIT_OK


def test_verify_rejects_tampered_coloring(tmp_path):
    inst = _gen(tmp_path)
    col = tmp_path / "c.coloring"
    assert run(["color", str(inst), "-o", str(col)]) == EXIT_OK
    lines = col.read_text().splitlines()
    lines[1] = "0 " + lines[2].split()[1]  # copy neighbor's color onto vertex 0
    col.write_text("\n".join(lines) + "\n")
    assert run(["verify", "--instance", str(inst), "--coloring", str(col)]) == EXIT_INTERNAL


def test_cover_precondition_exit_code(tmp_path):
    bad = tmp_path / "bad.udg"
    bad.write_text("udg spread 3\n0 0\n2 0\n4 0\n")
    rc = run(["cover", str(bad), "-o", str(tmp_path / "x.cover")])
    assert rc == EXIT_PRECONDITION


def test_verify_rejects_tampered_cover(tmp_path):
    inst = _gen(tmp_path)
    cov = tmp_path / "c.cover"
    assert run(["cover", str(inst), "-o", str(cov)]) == EXIT_OK
    text = cov.read_text().splitlines()
    text[1] = "clique 0: 0 4"  # vertices at circular distance 4: non-adjacent
    cov.write_text("\n".join(text) + "\n")
    assert run(["verify", "--instance", str(inst), "--cover", str(cov)]) == EXIT_INTERNAL


def test_audit_exit_and_output(tmp_path, capsys):
    inst = _gen(tmp_path)
    rpt = tmp_path / "a.txt"
    capsys.readouterr()
    assert run(["audit", str(inst), "-o", str(rpt)]) == EXIT_OK
    assert capsys.readouterr().out == "result PASS\n"  # the report goes to the file only
    assert rpt.read_text().rstrip().endswith("result PASS")
    assert "check" in rpt.read_text()
    assert run(["audit", str(inst)]) == EXIT_OK
    assert capsys.readouterr().out == rpt.read_text()


def test_audit_with_a_non_clique_A_fails_with_exit_4(tmp_path, capsys, monkeypatch):
    # C(5,2): one odd component; 0 and 2 are not adjacent, so an A of {0, 2}
    # is caught by the certificate's own clique check, not by an exception
    monkeypatch.setattr(matching, "_partition_sizes_and_largest",
                        lambda inst, vertices: ((2, 2, 1), frozenset({0, 2})))
    inst = _gen(tmp_path, family=("circulant", "5", "2"))
    assert run(["audit", str(inst)]) == EXIT_INTERNAL
    out = capsys.readouterr().out
    assert "A 2: 0 2\n" in out
    assert "check A-union stable in complement: lhs=1 rhs=0 FAIL" in out
    assert out.endswith("result FAIL\n")
    rpt = tmp_path / "a.txt"
    assert run(["audit", str(inst), "-o", str(rpt)]) == EXIT_INTERNAL
    assert capsys.readouterr().out == "result FAIL\n"
    assert rpt.read_text() == out


def test_audit_with_a_short_matching_fails_with_exit_4(tmp_path, capsys, monkeypatch):
    # a barrier X one R vertex larger than the decomposition's: the matching
    # falls short of the Tutte-Berge bound, which the audit raises on
    original = matching.gallai_edmonds

    def widen_x(g):
        ge = original(g)
        return dataclasses.replace(ge, X=ge.X | {0})

    monkeypatch.setattr(matching, "gallai_edmonds", widen_x)
    inst = _gen(tmp_path, family=("circulant", "14", "5"))
    capsys.readouterr()
    assert run(["audit", str(inst)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: assembled matching is not maximum\n"


def test_stats_instance_and_graph(tmp_path, capsys):
    inst = _gen(tmp_path)
    assert run(["stats", str(inst)]) == EXIT_OK
    assert "alpha=2 omega=3 chi=4" in capsys.readouterr().out
    gfile = tmp_path / "cs3.graph"
    assert run(["gen", "--family", "cs", "--k", "3", "-o", str(gfile)]) == EXIT_OK
    assert run(["stats", str(gfile)]) == EXIT_OK
    assert "alpha=2 omega=4 chi=6" in capsys.readouterr().out


@pytest.mark.parametrize("n, chi_and_ccn", [(16, "chi=16 clique_cover_number=1"),
                                             (17, "chi=? clique_cover_number=?")])
def test_stats_searches_chi_up_to_the_chromatic_limit(tmp_path, capsys, n, chi_and_ccn):
    gfile = tmp_path / f"k{n}.graph"
    gfile.write_text(f"graph k{n} {n}\n"
                     + "".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, n)))
    assert run(["stats", str(gfile)]) == EXIT_OK
    assert capsys.readouterr().out == f"alpha=1 omega={n} {chi_and_ccn}\n"


@pytest.mark.parametrize("count", ["31", "1000000000000000000000000000000"])
def test_stats_refuses_a_graph_above_the_limit_before_building_it(tmp_path, capsys,
                                                                  monkeypatch, count):
    gfile = tmp_path / "big.graph"
    gfile.write_text(f"graph g {count}\n0 1\n")
    monkeypatch.setattr(core.AbstractGraph, "__init__", None)  # any build fails
    assert run(["stats", str(gfile)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"error: n={count} exceeds alpha/omega limit 30\n"


@pytest.mark.parametrize("header, record", [("udg u 31", "x"), ("graph g 31", "0 1 2")])
def test_stats_holds_the_header_count_to_the_limit_before_any_record(tmp_path, capsys,
                                                                     header, record):
    # the damaged record is never read: the header alone is over the limit
    path = tmp_path / "big.txt"
    path.write_text(f"{header}\n{record}\n")
    assert run(["stats", str(path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: n=31 exceeds alpha/omega limit 30\n"


def test_stats_refuses_an_oversize_file_after_reading_its_header(tmp_path, capsys):
    """gen_cs(200)'s file is 1.85 MB of about 240,000 edge lines; parsing
    them all before the limit took over 100 MB."""
    path = tmp_path / "cs200.graph"
    write_graph(path, gen_cs(200))
    tracemalloc.start()
    try:
        code = run(["stats", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: n=800 exceeds alpha/omega limit 30\n"
    assert peak < 1024 * 1024, peak


def test_usage_errors(tmp_path):
    assert run(["gen", "--family", "circulant", "-o", str(tmp_path / "x")]) == EXIT_USAGE
    assert run(["verify", "--instance", str(tmp_path / "nope.udg")]) == EXIT_USAGE


@pytest.mark.parametrize("params", [
    ["--family", "cs", "--k", "0"],
    ["--family", "circulant", "--n", "5", "--k", "0"],
    ["--family", "two_cluster", "--n", "10", "--seed", "1", "--separation", "2"],
    ["--family", "two_cluster", "--n", "10", "--separation", "abc"],
    ["--family", "two_cluster", "--n", "10", "--separation", "1/0"],
    ["--family", "two_cluster", "--n", "0"],
    ["--family", "two_cluster", "--n", "-4"],
    ["--family", "circulant", "--n", "1" + "0" * 400, "--k", "3"],
    ["--family", "circulant", "--n", str(GEN_MAX_N + 1), "--k", "3"],
    ["--family", "cs", "--k", str(GEN_MAX_N // 4 + 1)],
    ["--family", "two_cluster", "--n", str(GEN_MAX_N + 1)],
], ids=["cs-k0", "circulant-k0", "separation-2", "separation-abc", "separation-1/0",
        "two-cluster-n0", "two-cluster-n-4", "circulant-n-beyond-float",
        "circulant-above-max", "cs-above-max", "two-cluster-above-max"])
def test_gen_out_of_range_parameter_is_a_usage_error(tmp_path, capsys, params):
    out = tmp_path / "x"
    assert run(["gen", *params, "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.udg"
    bad.write_text("udg broken 1\n3/ 1\n")
    assert run(["stats", str(bad)]) == EXIT_PARSE
    assert run(["stats", str(tmp_path / "missing.udg")]) == EXIT_PARSE


@pytest.mark.parametrize("command", ["cover", "color", "audit", "stats"])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, command):
    binary = tmp_path / "binary.udg"
    binary.write_bytes(bytes(range(128, 256)) * 4)
    empty = tmp_path / "empty.udg"  # an instance must have a point
    empty.write_text("udg e 0\n")
    for path in (binary, tmp_path, empty):
        argv = [command, str(path)]
        if command == "cover":
            argv += ["-o", str(tmp_path / "x.cover")]
        assert run(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert err.count("\n") == 1


# the five pivot lines a narrow or split trace needs
_PIVOT_LINES = "b 0\nb+ 1\nb- 7\nr+ 3\nr- 5\n"


@pytest.mark.parametrize("command,text", [
    ("verify", "cover circulant-8-3\nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: x\n"),
    ("verify", "cover \nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: 0\n"),
    ("verify", "cover circulant-8-3\nclique 0: 1_0\nclique 1: 0\nclique 2: 1\nshared: 0\n"),
    ("verify", "cover circulant-8-3\nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: +0\n"),
    ("verify", "cover a b\nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: 0\n"),
    ("coloring", "coloring circulant-8-3 2\n0 +1\n1 0\n"),
    ("coloring", "coloring circulant-8-3 1\n0 0\n0 0\n"),
    ("render", "trace circulant-8-3\np 1\n"),
    ("render", "trace circulant-8-3\nb x\n"),
    ("render", "trace circulant-8-3\nregion B+: 1 z\n"),
    ("render", "trace circulant-8-3\nmode split\np 1e3 0 virtual=1 id=8\n"),
    ("render", "trace \nmode split\np 0 0 virtual=1 id=8\n"),
    ("render", "trace circulant-8-3\nmode bogus\np 0 0 virtual=1 id=8\n"),
    ("render", "trace circulant-8-3\nmode split\nmode narrow\np 0 0 virtual=1 id=8\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\n"
               "region B+: 0 1\nregion B+: 2\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\nregion B+ 1\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\nregion B+x: 1\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\nsplit T+B 1\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\nb+ 1 2\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\nregion Q: 1\n"),
    ("render", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\nb 7\nregion R: 8\n"),
    ("render", "trace circulant-8-3\nmode nonedge\np 0 0 virtual=1 id=8\nb 1\n"),
    ("render", "trace circulant-8-3\nmode nonedge\np 0 0 virtual=1 id=8\n"),
    ("render", "trace circulant-8-3\nmode nonedge\np 0 0 virtual=1 id=8\nnonedge 1 4\n"
               "region B+: 0 1 2\n"),
    ("render", "trace circulant-8-3\nmode narrow\np 0 0 virtual=1 id=8\n" + _PIVOT_LINES
               + "nonedge 1 2\n"),
    ("verify", "\ncover circulant-8-3\nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: 0\n"),
    ("stats", "\nudg u 1\n0 0\n"),
    ("stats", "graph g 2\n0 5\n"),
    ("stats", "graph g 2\n0 0\n"),
    ("stats", "graph g -3\n"),
    ("stats", "graph g 0\n"),
    ("stats", "graph g 1_0\n"),
    ("verify", "cover circulant-8-3\nclique 0: 0\nclique 1: 0\nclique 2: 1\n"),
    ("verify", "cover circulant-8-3\nclique 1: 0\nclique 0: 0\nclique 2: 1\nshared: 0\n"),
    ("verify", "cover circulant-8-3\nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: 1 2\n"),
    ("coloring", "coloring circulant-8-3 2\n0 0\n2 1\n"),
    ("coloring", "coloring circulant-8-3 3\n0 0\n1 1\n"),
    ("stats", "udg u 1\n0\n"),
    ("stats", "graph g " + "1" * 5000 + "\n"),
    ("render", "trace circulant-8-3\nmode split\n" + _PIVOT_LINES),
    ("stats", "cover circulant-8-3\nclique 0: 0\nclique 1: 0\nclique 2: 1\nshared: 0\n"),
    ("stats", ""),
    ("stats", " \n\t\n"),
], ids=["cover-shared-x", "cover-no-id", "cover-underscore", "cover-shared-plus",
        "cover-two-word-id", "coloring-plus", "coloring-twice", "trace-p-1", "trace-b-x",
        "trace-region-z", "trace-exponent", "trace-no-id", "trace-mode-bogus",
        "trace-mode-twice", "trace-region-twice", "trace-region-no-colon",
        "trace-region-suffix", "trace-split-no-colon", "trace-pivot-two-values",
        "trace-region-unknown", "trace-split-one-pivot", "trace-nonedge-with-pivot",
        "trace-nonedge-no-pair", "trace-nonedge-with-members", "trace-narrow-with-pair",
        "cover-blank-first-line", "udg-blank-first-line", "graph-edge-out-of-range",
        "graph-self-loop", "graph-negative-n", "graph-empty", "graph-underscore",
        "cover-no-shared-line", "cover-clique-1-first", "cover-shared-two-values",
        "coloring-ids-0-2", "coloring-count-differs", "udg-one-token",
        "graph-5000-digit-count", "trace-no-p", "stats-unknown-header",
        "stats-empty", "stats-whitespace-only"])
def test_malformed_artifact_is_a_parse_error(tmp_path, capsys, command, text):
    inst = _gen(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    argv = {"verify": ["verify", "--instance", str(inst), "--cover", str(bad)],
            "coloring": ["verify", "--instance", str(inst), "--coloring", str(bad)],
            "render": ["render", str(inst), "-o", str(tmp_path / "x.svg"),
                       "--trace", str(bad)],
            "stats": ["stats", str(bad)]}[command]
    capsys.readouterr()
    assert run(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind,text", [
    ("trace", "trace other\nmode split\np 0 0 virtual=1 id=8\n" + _PIVOT_LINES),
    ("trace", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=8\n" + _PIVOT_LINES
              + "region B+: 0 99\n"),
    ("trace", "trace circulant-8-3\nmode split\np 0 0 virtual=1 id=9\n" + _PIVOT_LINES),
    ("trace", "trace circulant-8-3\nmode split\np 0 0 virtual=0 id=0\n" + _PIVOT_LINES
              + "region R: 0 8\n"),
    ("trace", "trace circulant-8-3\nmode nonedge\np 0 0 virtual=0 id=0\nnonedge 2 8\n"),
    ("coloring", "coloring other 4\n" + "".join(f"{v} {v % 4}\n" for v in range(8))),
    ("coloring", "coloring circulant-8-3 2\n0 0\n1 1\n"),
], ids=["trace-other-instance", "trace-region-99", "trace-virtual-id-n+1",
        "trace-region-n-not-virtual", "trace-nonedge-n", "coloring-other-instance",
        "coloring-other-size"])
def test_render_rejects_artifacts_of_another_instance(tmp_path, capsys, kind, text):
    inst = _gen(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    svg = tmp_path / "x.svg"
    capsys.readouterr()
    assert run(["render", str(inst), "-o", str(svg), f"--{kind}", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert err.count("\n") == 1
    assert not svg.exists()


@pytest.mark.parametrize("case", ["virtual-id-not-n", "virtual-at-vertex-0",
                                  "vertex-0-elsewhere", "vertex-0-at-its-point"])
def test_render_rejects_a_trace_p_that_contradicts_the_instance(tmp_path, capsys, case):
    """virtual=1 makes p the extra vertex n, at no instance point;
    virtual=0 makes it instance vertex id, at that vertex's point.  A p line
    that contradicts the instance exits 2 on one line and writes no SVG."""
    inst = _gen(tmp_path)
    x, y = inst.read_text().splitlines()[1].split()  # vertex 0 of C(8,3)
    virtual = "a virtual trace p must be vertex 8, at no instance point"
    p_line, message = {
        "virtual-id-not-n": ("p 0 0 virtual=1 id=2", virtual),
        "virtual-at-vertex-0": (f"p {x} {y} virtual=1 id=8", virtual),
        "vertex-0-elsewhere": ("p 0 0 virtual=0 id=0", "trace p is not at instance vertex 0"),
        "vertex-0-at-its-point": (f"p {x} {y} virtual=0 id=0", None)}[case]
    trace = tmp_path / "t.trace"
    trace.write_text(f"trace circulant-8-3\nmode split\n{p_line}\n" + _PIVOT_LINES)
    svg = tmp_path / "x.svg"
    capsys.readouterr()
    code = run(["render", str(inst), "-o", str(svg), "--trace", str(trace)])
    if message is None:
        assert code == EXIT_OK and svg.exists()
    else:
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: line 1: {message}\n"
        assert not svg.exists()


@pytest.mark.parametrize("case", ["vertex", "trace-p"])
def test_render_of_a_coordinate_beyond_the_float_range_is_a_parse_error(tmp_path, capsys, case):
    """The SVG is drawn in floats, and 10**400 has none: render names the
    point it cannot draw on one line, exits 2 and writes no SVG."""
    huge = "1" + "0" * 400
    argv = ["render"]
    if case == "vertex":
        inst = tmp_path / "huge.udg"
        inst.write_text(f"udg huge 2\n0 0\n{huge} 0\n")
        argv.append(str(inst))
        named = "vertex 1"
    else:
        trace = tmp_path / "huge.trace"
        trace.write_text(f"trace circulant-8-3\nmode split\np {huge} 0 virtual=1 id=8\n"
                         + _PIVOT_LINES)
        argv += [str(_gen(tmp_path)), "--trace", str(trace)]
        named = "trace p"
    svg = tmp_path / "x.svg"
    capsys.readouterr()
    assert run(argv + ["-o", str(svg)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"parse error: line 1: {named} has a coordinate beyond the float range\n"
    assert not svg.exists()


def test_render_of_a_span_beyond_the_float_range_is_a_parse_error(tmp_path, capsys):
    """10**308 and -10**308 are floats, but the width between them is not:
    render says so on one line, exits 2 and writes no SVG."""
    big = "1" + "0" * 308
    inst = tmp_path / "wide.udg"
    inst.write_text(f"udg wide 2\n{big} 0\n-{big} 0\n")
    svg = tmp_path / "x.svg"
    capsys.readouterr()
    assert run(["render", str(inst), "-o", str(svg)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "parse error: line 1: the points span a width beyond the float range\n"
    assert not svg.exists()


@pytest.mark.parametrize("kind,text", [
    ("cover", "cover other\nclique 0: 0 1 2\nclique 1: 2 3 4\nclique 2: 5 6 7\nshared: 2\n"),
    ("coloring", "coloring other 4\n" + "".join(f"{v} {v % 4}\n" for v in range(8))),
], ids=["cover-other-instance", "coloring-other-instance"])
def test_verify_rejects_artifacts_of_another_instance(tmp_path, capsys, kind, text):
    inst = _gen(tmp_path)
    cov = tmp_path / "c.cover"
    col = tmp_path / "c.coloring"
    assert run(["cover", str(inst), "-o", str(cov)]) == EXIT_OK
    assert run(["color", str(inst), "-o", str(col)]) == EXIT_OK
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    alone = ["verify", "--instance", str(inst), f"--{kind}", str(bad)]
    # with a valid artifact of the other kind beside it (a repeated option
    # keeps its last value), verify still prints nothing but the error
    both = ["verify", "--instance", str(inst), "--cover", str(cov),
            "--coloring", str(col), f"--{kind}", str(bad)]
    for argv in (alone, both):
        capsys.readouterr()
        assert run(argv) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"parse error: line 1: {kind} names instance 'other', expected 'circulant-8-3'\n"


def test_duplicate_point_in_other_terms_is_a_parse_error(tmp_path, capsys):
    inst = tmp_path / "dup.udg"
    inst.write_text("udg dup 3\n1/2 0\n0 1\n2/4 0/7\n")
    assert run(["cover", str(inst), "-o", str(tmp_path / "x.cover")]) == EXIT_PARSE
    assert capsys.readouterr().err == "parse error: points 0 and 2 coincide\n"


def test_consecutive_runs_share_no_state(tmp_path, capsys):
    inst = _gen(tmp_path)
    first = tmp_path / "first.trace"
    assert run(["cover", str(inst), "-o", str(tmp_path / "a.cover"), "--trace", str(first)]) == EXIT_OK
    assert first.exists()
    assert run(["cover", str(inst), "-o", str(tmp_path / "b.cover")]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cover", "b.cover", "c8.udg",
                                                          "first.trace"]
    assert run(["cover", str(inst)]) == EXIT_USAGE
    assert run(["stats", str(inst)]) == EXIT_OK
    assert run(["gen", "--family", "two_cluster", "--n", "5", "-o", str(tmp_path / "t.udg")]) == EXIT_OK
    # the defaults --seed 0 and --separation 1 hold again after a run that set them
    assert run(["gen", "--family", "two_cluster", "--n", "5", "--seed", "3",
                "--separation", "1/2", "-o", str(tmp_path / "u.udg")]) == EXIT_OK
    assert run(["gen", "--family", "two_cluster", "--n", "5", "-o", str(tmp_path / "v.udg")]) == EXIT_OK
    assert (tmp_path / "v.udg").read_bytes() == (tmp_path / "t.udg").read_bytes()
    out = capsys.readouterr().out
    assert out.startswith("alpha=2 omega=3 chi=4")


def test_bench_corpus_must_be_a_directory(tmp_path, capsys):
    inst = _gen(tmp_path)
    for corpus in (tmp_path / "missing", inst):
        assert run(["bench", str(corpus)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert err.count("\n") == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["bench", str(empty)]) == EXIT_OK
    assert capsys.readouterr().out == "instance\tn\tomega\tgreedy\tmatching\tchi\tbound\n"


@pytest.mark.parametrize("separation", ["1", "1/2"], ids=["far_pair", "disk"])
@pytest.mark.parametrize("command", ["cover", "color", "audit", "bench"])
def test_one_graph_build_per_run(tmp_path, monkeypatch, command, separation):
    """One graph build and one stability gate per instance per command, and
    one cover check per `cover` run: its constructor's."""
    # n = 30 is within the default brute-omega limit, so `color` and `bench`
    # also compute omega from the graph
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    inst = corpus / "t.udg"
    assert run(["gen", "--family", "two_cluster", "--n", "30", "--seed", "0",
                "--separation", separation, "-o", str(inst)]) == EXIT_OK
    calls = {"instance_graph": [], "stability_witness": [], "verify_cover": []}
    for fn, seen in calls.items():
        original = getattr(oracles if fn == "verify_cover" else core, fn)

        def counting(*args, _fn=original, _seen=seen):
            _seen.append(args[0].id)
            return _fn(*args)
        # replace the function wherever a udgcolor module holds it, so calls
        # through a module global and through a local import both count
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "udgcolor" and getattr(module, fn, None) is original:
                monkeypatch.setattr(module, fn, counting)
    argv = [command, str(corpus if command == "bench" else inst)]
    if command == "cover":
        argv += ["-o", str(tmp_path / "t.cover"), "--trace", str(tmp_path / "t.trace")]
    assert run(argv) == EXIT_OK
    assert len(calls["instance_graph"]) == 1
    assert len(calls["stability_witness"]) == 1
    if command == "cover":
        assert len(calls["verify_cover"]) == 1


def test_corrupted_constructor_output_exits_4(tmp_path, monkeypatch, capsys):
    """The constructor's own cover check is the only one left: a cover
    corrupted inside disk_case_cover still ends in exit 4, naming it."""
    inst = _gen(tmp_path)  # C(8,3) takes the disk case's split mode
    original = cover._split_triangle

    def corrupted(g, zone, own_mask, r_mask):
        to_b, to_r, rest = original(g, zone, own_mask, r_mask)
        # a vertex not complete to the B region joins that region's part
        stray = next(v for v in range(g.n) if not core._is_clique_mask(g, own_mask | 1 << v))
        return to_b | {stray}, to_r, rest
    monkeypatch.setattr(cover, "_split_triangle", corrupted)
    out = tmp_path / "c.cover"
    capsys.readouterr()
    for argv in (["cover", str(inst), "-o", str(out)], ["audit", str(inst)]):
        assert run(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: disk_case_cover: ")
        assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("family", [("circulant", "35", "12"), ("two_cluster", "40", "1/2")],
                         ids=["circulant-35-12", "two-cluster-40"])
def test_cover_tests_distances_only_in_the_graph_build(tmp_path, monkeypatch, family):
    """Every Fraction distance a cover run evaluates is one of the
    n(n-1)/2 of the graph build; the dispatch, the far-pair and centre
    tests and the collinearity test run on integers."""
    fam, n, param = family
    inst = tmp_path / "t.udg"
    option = "--k" if fam == "circulant" else "--separation"
    assert run(["gen", "--family", fam, "--n", n, option, param, "-o", str(inst)]) == EXIT_OK
    # (module, function) of each caller, wherever a udgcolor module holds
    # the predicate, as in test_one_graph_build_per_run
    callers = {"sq_dist": [], "orientation": []}
    for fn, calls in callers.items():
        original = getattr(geom, fn)

        def counting(*args, _fn=original, _calls=calls):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                caller = caller.f_back
            _calls.append((caller.f_globals["__name__"], caller.f_code.co_name))
            return _fn(*args)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "udgcolor" and getattr(module, fn, None) is original:
                monkeypatch.setattr(module, fn, counting)
    argv = ["cover", str(inst), "-o", str(tmp_path / "t.cover"), "--trace", str(tmp_path / "t.trace")]
    assert run(argv) == EXIT_OK
    n = int(n)
    assert callers["sq_dist"] == [("udgcolor.core", "instance_graph")] * (n * (n - 1) // 2)
    assert not any(module == "udgcolor.cover" for module, _ in callers["orientation"])


def test_coordinates_are_never_hashed_as_fractions(tmp_path, monkeypatch):
    """Points are generated, parsed, deduplicated and hulled on their
    integers: Fraction.__hash__ computes a modular inverse per coordinate,
    and nothing on these paths calls it."""
    def unhashable(self):
        raise AssertionError("a Fraction was hashed")
    monkeypatch.setattr(Fraction, "__hash__", unhashable)
    # the benchmark's two-cluster sizes and separations
    for n in (50, 80, 110):
        for separation in ("1", "7/10", "1/2", "1/4"):
            assert gen_two_cluster(n, n, separation).n == n
    assert gen_circulant(35, 12).n == 35
    for name, family in [("far.udg", ("two_cluster", "30", "1")),
                         ("disk.udg", ("two_cluster", "30", "1/2")),
                         ("circ.udg", ("circulant", "11", "4"))]:
        fam, n, param = family
        inst = tmp_path / name
        option = "--k" if fam == "circulant" else "--separation"
        assert run(["gen", "--family", fam, "--n", n, option, param, "-o", str(inst)]) == EXIT_OK
        trace = tmp_path / f"{name}.trace"
        assert run(["cover", str(inst), "-o", str(tmp_path / "t.cover"),
                    "--trace", str(trace)]) == EXIT_OK
        assert run(["color", str(inst), "-o", str(tmp_path / "t.coloring")]) == EXIT_OK
        assert run(["audit", str(inst), "-o", str(tmp_path / "t.audit")]) == EXIT_OK
    assert (tmp_path / "disk.udg.trace").exists()
    assert (tmp_path / "circ.udg.trace").exists()


def test_each_point_is_converted_once_and_never_compared_as_a_fraction(tmp_path, monkeypatch):
    """Each command converts each point to its homogeneous integers exactly
    once, when the instance is built, plus one centre per disk-case cover,
    top level or audit sub-cover.  No Fraction is then ordered or compared
    for equality on cover, color or audit; the graph build's Fraction <= is
    the one comparison left."""
    base = gen_circulant(59, 20)
    order = list(range(base.n))
    random.Random(1).shuffle(order)
    instances = {"disk": gen_two_cluster(110, 1, "1/2"),
                 "circulant": build_instance("c59-shuffled", [base.points[v] for v in order]),
                 "far": gen_two_cluster(50, 1, "1")}
    paths = {}
    for name, inst in instances.items():
        paths[name] = tmp_path / f"{name}.udg"
        write_instance(paths[name], inst)

    calls = 0
    to_integers = geom._homogeneous

    def counted(p):
        nonlocal calls
        calls += 1
        return to_integers(p)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("udgcolor") and vars(module).get("_homogeneous") is to_integers:
            monkeypatch.setattr(module, "_homogeneous", counted)
    disk_cases = []
    disk_case_cover = cover.disk_case_cover
    monkeypatch.setattr(cover, "disk_case_cover", lambda g, h, center: disk_cases.append(
        g.n) or disk_case_cover(g, h, center))
    for name, inst in instances.items():
        for command in ("cover", "color", "audit"):
            calls = 0
            disk_cases.clear()
            assert run([command, str(paths[name]), "-o", str(tmp_path / "t.out")]) == EXIT_OK
            if command == "cover":
                assert disk_cases == ([] if name == "far" else [inst.n]), name
            elif command == "color":
                assert disk_cases == [], name
            assert calls == inst.n + len(disk_cases), (name, command, calls)

    def compared(self, other):
        raise AssertionError("a Fraction was compared")
    for name in ("__lt__", "__gt__", "__ge__", "__eq__"):
        monkeypatch.setattr(Fraction, name, compared)
    for name, path in paths.items():
        trace = tmp_path / f"{name}.trace"
        assert run(["cover", str(path), "-o", str(tmp_path / "t.cover"),
                    "--trace", str(trace)]) == EXIT_OK
        assert run(["color", str(path), "-o", str(tmp_path / "t.coloring")]) == EXIT_OK
        assert run(["audit", str(path), "-o", str(tmp_path / "t.audit")]) == EXIT_OK
        assert trace.exists() == (name != "far"), name


def test_bench_table(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n, k in [(5, 2), (8, 3)]:
        run(["gen", "--family", "circulant", "--n", str(n), "--k", str(k),
             "-o", str(corpus / f"c{n}_{k}.udg")])
    out_file = tmp_path / "bench.tsv"
    capsys.readouterr()
    assert run(["bench", str(corpus), "-o", str(out_file)]) == EXIT_OK
    assert capsys.readouterr().out == ""  # with -o the table goes to the file only
    assert run(["bench", str(corpus)]) == EXIT_OK
    assert out_file.read_text() == capsys.readouterr().out
    lines = out_file.read_text().splitlines()
    assert lines[0] == "instance\tn\tomega\tgreedy\tmatching\tchi\tbound"
    assert len(lines) == 3
    for ln in lines[1:]:
        cells = ln.split("\t")
        n, omega, greedy, matching, chi, bound = map(int, cells[1:])
        assert matching <= greedy
        assert greedy <= 3 * omega - 2
        assert 2 * matching <= 3 * omega
        assert matching == chi


def test_bench_searches_chi_up_to_the_chromatic_limit(tmp_path, capsys):
    """16 and 17 points within distance 1 of each other: complete graphs on
    either side of the chromatic limit of 16."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n in (16, 17):
        (corpus / f"k{n}.udg").write_text(
            f"udg k{n} {n}\n" + "".join(f"{i}/20 0\n" for i in range(n)))
    assert run(["bench", str(corpus)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["k16\t16\t16\t16\t16\t16\t24", "k17\t17\t17\t17\t17\t?\t25"]


def test_bench_marks_an_instance_with_an_independent_triple(tmp_path, capsys):
    """The matching coloring needs stability two; bench prints '?' in its
    column for an instance with an independent triple and goes on."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "line.udg").write_text("udg line 3\n0 0\n2 0\n4 0\n")
    _gen(corpus)
    assert run(["bench", str(corpus)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["circulant-8-3\t8\t3\t5\t4\t4\t4", "line\t3\t1\t1\t?\t1\t1"]


# every library error: the arguments of one instance of it, its exit code
# and the stderr prefix cli.run prints before its message
EXIT_TABLE = {
    errors.ParseError: ((3, "bad line"), EXIT_PARSE, "parse error: "),
    errors.DuplicatePoint: ((0, 1), EXIT_PARSE, "parse error: "),
    errors.StabilityViolated: (((0, 1, 2),), EXIT_PRECONDITION, "precondition violated: "),
    errors.StructureViolation: (("broken",), EXIT_INTERNAL, "internal error: "),
    errors.EmptyInstance: (("empty",), EXIT_INTERNAL, "error: "),
    errors.InvalidVertex: (("vertex 9",), EXIT_INTERNAL, "error: "),
    errors.LimitExceeded: (("n=99",), EXIT_INTERNAL, "error: "),
    errors.SnapFailure: (("snapped",), EXIT_INTERNAL, "error: "),
}


def test_exit_table_names_every_library_error():
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.UdgError)}
    assert set(EXIT_TABLE) == defined - {errors.UdgError}


@pytest.mark.parametrize("error", EXIT_TABLE, ids=lambda c: c.__name__)
def test_each_library_error_has_one_exit_code_and_one_line(tmp_path, capsys, monkeypatch, error):
    args, code, prefix = EXIT_TABLE[error]
    exc = error(*args)

    def refused(path):
        raise exc
    monkeypatch.setattr(cli, "read_instance", refused)
    assert run(["cover", str(tmp_path / "i.udg"), "-o", str(tmp_path / "c.cover")]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{prefix}{exc}\n")


def test_render_svg(tmp_path):
    inst = _gen(tmp_path)
    cov = tmp_path / "c.cover"
    trc = tmp_path / "c.trace"
    col = tmp_path / "c.coloring"
    svg = tmp_path / "c.svg"
    run(["cover", str(inst), "-o", str(cov), "--trace", str(trc)])
    run(["color", str(inst), "-o", str(col)])
    assert run(["render", str(inst), "-o", str(svg),
                "--coloring", str(col), "--trace", str(trc)]) == EXIT_OK
    body = svg.read_text()
    assert body.startswith("<svg ")
    assert "<circle" in body and "<line" in body and "<polygon" in body


def test_byte_identical_reruns(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    for d in (first, second):
        d.mkdir()
        inst = d / "i.udg"
        run(["gen", "--family", "two_cluster", "--n", "18", "--seed", "11",
             "--separation", "3/4", "-o", str(inst)])
        run(["cover", str(inst), "-o", str(d / "c.cover"), "--trace", str(d / "c.trace")])
        run(["color", str(inst), "-o", str(d / "c.coloring")])
        run(["audit", str(inst), "-o", str(d / "a.txt")])
        run(["render", str(inst), "-o", str(d / "r.svg"), "--coloring", str(d / "c.coloring")])
    for name in ["i.udg", "c.cover", "c.trace", "c.coloring", "a.txt", "r.svg"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
