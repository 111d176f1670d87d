from pathlib import Path

import pytest

from udgcolor.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PARSE,
                          EXIT_PRECONDITION, EXIT_USAGE, run)


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


def test_color_omega_question_mark_when_limited(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UDG_CHROMA_LIMITS", "6,6")
    inst = _gen(tmp_path)
    assert run(["color", str(inst)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "omega=?" in out
    assert "bound" not in out


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
    assert run(["audit", str(inst), "-o", str(rpt)]) == EXIT_OK
    assert rpt.read_text().rstrip().endswith("result PASS")
    assert "check" in capsys.readouterr().out


def test_stats_instance_and_graph(tmp_path, capsys):
    inst = _gen(tmp_path)
    assert run(["stats", str(inst)]) == EXIT_OK
    assert "alpha=2 omega=3 chi=4" in capsys.readouterr().out
    gfile = tmp_path / "cs3.graph"
    assert run(["gen", "--family", "cs", "--k", "3", "-o", str(gfile)]) == EXIT_OK
    assert run(["stats", str(gfile)]) == EXIT_OK
    assert "alpha=2 omega=4 chi=6" in capsys.readouterr().out


def test_usage_errors(tmp_path):
    assert run(["gen", "--family", "circulant", "-o", str(tmp_path / "x")]) == EXIT_USAGE
    assert run(["verify", "--instance", str(tmp_path / "nope.udg")]) == EXIT_USAGE


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.udg"
    bad.write_text("udg broken 1\n3/ 1\n")
    assert run(["stats", str(bad)]) == EXIT_PARSE
    assert run(["stats", str(tmp_path / "missing.udg")]) == EXIT_PARSE


@pytest.mark.parametrize("command", ["cover", "color", "audit"])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, command):
    binary = tmp_path / "binary.udg"
    binary.write_bytes(bytes(range(128, 256)) * 4)
    for path in (binary, tmp_path):
        argv = [command, str(path)]
        if command == "cover":
            argv += ["-o", str(tmp_path / "x.cover")]
        assert run(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert err.count("\n") == 1


def test_bench_table(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n, k in [(5, 2), (8, 3)]:
        run(["gen", "--family", "circulant", "--n", str(n), "--k", str(k),
             "-o", str(corpus / f"c{n}_{k}.udg")])
    out_file = tmp_path / "bench.tsv"
    assert run(["bench", str(corpus), "-o", str(out_file)]) == EXIT_OK
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
