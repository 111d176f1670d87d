"""The README's examples run, and print what the README says they print."""

import shlex
from pathlib import Path

from udgcolor.cli import EXIT_OK, run

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang block under the README section with this heading."""
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_quickstart_runs(capsys):
    exec(compile(_readme_block("Library quickstart", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("GraphStats(alpha=2, omega=4, chi=6, "), out


def test_command_line_block_prints_what_its_comments_say(tmp_path, monkeypatch, capsys):
    """Every line of the command-line block exits 0.  A comment `prints: X`
    is the line's whole stdout, `prints nothing` means none, and the comment
    on `stats` is its output line."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus_dir").mkdir()
    assert run(["gen", "--family", "circulant", "--n", "8", "--k", "3",
                "-o", "corpus_dir/c8_3.udg"]) == EXIT_OK
    checked = []
    for line in _readme_block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "udgcolor", line
        capsys.readouterr()
        assert run(argv[1:]) == EXIT_OK, line
        out = capsys.readouterr().out
        comment = comment.strip()
        if comment == "prints nothing":
            expected = ""
        elif comment.startswith("prints: "):
            expected = comment.removeprefix("prints: ") + "\n"
        elif argv[1] == "stats":
            expected = comment + "\n"
        else:
            continue
        assert out == expected, line
        checked.append(argv[1])
    assert checked == ["color", "audit", "stats", "bench"]
