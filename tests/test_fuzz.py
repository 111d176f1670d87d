"""Seeded mutation fuzzing of the command line.

Valid instance, graph, cover, coloring and trace files are damaged one edit
at a time: a character substituted, inserted or deleted, or a line
duplicated.  Each damaged file goes in-process through every command that
reads it, and each run must end with an exit code the README documents for
that command and at most one line on stderr; an exception out of cli.run
fails the test with its traceback.
"""

import contextlib
import io
import random
from pathlib import Path

from udgcolor.cli import run

SEED = 31
CASES = 3000
# digits and the formats' punctuation, letters of the keywords, signs and
# forms the grammar refuses, a NUL and non-ASCII digits
ALPHABET = "0123456789-/: \n\tabcdeilopqrstuvx=+._\x00é٣１"

# documented exit codes on a damaged file: 2 parse, 3 an independent triple
# (only the stability-gated commands), 4 a stats oracle limit or an artifact
# verify finds invalid
ALLOWED = {"color": {0, 2, 3}, "cover": {0, 2, 3}, "audit": {0, 2, 3},
           "stats": {0, 2, 4}, "verify": {0, 2, 4}, "render": {0, 2}}


def mutate(text: str, rng: random.Random) -> str:
    op = rng.randrange(4)
    if op == 3:
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return "".join(lines[:i + 1] + lines[i:])
    pos = rng.randrange(len(text) + (op == 1))
    if op == 0:
        return text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
    if op == 1:
        return text[:pos] + rng.choice(ALPHABET) + text[pos:]
    return text[:pos] + text[pos + 1:]


def runs(kind: str, damaged: str, base: dict, out: str) -> list[list[str]]:
    """The command lines that read a damaged file of this kind."""
    if kind == "instance":
        return [["color", damaged], ["cover", damaged, "-o", out, "--trace", out + ".trace"],
                ["audit", damaged, "-o", out], ["stats", damaged],
                ["verify", "--instance", damaged, "--cover", base["cover"],
                 "--coloring", base["coloring"]],
                ["render", damaged, "-o", out, "--coloring", base["coloring"],
                 "--trace", base["trace"]]]
    if kind == "graph":
        return [["stats", damaged]]
    if kind == "cover":
        return [["verify", "--instance", base["instance"], "--cover", damaged]]
    if kind == "coloring":
        return [["verify", "--instance", base["instance"], "--coloring", damaged],
                ["render", base["instance"], "-o", out, "--coloring", damaged]]
    return [["render", base["instance"], "-o", out, "--trace", damaged]]


def quiet_run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def test_damaged_artifacts_end_with_a_documented_exit_and_one_line(tmp_path):
    base = {kind: str(tmp_path / f"base.{kind}")
            for kind in ("instance", "graph", "cover", "coloring", "trace")}
    for argv in (["gen", "--family", "circulant", "--n", "8", "--k", "3", "-o", base["instance"]],
                 ["gen", "--family", "cs", "--k", "2", "-o", base["graph"]],
                 ["cover", base["instance"], "-o", base["cover"], "--trace", base["trace"]],
                 ["color", base["instance"], "-o", base["coloring"]]):
        assert quiet_run(argv) == (0, "")
    texts = {kind: Path(path).read_text() for kind, path in base.items()}
    damaged, out = tmp_path / "damaged", str(tmp_path / "out")
    rng = random.Random(SEED)
    seen = set()
    for case in range(CASES):
        kind = rng.choice(sorted(texts))
        text = mutate(texts[kind], rng)
        damaged.write_text(text, encoding="utf-8", newline="")
        for argv in runs(kind, str(damaged), base, out):
            code, err = quiet_run(argv)
            assert code in ALLOWED[argv[0]], (case, argv, text, err)
            assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (case, argv, text, err)
            seen.add((argv[0], code))
    # the edits reach past the parsers
    assert {("verify", 4), ("cover", 0), ("render", 0), ("stats", 4)} <= seen, sorted(seen)
