"""Command-line front end.

Subcommands: gen, cover, color, audit, verify, stats, bench, render.
Exit codes: 0 success, 1 usage, 2 parse or file read/write failure or an
artifact of another instance, 3 precondition violation (an independent
triple), 4 an alpha/omega oracle limit (stats), an invalid artifact (verify)
or an internal structure/audit failure.

With -o the artifact goes to that file only, and stdout carries at most one
summary line (audit: its `result` line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .core import AbstractGraph, Instance
from .cover import cover_from_text, cover_to_text, cover_three_cliques, trace_from_text, trace_to_text
from .errors import (DuplicatePoint, ParseError, StabilityViolated,
                     StructureViolation, UdgError)
from .instances import (gen_circulant, gen_cs, gen_two_cluster, graph_from_text,
                        instance_from_text, parse_scalar, read_instance,
                        read_records, write_graph, write_instance)
from .matching import (audit_bound, color_via_complement_matching,
                       coloring_from_text, coloring_to_text,
                       sweep_greedy_color)
from .oracles import (ALPHA_OMEGA_MAX, CHROMA_MAX, _require_alpha_omega,
                      brute_chi, brute_omega, brute_stats, verify_cover,
                      verify_coloring)
from .render import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, newline="\n")


def _load_any_graph(path: str) -> AbstractGraph:
    """Instance or abstract graph file, sniffed by the header keyword.  The
    vertex count its header declares, which sizes the graph, is held to the
    alpha/omega limit before the rest of the file is read."""
    with open(path) as f:
        first = f.readline()
        head = (first.split(None, 1) or [""])[0]
        if head not in ("udg", "graph"):
            raise ParseError(1, f"unknown artifact header {head!r} in {path}")
        _require_alpha_omega(read_records(first, head, 1)[1])
        text = first + f.read()
    return instance_from_text(text).graph if head == "udg" else graph_from_text(text)


def _separation(raw: str) -> Fraction:
    """Coordinate grammar: Fraction('1e999999999') would compute 10**999999999."""
    try:
        return parse_scalar(raw, 1)
    except ParseError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or num/den, got {raw!r}") from None


def _cmd_gen(args) -> int:
    needs = {"circulant": ("n", "k"), "cs": ("k",), "two_cluster": ("n",)}[args.family]
    if any(getattr(args, name) is None for name in needs):
        raise _UsageError(f"{args.family} needs " + " and ".join(f"--{name}" for name in needs))
    try:  # the generators raise ValueError for out-of-range parameters
        if args.family == "circulant":
            made = gen_circulant(args.n, args.k)
        elif args.family == "cs":
            made = gen_cs(args.k)
        else:
            made = gen_two_cluster(args.n, seed=args.seed, separation=args.separation)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.family == "cs":
        write_graph(args.output, made)
    else:
        write_instance(args.output, made)
    return EXIT_OK


def _cmd_cover(args) -> int:
    inst = read_instance(args.input)
    cover, trace = cover_three_cliques(inst)
    _write_text(args.output, cover_to_text(cover, inst.id))
    if args.trace:
        if trace is None:
            print("note: no disk-case trace for this instance", file=sys.stderr)
        else:
            _write_text(args.trace, trace_to_text(trace, inst.id))
    return EXIT_OK


def _omega(inst: Instance) -> int | None:
    """The clique number, or None (printed `?`) above the alpha/omega limit."""
    return brute_omega(inst.graph) if inst.n <= ALPHA_OMEGA_MAX else None


def _cmd_color(args) -> int:
    inst = read_instance(args.input)
    coloring = color_via_complement_matching(inst)
    if args.output:
        _write_text(args.output, coloring_to_text(coloring, inst.id))
    omega = _omega(inst)
    shown = "?" if omega is None else f"{omega} bound={(3 * omega) // 2}"
    print(f"colors={coloring.num_colors} omega={shown}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    inst = read_instance(args.input)
    report = audit_bound(inst)
    text = report.to_text()
    if args.output:
        _write_text(args.output, text)
        text = text.splitlines(keepends=True)[-1]  # `result PASS` or `result FAIL`
    print(text, end="")
    return EXIT_OK if report.all_pass else EXIT_INTERNAL


def _cmd_verify(args) -> int:
    if not args.cover and not args.coloring:
        raise _UsageError("verify needs --cover and/or --coloring")
    inst = read_instance(args.instance)
    # print nothing until both artifacts are read, so that a parse error or
    # an artifact of another instance is the only line
    verdicts = []  # (kind, path, violation or None)
    if args.cover:
        cover = _read_artifact("cover", args.cover, cover_from_text, inst)
        verdicts.append(("cover", args.cover, verify_cover(inst.graph, cover)))
    if args.coloring:
        coloring = _read_artifact("coloring", args.coloring, coloring_from_text, inst)
        verdicts.append(("coloring", args.coloring, verify_coloring(inst.graph, coloring)))
    for kind, path, bad in verdicts:
        print(f"{kind} {path}: {'ok' if bad is None else bad.message}")
    return EXIT_OK if all(bad is None for _, _, bad in verdicts) else EXIT_INTERNAL


def _cmd_stats(args) -> int:
    stats = brute_stats(_load_any_graph(args.input))
    chi = "?" if stats.chi is None else stats.chi
    ccn = "?" if stats.clique_cover_number is None else stats.clique_cover_number
    print(f"alpha={stats.alpha} omega={stats.omega} chi={chi} "
          f"clique_cover_number={ccn}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise NotADirectoryError(f"corpus {args.corpus!r} is not a directory")
    rows = []
    for path in sorted(corpus.glob("*.udg")):
        inst = read_instance(path)
        greedy = sweep_greedy_color(inst).num_colors
        try:
            matching = color_via_complement_matching(inst).num_colors
        except StabilityViolated:
            matching = None
        omega = _omega(inst)
        chi = brute_chi(inst.graph) if inst.n <= CHROMA_MAX else None
        bound = (3 * omega) // 2 if omega is not None else None
        rows.append((inst.id, inst.n, omega, greedy, matching, chi, bound))

    def show(v) -> str:
        return "?" if v is None else str(v)

    lines = ["instance\tn\tomega\tgreedy\tmatching\tchi\tbound"]
    for row in rows:
        lines.append("\t".join(show(v) for v in row))
    table = "\n".join(lines) + "\n"
    if args.output:
        _write_text(args.output, table)
    else:
        print(table, end="")
    return EXIT_OK


def _read_artifact(kind: str, path: str, parse, inst: Instance):
    """The artifact parse(text) reads from the file at path; ParseError when
    it names another instance than inst."""
    instance_id, artifact = parse(Path(path).read_text())
    if instance_id != inst.id:
        raise ParseError(1, f"{kind} names instance {instance_id!r}, expected {inst.id!r}")
    return artifact


def _cmd_render(args) -> int:
    inst = read_instance(args.input)
    coloring = (_read_artifact("coloring", args.coloring, coloring_from_text, inst)
                if args.coloring else None)
    trace = _read_artifact("trace", args.trace, trace_from_text, inst) if args.trace else None
    _write_text(args.output, render_svg(inst, coloring, trace))
    return EXIT_OK


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="udgcolor", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance or abstract graph file")
    p.add_argument("--family", required=True, choices=["circulant", "cs", "two_cluster"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation", type=_separation, default="1")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cover", help="three-clique cover of an instance")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("color", help="matching-based coloring")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("audit", help="inequality audit of the coloring bound")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("verify", help="re-verify emitted artifacts")
    p.add_argument("--instance", required=True)
    p.add_argument("--cover")
    p.add_argument("--coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="exact alpha/omega/chi within limits")
    p.add_argument("input")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench", help="greedy vs matching vs exact chi table")
    p.add_argument("corpus")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("render", help="SVG drawing of an instance")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--coloring")
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: list[str]) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DuplicatePoint, OSError, UnicodeDecodeError) as exc:
        # OSError and UnicodeDecodeError: a missing, unreadable or binary
        # file, or a directory, where a text file was expected
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StabilityViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except StructureViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except UdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
