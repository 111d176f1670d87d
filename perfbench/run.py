"""udgcolor benchmark: `cover`, `color` and `audit` latency on seeded corpora.

    python3 perfbench/run.py --workload far_pair --seed 1 --seconds 30 --trace 0

Run from anywhere; the product is imported from ``src/`` next to this
directory and nowhere else.  The load is a closed loop: one client in one
thread calls ``udgcolor.cli.run`` in-process for each instance of the workload
(``cover --trace``, then ``color``, then ``audit``), passes over the whole
instance list until ``--seconds`` have elapsed, and always finishes the pass it
is in, so every instance contributes equally.  GC stays on.  Artifacts are
checked after each pass, outside the timed calls.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics of one pass
(see layers.py).  The last line of stdout is the JSON result; the line before
it holds the details (tail percentile and sample counts, artifact digest,
branch validity, failures).  Workloads and the layer -> end-to-end -> workload
map are explained in NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from layers import BRANCHES, Tracer, metric_names, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("far_pair", "disk", "circulant")
COMMANDS = ("cover", "color", "audit")
# Three size tiers with several instances each.  The median then falls in
# the middle of the middle tier and the 75th percentile inside the top tier,
# so neither sits where two sizes meet, and each is a median over several
# instances rather than one instance's geometry.  (With one instance per
# size, the few instances whose audit is 2-3x slower than their neighbours
# shifted the median by 20% between seeds.)
TWO_CLUSTER_TIERS = (50, 80, 110)
TWO_CLUSTER_PER_TIER = 5
# all below sqrt(3) - 1, so every two-cluster instance is in the disk case
DISK_SEPARATIONS = ("7/10", "1/2", "1/4")
# C(3k-1, k); k >= 11 keeps n > 30, above the brute-omega limit of `color`.
# Several shuffles per k, because the cover's cost depends on vertex order.
CIRCULANT_KS = (12, 16, 20)
CIRCULANT_SHUFFLES = 4
TOY_SIZES = (10, 14, 18)
TOY_KS = (4, 5, 6)
SETUP_REPEATS = 5
# The tail percentile is fixed so that it means the same on every commit.
# At 30 s per run this commit completes at least 40 calls per command on
# every workload, which leaves at least ten samples beyond the 75th.
TAIL_PERCENTILE = 75
# The host's speed swings by up to 1.6x over tens of seconds with its
# neighbours' load, which would swamp a 30 s run.  So the benchmark times a
# fixed loop of exact rational distance tests (its own code: no change to the
# product moves it) between consecutive calls and scales each call's wall time
# by CAL_REFERENCE_S over the mean of the loop times on either side.  Every
# time reported is therefore in reference seconds: seconds on a host where the
# loop takes CAL_REFERENCE_S.  Raw wall medians are in the details line.
CAL_REFERENCE_S = 0.005
_CAL_RNG = random.Random(0)
CAL_POINTS = tuple((Fraction(_CAL_RNG.randrange(10 ** 9), 10 ** 9),
                    Fraction(_CAL_RNG.randrange(10 ** 9), 10 ** 9)) for _ in range(30))
EXPECTED_BRANCH = {"far_pair": ("far_pair",),
                   "disk": ("nonedge", "narrow", "split"),
                   "circulant": ("nonedge", "narrow", "split")}


class Product:
    """The parts of udgcolor the benchmark drives and checks with."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        try:
            import udgcolor
            from udgcolor import cli
            from udgcolor.core import AbstractGraph, build_instance
            from udgcolor.cover import cover_from_text, trace_from_text
            from udgcolor.instances import (gen_circulant, gen_two_cluster,
                                            write_instance)
            from udgcolor.matching import coloring_from_text
            from udgcolor.oracles import verify_coloring, verify_cover
        except ImportError as exc:
            raise SystemExit(f"perfbench: cannot import udgcolor from {SRC}: {exc}")
        if Path(udgcolor.__file__).resolve().parent != (SRC / "udgcolor").resolve():
            raise SystemExit(f"perfbench: udgcolor was imported from "
                             f"{udgcolor.__file__}, not from {SRC}")
        self.cli = cli
        self.AbstractGraph = AbstractGraph
        self.build_instance = build_instance
        self.cover_from_text = cover_from_text
        self.trace_from_text = trace_from_text
        self.gen_circulant = gen_circulant
        self.gen_two_cluster = gen_two_cluster
        self.write_instance = write_instance
        self.coloring_from_text = coloring_from_text
        self.verify_coloring = verify_coloring
        self.verify_cover = verify_cover


def calibrate() -> float:
    """Wall time of the fixed calibration loop."""
    start = perf_counter()
    near = 0
    for i, (xi, yi) in enumerate(CAL_POINTS):
        for xj, yj in CAL_POINTS[i + 1:]:
            dx, dy = xi - xj, yi - yj
            if dx * dx + dy * dy <= 1:
                near += 1
    return perf_counter() - start


class Clock:
    """Converts wall times to reference seconds; see CAL_REFERENCE_S."""

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        """Scale for the work timed since the previous call."""
        now = calibrate()
        factor = 2 * CAL_REFERENCE_S / (self.last + now)
        self.last = now
        return factor


@dataclass
class Case:
    index: int
    inst: object
    k: int | None          # circulant parameter; omega = k by construction
    path: Path
    ref: object = None     # reference graph, built on first check


@dataclass
class Op:
    case: int
    cmd: str
    rc: int | None
    error: str | None
    output: str
    texts: dict


def make_instances(prod: Product, workload: str, seed: int, toy: bool) -> list:
    """The workload's instances, each with its circulant k (else None)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "circulant":
        ks, copies = (TOY_KS, 1) if toy else (CIRCULANT_KS, CIRCULANT_SHUFFLES)
        out = []
        for k in ks:
            base = prod.gen_circulant(3 * k - 1, k)
            for _ in range(copies):
                order = list(range(base.n))
                rng.shuffle(order)
                shuffled = prod.build_instance(f"{base.id}-shuffled-{seed}-{len(out)}",
                                               [base.points[v] for v in order])
                out.append((shuffled, k))
        return out
    tiers, copies = (TOY_SIZES, 1) if toy else (TWO_CLUSTER_TIERS, TWO_CLUSTER_PER_TIER)
    sizes = [n for n in tiers for _ in range(copies)]
    separations = DISK_SEPARATIONS if workload == "disk" else (1,)
    return [(prod.gen_two_cluster(n, rng.randrange(2 ** 31),
                                  separations[i % len(separations)]), None)
            for i, n in enumerate(sizes)]


def reference_graph(prod: Product, inst):
    """Unit-distance graph from the exact coordinates, built here rather
    than by the engine's own kernel."""
    pts = inst.points
    edges = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
             if (pts[i].x - pts[j].x) ** 2 + (pts[i].y - pts[j].y) ** 2 <= 1]
    return prod.AbstractGraph(len(pts), edges, id=inst.id)


def outputs(cmd: str, case: Case, work: Path) -> dict[str, Path]:
    out = {"out": work / f"{case.index}.{cmd}"}
    if cmd == "cover":
        out["trace"] = work / f"{case.index}.trace"
    return out


def run_op(prod: Product, cmd: str, case: Case, work: Path) -> tuple[float, Op]:
    """One timed CLI call; reading its artifacts back is not timed."""
    files = outputs(cmd, case, work)
    argv = [cmd, str(case.path), "-o", str(files["out"])]
    if "trace" in files:
        argv += ["--trace", str(files["trace"])]
    sink = io.StringIO()
    rc, failure = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            rc = prod.cli.run(argv)
        except Exception as exc:  # an uncaught exception is a failed operation
            failure = exc
        elapsed = perf_counter() - start
    error = None
    if failure is not None:
        error = "".join(traceback.format_exception_only(type(failure), failure)).strip()
    texts = {}
    for kind, path in files.items():
        if path.exists():
            texts[kind] = path.read_text()
            path.unlink()
    return elapsed, Op(case.index, cmd, rc, error, sink.getvalue(), texts)


def check(prod: Product, case: Case, op: Op) -> str | None:
    """Why the operation's artifacts are wrong, or None when they are right."""
    if op.error is not None:
        return f"raised {op.error}"
    if op.rc != 0:
        return f"exit {op.rc}: {op.output.strip()[-300:]}"
    if case.ref is None:
        case.ref = reference_graph(prod, case.inst)
    g = case.ref
    text = op.texts.get("out")
    if text is None:
        return "wrote no output file"
    if op.cmd == "cover":
        inst_id, cover = prod.cover_from_text(text)
        bad = prod.verify_cover(g, cover)
        if bad is not None:
            return f"cover fails verification: {bad.message}"
        if "trace" in op.texts:
            trace_id, _ = prod.trace_from_text(op.texts["trace"])
            if trace_id != case.inst.id:
                return f"trace names instance {trace_id!r}"
    elif op.cmd == "color":
        inst_id, coloring = prod.coloring_from_text(text)
        bad = prod.verify_coloring(g, coloring, max_class_size=2)
        if bad is not None:
            return f"coloring fails verification: {bad.message}"
        if case.k is not None and coloring.num_colors > (3 * case.k) // 2:
            return f"{coloring.num_colors} colors exceed floor(3k/2) for k={case.k}"
    else:
        inst_id = text.split(None, 2)[1] if text.startswith("audit ") else None
        if text.rstrip("\n").rsplit("\n", 1)[-1] != "result PASS":
            return "audit does not end in 'result PASS'"
    if inst_id != case.inst.id:
        return f"artifact names instance {inst_id!r}, expected {case.inst.id!r}"
    return None


class Checker:
    """Checks artifacts and digests passes.  Artifacts are deterministic, so
    byte-identical repeats of an already checked operation reuse its
    verdict."""

    def __init__(self, prod: Product, cases: list[Case]):
        self.prod = prod
        self.cases = cases
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def review(self, ops: list[Op]) -> str:
        digest = hashlib.sha256()
        for op in ops:
            key = (op.case, op.cmd, op.rc, op.error, tuple(sorted(op.texts.items())))
            if key not in self.verdicts:
                case = self.cases[op.case]
                try:
                    self.verdicts[key] = check(self.prod, case, op)
                except Exception as exc:  # a malformed artifact fails the op
                    self.verdicts[key] = f"check raised {exc!r}"
            self.attempted += 1
            if self.verdicts[key] is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(
                        f"{op.cmd} {self.cases[op.case].inst.id}: {self.verdicts[key]}")
            digest.update(f"{op.case} {op.cmd}\n".encode())
            for kind in ("out", "trace"):
                digest.update(f"{kind}\n{op.texts.get(kind, '-')}\n".encode())
        return digest.hexdigest()


def setup(prod: Product, workload: str, seed: int, toy: bool, work: Path, clock: Clock):
    """Generate and write the workload's instances, then warm up with one
    call per command on the smallest instance."""
    clock.factor()
    start = perf_counter()
    cases = []
    for i, (inst, k) in enumerate(make_instances(prod, workload, seed, toy)):
        path = work / f"{i}.udg"
        prod.write_instance(path, inst)
        cases.append(Case(i, inst, k, path))
    for cmd in COMMANDS:
        run_op(prod, cmd, cases[0], work)
    elapsed = perf_counter() - start
    return cases, elapsed * clock.factor()


@dataclass
class Pass:
    ops: list
    times: dict     # command -> reference seconds per call
    walls: dict     # command -> wall seconds per call
    speed: float    # median scale factor over the pass

    @property
    def total(self) -> float:
        return sum(sum(v) for v in self.times.values())


def run_pass(prod: Product, cases: list[Case], work: Path, clock: Clock,
             tracer: Tracer | None = None) -> Pass:
    ops: list[Op] = []
    times: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    walls: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    factors = []
    for case in cases:
        for cmd in COMMANDS:
            if tracer is not None:
                tracer.op = len(ops)
            elapsed, op = run_op(prod, cmd, case, work)
            factors.append(clock.factor())
            times[cmd].append(elapsed * factors[-1])
            walls[cmd].append(elapsed)
            ops.append(op)
    return Pass(ops, times, walls, statistics.median(factors))


def tail(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[TAIL_PERCENTILE - 1]


def disk_case_share(ops: list[Op]) -> float:
    covers = [op for op in ops if op.cmd == "cover"]
    return sum("trace" in op.texts for op in covers) / len(covers)


def end_to_end(prod, cases, work, seconds, clock, checker, setup_times, details):
    passes: list[Pass] = []
    digests = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(prod, cases, work, clock))
        digests.append(checker.review(passes[-1].ops))
    details["passes"] = len(passes)
    details["digest"] = digests[0]
    details["digests_agree"] = len(set(digests)) == 1
    details["disk_case_share"] = disk_case_share(passes[0].ops)
    details["speed_factor"] = statistics.median(p.speed for p in passes)
    metrics = {}
    for cmd in COMMANDS:
        values = [t for p in passes for t in p.times[cmd]]
        details[f"{cmd}_p50_wall_s"] = statistics.median(t for p in passes for t in p.walls[cmd])
        metrics[f"{cmd}_p50_s"] = (statistics.median(values), "s")
        metrics[f"{cmd}_tail_s"] = (tail(values), "s")
        details[f"{cmd}_samples"] = len(values)
        details[f"{cmd}_beyond_tail"] = sum(v > metrics[f"{cmd}_tail_s"][0] for v in values)
    timed = sum(p.total for p in passes)
    metrics["instances_per_s"] = (len(passes) * len(cases) / timed, "1/s")
    metrics["success_rate"] = (1 - checker.failed / checker.attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    return metrics, details["digests_agree"]


def per_layer(prod, cases, work, seconds, clock, checker, workload, details):
    tracer = Tracer()
    plain_totals, traced_totals, digests, summaries = [], [], [], []
    start = perf_counter()
    while not summaries or perf_counter() - start < seconds:
        plain = run_pass(prod, cases, work, clock)
        plain_totals.append(plain.total)
        digests.append(checker.review(plain.ops))

        tracer.reset()
        tracer.install()
        try:
            traced = run_pass(prod, cases, work, clock, tracer)
        finally:
            tracer.uninstall()
        traced_totals.append(traced.total)
        digests.append(checker.review(traced.ops))
        summary = summarize(tracer, [op.cmd for op in traced.ops])
        summary["self_s"] = {k: v * traced.speed for k, v in summary["self_s"].items()}
        summaries.append(summary)

    exact = [{k: s[k] for k in ("calls", "branches", "graph_builds", "cover_verifications")}
             for s in summaries]
    first = summaries[0]
    branches = first["branches"]
    covers = sum(branches.values())
    details["passes"] = len(summaries)
    details["digest"] = digests[0]
    details["digests_agree"] = len(set(digests)) == 1
    details["counts_repeat"] = all(e == exact[0] for e in exact)
    details["branch_share"] = {b: branches[b] / covers for b in BRANCHES}
    details["expected_branch_share"] = sum(branches[b] for b in EXPECTED_BRANCH[workload]) / covers
    details["per_op_base"] = {
        "core.instance_graph.per_op": [first["graph_builds"], first["graph_build_ops"], "cover+color ops"],
        "oracles.verify_cover.per_op": [first["cover_verifications"], first["cover_ops"], "cover ops"],
    }
    details["wait"] = "none: one thread in one process, no locks, no network"

    metrics = {}
    for name, unit in metric_names():
        fn, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = (first["calls"].get(fn, 0), unit)
        elif kind == "self_s":
            metrics[name] = (statistics.median(s["self_s"].get(fn, 0.0) for s in summaries), unit)
    metrics["core.instance_graph.per_op"] = (first["graph_builds"] / first["graph_build_ops"], "1/op")
    metrics["oracles.verify_cover.per_op"] = (first["cover_verifications"] / first["cover_ops"], "1/op")
    for b in BRANCHES:
        metrics[f"cover.branch.{b}"] = (branches[b], "count")
    metrics["trace_overhead"] = (statistics.median(traced_totals) / statistics.median(plain_totals), "ratio")
    return metrics, details["digests_agree"] and details["counts_repeat"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny instances, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # the program sees only the generated instances, never a caller's limits
    os.environ.pop("UDG_CHROMA_LIMITS", None)
    prod = Product()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        clock = Clock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            cases, elapsed = setup(prod, args.workload, args.seed, args.toy, work, clock)
            setup_times.append(elapsed)
        checker = Checker(prod, cases)
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "instances": [c.inst.id for c in cases],
                   "tail_percentile": TAIL_PERCENTILE}
        if args.trace:
            metrics, repeatable = per_layer(prod, cases, work, args.seconds, clock,
                                            checker, args.workload, details)
        else:
            metrics, repeatable = end_to_end(prod, cases, work, args.seconds, clock,
                                             checker, setup_times, details)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    details["attempted"] = checker.attempted
    details["failed"] = checker.failed
    details["error_rate"] = checker.failed / checker.attempted
    details["failures"] = checker.failures
    for failure in checker.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0 and repeatable,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
