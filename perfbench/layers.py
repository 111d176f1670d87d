"""Outside-in layer trace for the udgcolor benchmark.

The tracer wraps public functions of the ``udgcolor`` package from outside:
each wrapped function is replaced in every ``udgcolor`` module namespace that
holds it, so calls through a module global and calls through a function-local
``from .x import f`` both reach the wrapper.  Timed functions record one span
(name, start, end, parent span, op id) per call; hot leaves only count calls,
because a span per exact predicate evaluation would cost more than the
predicate.  Spans stay in memory and are reduced per pass by ``summarize``.

Everything runs in one thread of one process and nothing waits on another
thread, a lock or the network, so there is no wait metric.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# layer (udgcolor module) -> functions that get a span per call
TIMED = {
    "cli": ("run",),
    "instances": ("read_instance",),
    "core": ("instance_graph", "stability_witness", "complement", "is_clique"),
    "geom": ("hull_decomposition", "point_in_hull", "smallest_enclosing_disk"),
    "cover": ("cover_three_cliques", "far_pair_cover", "collinear_cover",
              "disk_case_cover", "hollow_pivot", "partition_from_cover"),
    "matching": ("color_via_complement_matching", "max_matching",
                 "gallai_edmonds", "audit_bound"),
    "oracles": ("verify_cover", "max_independent_set", "brute_omega"),
}

# hot leaves: exact predicate evaluations and boundary walks, counted only
COUNTED = {
    "geom": ("sq_dist", "orientation", "cross"),
    "core": ("interval_closed",),
}

# No workload reaches these two (no instance or audit sub-instance is
# collinear, and every instance has n > 30, above the brute-omega limit of
# `color`).  Their self time would read 0.0 on every run, so only their call
# counts are reported; a count that leaves 0 is itself the signal.
NEVER_REACHED = ("cover.collinear_cover", "oracles.brute_omega")

BRANCHES = ("complete", "collinear", "far_pair", "nonedge", "narrow", "split")
_CONSTRUCTORS = {"cover.far_pair_cover": "far_pair",
                 "cover.collinear_cover": "collinear"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []
    for layer, fns in TIMED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count"))
            if f"{layer}.{fn}" not in NEVER_REACHED:
                out.append((f"{layer}.{fn}.self_s", "s"))
    for layer, fns in COUNTED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count"))
    out.append(("core.instance_graph.per_op", "1/op"))
    out.append(("oracles.verify_cover.per_op", "1/op"))
    out.extend((f"cover.branch.{b}", "count") for b in BRANCHES)
    out.append(("trace_overhead", "ratio"))
    return out


class Tracer:
    """In-memory span recorder; ``install()`` swaps the wrappers in and
    ``uninstall()`` puts the originals back."""

    def __init__(self):
        self._swapped: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, op id, note]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _timed(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if note is not None:
                rec[5] = note(result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, layer: str, fn: str, original):
        name = f"{layer}.{fn}"
        if fn in COUNTED.get(layer, ()):
            return self._counted(name, original)
        # the returned trace's mode names the disk-case branch
        note = _trace_mode if name == "cover.cover_three_cliques" else None
        return self._timed(name, original, note)

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "udgcolor" or name.startswith("udgcolor.")]
        for layer, fn in [(layer, fn) for table in (TIMED, COUNTED)
                          for layer, fns in table.items() for fn in fns]:
            original = getattr(importlib.import_module(f"udgcolor.{layer}"), fn)
            wrapper = self._wrap(layer, fn, original)
            for mod in modules:
                if getattr(mod, fn, None) is original:
                    setattr(mod, fn, wrapper)
                    self._swapped.append((mod, fn, original))

    def uninstall(self) -> None:
        for mod, fn, original in reversed(self._swapped):
            setattr(mod, fn, original)
        self._swapped = []


def _trace_mode(result):
    _, trace = result
    return None if trace is None else trace.mode


def summarize(tracer: Tracer, op_commands: list[str]) -> dict:
    """Reduce one traced pass to calls, self time, ratios and branch counts.

    ``op_commands[i]`` is the CLI subcommand of op i.  Self time is a span's
    duration minus the durations of its timed children; calls run nested in
    one thread, so the children of a span never overlap.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    kids: dict[int, list[str]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
            kids[s[3]].append(s[0])
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        self_ns[s[0]] += s[2] - s[1] - child_ns[i]
    calls.update(tracer.counts)

    branches = Counter({b: 0 for b in BRANCHES})
    for i, s in enumerate(spans):
        top_level = (s[0] == "cover.cover_three_cliques" and s[3] >= 0
                     and spans[s[3]][0] == "cli.run" and op_commands[s[4]] == "cover")
        if not top_level:
            continue
        if s[5] is not None:
            branches[s[5]] += 1
            continue
        ran = [_CONSTRUCTORS[k] for k in kids[i] if k in _CONSTRUCTORS]
        branches[ran[0] if ran else "complete"] += 1

    per_op = Counter()
    for s in spans:
        cmd = op_commands[s[4]] if s[4] >= 0 else None
        if s[0] == "core.instance_graph" and cmd in ("cover", "color"):
            per_op["graph_builds"] += 1
        elif s[0] == "oracles.verify_cover" and cmd == "cover":
            per_op["cover_verifications"] += 1
    ops = Counter(op_commands)

    return {
        "calls": dict(calls),
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "branches": dict(branches),
        "graph_builds": per_op["graph_builds"],
        "graph_build_ops": ops["cover"] + ops["color"],
        "cover_verifications": per_op["cover_verifications"],
        "cover_ops": ops["cover"],
    }
