"""Every metric of every workload, on the default and on a held-out seed.

    python3 perfbench/report.py [--seconds 30] [--out FILE]

Runs run.py in a fresh process per run: untraced on DEFAULT_SEED and on
HELD_OUT_SEED, then traced on DEFAULT_SEED, for each workload in
BENCHMARK.json.  Prints one line per metric with its unit and the artifact
digest of each workload, and writes all results as JSON with ``--out``.
A claimed gain must hold on both seeds; compare digests across commits to
show that artifacts stayed byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    details_line, result_line = proc.stdout.splitlines()[-2:]
    return {"details": json.loads(details_line)["details"], "result": json.loads(result_line)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (DEFAULT_SEED, 1)):
            outcome = run(workload, seed, trace, args.seconds)
            runs.append({"workload": workload, "seed": seed, "trace": trace, **outcome})
            result, details = outcome["result"], outcome["details"]
            print(f"# {workload} seed={seed} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"error_rate={details['error_rate']} passes={details['passes']} "
                  f"digest={details['digest']}", flush=True)
            for name, metric in result["metrics"].items():
                print(f"{workload}\t{seed}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.system()}, "
                       f"{os.cpu_count()} logical CPUs",
            "seconds": args.seconds,
            "runs": runs,
        }, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
