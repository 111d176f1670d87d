"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced end to end and checks that each
metric BENCHMARK.json names is reported with its unit, that no operation
failed, and that tracing leaves the artifacts byte-identical.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_without_errors(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(HERE.parent, workload, trace)
        assert proc.returncode == 0, proc.stderr
        details_line, result_line = proc.stdout.splitlines()[-2:]
        result = json.loads(result_line)
        details = json.loads(details_line)["details"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[section]}
        assert result["correct"] is True
        assert result["attempted"] > 0 and result["failed"] == 0
        assert details["error_rate"] == 0
        assert details["digests_agree"] is True
        digests.append(details["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_product(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
