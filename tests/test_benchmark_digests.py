"""The benchmark's artifact digests stay what they were.

perfbench/run.py hashes every cover, trace, coloring and audit text of its
first pass over a workload into one digest.  The digests below were recorded
before the disk-case trace became one label table; a change that is meant to
keep every artifact byte must keep them.  The benchmark is run as a
subprocess and nothing under perfbench/ is written to.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SEED_1_DIGESTS = {
    "far_pair": "17505657c589952e492900b1e7a28915c0b5217d5d96e32253034bd70d4a1a75",
    "disk": "154f8fe5be33e762974c4cd670efd5376783b2f1e34aa54dc08eb1fcd1264bc2",
    "circulant": "68b7bf3f5bf65857caea4d1a7d1e97fcebc100f836832af26fcb079ec4abd28a",
}


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_seed_1_digest(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    assert details["digests_agree"]
    assert details["digest"] == SEED_1_DIGESTS[workload]
