"""Smoke test of the benchmark harness at its tiny scale.

One xilinx_sample run, untraced and traced, through the harness's own output
checks (one data_design.json per design in the archive, table rows against
its own cost model). It writes only under the repository's ``.bench_runs/``.
No timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_xilinx_sample_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--tiny", "--workload", "xilinx_sample",
         "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
