"""Smoke test of the benchmark harness at its tiny scale.

One run per workload, untraced and traced, through the harness's own output
checks. xilinx_sample checks one data_design.json per design in the archive
and the table rows against the harness's own cost model. external_skew is the
only run of external tool chains through the harness: each job takes at least
its scripted sleep, and each round's makespan is at or above its work bound.
intel_ab is the only run of an intel lowering, a rebuild of a built tree under
a second tool version, load_table's CSV reader and compare_tool_versions
through the harness. It writes only under the repository's ``.bench_runs/``.
No timing is asserted beyond those checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["xilinx_sample", "external_skew", "intel_ab"])
def test_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--tiny", "--workload", workload, "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
