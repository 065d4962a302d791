"""Pins of the table schema, of the flow specs built from a run config and of
the slotted per-design records.

These fix today's column names and order, the column types a reloaded table
carries, and the exact ToolFlowSpec every external flow type produces, so a
change to how they are declared cannot change what they are. The records a
run keeps one or more of per design in its main process carry no
per-instance __dict__.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import pytest

from hlsforge.aggregate import COLUMNS, AggregatedRow, AggregatedTable, export_tabular, load_table
from hlsforge.cli import build_flow_specs
from hlsforge.executor import ExecutionRecord, Job
from hlsforge.optdsl import Selection
from hlsforge.toolflows import KIND_EXTERNAL, FlowOutcome, ToolFlowSpec

PINNED_COLUMNS = (
    "design_id", "base_name", "dataset", "vendor",
    "assignment_summary", "n_directives", "max_unroll", "n_unrolled", "n_partitioned",
    "hls_latency_best_cycles", "hls_latency_avg_cycles", "hls_latency_worst_cycles", "hls_ii",
    "hls_clock_estimate_ns", "hls_lut", "hls_ff", "hls_dsp", "hls_bram", "hls_uram",
    "impl_wns_ns", "impl_whs_ns", "impl_lut", "impl_ff", "impl_dsp", "impl_bram",
    "impl_total_power_w",
    "exec_tool_name", "exec_tool_version", "exec_runtime_s", "exec_status",
)

PINNED_TYPES = {
    "design_id": str, "base_name": str, "dataset": str, "vendor": str,
    "assignment_summary": str, "n_directives": int, "max_unroll": int, "n_unrolled": int,
    "n_partitioned": int,
    "hls_latency_best_cycles": int, "hls_latency_avg_cycles": int,
    "hls_latency_worst_cycles": int, "hls_ii": int, "hls_clock_estimate_ns": float,
    "hls_lut": int, "hls_ff": int, "hls_dsp": int, "hls_bram": int, "hls_uram": int,
    "impl_wns_ns": float, "impl_whs_ns": float, "impl_lut": int, "impl_ff": int,
    "impl_dsp": int, "impl_bram": int, "impl_total_power_w": float,
    "exec_tool_name": str, "exec_tool_version": str, "exec_runtime_s": float,
    "exec_status": str,
}


def test_columns_are_pinned():
    assert COLUMNS == PINNED_COLUMNS
    assert set(PINNED_TYPES) == set(PINNED_COLUMNS)


def full_row(i: int) -> AggregatedRow:
    values = {}
    for n, name in enumerate(PINNED_COLUMNS):
        kind = PINNED_TYPES[name]
        if kind is int:
            values[name] = 10 * i + n
        elif kind is float:
            values[name] = i + n / 8 + 0.1
        else:
            values[name] = f"{name}-{i}"
    return AggregatedRow(**values)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip_restores_each_column_type(tmp_path, fmt):
    rows = [full_row(i) for i in range(3)]
    path = export_tabular(AggregatedTable(rows), tmp_path / f"t.{fmt}", format=fmt)
    loaded = load_table(path)
    assert [r.as_dict() for r in loaded.rows] == [r.as_dict() for r in rows]
    for row in loaded.rows:
        for name in PINNED_COLUMNS:
            assert type(getattr(row, name)) is PINNED_TYPES[name], name


# sha256 of the exports of full_row(0), full_row(1), full_row(2) and an all-null
# row, recorded before the exports were written row by row
PINNED_EXPORTS = {
    "csv": "ccb4aeb76dbf4ea37370b79e3fca57e310cc454dcbd8241af8d5f71c720cf7cd",
    "jsonl": "d1a1cff4b0898d3d8520223237fb889651a91b1ecce6df215e01756171f7f202",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_export_bytes_are_pinned(tmp_path, fmt):
    table = AggregatedTable([full_row(i) for i in range(3)] + [AggregatedRow()])
    path = export_tabular(table, tmp_path / f"t.{fmt}", format=fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_EXPORTS[fmt]


def test_round_trip_keeps_nulls(tmp_path):
    row = AggregatedRow(design_id="d", dataset="x")
    for fmt in ("csv", "jsonl"):
        loaded = load_table(export_tabular(AggregatedTable([row]), tmp_path / f"n.{fmt}",
                                           format=fmt))
        assert loaded.rows[0].as_dict() == row.as_dict()


ENV = {"environment": {"B": 2, "A": "1"}}
PINNED_ENV = (("A", "1"), ("B", "2"))


@pytest.mark.parametrize("raw, expected", [
    ({"type": "vitis_hls_synth", "executable": "sh", **ENV},
     ToolFlowSpec(name="vitis_hls_synth", kind=KIND_EXTERNAL,
                  required_files=("dataset_hls.tcl",), timeout_s=3600.0,
                  environment=PINNED_ENV, command_template=("sh", "-f", "dataset_hls.tcl"),
                  version_command=("sh", "-version"))),
    ({"type": "vitis_hls_impl", "executable": "sh"},
     ToolFlowSpec(name="vitis_hls_impl", kind=KIND_EXTERNAL,
                  required_files=("dataset_hls_ip_export.tcl",), timeout_s=3600.0,
                  command_template=("sh", "-f", "dataset_hls_ip_export.tcl"),
                  version_command=("sh", "-version"))),
    ({"type": "intel_hls", "executable": "sh"},
     ToolFlowSpec(name="intel_hls", kind=KIND_EXTERNAL, required_files=(), timeout_s=3600.0,
                  command_template=("sh", "-march=FPGA", "--quartus-compile", "{sources}"),
                  version_command=("sh", "--version"))),
    ({"type": "intel_hls", "executable": "sh", "command": ["sh", "-c", "true"],
      "timeout_s": 9, **ENV},
     ToolFlowSpec(name="intel_hls", kind=KIND_EXTERNAL, required_files=(), timeout_s=9.0,
                  environment=PINNED_ENV, command_template=("sh", "-c", "true"),
                  version_command=("sh", "--version"))),
    ({"type": "custom", "command": ["sh", "-c", "true"], "required_files": ["in.txt"], **ENV},
     ToolFlowSpec(name="custom_0", kind=KIND_EXTERNAL, required_files=("in.txt",),
                  timeout_s=3600.0, environment=PINNED_ENV,
                  command_template=("sh", "-c", "true"))),
])
def test_external_flow_specs_are_pinned(raw, expected):
    assert build_flow_specs([raw]) == [expected]


JOB = Job("a__0000beef", "ds__post_frontend", "mock_hls_synth")
RECORDS = {
    "AggregatedRow": AggregatedRow(design_id="a__0000beef", hls_lut=7, impl_wns_ns=0.5),
    "Selection": Selection("g", "lp1", 0, "pipeline", "unroll", "4"),
    "FlowOutcome": FlowOutcome("a__0000beef", "mock_hls_synth", "ok", 0.25, Path("a.log")),
    "Job": JOB,
    "ExecutionRecord": ExecutionRecord(JOB, 1, 0.0, 0.25, "ok"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_per_design_records_are_slotted_and_pickle(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__")
    # a frozen slotted dataclass's own __setattr__ raises TypeError for a name
    # that is no field on CPython 3.11 (its super() names the pre-slots class)
    with pytest.raises((AttributeError, TypeError)):
        record.no_such_field = 1
    with pytest.raises(AttributeError):  # no slot for it past __setattr__ either
        object.__setattr__(record, "no_such_field", 1)
    # FlowOutcome crosses the fork pool; a frozen slotted class needs its own pickling
    assert pickle.loads(pickle.dumps(record)) == record
