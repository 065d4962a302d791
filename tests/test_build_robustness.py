"""A build survives bad designs, leaves no process behind and keeps no stale results."""

from __future__ import annotations

import shutil
import time
from dataclasses import asdict

from hlsforge.aggregate import (
    COLUMNS,
    ExecutionMeta,
    HlsSynthMetrics,
    ImplMetrics,
    MetricsBundle,
    aggregate_collection,
    read_standard_json,
    row_from_design_dir,
    write_standard_json,
)
from hlsforge.cli import build_flow_specs, bundled_designs_dir, extract_reports, run_flows
from hlsforge.core import WorkspaceLayout, load_dataset, load_post_frontend
from hlsforge.frontends import FrontendConfig, execute_frontend
from hlsforge.toolflows import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    MockCostConstants,
    custom_flow,
    perturbed_constants,
    run_flow,
)


def expanded_gemm(tmp_path, n_samples: int):
    source = tmp_path / "src_ds"
    shutil.copytree(bundled_designs_dir() / "gemm", source / "gemm")
    work = tmp_path / "work"
    result = execute_frontend({"ds": load_dataset(source, "ds")},
                              FrontendConfig(n_samples=n_samples, seed=5), WorkspaceLayout(work))
    assert not result.failures
    return work, load_post_frontend(work)


def mock_specs(constants: MockCostConstants):
    overrides = asdict(constants)
    return build_flow_specs([{"type": "mock_synth", "constants": overrides},
                             {"type": "mock_impl", "constants": overrides}])


def build(collection, specs):
    results, _ = run_flows(collection, specs, "fine_grained", 2, False)
    extract_reports(collection, specs, results)
    return results


def test_one_bad_design_fails_alone(tmp_path):
    _, collection = expanded_gemm(tmp_path, n_samples=4)
    designs = collection["ds__post_frontend"].designs
    bad = designs[1]
    with (bad.dir / "opt.tcl").open("a") as handle:
        handle.write("set_directive_unroll -factor abc gemm/lp1\n")

    results = build(collection, mock_specs(MockCostConstants()))

    synth = results["mock_hls_synth"]
    assert synth[bad.id].status == STATUS_FAILED
    assert "ValueError" in synth[bad.id].log_path.read_text()
    for design in designs:
        if design is not bad:
            assert synth[design.id].status == STATUS_OK
            assert results["mock_impl"][design.id].status == STATUS_OK


def test_timeout_kills_the_whole_process_group(tmp_path):
    _, collection = expanded_gemm(tmp_path, n_samples=1)
    design = collection["ds__post_frontend"].designs[0]
    spec = custom_flow("bg", ("sh", "-c", "(sleep 1; touch late.txt) & sleep 5"), timeout_s=0.3)
    outcome = run_flow(spec, design)
    assert outcome.status == STATUS_TIMEOUT
    time.sleep(1.5)
    assert not (design.dir / "late.txt").exists()


def test_failed_rebuild_keeps_no_results_of_the_old_version(tmp_path):
    work, collection = expanded_gemm(tmp_path, n_samples=1)
    design = collection["ds__post_frontend"].designs[0]
    build(collection, mock_specs(MockCostConstants()))
    assert row_from_design_dir(design.dir, "ds__post_frontend").has_impl

    with (design.dir / "opt.tcl").open("a") as handle:
        handle.write("set_directive_unroll -factor 2 gemm/nosuchloop\n")
    results = build(collection, mock_specs(perturbed_constants()))
    assert results["mock_hls_synth"][design.id].status == STATUS_FAILED

    [row] = aggregate_collection(work).rows
    for name in COLUMNS:
        if name.startswith(("hls_", "impl_")):
            assert getattr(row, name) is None, name
    assert row.exec_status == STATUS_FAILED
    assert row.exec_tool_version == perturbed_constants().version


def test_rewrite_drops_sections_now_absent(tmp_path):
    hls = HlsSynthMetrics(10, 10, 20, None, 3.0, 100, 80, 1, 2, 0)
    impl = ImplMetrics(6.5, 0.1, 90, 72, 1, 2, 0.6)
    write_standard_json(tmp_path, MetricsBundle(hls, impl, ExecutionMeta("s", "A", 0.1, "ok")))
    execution = ExecutionMeta("s", "B", 0.0, "failed")
    written = write_standard_json(tmp_path, MetricsBundle(execution=execution))
    assert written == [tmp_path / "data_execution.json"]
    assert read_standard_json(tmp_path) == MetricsBundle(execution=execution)
