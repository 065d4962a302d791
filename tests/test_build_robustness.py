"""A build survives bad designs, leaves no process behind and keeps no stale results."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from hlsforge.aggregate import (
    COLUMNS,
    CSYNTH_REPORT_RELPATH,
    IMPL_REPORT_RELPATH,
    ExecutionMeta,
    HlsSynthMetrics,
    ImplMetrics,
    MetricsBundle,
    aggregate_collection,
    load_table,
    parse_vitis_csynth_report,
    read_standard_json,
    row_from_design_dir,
    write_standard_json,
)
from hlsforge.cli import build_flow_specs, bundled_designs_dir, extract_reports, main, run_flows
from hlsforge.core import WorkspaceLayout, load_dataset, load_post_frontend, read_record
from hlsforge.executor import execute
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
from conftest import make_design


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
    assert synth[("ds__post_frontend", bad.id)].status == STATUS_FAILED
    assert "ValueError" in synth[("ds__post_frontend", bad.id)].log_path.read_text()
    for design in designs:
        if design is not bad:
            assert synth[("ds__post_frontend", design.id)].status == STATUS_OK
            assert results["mock_impl"][("ds__post_frontend", design.id)].status == STATUS_OK


def expand_and_build(tmp_path, choices: str, vendor: str, partitions: str = "",
                     forbidden: tuple = ("ZeroDivisionError", "invalid literal")
                     ) -> tuple[int, int, list[str]]:
    """Expand and build, through main, one design whose loop lp1 unrolls by each of
    choices, and whose array buf is partitioned by each of partitions when they are
    given: both exit codes, and the first line of each log the build wrote. No log may
    name any of forbidden."""
    template = (f"g,1,1\n0,lp1,,unroll,[{choices}]\n"
                "set_directive_unroll -factor [factor] top/[name]\n")
    if partitions:
        template += (f"m,1,1\n0,buf,,array_partition,[{partitions}]\n"
                     "set_directive_array_partition -type [type] -factor [factor] top/[name]\n")
    make_design(tmp_path / "src_ds", "d", template=template)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "work_dir": str(tmp_path / "work"), "datasets": {"ds": str(tmp_path / "src_ds")},
        "frontend": {"vendor": vendor, "random_sample": False},
        "flows": [{"type": "mock_synth"}], "executor": {"n_workers": 1}}))
    codes = [main([command, "--config", str(config)]) for command in ("expand", "build")]
    logs = [log.read_text() for log in sorted((tmp_path / "work").rglob("*.log"))]
    assert not any(word in log for log in logs for word in forbidden)
    return *codes, [log.splitlines()[0] for log in logs]


@pytest.mark.parametrize("vendor", ["xilinx", "intel"])
def test_a_directive_factor_of_0_fails_its_point_with_a_typed_error(tmp_path, vendor):
    # it failed with a bare ZeroDivisionError from the cost model's ceiling division
    assert expand_and_build(tmp_path, "0 2", vendor) == (0, 0, [
        "flow mock_hls_synth failed: InvalidFactor: the directive on 'lp1' has factor 0, "
        "not >= 1", "mock hls synth (mock-2023.1) on d__ef76ba21"])


@pytest.mark.parametrize("vendor", ["xilinx", "intel"])
def test_a_factor_that_is_no_integer_fails_its_synthesis_on_either_vendor(tmp_path, vendor):
    # the intel reader skipped "#pragma unroll abc" and "hls_numbanks(abc)", so those
    # designs built ok with no unroll and no banks
    expand_code, build_code, first_lines = expand_and_build(
        tmp_path, "abc 2", vendor, partitions="cyclic-abc cyclic-2",
        forbidden=("ZeroDivisionError",))
    error = "flow mock_hls_synth failed: ValueError: invalid literal for int() with base 10: 'abc'"
    assert (expand_code, build_code) == (0, 0)
    assert first_lines.count(error) == 3  # every design but the one of factors 2 and 2
    [built] = [line for line in first_lines if line != error]
    assert built.startswith("mock hls synth (mock-2023.1) on d__")


@pytest.mark.parametrize("vendor", ["xilinx", "intel"])
def test_a_negative_factor_choice_fails_its_design_at_lowering(tmp_path, capsys, vendor):
    # "-4" splits into "" and "4": the 4 was dropped, and opt.tcl read "-factor  top/lp1"
    assert expand_and_build(tmp_path, "-4 2", vendor) == (1, 4, [])
    assert "FAILED ds/d: UnfilledPlaceholder: template 'set_directive_unroll -factor " \
           "[factor] top/[name]' needs 1 non-empty part(s) for ['factor'], but the choice " \
           "gives ['', '4']\n" in capsys.readouterr().err


def test_designs_sharing_an_id_across_datasets_keep_their_own_outcomes(tmp_path):
    source = tmp_path / "src_ds"
    shutil.copytree(bundled_designs_dir() / "gemm", source / "gemm")
    work = tmp_path / "work"
    sources = {name: load_dataset(source, name) for name in ("a", "b")}
    result = execute_frontend(sources, FrontendConfig(n_samples=3, seed=5), WorkspaceLayout(work))
    assert not result.failures
    collection = load_post_frontend(work)
    bad = collection["a__post_frontend"].designs[1]
    assert bad.id in {design.id for design in collection["b__post_frontend"].designs}
    with (bad.dir / "opt.tcl").open("a") as handle:
        handle.write("set_directive_unroll -factor abc gemm/lp1\n")

    results = build(collection, mock_specs(MockCostConstants()))

    synth = results["mock_hls_synth"]
    assert len(synth) == 6
    assert synth[("a__post_frontend", bad.id)].status == STATUS_FAILED
    assert synth[("b__post_frontend", bad.id)].status == STATUS_OK
    status = {(row.dataset, row.design_id): row.exec_status
              for row in aggregate_collection(work).rows}
    assert status[("a__post_frontend", bad.id)] == STATUS_FAILED
    assert status[("b__post_frontend", bad.id)] == STATUS_OK
    assert sum(s == STATUS_OK for s in status.values()) == 5


def test_timeout_kills_the_whole_process_group(tmp_path):
    _, collection = expanded_gemm(tmp_path, n_samples=1)
    design = collection["ds__post_frontend"].designs[0]
    spec = custom_flow("bg", ("sh", "-c", "(sleep 1; touch late.txt) & sleep 5"), timeout_s=0.3)
    outcome = run_flow(spec, design)
    assert outcome.status == STATUS_TIMEOUT
    time.sleep(1.5)
    assert not (design.dir / "late.txt").exists()


def test_an_interrupt_kills_the_whole_process_group(tmp_path, monkeypatch):
    _, collection = expanded_gemm(tmp_path, n_samples=1)
    design = collection["ds__post_frontend"].designs[0]
    spec = custom_flow("bg", ("sh", "-c", "(sleep 1; touch late.txt) & sleep 5"))

    def interrupted(self, *args, **kwargs):  # Ctrl-C while the tool runs
        time.sleep(0.3)
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_flow(spec, design)
    time.sleep(1.5)
    assert not (design.dir / "late.txt").exists()


def test_a_lost_worker_takes_its_tools_process_group_along(tmp_path):
    source = tmp_path / "src_ds"
    for name in ("fir", "gemm"):
        shutil.copytree(bundled_designs_dir() / name, source / name)
    work = tmp_path / "work"
    execute_frontend({"ds": load_dataset(source, "ds")}, FrontendConfig(n_samples=1),
                     WorkspaceLayout(work))
    # on fir the tool leaves a child behind, kills its worker, and would run on
    spec = custom_flow("die", ("sh", "-c", "case $(pwd) in *fir*) (sleep 1; touch late.txt) & "
                                           "kill -9 $PPID; sleep 1;; esac; true"))
    collection = load_post_frontend(work)
    chains, _ = execute(collection, [spec], 2)
    designs = [design for dataset in collection.values() for design in dataset.designs]
    assert {design.base_name: outcome.status for design, (outcome,) in zip(designs, chains)} \
        == {"fir": STATUS_FAILED, "gemm": STATUS_OK}
    time.sleep(1.5)
    assert not list(work.rglob("late.txt"))


def test_a_tool_that_kills_its_worker_at_once_still_takes_its_group_along(tmp_path, monkeypatch):
    source = tmp_path / "src_ds"
    for name in ("fir", "gemm"):
        shutil.copytree(bundled_designs_dir() / name, source / name)
    work = tmp_path / "work"
    execute_frontend({"ds": load_dataset(source, "ds")}, FrontendConfig(n_samples=1),
                     WorkspaceLayout(work))
    popen_init = subprocess.Popen.__init__

    def slow_to_return(self, *args, **kwargs):  # the tool runs well before its worker goes on
        popen_init(self, *args, **kwargs)
        time.sleep(0.3)

    monkeypatch.setattr(subprocess.Popen, "__init__", slow_to_return)
    spec = custom_flow("die", ("sh", "-c", "case $(pwd) in *fir*) (sleep 1; touch late.txt) & "
                                           "kill -9 $PPID; sleep 1;; esac; true"))
    collection = load_post_frontend(work)
    chains, _ = execute(collection, [spec], 2)
    designs = [design for dataset in collection.values() for design in dataset.designs]
    assert {design.base_name: outcome.status for design, (outcome,) in zip(designs, chains)} \
        == {"fir": STATUS_FAILED, "gemm": STATUS_OK}
    time.sleep(1.5)
    assert not list(work.rglob("late.txt"))


def live_processes_in_group(pgid: int) -> list[int]:
    """Pids of the processes in a process group that have not exited (Linux /proc)."""
    live = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # exited while we looked
            continue
        fields = stat[stat.rfind(")") + 2:].split()  # state, ppid, pgrp, ...
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            live.append(int(entry.name))
    return live


def test_ctrl_c_stops_a_build_and_its_tools(tmp_path):
    work, collection = expanded_gemm(tmp_path, n_samples=6)
    designs = collection["ds__post_frontend"].designs
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "work_dir": str(work),
        "flows": [{"type": "custom", "name": "slow", "command": [
            "sh", "-c", "echo $$ > tool.pid; (sleep 2; touch late.txt) & sleep 4"]}],
        "executor": {"n_workers": 2}}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    build = subprocess.Popen(
        [sys.executable, "-m", "hlsforge.cli", "build", "--config", str(config)], env=env,
        start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        started = []
        while len(started) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            started = [d for d in designs if (d.dir / "tool.pid").exists()]
        assert len(started) == 2, "two tools should be running"
        time.sleep(0.2)  # both shells have started their background jobs
        os.killpg(build.pid, signal.SIGINT)  # what Ctrl-C in a terminal does
        interrupted = time.monotonic()
        build.communicate(timeout=30)
        assert time.monotonic() - interrupted < 2.0  # the tools would run on for 3.5 s
    finally:
        if build.poll() is None:
            os.killpg(build.pid, signal.SIGKILL)
            build.communicate()
    assert build.returncode != 0
    time.sleep(2.5)  # past the time any tool running at the interrupt would touch late.txt
    assert [d for d in designs if (d.dir / "tool.pid").exists()] == started  # no chain started
    assert not [d for d in designs if (d.dir / "late.txt").exists()]
    for design in started:
        assert live_processes_in_group(int((design.dir / "tool.pid").read_text())) == []


def test_failed_rebuild_keeps_no_results_of_the_old_version(tmp_path):
    work, collection = expanded_gemm(tmp_path, n_samples=1)
    design = collection["ds__post_frontend"].designs[0]
    build(collection, mock_specs(MockCostConstants()))
    assert row_from_design_dir(design.dir, "ds__post_frontend").has_impl

    with (design.dir / "opt.tcl").open("a") as handle:
        handle.write("set_directive_unroll -factor 2 gemm/nosuchloop\n")
    results = build(collection, mock_specs(perturbed_constants()))
    assert results["mock_hls_synth"][("ds__post_frontend", design.id)].status == STATUS_FAILED

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


GOOD_META = {"id": "d__12345678", "base_name": "d", "vendor": "xilinx",
             "assignment": [{"group": "g", "label": "lp1", "line_index": 0,
                             "directive": "unroll", "choice": "4"}]}
HLS = HlsSynthMetrics(10, 10, 20, None, 3.0, 100, 80, 1, 2, 0)
IMPL = ImplMetrics(6.5, 0.1, 90, 72, 1, 2, 0.6)
UNDECODABLE = b"\xff\xfe\x00"
MISTYPED = json.dumps({**GOOD_META, "id": 5, "base_name": ["d"], "vendor": 7}).encode()


def spoil(path, payload):
    """Put payload in the file at path, or, when payload is None, a directory there: a
    file that cannot be opened for reading."""
    if payload is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(payload)


def built_tree(work, meta=GOOD_META):
    """Two built designs; the first is the one the tests spoil."""
    for name in ("d__12345678", "e__87654321"):
        design = work / "ds__post_frontend" / name
        design.mkdir(parents=True)
        (design / "data_design.json").write_text(json.dumps({**meta, "id": name}))
        write_standard_json(design, MetricsBundle(HLS, IMPL, ExecutionMeta("s", "A", 0.1, "ok")))
    return work / "ds__post_frontend" / "d__12345678"


@pytest.mark.parametrize("filename, payload", [
    ("data_design.json", UNDECODABLE),
    ("data_design.json", b"[1, 2]"),
    ("data_design.json", b'"x"'),
    ("data_design.json", json.dumps({**GOOD_META, "assignment": [1]}).encode()),
    ("data_design.json", MISTYPED),
    ("data_hls.json", b'"str"'),
    ("data_hls.json", UNDECODABLE),
    ("data_hls.json", json.dumps({"schema_version": 1, **asdict(HLS), "lut": "abc"}).encode()),
    ("data_hls.json", json.dumps({"schema_version": 1, **asdict(HLS), "dsp": True}).encode()),
    ("data_hls.json", json.dumps({"schema_version": 1, **asdict(HLS), "ff": 2.5}).encode()),
    ("data_design.json", None),
    ("data_hls.json", None),
], ids=["undecodable", "list", "string", "assignment-entry", "mistyped", "hls-string",
        "hls-undecodable", "hls-string-value", "hls-bool-value", "hls-float-for-int",
        "directory", "hls-directory"])
def test_one_bad_sidecar_leaves_its_row_with_null_sections(tmp_path, filename, payload):
    bad = built_tree(tmp_path / "work")
    spoil(bad / filename, payload)
    rows = aggregate_collection(tmp_path / "work").rows
    assert [(row.design_id, row.base_name) for row in rows] == [("d__12345678", "d"),
                                                                ("e__87654321", "d")]
    row, good = rows
    assert good.vendor == "xilinx" and good.n_directives == 1 and good.has_hls
    if filename == "data_design.json":
        assert row.vendor is None and row.assignment_summary is None and row.max_unroll is None
        assert row.has_hls and row.has_impl
    else:
        assert row.vendor == "xilinx" and row.max_unroll == 4
        assert not row.has_hls and row.has_impl
    # hlsforge aggregate writes the same rows and exits 0
    config, table = tmp_path / "run.json", tmp_path / "table.csv"
    config.write_text(json.dumps({"work_dir": str(tmp_path / "work"), "flows": []}))
    assert main(["aggregate", "--config", str(config), "--out", str(table)]) == 0
    assert load_table(table).rows == rows


@pytest.mark.parametrize("payload", [UNDECODABLE, b"[1, 2]", b'"x"', b'{"id": "d__12345678"}',
                                     MISTYPED, None],
                         ids=["undecodable", "list", "string", "no-base-name", "mistyped",
                              "directory"])
def test_build_reports_a_malformed_design_file(tmp_path, capsys, payload):
    bad = built_tree(tmp_path / "work")
    spoil(bad / "data_design.json", payload)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"work_dir": str(tmp_path / "work"),
                                  "flows": [{"type": "mock_synth"}]}))
    assert main(["build", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedReport: ")
    assert str(bad / "data_design.json") in err
    # aggregation keeps the design's row, its id and base name from the directory name
    table = tmp_path / "table.csv"
    assert main(["aggregate", "--config", str(config), "--out", str(table)]) == 0
    rows = load_table(table).rows
    assert [(row.design_id, row.base_name, row.vendor) for row in rows] \
        == [("d__12345678", "d", None), ("e__87654321", "d", "xilinx")]


def test_each_chain_writes_its_own_sidecars(tmp_path):
    _, collection = expanded_gemm(tmp_path, n_samples=4)
    build(collection, mock_specs(MockCostConstants()))
    run_flows(collection, mock_specs(perturbed_constants()), "fine_grained", 2, False)
    designs = collection["ds__post_frontend"].designs
    assert len(designs) == 4
    for design in designs:
        bundle = read_standard_json(design.dir)
        assert bundle.execution.tool_version == "mock-2024.1"
        assert bundle.hls == parse_vitis_csynth_report(
            (design.dir / CSYNTH_REPORT_RELPATH).read_text())
        assert bundle.impl == read_record(ImplMetrics, design.dir / IMPL_REPORT_RELPATH,
                                          ignore_unknown=True)


def test_extract_reports_after_run_flows_writes_nothing(tmp_path):
    work, collection = expanded_gemm(tmp_path, n_samples=4)
    specs = mock_specs(MockCostConstants())
    results, _ = run_flows(collection, specs, "fine_grained", 2, False)
    sidecars = sorted(work.rglob("data_*.json"))
    for path in sidecars:
        os.utime(path, ns=(0, 0))  # any rewrite would stamp it with the time of now
    assert extract_reports(collection, specs, results) == 0
    assert sorted(work.rglob("data_*.json")) == sidecars
    assert all(path.stat().st_mtime_ns == 0 for path in sidecars)


def test_extract_reports_rewrites_a_tree_built_elsewhere(tmp_path):
    _, collection = expanded_gemm(tmp_path, n_samples=3)
    specs = mock_specs(MockCostConstants())
    build(collection, specs)
    designs = collection["ds__post_frontend"].designs
    for design in designs:
        (design.dir / "data_hls.json").unlink()
        (design.dir / "data_impl.json").write_text("{}")
    assert extract_reports(collection, specs, {}) == 2 * len(designs)
    for design in designs:
        hls = parse_vitis_csynth_report((design.dir / CSYNTH_REPORT_RELPATH).read_text())
        impl = read_record(ImplMetrics, design.dir / IMPL_REPORT_RELPATH, ignore_unknown=True)
        assert read_standard_json(design.dir) == MetricsBundle(hls, impl)
        assert not (design.dir / "data_execution.json").exists()


@pytest.mark.parametrize("report, payload", [
    (IMPL_REPORT_RELPATH, json.dumps({"wns_ns": "x", "whs_ns": 0.1, "lut": 1, "ff": 1, "dsp": 0,
                                      "bram": 0, "total_power_w": 0.5}).encode()),
    (IMPL_REPORT_RELPATH, json.dumps({"wns_ns": 1.0, "whs_ns": 0.1, "lut": 1.7, "ff": 1,
                                      "dsp": 0, "bram": 0, "total_power_w": None}).encode()),
    (CSYNTH_REPORT_RELPATH, b"\377\376<profile/>"),
], ids=["impl-string", "impl-float-and-null", "csynth-undecodable"])
def test_a_malformed_report_leaves_its_section_null(tmp_path, capsys, report, payload):
    work, collection = expanded_gemm(tmp_path, n_samples=4)
    designs = collection["ds__post_frontend"].designs
    (designs[1].dir / "spoil").write_bytes(payload)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "work_dir": str(work),
        "flows": [{"type": "mock_synth"}, {"type": "mock_impl"},
                  {"type": "custom", "name": "spoil",
                   "command": ["sh", "-c", f"[ ! -e spoil ] || cp spoil {report}"]}],
        "executor": {"n_workers": 2}}))
    assert main(["build", "--config", str(config)]) == 0
    assert (work / "timeline.json").exists()
    rows = {row.design_id: row for row in aggregate_collection(work).rows}
    assert len(rows) == len(designs)
    for design in designs:
        row = rows[design.id]
        assert row.exec_status == STATUS_OK
        if design is designs[1]:
            assert row.has_hls == (report == IMPL_REPORT_RELPATH)
            assert row.has_impl == (report == CSYNTH_REPORT_RELPATH)
        else:
            assert row.has_hls and row.has_impl


def test_a_sidecar_that_cannot_be_written_fails_only_its_design(tmp_path, capsys):
    work, collection = expanded_gemm(tmp_path, n_samples=4)
    designs = collection["ds__post_frontend"].designs
    bad = designs[2]
    (bad.dir / "data_hls.json").mkdir()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"work_dir": str(work), "flows": [{"type": "mock_synth"}],
                                  "executor": {"n_workers": 2}}))
    assert main(["build", "--config", str(config)]) == 0
    assert "flow mock_hls_synth: failed=1, ok=3" in capsys.readouterr().out
    timeline = json.loads((work / "timeline.json").read_text())
    assert {entry["design_id"]: entry["status"] for entry in timeline} \
        == {design.id: STATUS_FAILED if design is bad else STATUS_OK for design in designs}
    log = (bad.dir / "mock_hls_synth.log").read_text()
    assert f"IsADirectoryError: [Errno 21] Is a directory: '{bad.dir / 'data_hls.json'}'" in log
    for design in designs:
        if design is not bad:
            assert read_standard_json(design.dir).execution.status == STATUS_OK


HUGE = 10 ** 400  # past every float: simulated_runtime_s raises OverflowError on its LUTs


@pytest.mark.parametrize("trigger", ["factor", "manifest"])
def test_an_extraction_error_fails_only_its_design(tmp_path, capsys, trigger):
    """A template choice or a manifest number that the extraction cannot price fails its
    design's first flow; the build goes on, and a rebuild keeps no earlier values."""
    source = tmp_path / "src_ds"
    for name in ("atax", "gemm"):
        shutil.copytree(bundled_designs_dir() / name, source / name)
    choices = f"2 {HUGE}" if trigger == "factor" else "2"
    (source / "atax" / "opt_template.tcl").write_text(
        f"loop_opt,1,1\n0,l1,,unroll,[{choices}]\nset_directive_unroll -factor [factor] "
        f"atax/[name]\n")
    if trigger == "manifest":
        manifest = json.loads((source / "atax" / "mock_manifest.json").read_text())
        (source / "atax" / "mock_manifest.json").write_text(json.dumps({**manifest,
                                                                         "base_lut": HUGE}))
    work = tmp_path / "work"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "work_dir": str(work), "datasets": {"ds": str(source)},
        "seed": 5, "frontend": {"n_samples": 2},
        "flows": [{"type": "mock_synth"}, {"type": "mock_impl"}],
        "executor": {"n_workers": 2}}))
    assert main(["expand", "--config", str(config)]) == 0
    designs = load_post_frontend(work)["ds__post_frontend"].designs
    [bad] = [design for design in designs if str(HUGE) in (design.dir / "opt.tcl").read_text()
             + (design.dir / "mock_manifest.json").read_text()]
    good = [design for design in designs if design is not bad]
    for rebuild in (False, True):
        if rebuild:  # values an earlier build left
            for name in ("data_hls.json", "data_impl.json", "data_execution.json"):
                shutil.copyfile(good[0].dir / name, bad.dir / name)
        (work / "timeline.json").unlink(missing_ok=True)
        capsys.readouterr()
        assert main(["build", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert f"flow mock_hls_synth: failed=1, ok={len(good)}" in out
        timeline = json.loads((work / "timeline.json").read_text())
        assert {(entry["design_id"], entry["flow"]): entry["status"] for entry in timeline} == {
            (design.id, flow): STATUS_FAILED if design is bad else STATUS_OK
            for design in designs for flow in ("mock_hls_synth", "mock_impl")}
        assert "extraction failed: OverflowError: " in \
            (bad.dir / "mock_hls_synth.log").read_text()
        assert [name for name in ("data_hls.json", "data_impl.json", "data_execution.json")
                if (bad.dir / name).exists()] == []
        for design in good:
            assert read_standard_json(design.dir).execution.status == STATUS_OK


def test_a_lost_worker_fails_its_chain_alone(tmp_path, capsys):
    work = tmp_path / "tree"
    assert main(["demo", "--out", str(work), "--n-samples", "1", "--n-workers", "2"]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "work_dir": str(work),
        "flows": [{"type": "mock_synth"},
                  {"type": "custom", "name": "poke", "command": [
                      "sh", "-c", "case $(pwd) in *gemm*) sleep 0.05; kill -9 $PPID;; "
                                  "*) sleep 0.1; touch slept.txt;; esac; true"]}],
        "executor": {"n_workers": 2}}))
    capsys.readouterr()
    assert main(["build", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "flow mock_hls_synth: failed=2, ok=22" in out
    assert "flow poke: failed=2, ok=22" in out
    timeline = json.loads((work / "timeline.json").read_text())
    assert len(timeline) == 48
    collection = load_post_frontend(work)
    designs = [design for dataset in collection.values() for design in dataset.designs]
    lost = [design for design in designs if design.base_name == "gemm"]
    assert len(lost) == 2
    for design in designs:
        statuses = {entry["status"] for entry in timeline if entry["design_id"] == design.id
                    and entry["dataset"] == design.dir.parent.name}
        bundle = read_standard_json(design.dir)
        if design in lost:
            assert statuses == {STATUS_FAILED}
            for log in ("mock_hls_synth.log", "poke.log"):
                assert (design.dir / log).read_text().startswith(
                    f"flow {log[:-4]} failed: WorkerLost: ")
            assert bundle.execution.status == STATUS_FAILED and bundle.hls is None
        else:  # the tool each chain ran on the other worker, while the first one died, finished
            assert statuses == {STATUS_OK}
            assert (design.dir / "slept.txt").exists()
            assert bundle.execution.status == STATUS_OK and bundle.hls is not None


def test_a_log_that_cannot_be_written_fails_only_its_design(tmp_path, capsys):
    work, collection = expanded_gemm(tmp_path, n_samples=4)
    designs = collection["ds__post_frontend"].designs
    bad = designs[1]
    (bad.dir / "mock_hls_synth.log").mkdir()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"work_dir": str(work), "executor": {"n_workers": 2},
                                  "flows": [{"type": "mock_synth"}, {"type": "mock_impl"}]}))
    assert main(["build", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "flow mock_hls_synth: failed=1, ok=3" in out
    assert "flow mock_impl: ok=3, skipped_missing_files=1" in out
    timeline = json.loads((work / "timeline.json").read_text())
    assert {(entry["design_id"], entry["flow"]): entry["status"] for entry in timeline} == {
        (design.id, flow): STATUS_OK if design is not bad
        else {"mock_hls_synth": STATUS_FAILED, "mock_impl": "skipped_missing_files"}[flow]
        for design in designs for flow in ("mock_hls_synth", "mock_impl")}
    assert not (bad.dir / CSYNTH_REPORT_RELPATH).exists()  # a failed run keeps no report
    assert read_standard_json(bad.dir).execution.status == STATUS_FAILED
    for design in designs:
        if design is not bad:
            bundle = read_standard_json(design.dir)
            assert bundle.execution.status == STATUS_OK and bundle.impl is not None


def test_a_stale_report_that_cannot_be_removed_fails_only_its_design(tmp_path, capsys):
    work, collection = expanded_gemm(tmp_path, n_samples=4)
    designs = collection["ds__post_frontend"].designs
    bad = designs[2]
    report = bad.dir / CSYNTH_REPORT_RELPATH
    report.mkdir(parents=True)  # no run can write it, and no failed run can remove it
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"work_dir": str(work), "executor": {"n_workers": 2},
                                  "flows": [{"type": "mock_synth"}, {"type": "mock_impl"}]}))
    assert main(["build", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "flow mock_hls_synth: failed=1, ok=3" in out
    assert "flow mock_impl: failed=1, ok=3" in out
    assert f"4 designs processed; timeline at {work / 'timeline.json'}" in out
    timeline = json.loads((work / "timeline.json").read_text())
    assert {(entry["design_id"], entry["flow"]): entry["status"] for entry in timeline} == {
        (design.id, flow): STATUS_FAILED if design is bad else STATUS_OK
        for design in designs for flow in ("mock_hls_synth", "mock_impl")}
    error = f"IsADirectoryError: [Errno 21] Is a directory: '{report}'"
    lines = (bad.dir / "mock_hls_synth.log").read_text().split("\n")
    assert lines[:3] == [f"flow mock_hls_synth failed: {error}", "",
                         "Traceback (most recent call last):"]
    assert lines[-3:] == [f"{error}", f"stale report not removed: {error}", ""]
    assert read_standard_json(bad.dir).execution.status == STATUS_FAILED
    for design in designs:
        if design is not bad:
            bundle = read_standard_json(design.dir)
            assert bundle.execution.status == STATUS_OK and bundle.impl is not None
