"""Mock cost model, directive recovery, report writing, external flows."""

from __future__ import annotations

import json
import math
import re

import pytest

from hlsforge.aggregate import (
    CSYNTH_REPORT_RELPATH,
    IMPL_REPORT_RELPATH,
    HlsSynthMetrics,
    parse_vitis_csynth_report,
    write_vitis_csynth_report,
)
from hlsforge.core import WorkspaceLayout, load_dataset
from hlsforge.errors import ExecutableNotFound, LabelUnknown, ManifestMissing, SynthReportMissing
from hlsforge.frontends import FrontendConfig, execute_frontend
from hlsforge.toolflows import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    ArraySpec,
    DirectiveProfile,
    LoopSpec,
    MockCostConstants,
    MockManifest,
    compute_mock_impl_metrics,
    compute_mock_synth_metrics,
    custom_flow,
    extract_directives,
    mock_hls_synth,
    mock_impl,
    mock_impl_flow,
    mock_synth_flow,
    perturbed_constants,
    run_flow,
    simulated_runtime_s,
    tool_version,
)
from conftest import SIMPLE_MANIFEST, make_design


def lowered_design(tmp_path, vendor="xilinx", **kwargs):
    """One concrete design from the shared two-loop template (first space point)."""
    root = tmp_path / "src_ds"
    make_design(root, "d", **kwargs)
    config = FrontendConfig(vendor=vendor, random_sample=False)
    result = execute_frontend({"ds": load_dataset(root)}, config, WorkspaceLayout(tmp_path / "work"))
    assert not result.failures
    return result.collection["ds__post_frontend"].designs


def test_manifest_load_and_validation(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    manifest = MockManifest.load(root / "d")
    assert [l.label for l in manifest.loops] == ["lp1", "lp2"]
    assert manifest.loops[0].mult_ops == 1
    assert manifest.arrays[0].elem_bytes == 4
    assert manifest.clock_target_ns == 10.0

    with pytest.raises(ManifestMissing):
        MockManifest.load(tmp_path)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "mock_manifest.json").write_text("{not json")
    with pytest.raises(ManifestMissing):
        MockManifest.load(bad)
    (bad / "mock_manifest.json").write_text(json.dumps({"loops": []}))
    with pytest.raises(ManifestMissing):
        MockManifest.load(bad)
    (bad / "mock_manifest.json").write_text(json.dumps(
        {"loops": [{"label": "x"}], "base_lut": 1, "base_ff": 1}))
    with pytest.raises(ManifestMissing):
        MockManifest.load(bad)


def test_extract_directives_from_opt_tcl(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "opt.tcl").write_text(
        "# comment\n"
        "set_directive_pipeline top/lp1\n"
        "set_directive_unroll -factor 4 top/lp1\n"
        "set_directive_unroll top/lp2\n"
        "set_directive_array_partition -type cyclic -factor 8 top/buf\n"
        "set_top something_else\n")
    profile = extract_directives(d)
    assert profile.mode == "tcl"
    assert profile.unroll == {"lp1": 4, "lp2": 1}
    assert profile.pipelined == frozenset({"lp1"})
    assert profile.banks == {"buf": 8}


def test_extract_directives_from_intel_annotations(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "k.c").write_text(
        "void top(int *a) {\n"
        "  // HLSFORGE_LABEL: buf\n"
        "  hls_numbanks(4)\n"
        "  hls_bankwidth(4)\n"
        "  static int buf[64];\n"
        "  // HLSFORGE_LABEL: lp1\n"
        "  #pragma unroll 2\n"
        "  for (int i = 0; i < 64; i++) buf[i] = i;\n"
        "  // HLSFORGE_LABEL: lp2\n"
        "  for (int i = 0; i < 64; i++) a[i] = buf[i];\n"
        "}\n")
    profile = extract_directives(d)
    assert profile.mode == "intel"
    assert profile.unroll == {"lp1": 2}
    assert profile.banks == {"buf": 4}
    # anchors alone never mark loops pipelined; the cost model applies the
    # vendor default for intel trees instead
    assert profile.pipelined == frozenset()


def test_extract_directives_reads_intel_sources_in_path_order(tmp_path):
    d = tmp_path / "d"
    (d / "a").mkdir(parents=True)
    # part by part a/x.c sorts before a.c (as strings it sorts after), so a.c is read last and wins
    (d / "a" / "x.c").write_text("// HLSFORGE_LABEL: lp1\n#pragma unroll 2\n")
    (d / "a.c").write_text("// HLSFORGE_LABEL: lp1\n#pragma unroll 4\n")
    # a hidden source has a suffix; a file named only ".c" has none and is not read
    (d / ".x.c").write_text("// HLSFORGE_LABEL: lp2\n#pragma unroll 8\n")
    (d / ".c").write_text("// HLSFORGE_LABEL: lp3\n#pragma unroll 16\n")
    profile = extract_directives(d)
    assert profile.mode == "intel"
    assert profile.unroll == {"lp2": 8, "lp1": 4}


def test_extract_directives_bare_tree(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    (d / "k.c").write_text("void top(void) {}\n")
    profile = extract_directives(d)
    assert profile.mode == "bare"
    assert (profile.unroll, profile.banks) == ({}, {})


@pytest.mark.parametrize("change, field", [
    ({"base_ff": "80"}, "'base_ff'"),
    ({"base_lut": True}, "'base_lut'"),
    ({"base_ff": 64.9}, "'base_ff'"),
    ({"clock_target_ns": "10"}, "'clock_target_ns'"),
    ({"loops": [{"label": "lp1", "trip_count": 16.0, "body_ops": 4}]}, "loops[0].'trip_count'"),
    ({"loops": [{"label": 1, "trip_count": 16, "body_ops": 4}]}, "loops[0].'label'"),
    ({"arrays": [{"label": "buf", "depth": 64, "elem_bytes": "4"}]}, "arrays[0].'elem_bytes'"),
    ({"arrays": {"buf": 64}}, "'arrays'"),
])
def test_manifest_values_are_checked_not_coerced(tmp_path, change, field):
    make_design(tmp_path, "d", manifest={**SIMPLE_MANIFEST, **change})
    with pytest.raises(ManifestMissing, match=re.escape(f"field {field} holds ")):
        MockManifest.load(tmp_path / "d")


def test_a_manifest_int_reads_as_a_float_where_a_float_is_due(tmp_path):
    make_design(tmp_path, "d", manifest={**SIMPLE_MANIFEST, "clock_target_ns": 8})
    clock = MockManifest.load(tmp_path / "d").clock_target_ns
    assert clock == 8.0 and isinstance(clock, float)


def test_a_manifest_entry_key_no_field_declares_is_ignored(tmp_path):
    loops = [{**loop, "note": "inner"} for loop in SIMPLE_MANIFEST["loops"]]
    arrays = [{**SIMPLE_MANIFEST["arrays"][0], "kind": "ram"}]
    make_design(tmp_path, "d", manifest={**SIMPLE_MANIFEST, "loops": loops, "arrays": arrays})
    assert MockManifest.load(tmp_path / "d") == manifest_from(SIMPLE_MANIFEST)


LOOP_2 = SIMPLE_MANIFEST["loops"][1]


@pytest.mark.parametrize("change, message", [
    ({"clock_target_ns": math.inf}, "clock_target_ns must be finite and > 0, got inf"),
    ({"clock_target_ns": math.nan}, "clock_target_ns must be finite and > 0, got nan"),
    ({"clock_target_ns": 0}, "clock_target_ns must be finite and > 0, got 0.0"),
    ({"base_lut": -100}, "base_lut must be >= 0, got -100"),
    ({"loops": [{"label": "lp1", "trip_count": -8, "body_ops": -2}, LOOP_2]},
     "loops[0].trip_count must be >= 0, got -8"),
    ({"loops": [{"label": "lp1", "trip_count": 8, "body_ops": 2, "mult_ops": -1}, LOOP_2]},
     "loops[0].mult_ops must be >= 0, got -1"),
    ({"arrays": [{"label": "buf", "depth": 64, "elem_bytes": -4}]},
     "arrays[0].elem_bytes must be >= 0, got -4"),
    # lp1 is pipelined: an empty loop with no body was priced at 0 - 1 + 0 = -1 cycles
    ({"loops": [{"label": "lp1", "trip_count": 0, "body_ops": 0}, LOOP_2]},
     "loops[0].body_ops must be >= 1, got 0"),
    ({"base_ff": -1}, "base_ff must be >= 0, got -1"),
    ({"arrays": [{"label": "buf", "depth": -64, "elem_bytes": 4}]},
     "arrays[0].depth must be >= 0, got -64"),
], ids=["clock-inf", "clock-nan", "clock-zero", "base-lut", "trip-count", "mult-ops",
        "elem-bytes", "body-ops", "base-ff", "depth"])
def test_a_manifest_number_out_of_range_fails_both_mock_flows(tmp_path, change, message):
    [design, *_] = lowered_design(tmp_path)
    assert run_flow(mock_synth_flow(), design).status == STATUS_OK
    manifest = design.dir / "mock_manifest.json"
    manifest.write_text(json.dumps({**SIMPLE_MANIFEST, **change}))
    with pytest.raises(ManifestMissing, match=re.escape(f"{manifest}: {message}")):
        MockManifest.load(design.dir)
    for flow, report in ((mock_impl_flow(), IMPL_REPORT_RELPATH),
                         (mock_synth_flow(), CSYNTH_REPORT_RELPATH)):
        outcome = run_flow(flow, design)
        assert outcome.status == STATUS_FAILED
        assert message in outcome.log_path.read_text()
        assert not (design.dir / report).exists()


def manifest_from(payload: dict) -> MockManifest:
    return MockManifest(
        loops=tuple(LoopSpec(**l) for l in payload["loops"]),
        arrays=tuple(ArraySpec(**a) for a in payload.get("arrays", [])),
        base_lut=payload["base_lut"], base_ff=payload["base_ff"],
        clock_target_ns=payload.get("clock_target_ns", 10.0))


def test_mock_synth_cost_model_hand_values():
    manifest = manifest_from(SIMPLE_MANIFEST)
    profile = DirectiveProfile(unroll={"lp1": 4, "lp2": 2}, pipelined=frozenset({"lp1"}),
                               banks={}, mode="tcl")
    metrics = compute_mock_synth_metrics(manifest, profile, MockCostConstants())
    # lp1: ceil(16/4)-1+4 = 7 pipelined; lp2: ceil(16/2)*2 = 16 unpipelined
    assert metrics.latency_avg_cycles == 23
    assert metrics.latency_best_cycles == 23
    assert metrics.latency_worst_cycles == 46
    assert metrics.ii is None
    assert metrics.lut == 100 + 25 * 4 * 4 + 25 * 2 * 2
    assert metrics.ff == 80 + 15 * 4 * 4 + 15 * 2 * 2
    assert metrics.dsp == 1 * 4
    assert metrics.bram == 1  # ceil(64*4/2048) = 1 bank unit, 1 bank
    assert metrics.clock_estimate_ns == 3.0 + 0.2 * math.log2(4)


def test_mock_synth_banks_multiply_bram():
    manifest = manifest_from(dict(SIMPLE_MANIFEST, arrays=[
        {"label": "big", "depth": 1024, "elem_bytes": 8}]))
    profile = DirectiveProfile({}, frozenset(), {"big": 4}, "tcl")
    metrics = compute_mock_synth_metrics(manifest, profile, MockCostConstants())
    assert metrics.bram == 16  # ceil(8192/2048)=4 units x 4 banks


def test_mock_synth_intel_mode_pipelines_every_loop():
    manifest = manifest_from(SIMPLE_MANIFEST)
    tcl = compute_mock_synth_metrics(manifest, DirectiveProfile({}, frozenset(), {}, "tcl"),
                                     MockCostConstants())
    intel = compute_mock_synth_metrics(manifest, DirectiveProfile({}, frozenset(), {}, "intel"),
                                       MockCostConstants())
    assert tcl.latency_avg_cycles == 16 * 4 + 16 * 2
    assert intel.latency_avg_cycles == (16 - 1 + 4) + (16 - 1 + 2)
    assert intel.lut == tcl.lut


def test_mock_synth_rejects_unknown_labels():
    manifest = manifest_from(SIMPLE_MANIFEST)
    with pytest.raises(LabelUnknown):
        compute_mock_synth_metrics(manifest, DirectiveProfile({"ghost": 2}, frozenset(), {}, "tcl"),
                                   MockCostConstants())
    with pytest.raises(LabelUnknown):
        compute_mock_synth_metrics(manifest, DirectiveProfile({}, frozenset({"ghost"}), {}, "tcl"),
                                   MockCostConstants())
    with pytest.raises(LabelUnknown):
        compute_mock_synth_metrics(manifest, DirectiveProfile({}, frozenset(), {"ghost": 2}, "tcl"),
                                   MockCostConstants())


def test_mock_impl_hand_values():
    manifest = manifest_from(SIMPLE_MANIFEST)
    profile = DirectiveProfile({"lp1": 4, "lp2": 2}, frozenset({"lp1"}), {}, "tcl")
    hls = compute_mock_synth_metrics(manifest, profile, MockCostConstants())
    impl = compute_mock_impl_metrics(hls, 10.0, MockCostConstants())
    assert impl.lut == round(0.9 * hls.lut)
    assert impl.ff == round(0.9 * hls.ff)
    assert impl.wns_ns == 10.0 - hls.clock_estimate_ns - 0.1 * math.log2(1 + hls.lut / 1000)
    assert impl.whs_ns == 0.1
    assert impl.total_power_w == 0.5 + hls.lut * 1e-5 + hls.dsp * 1e-3


def test_mock_synth_flow_end_to_end(tmp_path):
    designs = lowered_design(tmp_path)
    outcome = run_flow(mock_synth_flow(), designs[0])
    assert outcome.status == STATUS_OK
    report = designs[0].dir / CSYNTH_REPORT_RELPATH
    assert report.exists()
    assert outcome.log_path.exists()
    parsed = parse_vitis_csynth_report(report.read_text())
    assert parsed.lut > 0
    assert parsed.clock_estimate_ns == 3.0  # first point is all-1 unroll


def test_csynth_xml_round_trips_exactly(tmp_path):
    designs = lowered_design(tmp_path)
    design = designs[-1]  # lp1 unroll 4: clock becomes 3.0 + 0.2*2
    mock_hls_synth(design)
    manifest = MockManifest.load(design.dir)
    profile = extract_directives(design.dir)
    direct = compute_mock_synth_metrics(manifest, profile, MockCostConstants())
    parsed = parse_vitis_csynth_report((design.dir / CSYNTH_REPORT_RELPATH).read_text())
    assert parsed == direct


PINNED_CSYNTH_XML = (
    b"<?xml version='1.0' encoding='utf-8'?>\n<profile>\n  <PerformanceEstimates>\n"
    b"    <SummaryOfOverallLatency>\n      <Best-caseLatency>120</Best-caseLatency>\n"
    b"      <Average-caseLatency>undef</Average-caseLatency>\n"
    b"      <Worst-caseLatency>240</Worst-caseLatency>\n    </SummaryOfOverallLatency>\n"
    b"    <SummaryOfTimingAnalysis>\n"
    b"      <EstimatedClockPeriod>3.6333333333333333</EstimatedClockPeriod>\n"
    b"    </SummaryOfTimingAnalysis>\n  </PerformanceEstimates>\n  <AreaEstimates>\n"
    b"    <Resources>\n      <LUT>1234</LUT>\n      <FF>987</FF>\n      <DSP>4</DSP>\n"
    b"      <BRAM_18K>2</BRAM_18K>\n      <URAM>0</URAM>\n    </Resources>\n"
    b"  </AreaEstimates>\n</profile>\n")

# no latency, a clock in exponent notation, a 41-digit LUT count: 660 bytes, as
# ElementTree wrote them (sha256 d639e31b...331e347e)
PINNED_CSYNTH_XML_UNDEF = (
    b"<?xml version='1.0' encoding='utf-8'?>\n<profile>\n  <PerformanceEstimates>\n"
    b"    <SummaryOfOverallLatency>\n      <Best-caseLatency>undef</Best-caseLatency>\n"
    b"      <Average-caseLatency>undef</Average-caseLatency>\n"
    b"      <Worst-caseLatency>undef</Worst-caseLatency>\n    </SummaryOfOverallLatency>\n"
    b"    <SummaryOfTimingAnalysis>\n"
    b"      <EstimatedClockPeriod>1e-07</EstimatedClockPeriod>\n"
    b"    </SummaryOfTimingAnalysis>\n  </PerformanceEstimates>\n  <AreaEstimates>\n"
    b"    <Resources>\n      <LUT>10000000000000000000000000000000000000000</LUT>\n"
    b"      <FF>0</FF>\n      <DSP>0</DSP>\n"
    b"      <BRAM_18K>0</BRAM_18K>\n      <URAM>7</URAM>\n    </Resources>\n"
    b"  </AreaEstimates>\n</profile>\n")


@pytest.mark.parametrize("metrics, pinned", [
    (HlsSynthMetrics(latency_best_cycles=120, latency_avg_cycles=None,
                     latency_worst_cycles=240, ii=None, clock_estimate_ns=3.3 + 1 / 3,
                     lut=1234, ff=987, dsp=4, bram=2, uram=0), PINNED_CSYNTH_XML),
    (HlsSynthMetrics(latency_best_cycles=None, latency_avg_cycles=None,
                     latency_worst_cycles=None, ii=None, clock_estimate_ns=1e-07,
                     lut=10**40, ff=0, dsp=0, bram=0, uram=7), PINNED_CSYNTH_XML_UNDEF),
], ids=["mixed", "undef-exponent-bignum"])
def test_csynth_xml_bytes_are_pinned(tmp_path, metrics, pinned):
    path = tmp_path / "report" / "csynth.xml"
    write_vitis_csynth_report(path, metrics)
    assert path.read_bytes() == pinned


def test_mock_impl_needs_synth_report(tmp_path):
    designs = lowered_design(tmp_path)
    with pytest.raises(SynthReportMissing):
        mock_impl(designs[0])
    outcome = run_flow(mock_impl_flow(), designs[0])
    assert outcome.status == STATUS_SKIPPED  # csynth.xml is a required input file


def test_mock_impl_writes_report(tmp_path):
    designs = lowered_design(tmp_path)
    run_flow(mock_synth_flow(), designs[0])
    outcome = run_flow(mock_impl_flow(), designs[0])
    assert outcome.status == STATUS_OK
    payload = json.loads((designs[0].dir / IMPL_REPORT_RELPATH).read_text())
    assert set(payload) == {"wns_ns", "whs_ns", "lut", "ff", "dsp", "bram", "total_power_w"}


def test_run_flow_skips_when_inputs_missing(tmp_path):
    designs = lowered_design(tmp_path, manifest=None)
    outcome = run_flow(mock_synth_flow(), designs[0])
    assert outcome.status == STATUS_SKIPPED
    assert "mock_manifest.json" in outcome.log_path.read_text()


def test_run_flow_turns_flow_errors_into_failed_outcomes(tmp_path):
    designs = lowered_design(tmp_path)
    (designs[0].dir / "mock_manifest.json").write_text("{broken")
    outcome = run_flow(mock_synth_flow(), designs[0])
    assert outcome.status == STATUS_FAILED
    assert "ManifestMissing" in outcome.log_path.read_text()


def test_intel_tree_prices_with_vendor_default_pipelining(tmp_path):
    designs = lowered_design(tmp_path, vendor="intel")
    outcome = run_flow(mock_synth_flow(), designs[0])
    assert outcome.status == STATUS_OK, outcome.log_path.read_text()
    parsed = parse_vitis_csynth_report((designs[0].dir / CSYNTH_REPORT_RELPATH).read_text())
    # both loops pipelined at U=1: (16-1+4) + (16-1+2) cycles
    assert parsed.latency_avg_cycles == 36


def test_custom_flow_runs_in_design_dir(tmp_path):
    designs = lowered_design(tmp_path)
    spec = custom_flow("touch_flow", ("sh", "-c", "echo ran > marker.txt"))
    outcome = run_flow(spec, designs[0])
    assert outcome.status == STATUS_OK
    assert (designs[0].dir / "marker.txt").read_text() == "ran\n"


def test_custom_flow_failure_and_design_dir_token(tmp_path):
    designs = lowered_design(tmp_path)
    failing = custom_flow("fail_flow", ("sh", "-c", "exit 3"))
    assert run_flow(failing, designs[0]).status == STATUS_FAILED
    echo = custom_flow("echo_flow", ("sh", "-c", "echo {design_dir} > where.txt"))
    run_flow(echo, designs[0])
    assert (designs[0].dir / "where.txt").read_text().strip() == str(designs[0].dir)


def test_custom_flow_timeout(tmp_path):
    designs = lowered_design(tmp_path)
    spec = custom_flow("slow_flow", ("sh", "-c", "sleep 5"), timeout_s=0.4)
    outcome = run_flow(spec, designs[0])
    assert outcome.status == STATUS_TIMEOUT
    assert 0.4 <= outcome.runtime_s < 3.0
    assert "timed out" in outcome.log_path.read_text()


def test_custom_flow_requires_executable():
    with pytest.raises(ExecutableNotFound):
        custom_flow("nope", ("definitely_not_a_real_binary_xyz",))


def test_tool_version_reporting(tmp_path):
    assert tool_version(mock_synth_flow()) == "mock-2023.1"
    constants = MockCostConstants(version="mock-9.9")
    assert tool_version(mock_synth_flow(constants=constants)) == "mock-9.9"
    designs = lowered_design(tmp_path)
    spec = custom_flow("ver_flow", ("sh", "-c", "true"))
    assert tool_version(spec) == "unknown"  # no version_command configured


def test_perturbed_constants_shift_area_knobs():
    base = MockCostConstants()
    shifted = perturbed_constants(base)
    assert shifted.version != base.version
    assert shifted.lut_per_op == base.lut_per_op + 6
    assert shifted.ff_per_op == base.ff_per_op + 4
    assert shifted.clock_unroll_ns == base.clock_unroll_ns + 0.1
    assert shifted.power_base_w == base.power_base_w + 0.2
    assert shifted.bank_bytes == base.bank_bytes


def test_simulated_runtime_is_deterministic():
    assert simulated_runtime_s(2320, 1440) == 0.0752
    assert simulated_runtime_s(0, 0) == 0.0


# Each flow log's text, byte for byte: run_flow is the one place that writes it.

def test_mock_flow_logs_are_pinned(tmp_path):
    design = lowered_design(tmp_path)[-1]  # lp1 unroll 4, lp2 unroll 2
    synth = run_flow(mock_synth_flow(), design)
    impl = run_flow(mock_impl_flow(), design)
    assert (synth.status, impl.status) == (STATUS_OK, STATUS_OK)
    assert synth.log_path == design.dir / "mock_hls_synth.log"
    assert synth.log_path.read_text() == (
        "mock hls synth (mock-2023.1) on d__8b5307e7\n"
        "directive source: tcl\n"
        "unroll={'lp1': 4, 'lp2': 2} pipelined=['lp1'] banks={}\n"
        "latency_avg=23 lut=600 ff=380 dsp=4 bram=1 clock_estimate_ns=3.4\n")
    assert impl.log_path == design.dir / "mock_impl.log"
    assert impl.log_path.read_text() == (
        "mock impl (mock-2023.1) on d__8b5307e7\n"
        "clock_target_ns=10.0 wns_ns=6.532192809488736 lut=540 ff=342 power_w=0.51\n")


def test_skipped_and_failed_mock_logs_are_pinned(tmp_path):
    design = lowered_design(tmp_path)[0]
    impl = run_flow(mock_impl_flow(), design)
    assert impl.status == STATUS_SKIPPED
    assert impl.log_path.read_text() == \
        f"skipped: required file(s) missing: {CSYNTH_REPORT_RELPATH}\n"
    (design.dir / "mock_manifest.json").unlink()
    skipped = run_flow(mock_synth_flow(), design)
    assert skipped.log_path.read_text() == \
        "skipped: required file(s) missing: mock_manifest.json\n"
    manifest = design.dir / "mock_manifest.json"
    manifest.write_text("{broken")
    failed = run_flow(mock_synth_flow(), design)
    assert failed.status == STATUS_FAILED
    reason = (f"ManifestMissing: {manifest}: Expecting property name enclosed in double "
              f"quotes: line 1 column 2 (char 1)")
    lines = failed.log_path.read_text().split("\n")
    assert lines[:3] == [f"flow mock_hls_synth failed: {reason}", "",
                         "Traceback (most recent call last):"]
    assert lines[-2:] == [f"hlsforge.errors.{reason}", ""]


def test_external_flow_logs_are_pinned(tmp_path):
    design = lowered_design(tmp_path)[0]
    ok = run_flow(custom_flow("talk", ("sh", "-c", "echo out; echo err >&2")), design)
    assert ok.status == STATUS_OK
    assert ok.log_path == design.dir / "talk.log"
    assert ok.log_path.read_text() == ("command: sh -c echo out; echo err >&2\n"
                                       "--- stdout ---\nout\n\n--- stderr ---\nerr\n\n"
                                       "exit code 0\n")
    slow = run_flow(custom_flow("slow", ("sh", "-c", "echo begun; sleep 5"), timeout_s=0.3),
                    design)
    assert slow.status == STATUS_TIMEOUT
    assert slow.log_path.read_text() == ("command: sh -c echo begun; sleep 5\n"
                                         "--- stdout ---\nbegun\n\n--- stderr ---\n\n"
                                         "timed out after 0.3s (process group killed)\n")
