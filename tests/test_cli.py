"""Run-config parsing, flow-spec construction, and the CLI subcommands."""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import pytest

import hlsforge.cli as cli
from conftest import make_design, tree_bytes
from hlsforge.aggregate import AggregatedRow, AggregatedTable, export_tabular
from hlsforge.cli import WORK_DIR_ENV, build_flow_specs, load_run_config, main
from hlsforge.core import load_dataset
from hlsforge.errors import ConfigError, ExecutableNotFound
from hlsforge.toolflows import KIND_MOCK_IMPL, KIND_MOCK_SYNTH, run_flow


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(WORK_DIR_ENV, raising=False)


def write_config(tmp_path, name="run.json", **overrides):
    payload = {"work_dir": str(tmp_path / "work"), "seed": 7}
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_run_config_full(tmp_path):
    path = write_config(
        tmp_path, seed=11,
        datasets={"a": str(tmp_path / "a")},
        frontend={"vendor": "intel", "random_sample": False, "n_samples": 0},
        flows=[{"type": "mock_synth"}],
        executor={"strategy": "naive", "n_workers": 3, "pin_cores": True})
    config = load_run_config(path)
    assert config.work_dir == tmp_path / "work"
    assert config.seed == 11
    assert config.datasets == {"a": str(tmp_path / "a")}
    assert config.frontend.vendor == "intel"
    assert not config.frontend.random_sample
    assert config.frontend.seed == 11  # the run seed feeds the frontend
    assert config.strategy == "naive"
    assert config.n_workers == 3
    assert config.pin_cores


def test_load_run_config_defaults(tmp_path):
    config = load_run_config(write_config(tmp_path))
    assert config.seed == 7
    assert config.datasets == {}
    assert config.frontend.vendor == "xilinx"
    assert config.strategy == "fine_grained"
    assert config.n_workers >= 1
    assert not config.pin_cores


def test_n_workers_defaults_to_the_allowed_cores(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "local_workers", lambda: 5)
    assert load_run_config(write_config(tmp_path)).n_workers == 5


def test_work_dir_env_wins(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    monkeypatch.setenv(WORK_DIR_ENV, str(tmp_path / "elsewhere"))
    assert load_run_config(path).work_dir == tmp_path / "elsewhere"


def test_work_dir_env_fills_missing(tmp_path, monkeypatch):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"seed": 1}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    monkeypatch.setenv(WORK_DIR_ENV, str(tmp_path / "w"))
    assert load_run_config(path).work_dir == tmp_path / "w"


@pytest.mark.parametrize("overrides", [
    {"seed": "eleven"},
    {"datasets": ["a"]},
    {"datasets": {"a": 5}},
    {"frontend": {"vendor": "nope"}},
    {"frontend": {"n_samples": 0}},
    {"flows": {"type": "mock_synth"}},
    {"flows": [{"no_type": True}]},
    {"executor": {"strategy": "bogus"}},
    {"executor": {"n_workers": 0}},
    {"executor": {"n_workers": "four"}},
    {"seed": True},
    {"frontend": {"random_sample": "false"}},
    {"frontend": {"n_samples": 2.5}},
    {"frontend": {"n_samples": True}},
    {"frontend": {"vendor": 1}},
    {"executor": {"pin_cores": "no"}},
    {"executor": {"n_workers": 2.0}},
])
def test_load_run_config_rejects(tmp_path, overrides):
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, **overrides))



@pytest.mark.parametrize("overrides, message", [
    ({"executer": {"n_workers": 3}}, "run.json: unknown key(s) 'executer'"),
    ({"frontend": {"n_sample": 8, "vendr": "intel"}},
     "frontend: unknown key(s) 'n_sample', 'vendr'"),
    ({"frontend": {"seed": 3}}, "frontend: unknown key(s) 'seed'"),
    ({"executor": {"n_worker": 3}}, "executor: unknown key(s) 'n_worker'"),
    ({"flows": [{"type": "mock_synth"}, {"type": "mock_impl", "timeout": 5}]},
     "flows[1]: unknown key(s) 'timeout'"),
    ({"flows": [{"type": "mock_synth", "constants": {"lut_per_opp": 3}}]},
     "flows[0].constants: unknown key(s) 'lut_per_opp'"),
], ids=["top-level", "frontend", "frontend-seed", "executor", "flow", "mock-constant"])
def test_a_key_nothing_reads_is_refused(tmp_path, capsys, overrides, message):
    (tmp_path / "work").mkdir()
    config = write_config(tmp_path, **{"flows": [{"type": "mock_synth"}], **overrides})
    assert main(["build", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err

def test_load_run_config_rejects_broken_files(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_run_config(listy)


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", None], ids=["undecodable", "directory"])
def test_an_undecodable_config_is_a_config_error(tmp_path, capsys, content):
    config = tmp_path / "run.json"
    if content is None:  # a file that cannot be opened for reading
        config.mkdir()
    else:
        config.write_bytes(content)
    assert main(["build", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config file {config}: ")


def test_build_flow_specs_mock_and_custom():
    specs = build_flow_specs([
        {"type": "mock_synth", "constants": {"lut_per_op": 31}},
        {"type": "mock_impl", "timeout_s": 12},
        {"type": "custom", "command": ["sh", "-c", "true"], "name": "noop"},
        {"type": "custom", "command": ["sh", "-c", "true"]},
    ])
    assert specs[0].kind == KIND_MOCK_SYNTH
    assert specs[0].constants.lut_per_op == 31
    assert specs[1].kind == KIND_MOCK_IMPL
    assert specs[1].timeout_s == 12.0
    assert specs[2].name == "noop"
    assert specs[3].name == "custom_3"


def test_a_float_constant_takes_any_number():
    [spec] = build_flow_specs([{"type": "mock_synth", "constants": {"clock_base_ns": 3}}])
    assert spec.constants.clock_base_ns == 3


@pytest.mark.parametrize("raw", [
    [{"type": "warp_drive"}],
    [{"type": "mock_synth", "constants": {"lut_per_flop": 1}}],
    [{"type": "mock_synth", "constants": [1]}],
    [{"type": "custom"}],
    [{"type": ["mock_synth"]}],
    [{"type": "mock_synth", "constants": {"lut_per_op": "25"}}],
    [{"type": "mock_synth", "constants": {"lut_per_op": 25.0}}],
    [{"type": "mock_impl", "constants": {"impl_scale": "0.9"}}],
    [{"type": "mock_impl", "constants": {"version": 2024}}],
    [{"type": "mock_synth", "constants": {"default_clock_target_ns": 5.0}}],
])
def test_build_flow_specs_rejects(raw):
    with pytest.raises(ConfigError):
        build_flow_specs(raw)


def test_build_flow_specs_requires_executables():
    with pytest.raises(ExecutableNotFound):
        build_flow_specs([{"type": "custom", "command": ["definitely-not-a-tool-xyz"]}])
    with pytest.raises(ExecutableNotFound):
        build_flow_specs([{"type": "vitis_hls_synth", "executable": "no-such-vitis"}])


@pytest.fixture()
def pipeline(tmp_path):
    source = tmp_path / "src_ds"
    make_design(source, "alpha")
    work = tmp_path / "work"
    config = write_config(
        tmp_path,
        work_dir=str(work), seed=3,
        datasets={"tiny": str(source)},
        frontend={"vendor": "xilinx", "n_samples": 2},
        flows=[{"type": "mock_synth"}, {"type": "mock_impl"}],
        executor={"strategy": "fine_grained", "n_workers": 2})
    return config, work


def test_end_to_end_subcommands(pipeline, tmp_path, capsys):
    config, work = pipeline

    assert main(["expand", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "tiny/alpha: space=6 sampled=2" in out

    util = tmp_path / "util.csv"
    assert main(["build", "--config", str(config), "--utilization-csv", str(util)]) == 0
    out = capsys.readouterr().out
    assert "flow mock_hls_synth: ok=2" in out
    assert "flow mock_impl: ok=2" in out
    assert "2 designs processed" in out
    assert (work / "timeline.json").exists()
    with open(util, newline="") as handle:
        workers = {row["worker"] for row in csv.DictReader(handle)}
    assert workers == {"0", "1"}

    archive = tmp_path / "ds.zip"
    assert main(["aggregate", "--config", str(config), "--archive", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "2 rows ->" in out
    table_path = work / "aggregated.csv"
    assert table_path.exists() and archive.exists()

    cov_json = tmp_path / "cov.json"
    assert main(["stats", str(table_path), "--hist", "hls_lut", "--bins", "3",
                 "--json", str(cov_json)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out
    assert "histogram of hls_lut" in out
    assert "n_designs" in cov_json.read_text()

    reg_json = tmp_path / "reg.json"
    assert main(["regress", str(table_path), str(table_path), "--json", str(reg_json)]) == 0
    out = capsys.readouterr().out
    assert "paired designs: 2" in out
    assert " *" not in out  # a table compared against itself shifts nothing
    report = json.loads(reg_json.read_text())
    assert report["n_common"] == 2
    assert report["metrics"]["hls_lut"]["p_two_tailed"] == 1.0
    assert not report["metrics"]["hls_lut"]["significant"]


def test_expand_reports_failures(tmp_path, capsys):
    source = tmp_path / "src_ds"
    make_design(source, "bad",
                template="g,2,1\n0,lp,,unroll,[1 2]\nset_directive_unroll -factor [factor] top/[name]\n")
    config = write_config(tmp_path, datasets={"tiny": str(source)},
                          frontend={"n_samples": 1})
    assert main(["expand", "--config", str(config)]) == 1
    assert "FAILED tiny/bad" in capsys.readouterr().err


def test_expand_requires_datasets(tmp_path, capsys):
    config = write_config(tmp_path, datasets={})
    assert main(["expand", "--config", str(config)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_build_without_lowered_designs(tmp_path, capsys):
    (tmp_path / "work").mkdir()
    config = write_config(tmp_path, flows=[{"type": "mock_synth"}])
    assert main(["build", "--config", str(config)]) == 4
    assert "no post-frontend designs" in capsys.readouterr().err


def test_build_rejects_unknown_flow_before_touching_work(tmp_path, capsys):
    config = write_config(tmp_path, flows=[{"type": "warp_drive"}])
    assert main(["build", "--config", str(config)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("flows", [
    [{"type": "mock_synth"}, {"type": "mock_synth"}],
    [{"type": "mock_synth"}, {"type": "custom", "name": "mock_hls_synth",
                              "command": ["sh", "-c", "true"]}],
])
def test_build_rejects_two_flows_of_one_name(tmp_path, capsys, flows):
    config = write_config(tmp_path, flows=flows)
    assert main(["build", "--config", str(config)]) == 2
    assert "config error: flows[0] and flows[1] are both named 'mock_hls_synth'" \
        in capsys.readouterr().err


@pytest.mark.parametrize("flow", [
    {"type": "custom", "command": ["sh", "-c", "true"], "environment": ["A=1"]},
    {"type": "custom", "command": "sh"},
])
def test_build_rejects_malformed_flow_entries(tmp_path, capsys, flow):
    config = write_config(tmp_path, flows=[flow])
    assert main(["build", "--config", str(config)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_build_missing_executable_is_environment_error(tmp_path, capsys):
    config = write_config(tmp_path,
                          flows=[{"type": "custom", "command": ["definitely-not-a-tool-xyz"]}])
    assert main(["build", "--config", str(config)]) == 3
    assert "environment error:" in capsys.readouterr().err


def test_aggregate_missing_work_dir(tmp_path, capsys):
    config = write_config(tmp_path)  # work dir never created
    assert main(["aggregate", "--config", str(config)]) == 4
    assert "no data:" in capsys.readouterr().err


def test_regress_disjoint_tables(tmp_path, capsys):
    a = export_tabular(AggregatedTable([AggregatedRow(design_id="a", hls_lut=1)]),
                       tmp_path / "a.csv")
    b = export_tabular(AggregatedTable([AggregatedRow(design_id="b", hls_lut=1)]),
                       tmp_path / "b.csv")
    assert main(["regress", str(a), str(b)]) == 4
    assert "no data:" in capsys.readouterr().err


def test_stats_empty_table(tmp_path, capsys):
    empty = export_tabular(AggregatedTable([]), tmp_path / "empty.csv")
    assert main(["stats", str(empty)]) == 4
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo", "--n-samples", "0"],
    ["demo", "--n-workers", "0"],
    ["demo", "--n-workers", "two"],
    ["stats", "--hist", "hls_lut", "--bins", "0"],
], ids=["demo-samples", "demo-workers", "demo-workers-word", "stats-bins"])
def test_count_flags_must_be_positive(tmp_path, capsys, argv):
    table = export_tabular(AggregatedTable([AggregatedRow(design_id="a", base_name="a",
                                                          hls_lut=1)]), tmp_path / "t.csv")
    place = ["--out", str(tmp_path / "demo")] if argv[0] == "demo" else [str(table)]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *place, *argv[1:]])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "demo").exists()


@pytest.mark.parametrize("name, content", [
    ("int-cell.csv", None),
    ("undecodable.csv", b"\xff\xfe\x00"),
    ("invalid.jsonl", b'{"design_id": "a"}\n{nope\n'),
    ("non-object.jsonl", b"[1, 2]\n"),
], ids=["int-cell", "undecodable", "invalid-jsonl", "non-object-jsonl"])
@pytest.mark.parametrize("command", ["regress", "stats"])
def test_an_unreadable_table_is_a_malformed_report(tmp_path, capsys, command, name, content):
    good = export_tabular(AggregatedTable([AggregatedRow(design_id="a", hls_lut=1)]),
                          tmp_path / "good.csv")
    bad = tmp_path / name
    if content is None:  # a table that reads "abc" where the schema holds an integer
        export_tabular(AggregatedTable([AggregatedRow(design_id="a", hls_lut="abc")]), bad)
    else:
        bad.write_bytes(content)
    argv = ["regress", str(bad), str(good)] if command == "regress" else ["stats", str(bad)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: MalformedReport: table file {bad}: ")


@pytest.mark.parametrize("kind", ["absent", "directory"])
@pytest.mark.parametrize("command", ["regress", "stats"])
def test_a_table_that_cannot_be_opened_is_unreadable(tmp_path, capsys, command, kind):
    good = export_tabular(AggregatedTable([AggregatedRow(design_id="a", hls_lut=1)]),
                          tmp_path / "good.csv")
    bad = tmp_path / "bad.csv"
    if kind == "directory":
        bad.mkdir()
    argv = ["regress", str(bad), str(good)] if command == "regress" else ["stats", str(bad)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: SourceUnreadable: table file {bad}: ")


def test_demo_smoke(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    assert main(["demo", "--out", str(out_dir), "--n-samples", "1", "--seed", "1",
                 "--n-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "demo_base: 12 all-defaults baselines lowered" in out
    assert (out_dir / "aggregated.csv").exists()
    assert (out_dir / "coverage.json").exists()
    with open(out_dir / "aggregated.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 24  # 12 designs sampled once each plus 12 baselines


def test_demo_tree_is_the_same_for_any_worker_count(tmp_path, capsys):
    trees = []
    for n_workers in ("1", "4"):
        out_dir = tmp_path / f"demo{n_workers}"
        assert main(["demo", "--out", str(out_dir), "--n-workers", n_workers]) == 0
        (out_dir / "timeline.json").unlink()
        trees.append(tree_bytes(out_dir))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("argv, message", [
    (["stats", "--hist", "dataset"], "--hist: column 'dataset' is not numeric"),
    (["stats", "--hist", "nosuch"], "--hist: unknown column 'nosuch'"),
    (["stats", "--group-by", "nosuch"], "--group-by: unknown column 'nosuch'"),
    (["stats", "--metrics", "hls_lut,nosuch"], "--metrics: unknown column 'nosuch'"),
    (["stats", "--metrics", "vendor"], "--metrics: column 'vendor' is not numeric"),
    (["regress", "--metrics", "dataset"], "--metrics: column 'dataset' is not numeric"),
    (["regress", "--metrics", "nosuch"], "--metrics: unknown column 'nosuch'"),
], ids=["hist-text", "hist-unknown", "group-by-unknown", "stats-metrics-unknown",
        "stats-metrics-text", "regress-metrics-text", "regress-metrics-unknown"])
def test_column_options_are_checked_against_the_schema(tmp_path, capsys, argv, message):
    table = export_tabular(AggregatedTable([AggregatedRow(design_id="a", base_name="a",
                                                          dataset="ds", hls_lut=1)]),
                           tmp_path / "t.csv")
    tables = [str(table)] * (2 if argv[0] == "regress" else 1)
    assert main([argv[0], *tables, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


def test_column_options_take_any_schema_column_of_the_right_type(tmp_path, capsys):
    table = export_tabular(AggregatedTable([AggregatedRow(design_id="a", base_name="a",
                                                          dataset="ds", hls_lut=1)]),
                           tmp_path / "t.csv")
    assert main(["stats", str(table), "--group-by", "dataset", "--metrics", "hls_lut",
                 "--hist", "hls_lut"]) == 0
    assert "histogram of hls_lut (1 values)" in capsys.readouterr().out
    assert main(["regress", str(table), str(table), "--metrics", "hls_lut,exec_runtime_s"]) == 0


@pytest.mark.parametrize("flow, message", [
    ({"type": "custom", "command": ["sh", "-c", "true"], "constants": {"lut_per_op": 3},
      "executable": "nope"},
     "flows[0]: a custom flow reads no key(s) 'constants', 'executable'"),
    ({"type": "mock_synth", "command": ["x"], "environment": {"A": "1"},
      "required_files": ["zzz"]},
     "flows[0]: a mock_synth flow reads no key(s) 'command', 'environment', 'required_files'"),
    ({"type": "vitis_hls_synth", "executable": "sh", "name": "synth"},
     "flows[0]: a vitis_hls_synth flow reads no key(s) 'name'"),
], ids=["custom", "mock", "external"])
def test_a_flow_key_its_type_does_not_read_is_refused(tmp_path, capsys, flow, message):
    (tmp_path / "work").mkdir()
    assert main(["build", "--config", str(write_config(tmp_path, flows=[flow]))]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("raw", [
    {"type": "mock_synth", "timeout_s": 5, "constants": {"lut_per_op": 3}},
    {"type": "mock_impl", "timeout_s": 5.5, "constants": {"impl_scale": 1}},
    {"type": "vitis_hls_impl", "timeout_s": 5, "environment": {"A": "1"}, "executable": "sh",
     "command": ["sh", "-c", "true"]},
    {"type": "intel_hls", "timeout_s": 5, "environment": {}, "executable": "sh",
     "command": []},
    {"type": "custom", "name": "c", "command": ["sh", "-c", "true"], "required_files": ["a"],
     "timeout_s": 5, "environment": {"A": "1"}},
], ids=["mock_synth", "mock_impl", "vitis_hls_impl", "intel_hls", "custom"])
def test_each_flow_type_takes_every_key_it_reads(raw):
    [spec] = build_flow_specs([raw])
    assert spec.timeout_s == raw["timeout_s"]


# json.dumps writes these floats as NaN, Infinity and -Infinity, which json.load reads back
@pytest.mark.parametrize("timeout_s", [-1, 0, -0.5, float("nan"), float("inf"), float("-inf"),
                                       10 ** 400, 2147484],
                         ids=["-1", "0", "-0.5", "NaN", "Infinity", "-Infinity", "10**400",
                              "past-poll"])
def test_a_timeout_no_run_can_use_is_refused(tmp_path, capsys, timeout_s):
    (tmp_path / "work").mkdir()
    config = write_config(tmp_path, flows=[{"type": "mock_synth", "timeout_s": timeout_s}])
    assert main(["build", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: flows[0].timeout_s must be positive and at most 2147483.647, got ")


def test_the_longest_timeout_a_tool_run_takes_is_accepted(tmp_path):
    make_design(tmp_path, "alpha")
    [spec] = build_flow_specs([{"type": "custom", "command": ["sh", "-c", "echo hi"],
                                "timeout_s": 2147483.647}])
    outcome = run_flow(spec, load_dataset(tmp_path).designs[0])
    assert (outcome.status, outcome.log_path.read_text().splitlines()[2]) == ("ok", "hi")


@pytest.mark.parametrize("name, value", [("clock_base_ns", float("nan")),
                                         ("power_lut_w", float("inf")),
                                         ("impl_scale", float("-inf")),
                                         ("lut_per_op", 10 ** 400)],
                         ids=["NaN", "Infinity", "-Infinity", "10**400"])
def test_a_mock_constant_that_is_not_finite_is_refused(tmp_path, capsys, name, value):
    (tmp_path / "work").mkdir()
    config = write_config(tmp_path, flows=[{"type": "mock_impl", "constants": {name: value}}])
    assert main(["build", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: flows[0].constants.{name} must be finite, got ")


@pytest.mark.parametrize("name", ["../escaped", "a/b", "", "x\n", "."])
def test_a_dataset_name_must_be_a_plain_name(tmp_path, capsys, name):
    source = tmp_path / "src_ds"
    make_design(source, "alpha")
    config = write_config(tmp_path, datasets={name: str(source)})
    assert main(["expand", "--config", str(config)]) == 2
    assert capsys.readouterr().err == \
        f"config error: datasets name {name!r} must be [A-Za-z0-9_]+\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json", "src_ds"]


@pytest.mark.parametrize("names", [("a", "a__post_frontend"), ("b__post_frontend",)],
                         ids=["with-its-base", "alone"])
def test_a_dataset_name_must_not_end_in_the_post_frontend_suffix(tmp_path, capsys, names):
    # "a__post_frontend" names the directory of "a": work/a__post_frontend
    source = tmp_path / "src_ds"
    make_design(source, "alpha")
    config = write_config(tmp_path, datasets=dict.fromkeys(names, str(source)))
    assert main(["expand", "--config", str(config)]) == 2
    assert capsys.readouterr().err == \
        f"config error: datasets name {names[-1]!r} must not end in __post_frontend\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json", "src_ds"]


@pytest.mark.parametrize("name", ["sub/lint", "../lint", "", "lint.sh"])
def test_a_custom_flow_name_must_be_a_plain_name(tmp_path, capsys, name):
    (tmp_path / "work").mkdir()
    config = write_config(tmp_path, flows=[{"type": "custom", "name": name,
                                            "command": ["sh", "-c", "true"]}])
    assert main(["build", "--config", str(config)]) == 2
    assert capsys.readouterr().err == \
        f"config error: flows[0].name {name!r} must be [A-Za-z0-9_]+\n"


def readme_run_configuration() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("### Run configuration\n", 1)[1].split("\n## ", 1)[0]


def test_the_readme_run_configuration_example_is_a_valid_config(tmp_path):
    example = readme_run_configuration().split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.json"
    path.write_text(example)
    config = load_run_config(path)
    assert len(build_flow_specs(config.flows)) == len(json.loads(example)["flows"]) > 0


def test_the_readme_flow_key_table_is_the_declaration():
    from hlsforge.toolflows import FLOW_ENTRIES
    rows = [line.split("|")[1:3] for line in readme_run_configuration().splitlines()
            if line.startswith("| `")]
    table = {kind.strip(" `"): [key.strip(" `") for key in keys.split(",")]
             for kinds, keys in rows for kind in kinds.split(",")}
    assert table == {kind: [field.name for field in dataclasses.fields(entry)]
                     for kind, entry in FLOW_ENTRIES.items()}
