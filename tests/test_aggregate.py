"""Report parsing, the flat table, exports, imports, and archiving."""

from __future__ import annotations

import builtins
import io
import json
import os
import random
import re
import tracemalloc
import zipfile
from pathlib import Path

import pytest

from hlsforge.aggregate import (
    COLUMNS,
    AggregatedRow,
    AggregatedTable,
    ExecutionMeta,
    HlsSynthMetrics,
    ImplMetrics,
    MetricsBundle,
    aggregate_collection,
    archive_dataset,
    export_tabular,
    import_external_dataset,
    load_table,
    parse_vitis_csynth_report,
    read_standard_json,
    row_from_design_dir,
    write_standard_json,
    _archived,
)
from hlsforge.core import read_record, walk_files
from hlsforge.errors import MalformedReport, MalformedSpec, MissingDirectory, SourceUnreadable

GOOD_XML = """\
<?xml version="1.0"?>
<profile>
  <PerformanceEstimates>
    <SummaryOfOverallLatency>
      <Best-caseLatency>10</Best-caseLatency>
      <Average-caseLatency>12</Average-caseLatency>
      <Worst-caseLatency>20</Worst-caseLatency>
      <Best-caseInterval>3</Best-caseInterval>
    </SummaryOfOverallLatency>
    <SummaryOfTimingAnalysis>
      <EstimatedClockPeriod>3.4</EstimatedClockPeriod>
    </SummaryOfTimingAnalysis>
  </PerformanceEstimates>
  <AreaEstimates>
    <Resources>
      <LUT>600</LUT>
      <FF>380</FF>
      <DSP>4</DSP>
      <BRAM_18K>1</BRAM_18K>
      <URAM>0</URAM>
    </Resources>
  </AreaEstimates>
</profile>
"""


def test_parse_csynth_report():
    metrics = parse_vitis_csynth_report(GOOD_XML)
    assert metrics == HlsSynthMetrics(10, 12, 20, 3, 3.4, 600, 380, 4, 1, 0)


def test_parse_csynth_undef_latency_is_null():
    xml = GOOD_XML.replace("<Best-caseLatency>10</Best-caseLatency>",
                           "<Best-caseLatency>undef</Best-caseLatency>")
    assert parse_vitis_csynth_report(xml).latency_best_cycles is None


def test_parse_csynth_missing_resource_defaults_to_zero():
    xml = GOOD_XML.replace("<URAM>0</URAM>", "")
    assert parse_vitis_csynth_report(xml).uram == 0


def test_parse_csynth_missing_interval_is_null():
    xml = GOOD_XML.replace("<Best-caseInterval>3</Best-caseInterval>", "")
    assert parse_vitis_csynth_report(xml).ii is None


def test_parse_csynth_rejects_malformed():
    with pytest.raises(MalformedReport):
        parse_vitis_csynth_report("<profile><unclosed>")
    with pytest.raises(MalformedReport):
        parse_vitis_csynth_report("<profile/>")
    with pytest.raises(MalformedReport):
        parse_vitis_csynth_report(GOOD_XML.replace("<LUT>600</LUT>", "<LUT>lots</LUT>"))


def read_impl_report(tmp_path, text: str) -> ImplMetrics:
    """text, written as an impl_report.json, read back by its one reader."""
    path = tmp_path / "impl_report.json"
    path.write_text(text)
    return read_record(ImplMetrics, path, ignore_unknown=True)


def test_read_impl_report(tmp_path):
    payload = {"wns_ns": 6.5, "whs_ns": 0.1, "lut": 540, "ff": 342, "dsp": 4, "bram": 1,
               "total_power_w": 0.51}
    metrics = read_impl_report(tmp_path, json.dumps(payload))
    assert metrics == ImplMetrics(6.5, 0.1, 540, 342, 4, 1, 0.51)
    with pytest.raises(MalformedReport, match="lacks required field"):
        read_impl_report(tmp_path, json.dumps({"wns_ns": 1.0}))
    with pytest.raises(MalformedReport):
        read_impl_report(tmp_path, "{bad json")
    with pytest.raises(MalformedReport):
        read_impl_report(tmp_path, "[1, 2]")


def sample_bundle() -> MetricsBundle:
    return MetricsBundle(
        hls=HlsSynthMetrics(10, 12, 20, None, 3.4, 600, 380, 4, 1, 0),
        impl=ImplMetrics(6.5, 0.1, 540, 342, 4, 1, 0.51),
        execution=ExecutionMeta("mock_hls_synth", "mock-2023.1", 0.0196, "ok"))


def test_standard_json_round_trip(tmp_path):
    bundle = sample_bundle()
    written = write_standard_json(tmp_path, bundle)
    assert [p.name for p in written] == ["data_hls.json", "data_impl.json", "data_execution.json"]
    assert read_standard_json(tmp_path) == bundle


def test_standard_json_partial_bundle(tmp_path):
    bundle = MetricsBundle(hls=sample_bundle().hls)
    write_standard_json(tmp_path, bundle)
    loaded = read_standard_json(tmp_path)
    assert loaded.hls == bundle.hls
    assert loaded.impl is None
    assert loaded.execution is None


def test_corrupted_section_reads_as_absent(tmp_path):
    write_standard_json(tmp_path, sample_bundle())
    (tmp_path / "data_impl.json").write_text("{definitely broken")
    loaded = read_standard_json(tmp_path)
    assert loaded.impl is None
    assert loaded.hls is not None


def make_design_dir(tmp_path, name="d__12345678", with_meta=True, bundle=None, base_name="d"):
    d = tmp_path / name
    d.mkdir(parents=True, exist_ok=True)
    if with_meta:
        (d / "data_design.json").write_text(json.dumps({
            "base_name": base_name, "id": name, "vendor": "xilinx",
            "assignment": [
                {"group": "g", "label": "lp1", "line_index": 0, "directive": "pipeline",
                 "choice": ""},
                {"group": "g", "label": "lp1", "line_index": 0, "directive": "unroll",
                 "choice": "4"},
                {"group": "g", "label": "buf", "line_index": 1, "directive": "array_partition",
                 "choice": "cyclic-2"},
            ]}))
    if bundle is not None:
        write_standard_json(d, bundle)
    return d


def test_row_from_design_dir_full(tmp_path):
    d = make_design_dir(tmp_path, bundle=sample_bundle())
    row = row_from_design_dir(d, dataset="ds__post_frontend")
    assert row.design_id == "d__12345678"
    assert row.base_name == "d"
    assert row.vendor == "xilinx"
    assert row.assignment_summary == ("g/lp1#0:pipeline;g/lp1#0:unroll=4;"
                                      "g/buf#1:array_partition=cyclic-2")
    assert row.n_directives == 3
    assert row.max_unroll == 4
    assert row.n_unrolled == 1
    assert row.n_partitioned == 1
    assert row.hls_lut == 600
    assert row.hls_ii is None
    assert row.impl_wns_ns == 6.5
    assert row.exec_status == "ok"
    assert row.has_hls and row.has_impl


def test_row_without_metadata_falls_back_to_dirname(tmp_path):
    d = make_design_dir(tmp_path, name="plain__deadbeef", with_meta=False)
    row = row_from_design_dir(d, dataset="ds")
    assert row.design_id == "plain__deadbeef"
    assert row.base_name == "plain"
    assert row.vendor is None
    assert not row.has_hls
    assert all(getattr(row, c) is None for c in COLUMNS if c not in ("design_id", "base_name",
                                                                     "dataset"))


def test_aggregate_collection_walks_post_frontend_trees(tmp_path):
    work = tmp_path / "work"
    pf = work / "ds__post_frontend"
    make_design_dir(pf, name="b__22222222", bundle=sample_bundle())
    make_design_dir(pf, name="a__11111111", with_meta=False)
    (work / "not_a_tree").mkdir()
    table = aggregate_collection(work)
    assert [r.design_id for r in table.rows] == ["a__11111111", "b__22222222"]
    assert all(r.dataset == "ds__post_frontend" for r in table.rows)
    with pytest.raises(MissingDirectory):
        aggregate_collection(tmp_path / "missing")


def test_rows_of_one_base_share_their_repeating_text(tmp_path):
    work = tmp_path / "work"
    for name in ("kernel__11111111", "kernel__22222222"):
        make_design_dir(work / "ds__post_frontend", name=name, bundle=sample_bundle(),
                        base_name="kernel")
    table = aggregate_collection(work)
    tables = [table] + [load_table(export_tabular(table, tmp_path / f"t.{fmt}", format=fmt))
                        for fmt in ("csv", "jsonl")]
    for first, second in (t.rows for t in tables):
        for column in ("base_name", "dataset", "vendor", "exec_tool_version", "exec_status"):
            assert getattr(first, column) == getattr(second, column) is not None
            assert getattr(first, column) is getattr(second, column), column
        assert first.design_id != second.design_id


def test_rows_from_every_source_share_one_string_per_repeated_value(tmp_path):
    work = tmp_path / "work"
    for name in ("kernel__11111111", "kernel__22222222"):
        make_design_dir(work / "ds__post_frontend", name=name, bundle=sample_bundle(),
                        base_name="kernel")
    table = aggregate_collection(work)
    src = tmp_path / "ext.csv"
    src.write_text("kernel,base,tool\ng0,gemm,vitis\ng1,gemm,vitis\n")
    spec = {"name": "suite", "format": "csv",
            "columns": {"kernel": "design_id", "base": "base_name", "tool": "exec_tool_name"}}
    built = [table.rows, *(load_table(export_tabular(table, tmp_path / f"t.{fmt}", format=fmt)).rows
                           for fmt in ("csv", "jsonl"))]
    imported = import_external_dataset(spec, src).rows
    for rows in (*built, imported):
        for column in ("base_name", "dataset", "exec_tool_name"):
            assert getattr(rows[0], column) == getattr(rows[1], column) is not None
            assert getattr(rows[0], column) is getattr(rows[1], column), column
    assert len({id(rows[0].base_name) for rows in built}) == 1  # one "kernel" for the table
    assert imported[0].dataset == "external:suite" and imported[0].base_name == "gemm"


def test_export_and_load_round_trip(tmp_path):
    pf = tmp_path / "work" / "ds__post_frontend"
    make_design_dir(pf, name="a__11111111", bundle=sample_bundle())
    make_design_dir(pf, name="b__22222222", with_meta=False)
    table = aggregate_collection(tmp_path / "work")

    for fmt, name in (("csv", "t.csv"), ("jsonl", "t.jsonl")):
        out = export_tabular(table, tmp_path / name, format=fmt)
        loaded = load_table(out)
        assert [r.as_dict() for r in loaded.rows] == [r.as_dict() for r in table.rows]

    with pytest.raises(ValueError):
        export_tabular(table, tmp_path / "t.xml", format="xml")
    with pytest.raises(SourceUnreadable):
        load_table(tmp_path / "missing.csv")


def test_exports_are_byte_stable(tmp_path):
    pf = tmp_path / "work" / "ds__post_frontend"
    make_design_dir(pf, name="a__11111111", bundle=sample_bundle())
    table = aggregate_collection(tmp_path / "work")
    a = export_tabular(table, tmp_path / "a.csv").read_bytes()
    b = export_tabular(table, tmp_path / "b.csv").read_bytes()
    assert a == b
    ja = export_tabular(table, tmp_path / "a.jsonl", format="jsonl").read_bytes()
    jb = export_tabular(table, tmp_path / "b.jsonl", format="jsonl").read_bytes()
    assert ja == jb


def test_csv_preserves_float_precision(tmp_path):
    row = AggregatedRow(design_id="x", impl_wns_ns=6.2268816758427805,
                        exec_runtime_s=0.1 + 0.2)
    out = export_tabular(AggregatedTable([row]), tmp_path / "t.csv")
    loaded = load_table(out)
    assert loaded.rows[0].impl_wns_ns == 6.2268816758427805
    assert loaded.rows[0].exec_runtime_s == 0.1 + 0.2


def test_import_external_csv_with_units(tmp_path):
    src = tmp_path / "ext.csv"
    src.write_text("kernel,luts,fmax_mhz,latency\n"
                   "gemm0,1200,250,900\n"
                   "gemm1,not_a_number,250,901\n"
                   "gemm2,1400,,902\n")
    spec = {
        "name": "vendor_suite", "format": "csv",
        "columns": {"kernel": "design_id", "luts": "hls_lut",
                    "fmax_mhz": "hls_clock_estimate_ns", "latency": "hls_latency_avg_cycles"},
        "units": {"hls_clock_estimate_ns": "mhz_to_ns"},
    }
    result = import_external_dataset(spec, src)
    assert result.n_dropped == 1  # the unparsable luts row
    assert len(result.rows) == 2
    first = result.rows[0]
    assert first.design_id == "gemm0"
    assert first.dataset == "external:vendor_suite"
    assert first.hls_lut == 1200
    assert first.hls_clock_estimate_ns == 4.0  # 1000 / 250 MHz
    assert result.rows[1].hls_clock_estimate_ns is None  # empty cell stays null


def test_import_external_json_and_generated_ids(tmp_path):
    src = tmp_path / "ext.json"
    src.write_text(json.dumps([{"area": 500}, {"area": 600}]))
    spec = {"name": "js", "format": "json", "columns": {"area": "impl_lut"}}
    result = import_external_dataset(spec, src)
    assert [r.design_id for r in result.rows] == ["js_000000", "js_000001"]
    assert [r.impl_lut for r in result.rows] == [500, 600]


@pytest.mark.parametrize("records", [[1, 2], [{"lut": 5}, 7], [{"lut": 5}, ["lut"]]])
def test_import_json_refuses_an_array_of_anything_but_objects(tmp_path, records):
    src = tmp_path / "ext.json"
    src.write_text(json.dumps(records))
    spec = {"name": "js", "format": "json", "columns": {"lut": "impl_lut"}}
    with pytest.raises(MalformedSpec, match="^json source must be an array of objects$"):
        import_external_dataset(spec, src)


def test_import_spec_validation(tmp_path):
    src = tmp_path / "ext.csv"
    src.write_text("a\n1\n")
    with pytest.raises(MalformedSpec):
        import_external_dataset({"format": "csv", "columns": {"a": "hls_lut"}}, src)
    with pytest.raises(MalformedSpec):
        import_external_dataset({"name": "x", "format": "xlsx", "columns": {"a": "hls_lut"}}, src)
    with pytest.raises(MalformedSpec):
        import_external_dataset({"name": "x", "format": "csv", "columns": {"a": "nope"}}, src)
    with pytest.raises(MalformedSpec):
        import_external_dataset({"name": "x", "format": "csv", "columns": {"missing": "hls_lut"}},
                                src)
    with pytest.raises(MalformedSpec):
        import_external_dataset({"name": "x", "format": "csv", "columns": {"a": "hls_lut"},
                                 "units": {"hls_lut": "parsecs"}}, src)
    with pytest.raises(MalformedSpec, match=re.escape("field 'units' holds [1], not ")):
        import_external_dataset({"name": "x", "format": "csv", "columns": {"a": "hls_lut"},
                                 "units": [1]}, src)
    with pytest.raises(MalformedSpec, match=re.escape("field 'name' holds ['x'], not str")):
        import_external_dataset({"name": ["x"], "format": "csv", "columns": {"a": "hls_lut"}},
                                src)
    with pytest.raises(MalformedSpec, match="^mapping spec: not an object$"):
        import_external_dataset([1], src)
    with pytest.raises(SourceUnreadable):
        import_external_dataset({"name": "x", "format": "csv", "columns": {"a": "hls_lut"}},
                                tmp_path / "missing.csv")


def populate_work_tree(tmp_path):
    work = tmp_path / "work"
    pf = work / "ds__post_frontend"
    d = make_design_dir(pf, name="a__11111111", bundle=sample_bundle())
    (d / "a.c").write_text("int main(void) { return 0; }\n")
    (d / "opt.tcl").write_text("set_directive_pipeline top/lp\n")
    (d / "run.log").write_text("noise\n")
    prj = d / "hls_prj" / "solution1" / "syn" / "report"
    prj.mkdir(parents=True)
    (prj / "csynth.xml").write_text(GOOD_XML)
    (work / "timeline.json").write_text("[]\n")
    return work


def test_archive_selects_data_files(tmp_path):
    work = populate_work_tree(tmp_path)
    out = archive_dataset(work, tmp_path / "out.zip")
    with zipfile.ZipFile(out) as zf:
        names = set(zf.namelist())
    base = "ds__post_frontend/a__11111111"
    assert f"{base}/data_hls.json" in names
    assert f"{base}/data_design.json" in names
    assert f"{base}/a.c" in names
    assert f"{base}/opt.tcl" in names
    assert "timeline.json" in names
    assert f"{base}/run.log" not in names
    assert not any("hls_prj" in n for n in names)


def test_archive_can_include_artifacts(tmp_path):
    work = populate_work_tree(tmp_path)
    out = archive_dataset(work, tmp_path / "full.zip", include_artifacts=True)
    with zipfile.ZipFile(out) as zf:
        names = set(zf.namelist())
    assert "ds__post_frontend/a__11111111/hls_prj/solution1/syn/report/csynth.xml" in names


def test_archive_is_deterministic(tmp_path):
    work = populate_work_tree(tmp_path)
    a = archive_dataset(work, tmp_path / "a.zip").read_bytes()
    b = archive_dataset(work, tmp_path / "b.zip").read_bytes()
    assert a == b
    with pytest.raises(MissingDirectory):
        archive_dataset(tmp_path / "missing", tmp_path / "c.zip")


@pytest.mark.parametrize("name, content", [
    ("fraction.csv", "design_id,hls_lut\na,2.5\n"),
    ("bool.jsonl", '{"design_id": "a", "hls_lut": true}\n'),
    ("float-in-int.jsonl", '{"design_id": "a", "hls_lut": 2.0}\n'),
    ("text-in-float.jsonl", '{"design_id": "a", "impl_wns_ns": "3.5"}\n'),
    ("number-in-text.jsonl", '{"design_id": 7}\n'),
], ids=["csv-fraction", "jsonl-bool", "jsonl-float-in-int", "jsonl-text-in-float",
        "jsonl-number-in-text"])
def test_load_table_takes_only_what_the_exports_write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(MalformedReport, match=f"table file {path}: "):
        load_table(path)


def test_load_table_reads_an_integer_as_a_float_in_a_jsonl_float_column(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"design_id": "a", "impl_wns_ns": 3, "hls_lut": 4}\n')
    row = load_table(path).rows[0]
    assert (row.impl_wns_ns, row.hls_lut) == (3.0, 4)
    assert type(row.impl_wns_ns) is float


def test_import_external_dataset_takes_any_number_in_an_integer_column(tmp_path):
    src = tmp_path / "ext.csv"
    src.write_text("luts\n2.5\n3\n1e3\n")
    spec = {"name": "n", "format": "csv", "columns": {"luts": "hls_lut"}}
    result = import_external_dataset(spec, src)
    assert [r.hls_lut for r in result.rows] == [2, 3, 1000]
    assert result.n_dropped == 0


class Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be written")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_failed_export_leaves_the_old_file(tmp_path, fmt):
    path = export_tabular(AggregatedTable([AggregatedRow(design_id="old")]), tmp_path / f"t.{fmt}",
                          format=fmt)
    before = path.read_bytes()
    rows = [AggregatedRow(design_id=f"r{i}") for i in range(3)]
    rows[1].base_name = Unprintable()
    with pytest.raises((RuntimeError, TypeError)):
        export_tabular(AggregatedTable(rows), path, format=fmt)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def zipfile_archive(work_dir, out_path, include_artifacts=False):
    """The archive as zipfile writes it: the reference for the one-pass writer."""
    members = sorted(rel for rel in walk_files(work_dir) if _archived(rel, include_artifacts))
    with zipfile.ZipFile(out_path, "w") as zf:
        for rel in members:
            info = zipfile.ZipInfo(rel, date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o644 << 16
            info.create_system = 3
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, (work_dir / rel).read_bytes(), compresslevel=6)
    return out_path


def zip64_tree(tmp_path):
    """A work tree whose members are of every size class around a 300-byte ZIP64_LIMIT."""
    work = populate_work_tree(tmp_path)
    design = work / "ds__post_frontend" / "a__11111111"
    rng = random.Random(7)
    noise = lambda n: bytes(rng.randrange(256) for _ in range(n))  # noqa: E731
    (design / "small.c").write_bytes(noise(100))
    (design / "near.c").write_bytes(noise(290))    # 290 * 1.05 > 300: a local zip64 extra
    (design / "big.c").write_text("int x;\n" * 100)  # 700 bytes, compresses below 300
    (design / "huge.h").write_bytes(noise(400))    # both sizes past the limit
    (design / "ünï.c").write_text("int u;\n")        # a UTF-8 name
    (design / "hls_prj" / "blob.c").write_bytes(noise(500))
    return work


@pytest.mark.parametrize("include_artifacts", [False, True])
def test_archive_bytes_equal_zipfiles_past_zip64_limit(tmp_path, monkeypatch, include_artifacts):
    work = zip64_tree(tmp_path)
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 300)
    ours = archive_dataset(work, tmp_path / "ours.zip", include_artifacts).read_bytes()
    theirs = zipfile_archive(work, tmp_path / "theirs.zip", include_artifacts).read_bytes()
    assert ours == theirs
    assert b"PK\x06\x06" in ours  # the zip64 end record: the directory starts past the limit
    with zipfile.ZipFile(tmp_path / "ours.zip") as zf:
        assert zf.testzip() is None
        assert "ds__post_frontend/a__11111111/ünï.c" in zf.namelist()


@pytest.mark.parametrize("include_artifacts", [False, True])
def test_archive_bytes_equal_zipfiles_past_the_file_count_limit(tmp_path, monkeypatch,
                                                                include_artifacts):
    work = populate_work_tree(tmp_path)
    for i in range(4):
        (work / "ds__post_frontend" / "a__11111111" / f"empty{i}.c").touch()
    monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 3)
    ours = archive_dataset(work, tmp_path / "ours.zip", include_artifacts).read_bytes()
    theirs = zipfile_archive(work, tmp_path / "theirs.zip", include_artifacts).read_bytes()
    assert ours == theirs
    assert b"PK\x06\x06" in ours
    with zipfile.ZipFile(tmp_path / "ours.zip") as zf:
        assert zf.testzip() is None
        assert len(zf.namelist()) > 3


@pytest.mark.parametrize("include_artifacts", [False, True])
def test_archive_lists_hls_prj_only_with_artifacts(tmp_path, monkeypatch, include_artifacts):
    work = populate_work_tree(tmp_path)
    listed = []
    scandir = os.scandir

    def counting_scandir(path):
        listed.append(Path(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", counting_scandir)
    archive_dataset(work, tmp_path / "out.zip", include_artifacts)
    in_prj = [path for path in listed if "hls_prj" in path.parts]
    assert bool(in_prj) == include_artifacts
    assert listed  # the walk went through os.scandir


def test_an_archive_inside_the_work_tree_holds_the_same_members(tmp_path):
    work = populate_work_tree(tmp_path)
    outside = archive_dataset(work, tmp_path / "outside.zip").read_bytes()
    for _ in range(2):  # the second run finds the first one's archive in the tree
        inside = archive_dataset(work, work / "dataset.zip").read_bytes()
        assert inside == outside
    assert sorted(p.name for p in work.iterdir()) == ["dataset.zip", "ds__post_frontend",
                                                      "timeline.json"]


def test_a_failed_member_read_leaves_the_old_archive(tmp_path, monkeypatch):
    work = populate_work_tree(tmp_path)
    out = archive_dataset(work, tmp_path / "out" / "dataset.zip")
    before = out.read_bytes()
    (work / "ds__post_frontend" / "a__11111111" / "b.c").write_text("int b;\n")
    reads = []
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        if mode == "rb" and Path(file).is_relative_to(work):
            reads.append(file)
            if len(reads) == 3:
                raise OSError("read failed")
        return real_open(file, mode, *args, **kwargs)

    # Path.open calls io.open, the open builtin is the same function
    monkeypatch.setattr(io, "open", failing_open)
    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="read failed"):
        archive_dataset(work, out)
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ["dataset.zip"]


def archive_peak(tmp_path, n_designs):
    """tracemalloc's peak while archiving a tree of n_designs 5-file designs."""
    work = tmp_path / f"work{n_designs}"
    for i in range(n_designs):
        design = work / "ds__post_frontend" / f"base__{i:08x}"
        design.mkdir(parents=True)
        for name in ("data_design.json", "data_hls.json", "data_impl.json", "opt.tcl", "top.cpp"):
            (design / name).write_text(f"{name} {i}\n")
    tracemalloc.start()
    try:
        archive_dataset(work, tmp_path / f"out{n_designs}.zip")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_archive_memory_grows_little_per_member(tmp_path):
    # A sorted member list and an in-memory central directory cost about 200 B
    # per member here; the listing of the designs' directory, all the ordered
    # walk holds, about 18 B.
    per_member = (archive_peak(tmp_path, 1600) - archive_peak(tmp_path, 400)) / (1200 * 5)
    assert per_member < 60


IMPL_PAYLOAD = {"wns_ns": 6.5, "whs_ns": 0.1, "lut": 540, "ff": 342, "dsp": 4, "bram": 1,
                "total_power_w": 0.51}


@pytest.mark.parametrize("name, value", [
    ("wns_ns", "x"), ("wns_ns", None), ("total_power_w", True), ("lut", 1.7), ("lut", True),
    ("lut", "540"), ("dsp", None), ("bram", [1]),
], ids=["float-string", "float-null", "float-bool", "int-float", "int-bool", "int-string",
        "int-null", "int-list"])
def test_read_impl_report_rejects_a_value_of_the_wrong_type(tmp_path, name, value):
    with pytest.raises(MalformedReport, match=repr(name)):
        read_impl_report(tmp_path, json.dumps({**IMPL_PAYLOAD, name: value}))


def test_a_sidecar_integer_reads_as_a_float_where_a_float_is_due(tmp_path):
    write_standard_json(tmp_path, sample_bundle())
    impl = json.loads((tmp_path / "data_impl.json").read_text())
    (tmp_path / "data_impl.json").write_text(json.dumps({**impl, "wns_ns": 1}))
    wns = read_standard_json(tmp_path).impl.wns_ns
    assert wns == 1.0 and isinstance(wns, float)
    row = row_from_design_dir(tmp_path, dataset="ds")
    out = export_tabular(AggregatedTable([row]), tmp_path / "t.csv")
    header, cells = out.read_text().splitlines()
    assert dict(zip(header.split(","), cells.split(",")))["impl_wns_ns"] == "1.0"


def test_read_impl_report_ignores_a_key_it_does_not_read(tmp_path):
    assert read_impl_report(tmp_path, json.dumps({**IMPL_PAYLOAD, "tool": "vivado"})) == \
        read_impl_report(tmp_path, json.dumps(IMPL_PAYLOAD))


def test_read_impl_report_reads_an_integer_as_a_float_field(tmp_path):
    metrics = read_impl_report(tmp_path, json.dumps({**IMPL_PAYLOAD, "wns_ns": 6}))
    assert metrics.wns_ns == 6.0 and isinstance(metrics.wns_ns, float)
