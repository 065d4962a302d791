"""Report parsing and dataset aggregation.

Per-design metrics live next to the design as data_hls.json, data_impl.json
and data_execution.json. Aggregation walks every ``*__post_frontend`` tree
under a work directory and flattens those files into a fixed 30-column table;
a section whose file is absent (tool skipped, timed out, failed) or
unreadable leaves its columns null. Failures are data: they keep their row.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import struct
import sys
import tempfile
import zipfile
import zlib
from contextlib import suppress
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import get_args, get_type_hints
from xml.etree import ElementTree

from .core import (  # the report paths live in core, which the set-up path loads
    CSYNTH_REPORT_RELPATH,
    IMPL_REPORT_RELPATH,
    SOURCE_SUFFIXES,
    DESIGN_DATA_FILENAME,
    OPT_RENDERED_FILENAME,
    TIMELINE_FILENAME,
    AssignmentEntry,
    DesignRecord,
    list_post_frontend,
    read_declared,
    read_json,
    read_record,
    replace_on_success,
    walk_files,
    write_json,
)
from .errors import (
    MalformedReport,
    MalformedSpec,
    MissingDirectory,
    MissingField,
    SourceUnreadable,
)

HLS_DATA_FILENAME = "data_hls.json"
IMPL_DATA_FILENAME = "data_impl.json"
EXECUTION_DATA_FILENAME = "data_execution.json"
SCHEMA_VERSION = 1

_UNDEF_TOKENS = {"", "undef", "undefined", "n/a"}


@dataclass(frozen=True)
class HlsSynthMetrics:
    """Synthesis estimates; latencies are null when the tool reports undef."""

    latency_best_cycles: int | None
    latency_avg_cycles: int | None
    latency_worst_cycles: int | None
    ii: int | None
    clock_estimate_ns: float
    lut: int
    ff: int
    dsp: int
    bram: int
    uram: int


@dataclass(frozen=True)
class ImplMetrics:
    wns_ns: float
    whs_ns: float
    lut: int
    ff: int
    dsp: int
    bram: int
    total_power_w: float


@dataclass(frozen=True)
class ExecutionMeta:
    tool_name: str
    tool_version: str
    runtime_s: float
    status: str


@dataclass
class MetricsBundle:
    hls: HlsSynthMetrics | None = None
    impl: ImplMetrics | None = None
    execution: ExecutionMeta | None = None


# Metric sections: MetricsBundle attribute, dataclass, column prefix, sidecar file.
_SECTIONS = (("hls", HlsSynthMetrics, "hls_", HLS_DATA_FILENAME),
             ("impl", ImplMetrics, "impl_", IMPL_DATA_FILENAME),
             ("execution", ExecutionMeta, "exec_", EXECUTION_DATA_FILENAME))
SIDECAR_FILENAMES = tuple(filename for *_, filename in _SECTIONS)


# field name -> plain type, in field order; ``int | None`` gives int
_FIELD_TYPES = {cls: {name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
                      for name, hint in get_type_hints(cls).items()}
                for _, cls, _, _ in _SECTIONS}

# Column order is the table schema; exports and imports key off these names.
# The identity and assignment columns come first, then every metric field
# under its section's prefix, so adding a metric is adding one field.
COLUMN_TYPES: dict[str, type] = {
    "design_id": str, "base_name": str, "dataset": str, "vendor": str,
    "assignment_summary": str, "n_directives": int, "max_unroll": int, "n_unrolled": int,
    "n_partitioned": int,
    **{prefix + name: kind for _, cls, prefix, _ in _SECTIONS
       for name, kind in _FIELD_TYPES[cls].items()},
}
COLUMNS = tuple(COLUMN_TYPES)

# the text columns whose values repeat from row to row: a base name, a tool version
_SHARED_COLUMNS = tuple(name for name, kind in COLUMN_TYPES.items()
                        if kind is str and name not in ("design_id", "assignment_summary"))


def _share_strings(self) -> None:
    """Give the row's repeating text cells the one interned copy every row shares: the
    row class's __post_init__, so a row from any source shares them."""
    for name in _SHARED_COLUMNS:
        value = getattr(self, name)
        if type(value) is str:
            setattr(self, name, sys.intern(value))


def _row_as_dict(row) -> dict:
    return {name: getattr(row, name) for name in COLUMNS}


AggregatedRow = make_dataclass(
    "AggregatedRow", [(name, kind | None, None) for name, kind in COLUMN_TYPES.items()],
    namespace={
        "__module__": __name__,
        "__doc__": "One design, flat; every column nullable so partial data stays honest.",
        "has_hls": property(lambda row: row.hls_lut is not None),
        "has_impl": property(lambda row: row.impl_lut is not None),
        "as_dict": _row_as_dict,
        "__post_init__": _share_strings,
    }, slots=True)


@dataclass
class AggregatedTable:
    rows: list[AggregatedRow]

    @property
    def columns(self) -> tuple[str, ...]:
        return COLUMNS


@dataclass
class ImportResult:
    rows: list[AggregatedRow]
    n_dropped: int


def _latency_value(text: str | None) -> int | None:
    if text is None or text.strip().lower() in _UNDEF_TOKENS:
        return None
    try:
        return int(text.strip())
    except ValueError as exc:
        raise MalformedReport(f"bad latency value {text!r}") from exc


def _resource_value(node, tag: str) -> int:
    text = node.findtext(tag)
    if text is None or text.strip() == "":
        return 0
    try:
        return int(text.strip())
    except ValueError as exc:
        raise MalformedReport(f"bad resource value {text!r} for {tag}") from exc


def parse_vitis_csynth_report(xml_text: str) -> HlsSynthMetrics:
    """Parse a csynth.xml report; one parser serves mock and real reports."""
    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        raise MalformedReport(f"csynth report is not well-formed XML: {exc}") from exc
    area = root.find("AreaEstimates")
    if area is None:
        raise MalformedReport("csynth report lacks AreaEstimates")
    resources = area.find("Resources")
    if resources is None:
        raise MalformedReport("csynth report lacks AreaEstimates/Resources")
    latency = root.find("PerformanceEstimates/SummaryOfOverallLatency")
    best = avg = worst = ii = None
    if latency is not None:
        best = _latency_value(latency.findtext("Best-caseLatency"))
        avg = _latency_value(latency.findtext("Average-caseLatency"))
        worst = _latency_value(latency.findtext("Worst-caseLatency"))
        ii = _latency_value(latency.findtext("Best-caseInterval"))
    clock_text = root.findtext("PerformanceEstimates/SummaryOfTimingAnalysis/EstimatedClockPeriod")
    try:
        clock = float(clock_text) if clock_text not in (None, "") else 0.0
    except ValueError as exc:
        raise MalformedReport(f"bad EstimatedClockPeriod {clock_text!r}") from exc
    return HlsSynthMetrics(
        latency_best_cycles=best, latency_avg_cycles=avg, latency_worst_cycles=worst, ii=ii,
        clock_estimate_ns=clock,
        lut=_resource_value(resources, "LUT"), ff=_resource_value(resources, "FF"),
        dsp=_resource_value(resources, "DSP"), bram=_resource_value(resources, "BRAM_18K"),
        uram=_resource_value(resources, "URAM"))


_CSYNTH_XML = """<?xml version='1.0' encoding='utf-8'?>
<profile>
  <PerformanceEstimates>
    <SummaryOfOverallLatency>
      <Best-caseLatency>{0}</Best-caseLatency>
      <Average-caseLatency>{1}</Average-caseLatency>
      <Worst-caseLatency>{2}</Worst-caseLatency>
    </SummaryOfOverallLatency>
    <SummaryOfTimingAnalysis>
      <EstimatedClockPeriod>{clock_estimate_ns!r}</EstimatedClockPeriod>
    </SummaryOfTimingAnalysis>
  </PerformanceEstimates>
  <AreaEstimates>
    <Resources>
      <LUT>{lut}</LUT>
      <FF>{ff}</FF>
      <DSP>{dsp}</DSP>
      <BRAM_18K>{bram}</BRAM_18K>
      <URAM>{uram}</URAM>
    </Resources>
  </AreaEstimates>
</profile>
"""


def write_vitis_csynth_report(path: Path, metrics: HlsSynthMetrics) -> None:
    """Write metrics in one write as _CSYNTH_XML, csynth.xml as ElementTree.indent lays it out:
    the latencies in order (undef when null), the rest by field name; makes path's directories."""
    latencies = ["undef" if value is None else value for value in (
        metrics.latency_best_cycles, metrics.latency_avg_cycles, metrics.latency_worst_cycles)]
    os.makedirs(path.parent, exist_ok=True)
    with open(path, "wb") as report:
        report.write(_CSYNTH_XML.format(*latencies, **metrics.__dict__).encode())


def write_standard_json(design_dir: Path, bundle: MetricsBundle) -> list[Path]:
    """Write data_hls/impl/execution.json for the bundle's present sections.

    The file of an absent section is removed, so no earlier run's values
    outlive the run that lost them.
    """
    design_dir = Path(design_dir)
    written = []
    for attr, _, _, filename in _SECTIONS:
        section = getattr(bundle, attr)
        path = design_dir / filename
        if section is None:
            path.unlink(missing_ok=True)
            continue
        # a section's fields are scalars, so its __dict__ is its JSON object in field order
        written.append(write_json(path, {"schema_version": SCHEMA_VERSION, **vars(section)}))
    return written


def _read_section(design_dir: Path, filename: str, cls):
    """The section stored in filename, read as cls declares (core.read_declared), or
    None when the file is absent, unreadable or corrupted (not a JSON object; fields
    missing, unknown or of the wrong JSON type): one bad sidecar leaves its section
    null rather than sink the table."""
    with suppress(MalformedReport, MissingField):
        payload = read_json(design_dir / filename)
        if payload is not None:
            payload.pop("schema_version", None)
            return read_declared(cls, payload)
    return None


def read_standard_json(design_dir: Path) -> MetricsBundle:
    design_dir = Path(design_dir)
    return MetricsBundle(**{attr: _read_section(design_dir, filename, cls)
                            for attr, cls, _, filename in _SECTIONS})


def _assignment_columns(entries: tuple[AssignmentEntry, ...]) -> dict:
    parts = []
    max_unroll = 1
    n_unrolled = 0
    n_partitioned = 0
    for e in entries:
        shown = f"={e.choice}" if e.choice else ""
        parts.append(f"{e.group}/{e.label}#{e.line_index}:{e.directive}{shown}")
        if e.directive == "unroll":
            try:
                factor = int(e.choice)
            except ValueError:
                factor = 1
            max_unroll = max(max_unroll, factor)
            if factor > 1:
                n_unrolled += 1
        elif e.directive == "array_partition":
            n_partitioned += 1
    return {"assignment_summary": ";".join(parts), "n_directives": len(entries),
            "max_unroll": max_unroll, "n_unrolled": n_unrolled, "n_partitioned": n_partitioned}


def _design_columns(design_dir: Path) -> dict:
    """Identity, vendor and assignment columns from data_design.json.

    When the file is absent or unreadable (core.read_record), the id and base name
    come from the directory name and the other columns stay null.
    """
    with suppress(MalformedReport):
        if (record := read_record(DesignRecord, design_dir / DESIGN_DATA_FILENAME)) is not None:
            return {"design_id": record.id, "base_name": record.base_name,
                    "vendor": record.vendor, **_assignment_columns(record.assignment)}
    return {"design_id": design_dir.name, "base_name": design_dir.name.split("__")[0]}


def row_from_design_dir(design_dir: Path, dataset: str) -> AggregatedRow:
    """Flatten one design directory into a table row; absent or unreadable files leave nulls."""
    design_dir = Path(design_dir)
    cells = _design_columns(design_dir)
    for _, cls, prefix, filename in _SECTIONS:
        if (section := _read_section(design_dir, filename, cls)) is not None:
            cells.update({prefix + name: value for name, value in vars(section).items()})
    return AggregatedRow(dataset=dataset, **cells)


def aggregate_collection(work_dir: Path) -> AggregatedTable:
    """One row per design directory under every *__post_frontend tree, sorted."""
    return AggregatedTable([row_from_design_dir(sub, dataset=name)
                            for name, subs in list_post_frontend(work_dir).items()
                            for sub in subs])


def export_tabular(table: AggregatedTable, path: Path, format: str = "csv") -> Path:
    """Write the table as csv or jsonl, row by row; repeated exports are
    byte-identical, and path changes only once the whole table is written."""
    path = Path(path)
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown export format {format!r}")
    with replace_on_success(path) as tmp, open(tmp, "w") as handle:
        if format == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in table.rows:
                # csv writes None as an empty cell, and a float as its repr
                writer.writerow([getattr(row, name) for name in COLUMNS])
        else:
            for row in table.rows:
                record = {"schema_version": SCHEMA_VERSION, **row.as_dict()}
                handle.write(json.dumps(record) + "\n")
    return path


def _csv_cells(record: dict) -> dict:
    """A CSV row's cells read back as export_tabular wrote them: an empty or absent
    cell is null, and an int column takes only an integer literal."""
    return {name: kind(text) if (text := record.get(name)) else None
            for name, kind in COLUMN_TYPES.items()}


def load_table(path: Path) -> AggregatedTable:
    """Read back a csv/jsonl export (column types restored from the schema).

    A JSONL line is read as AggregatedRow declares (core.read_declared), its
    schema_version and any other key no column names ignored. Raises
    SourceUnreadable when the file is absent or unreadable, and MalformedReport
    naming the file when a line or cell cannot be read back as export_tabular
    writes it (an int cell "2.5", a JSONL ``true`` in an int column, ...).
    """
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            if path.suffix == ".jsonl":
                rows = [read_declared(AggregatedRow, json.loads(line), ignore_unknown=True)
                        for line in filter(str.strip, handle)]
            else:
                rows = [AggregatedRow(**_csv_cells(record)) for record in csv.DictReader(handle)]
    except OSError as exc:  # absent, a directory, no permission
        raise SourceUnreadable(f"table file {path}: {exc}") from exc
    # undecodable bytes, invalid JSON or CSV, a line that is no object, a bad cell
    except (ValueError, ArithmeticError, TypeError, csv.Error, MalformedReport) as exc:
        raise MalformedReport(f"table file {path}: {exc}") from exc
    return AggregatedTable(rows)


_UNIT_RULES = ("identity", "mhz_to_ns", "ns_to_mhz")


@dataclass(frozen=True)
class MappingSpec:
    """How import_external_dataset maps an external results file onto the table:
    source column -> table column, and a unit rule per table column."""

    name: str
    format: str  # "csv" or "json"
    columns: dict[str, str]
    units: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown source format {self.format!r}")
        if not self.columns:
            raise ValueError("columns must be a non-empty object of src -> dst")
        for src, dst in self.columns.items():
            if dst not in COLUMNS:
                raise ValueError(f"unknown target column {dst!r} (from source {src!r})")
        for dst, rule in self.units.items():
            if dst not in COLUMNS:
                raise ValueError(f"units entry names unknown column {dst!r}")
            if rule not in _UNIT_RULES:
                raise ValueError(f"unknown unit rule {rule!r} for column {dst!r}")


def _apply_unit(rule: str, value: float) -> float:
    if rule == "identity":
        return value
    # period[ns] = 1000 / freq[MHz], and the inverse is the same expression
    if value == 0:
        raise ValueError("cannot convert a zero frequency/period")
    return 1000.0 / value


def import_external_dataset(mapping_spec: dict, path: Path) -> ImportResult:
    """Map an external csv/json results file onto the standard table schema.

    mapping_spec is read as MappingSpec declares (core.read_declared), a key no
    field declares ignored; a spec it refuses raises MalformedSpec. Nothing is
    fabricated: only mapped columns become non-null, rows whose mapped cells
    fail to parse are dropped (and counted), and every row's dataset is tagged
    external:<name>.
    """
    try:
        spec = read_declared(MappingSpec, mapping_spec, ignore_unknown=True)
    except (MissingField, MalformedReport, ValueError) as exc:
        raise MalformedSpec(f"mapping spec: {exc}") from exc

    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SourceUnreadable(f"cannot read {path}: {exc}") from exc
    if spec.format == "csv":
        reader = csv.DictReader(io.StringIO(text))
        records = list(reader)
        header = reader.fieldnames or []
    else:
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SourceUnreadable(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise MalformedSpec("json source must be an array of objects")
        header = records[0] if records else spec.columns  # no record: nothing to miss
    for src in spec.columns:
        if src not in header:
            raise MalformedSpec(f"source column {src!r} not present in {path.name}")

    rows = []
    n_dropped = 0
    for i, record in enumerate(records):
        cells = {}
        try:
            for src, dst in spec.columns.items():
                raw = record.get(src)
                kind = COLUMN_TYPES[dst]
                if raw is None or raw == "":
                    cells[dst] = None
                elif dst in spec.units and kind is not str:
                    converted = _apply_unit(spec.units[dst], float(raw))
                    cells[dst] = int(round(converted)) if kind is int else converted
                else:  # an integer column takes any number
                    cells[dst] = int(float(raw)) if kind is int else kind(raw)
        except (ValueError, TypeError):
            n_dropped += 1
            continue
        if cells.get("design_id") is None:
            cells["design_id"] = f"{spec.name}_{i:06d}"
        cells["dataset"] = f"external:{spec.name}"  # a mapped dataset column included
        rows.append(AggregatedRow(**cells))
    return ImportResult(rows, n_dropped)


_ARCHIVED_SUFFIXES = (*SOURCE_SUFFIXES, ".tcl")
_ARTIFACT_DIR = "hls_prj"


def _archived(rel: str, include_artifacts: bool) -> bool:
    """Whether the archive holds the work-tree file at rel: the timeline, the
    data_*.json files, opt.tcl and sources; files under hls_prj/ only with
    include_artifacts."""
    parts = rel.split("/")
    if _ARTIFACT_DIR in parts:
        return include_artifacts
    name = parts[-1]
    return (name in (TIMELINE_FILENAME, OPT_RENDERED_FILENAME)
            or (name.startswith("data_") and name.endswith(".json"))
            # as in Path.suffix, a leading dot starts no suffix: ".c" has none
            or name[1:].endswith(_ARCHIVED_SUFFIXES))


# Every member's fixed fields, on which the archive's pinned bytes rest:
# deflated at level 6, dated 1980-01-01 00:00:00 (DOS date 0x21, time 0),
# made on Unix with mode 0644.
_DEFLATE_LEVEL = 6
_DOS_TIME, _DOS_DATE = 0, (1 << 5) | 1
_UNIX, _MODE_0644 = 3, 0o644 << 16
_UTF8_NAME = 0x800  # general-purpose flag bit 11: the name is UTF-8


def _write_member(out, rel: str, data: bytes, offset: int) -> bytes:
    """Write the member rel at offset as zipfile.ZipFile.writestr does, but in
    one pass: deflate first, then the final local header and the data.

    Returns the member's central-directory record. The zip64 fields follow
    zipfile: a local zip64 extra when the data may outgrow ZIP64_LIMIT
    (size * 1.05), and a central one for sizes or an offset past it.
    """
    limit = zipfile.ZIP64_LIMIT  # read per call, as zipfile does
    deflate = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    packed = deflate.compress(data) + deflate.flush()
    info = zipfile.ZipInfo(rel, date_time=(1980, 1, 1, 0, 0, 0))
    info.create_system, info.external_attr = _UNIX, _MODE_0644
    info.compress_type = zipfile.ZIP_DEFLATED
    info.file_size, info.compress_size, info.CRC = len(data), len(packed), zlib.crc32(data)
    # a local zip64 extra also raises info's versions to ZIP64_VERSION
    out.write(info.FileHeader(info.file_size * 1.05 > limit))
    out.write(packed)

    file_size, compress_size, header_offset = info.file_size, info.compress_size, offset
    zip64 = []
    if file_size > limit or compress_size > limit:
        zip64 += [file_size, compress_size]
        file_size = compress_size = 0xFFFFFFFF
    if offset > limit:
        zip64.append(offset)
        header_offset = 0xFFFFFFFF
    extra = struct.pack(f"<HH{len(zip64)}Q", 1, 8 * len(zip64), *zip64) if zip64 else b""
    version = zipfile.ZIP64_VERSION if zip64 else 0
    name = rel.encode()
    return struct.pack(
        zipfile.structCentralDir, zipfile.stringCentralDir,
        max(version, info.create_version), _UNIX, max(version, info.extract_version), 0,
        0 if rel.isascii() else _UTF8_NAME, zipfile.ZIP_DEFLATED, _DOS_TIME, _DOS_DATE,
        info.CRC, compress_size, file_size, len(name), len(extra), 0, 0, 0, _MODE_0644,
        header_offset) + name + extra


def _write_end(out, count: int, size: int, start: int) -> None:
    """The end records of a central directory of count members and size bytes
    at offset start; zip64 ones first when zipfile would write them."""
    limit = zipfile.ZIP64_LIMIT
    if count > zipfile.ZIP_FILECOUNT_LIMIT or start > limit or size > limit:
        out.write(struct.pack(zipfile.structEndArchive64, zipfile.stringEndArchive64,
                              44, 45, 45, 0, 0, count, count, size, start))
        out.write(struct.pack(zipfile.structEndArchive64Locator,
                              zipfile.stringEndArchive64Locator, 0, start + size, 1))
        count, size, start = min(count, 0xFFFF), min(size, 0xFFFFFFFF), min(start, 0xFFFFFFFF)
    out.write(struct.pack(zipfile.structEndArchive, zipfile.stringEndArchive,
                          0, 0, count, count, size, start, 0))


def archive_dataset(work_dir: Path, out_path: Path, include_artifacts: bool = False) -> Path:
    """Zip the work tree's data files deterministically (sorted, zeroed timestamps).

    The bytes are those zipfile writes for the same members, zip64 records
    included, but each member is written once, as the sorted walk yields it,
    and its central-directory record goes to an unnamed temporary file beside
    out_path, copied in after the last member: no member list and no central
    directory is held in memory. hls_prj/ is not walked unless
    include_artifacts, and out_path changes only once the archive is complete.
    """
    work_dir = Path(work_dir)
    if not work_dir.is_dir():
        raise MissingDirectory(f"work directory {work_dir} does not exist")
    skip = () if include_artifacts else (_ARTIFACT_DIR,)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with replace_on_success(out_path) as tmp, open(tmp, "wb") as out, \
            tempfile.TemporaryFile(dir=out_path.parent) as central:
        count = offset = 0
        for rel in walk_files(work_dir, skip):
            if _archived(rel, include_artifacts):
                with open(os.path.join(work_dir, rel), "rb") as member:
                    central.write(_write_member(out, rel, member.read(), offset))
                offset = out.tell()
                count += 1
        size = central.tell()
        central.seek(0)
        shutil.copyfileobj(central, out)
        _write_end(out, count, size, offset)
    return out_path
