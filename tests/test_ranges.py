"""Declared ranges: every number read from a run config, a mock manifest or a
data_design.json lies in the range its field declares, and one table covers them all."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import sys
import typing

import pytest

from hlsforge.cli import _RunFile, main
from hlsforge import core
from hlsforge.core import DesignRecord, FrontendConfig, Range
from hlsforge.errors import MalformedReport, ManifestMissing
from hlsforge.toolflows import FLOW_ENTRIES, MockManifest
from conftest import SIMPLE_MANIFEST

FLOAT_MAX = sys.float_info.max
LEAST_ABOVE_0 = math.ulp(0.0)  # the least float above 0

# (where the number is read, its key path, a boundary value inside its range, a value
# just outside it, the range's words): one row per range each field declares. Past
# every float lies a huge int, or infinity, which json.load reads.
RANGES = [
    *(("config", f"flows[0].constants.{name}", int(FLOAT_MAX), 10 ** 400, "finite")
      for name in ("lut_per_op", "ff_per_op", "bank_bytes")),
    *(("config", f"flows[0].constants.{name}", FLOAT_MAX, math.inf, "finite")
      for name in ("clock_base_ns", "clock_unroll_ns", "impl_scale", "wns_lut_coeff",
                   "whs_ns", "power_base_w", "power_lut_w", "power_dsp_w")),
    ("config", "flows[0].constants.whs_ns", -FLOAT_MAX, -math.inf, "finite"),
    ("config", "flows[0].constants.lut_per_op", 0, -1000, ">= 0"),
    ("config", "flows[0].constants.ff_per_op", 0, -1, ">= 0"),
    ("config", "flows[0].constants.bank_bytes", 1, 0, ">= 1"),
    ("config", "flows[0].constants.clock_base_ns", LEAST_ABOVE_0, 0.0, "> 0"),
    *(("config", f"flows[0].constants.{name}", 0.0, -0.5, ">= 0")
      for name in ("clock_unroll_ns", "impl_scale", "wns_lut_coeff", "power_base_w",
                   "power_lut_w", "power_dsp_w")),
    ("config", "flows[0].timeout_s", 2147483.647, 2147483.648,
     "positive and at most 2147483.647"),
    ("config", "flows[0].timeout_s", LEAST_ABOVE_0, 0.0, "positive and at most 2147483.647"),
    ("config", "executor.n_workers", 1, 0, ">= 1"),
    ("manifest", "base_lut", 0, -1, ">= 0"),
    ("manifest", "base_ff", 0, -1, ">= 0"),
    ("manifest", "clock_target_ns", LEAST_ABOVE_0, 0.0, "finite and > 0"),
    ("manifest", "clock_target_ns", FLOAT_MAX, math.inf, "finite and > 0"),
    ("manifest", "loops[0].trip_count", 0, -1, ">= 0"),
    ("manifest", "loops[0].body_ops", 1, 0, ">= 1"),
    ("manifest", "loops[0].mult_ops", 0, -1, ">= 0"),
    ("manifest", "arrays[0].depth", 0, -1, ">= 0"),
    ("manifest", "arrays[0].elem_bytes", 0, -1, ">= 0"),
    ("record", "assignment[0].line_index", 0, -1, ">= 0"),
]

# int and float fields read from JSON that declare no range: a seed is any int, which
# frontends._design_seed masks to 64 bits, and n_samples must be >= 1 only when sampling
UNRANGED = {("_RunFile", "seed"), ("FrontendConfig", "seed"), ("FrontendConfig", "n_samples")}


def set_path(payload: dict, path: str, value) -> dict:
    """payload with the value at key path ("loops[0].body_ops") set to value."""
    *parents, last = re.findall(r"[A-Za-z_]\w*|\d+", path)
    target = payload
    for key in parents:
        target = target[int(key) if key.isdigit() else key]
    target[last] = value
    return payload


def read_config(tmp_path, capsys, path: str, value) -> str:
    """Build with a config holding value at path: "" when the config is accepted (and the
    build finds no designs), else the configuration error."""
    payload = {"work_dir": str(tmp_path / "work"), "seed": 7, "executor": {},
               "flows": [{"type": "mock_synth", "constants": {}}]}
    (tmp_path / "work").mkdir(exist_ok=True)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(set_path(payload, path, value)))
    code, err = main(["build", "--config", str(config)]), capsys.readouterr().err
    assert (code, err.startswith("config error: ")) in ((4, False), (2, True))
    return err.removeprefix("config error: ").removesuffix("\n") if code == 2 else ""


def read_file(tmp_path, name: str, payload: dict, read, error) -> str:
    (tmp_path / name).write_text(json.dumps(payload))
    try:
        read(tmp_path)
    except error as exc:
        return str(exc).removeprefix(f"{tmp_path / name}: ")
    return ""


def read_manifest(tmp_path, capsys, path: str, value) -> str:
    payload = set_path(copy.deepcopy(SIMPLE_MANIFEST), path, value)
    return read_file(tmp_path, "mock_manifest.json", payload, MockManifest.load, ManifestMissing)


def read_record(tmp_path, capsys, path: str, value) -> str:
    entry = {"group": "g", "label": "lp1", "line_index": 0, "directive": "unroll", "choice": "2"}
    payload = set_path({"base_name": "d", "id": "d__00000000", "vendor": "xilinx",
                        "assignment": [entry]}, path, value)
    return read_file(tmp_path, "data_design.json", payload,
                     lambda root: core.read_record(DesignRecord, root / "data_design.json"),
                     MalformedReport)


READERS = {"config": read_config, "manifest": read_manifest, "record": read_record}


@pytest.mark.parametrize("where, path, inside, outside, words", RANGES,
                         ids=[f"{path}:{words}" for _, path, _, _, words in RANGES])
def test_a_declared_range_takes_its_boundary_and_refuses_past_it(tmp_path, capsys, where, path,
                                                                 inside, outside, words):
    read = READERS[where]
    assert read(tmp_path, capsys, path, inside) == ""
    assert read(tmp_path, capsys, path, outside) == f"{path} must be {words}, got {outside!r}"


def number_fields() -> dict[tuple[str, str], tuple[str, ...]]:
    """(class, field) -> the words of its declared ranges, for every int and float field
    of a class read from a run config, a mock manifest or a data_design.json, and of
    every dataclass such a field holds. Results read back from sidecars and tables
    (HlsSynthMetrics, ImplMetrics, AggregatedRow, MappingSpec) are data, not input."""
    found, pending = {}, [_RunFile, FrontendConfig, *FLOW_ENTRIES.values(), MockManifest,
                          DesignRecord]
    while pending:
        cls = pending.pop()
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            items = typing.get_args(hint)[:1] if typing.get_origin(hint) in (tuple, list) \
                else (hint,)
            pending += [item for item in items if dataclasses.is_dataclass(item)]
            if hint in (int, float):
                ranges = field.metadata.get("ranges", ())
                assert all(isinstance(bound, Range) for bound in ranges)
                found[cls.__name__, field.name] = tuple(bound.words for bound in ranges)
    return found


def test_every_number_read_from_json_declares_a_range_and_the_table_covers_it():
    fields = number_fields()
    assert {key for key, words in fields.items() if not words} == UNRANGED
    declared = {(name, words) for (_, name), all_words in fields.items() for words in all_words}
    tabled = {(path.rpartition(".")[2], words) for _, path, _, _, words in RANGES}
    assert tabled == declared
