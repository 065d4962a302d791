"""Design model, dataset loading, and workspace layout."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import pytest

from hlsforge.core import (
    AbstractDesign,
    AssignmentEntry,
    ConcreteDesign,
    DesignDataset,
    DesignRecord,
    WorkspaceLayout,
    concrete_design_id,
    design_dir,
    design_identity,
    list_design_files,
    load_dataset,
    read_declared,
    read_json,
    read_record,
    validate_design_files,
    walk_files,
    write_json,
)
from hlsforge.errors import EmptyDataset, MalformedReport, MissingDirectory, MissingField
from hlsforge.frontends import empty_assignment
from hlsforge.optdsl import enumerate_design_space, iter_assignments, parse_opt_template
from conftest import SIMPLE_TEMPLATE, make_design
from test_tree_pins import build_tree


def test_load_dataset_sorts_designs(tmp_path):
    root = tmp_path / "ds"
    for name in ("zeta", "alpha", "mid"):
        make_design(root, name)
    dataset = load_dataset(root)
    assert dataset.name == "ds"
    assert [d.name for d in dataset.designs] == ["alpha", "mid", "zeta"]
    assert all(d.dataset_name == "ds" for d in dataset.designs)
    assert all(d.frontend_ready for d in dataset.designs)


def test_load_dataset_explicit_name(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "only")
    assert load_dataset(root, "renamed").name == "renamed"


def test_load_dataset_missing_directory(tmp_path):
    with pytest.raises(MissingDirectory):
        load_dataset(tmp_path / "nope")


def test_load_dataset_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "stray.txt").write_text("not a design dir\n")
    with pytest.raises(EmptyDataset):
        load_dataset(empty)


def test_load_dataset_rejects_bad_design_name(tmp_path):
    root = tmp_path / "ds"
    (root / "has-dash").mkdir(parents=True)
    with pytest.raises(ValueError):
        load_dataset(root)


def test_design_without_template_is_not_frontend_ready(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "plain", template=None)
    dataset = load_dataset(root)
    assert not dataset.designs[0].frontend_ready


def test_list_design_files_skips_hidden_and_logs(tmp_path):
    root = tmp_path / "d"
    (root / "sub").mkdir(parents=True)
    (root / "b.c").write_text("int x;\n")
    (root / "a.tcl").write_text("puts hi\n")
    (root / "sub" / "inner.h").write_text("#pragma once\n")
    (root / ".hidden").write_text("skip\n")
    (root / "run.log").write_text("skip\n")
    (root / ".git").mkdir()
    (root / ".git" / "config").write_text("skip\n")
    assert list_design_files(root) == ("a.tcl", "b.c", "sub/inner.h")


def test_concrete_design_id_hashes_canonical_rendering():
    assignment = empty_assignment()
    digest = hashlib.sha256(b"\n").hexdigest()
    assert concrete_design_id("base", assignment) == f"base__{digest[:8]}"
    assert concrete_design_id("base", assignment) == "base__01ba4719"


def test_concrete_design_ids_distinct_across_space():
    space = enumerate_design_space(parse_opt_template(SIMPLE_TEMPLATE))
    ids = {concrete_design_id("d", a) for a in iter_assignments(space)}
    assert len(ids) == space.size
    assert all(i.startswith("d__") and len(i) == len("d__") + 8 for i in ids)


def test_dataset_rejects_duplicate_identities(tmp_path):
    design = AbstractDesign("a", "ds", tmp_path, ())
    with pytest.raises(ValueError):
        DesignDataset("ds", [design, design])


def test_design_identity_and_dir(tmp_path):
    abstract = AbstractDesign("a", "ds", tmp_path / "a", ())
    concrete = ConcreteDesign("a__deadbeef", "a", tmp_path / "out", "xilinx")
    assert design_identity(abstract) == "a"
    assert design_identity(concrete) == "a__deadbeef"
    assert design_dir(abstract) == tmp_path / "a"
    assert design_dir(concrete) == tmp_path / "out"


def test_workspace_post_frontend_dir(tmp_path):
    layout = WorkspaceLayout(tmp_path / "work")
    assert layout.post_frontend_dir("demo") == tmp_path / "work" / "demo__post_frontend"
    assert layout.post_frontend_dir("demo__post_frontend") \
        == tmp_path / "work" / "demo__post_frontend"
    layout.ensure()
    assert (tmp_path / "work").is_dir()


def test_validate_design_files_reports_missing(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    assert validate_design_files(design, ("mock_manifest.json",)) == []
    assert validate_design_files(design, ("mock_manifest.json", "absent.tcl")) == ["absent.tcl"]


def test_write_json_layout_and_read_json_round_trip(tmp_path):
    # the second payload spans more than one of the blocks write_json writes
    for payload in ({"b": [1, 2.5, None], "a": {"x": "y"}},
                    {"rows": [{"i": i, "s": "x" * (i % 7)} for i in range(2000)]}):
        path = write_json(tmp_path / "p.json", payload)
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"
        assert read_json(path) == payload
    assert read_json(tmp_path / "absent.json") is None


def test_write_json_writes_a_record_as_its_fields_and_read_record_reads_it_back(tmp_path):
    from hlsforge.aggregate import ImplMetrics
    from hlsforge.toolflows import ArraySpec, LoopSpec, MockManifest
    entry = AssignmentEntry("g", "lp1", 0, "unroll", "4")
    records = [
        DesignRecord("d", "d__12345678", "xilinx", (entry, AssignmentEntry("g", "a", 1, "x", ""))),
        DesignRecord("d", "d__00000000", "intel", ()),
        MockManifest((LoopSpec("lp1", 64, 4, 1),), 100, 80, (ArraySpec("buf", 64, 4),), 5.0),
        MockManifest((), 0, 0),
        ImplMetrics(6.5, 0.1, 90, 72, 1, 2, 0.6),
    ]
    for record in records:
        path = write_json(tmp_path / "record.json", record)
        # the bytes json writes for a deep copy of the record's fields
        assert path.read_text() == json.dumps(asdict(record), indent=2) + "\n"
        assert read_record(type(record), path) == record
    assert read_record(DesignRecord, tmp_path / "absent.json") is None


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"{nope", b"[1, 2]", b'"x"', b"null", None],
                         ids=["undecodable", "invalid", "list", "string", "null", "directory"])
def test_read_json_names_the_file_it_cannot_read_as_an_object(tmp_path, content):
    path = tmp_path / "bad.json"
    if content is None:  # an OSError other than FileNotFoundError
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(MalformedReport, match=f"^{path}: "):
        read_json(path)
    with pytest.raises(MalformedReport, match=f"^{path}: "):
        read_record(DesignRecord, path)


def test_walk_files_yields_paths_in_sorted_order(tmp_path):
    # the archive's member order and so its bytes rest on this order
    root = build_tree(tmp_path / "work")
    d1 = root / "ds__post_frontend" / "d1"
    # names that sort before "/" (" ", "+", "-", ".") and after it beside directory a/
    for name in ("a-b", "a b", "a+", "a0.c", "a_b.c", "\u00e4.c", "a-d/k.c", "a_d/k.c"):
        (d1 / name).parent.mkdir(exist_ok=True)
        (d1 / name).write_text("x\n")
    walked = list(walk_files(root))
    assert walked == sorted(walked)
    assert len(walked) == len(set(walked)) == 28


@dataclass(frozen=True)
class Knobs:
    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"scale must not be negative, got {self.scale!r}")


@dataclass(frozen=True)
class Item:
    label: str
    size: int = 0


@dataclass(frozen=True)
class Declared:
    name: str
    count: int = 0
    ratio: float = 1.0
    note: str | None = None
    constants: Knobs = Knobs()
    loops: list[Item] = ()
    arrays: tuple[Item, ...] = ()


# (payload, ignore_unknown, given) -> the value read, or (error class, its message)
@pytest.mark.parametrize("payload, ignore_unknown, given, expected", [
    ({"count": 2}, False, {}, (MissingField, "lacks required field 'name'")),
    ({"name": "a", "count": None}, False, {},
     (MalformedReport, "field 'count' holds None, not int")),
    ({"name": "a", "note": None}, False, {}, Declared("a", note=None)),
    ({"name": "a", "note": "n"}, False, {}, Declared("a", note="n")),
    ({"name": "a", "note": 3}, False, {},
     (MalformedReport, "field 'note' holds 3, not str | None")),
    ({"name": "a", "count": True}, False, {},
     (MalformedReport, "field 'count' holds True, not int")),
    ({"name": "a", "count": 2.0}, False, {},
     (MalformedReport, "field 'count' holds 2.0, not int")),
    ({"name": "a", "ratio": 1}, False, {}, Declared("a", ratio=1.0)),
    ({"name": "a", "ratio": False}, False, {},
     (MalformedReport, "field 'ratio' holds False, not float")),
    ({"name": "a", "extra": 1, "more": 2}, False, {},
     (MalformedReport, "unknown key(s) 'extra', 'more'")),
    ({"name": "a", "extra": 1}, True, {}, Declared("a")),
    ({"name": "a"}, False, {"count": 5}, Declared("a", count=5)),
    ({"name": "a", "count": 1}, False, {"count": 5}, (MalformedReport, "unknown key(s) 'count'")),
    ([1, 2], False, {}, (MalformedReport, "not an object")),
    ({"name": "a", "constants": {"scale": 2}}, False, {}, Declared("a", constants=Knobs(2.0))),
    ({"name": "a", "constants": {"scale": "2"}}, False, {},
     (MalformedReport, "field constants.'scale' holds '2', not float")),
    ({"name": "a", "constants": {"scal": 2}}, False, {},
     (MalformedReport, "constants: unknown key(s) 'scal'")),
    ({"name": "a", "constants": {"scal": 2}}, True, {}, Declared("a")),
    ({"name": "a", "constants": [2]}, False, {},
     (MalformedReport, "field 'constants' holds [2], not dict")),
    ({"name": "a", "constants": {"scale": -1}}, False, {},
     (ValueError, "constants.scale must not be negative, got -1.0")),
    ({"name": "a", "loops": [{"label": "x"}, {"label": "y", "size": 3}]}, False, {},
     Declared("a", loops=[Item("x"), Item("y", 3)])),
    ({"name": "a", "loops": [{"label": "x"}, {"size": 3}]}, False, {},
     (MissingField, "lacks required field loops[1].'label'")),
    ({"name": "a", "loops": [{"label": "x", "size": "3"}]}, False, {},
     (MalformedReport, "field loops[0].'size' holds '3', not int")),
    ({"name": "a", "loops": [{"label": "x", "tag": 1}]}, False, {},
     (MalformedReport, "loops[0]: unknown key(s) 'tag'")),
    ({"name": "a", "loops": [{"label": "x", "tag": 1}]}, True, {},
     Declared("a", loops=[Item("x")])),
    ({"name": "a", "arrays": [{"label": "b", "size": 4}]}, False, {},
     Declared("a", arrays=(Item("b", 4),))),
    ({"name": "a", "arrays": [7]}, False, {}, (MalformedReport, "arrays[0] is not an object")),
    ({"name": "a", "arrays": {"b": 4}}, False, {},
     (MalformedReport, "field 'arrays' holds {'b': 4}, not list")),
], ids=["required-left-out", "null-not-optional", "null-optional", "optional-str",
        "optional-wrong-type", "true-in-int", "float-in-int", "int-in-float", "false-in-float",
        "refused-keys", "ignored-key", "given", "given-is-no-key", "not-an-object",
        "nested-int-in-float", "nested-wrong-type", "nested-refused-key", "nested-ignored-key",
        "nested-not-an-object", "nested-own-check", "list-of-items", "list-item-required",
        "list-item-wrong-type", "list-item-refused-key", "list-item-ignored-key",
        "tuple-of-items", "tuple-item-not-an-object", "tuple-not-a-list"])
def test_read_declared(payload, ignore_unknown, given, expected):
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as raised:
            read_declared(Declared, payload, ignore_unknown=ignore_unknown, **given)
        assert str(raised.value) == message
        return
    value = read_declared(Declared, payload, ignore_unknown=ignore_unknown, **given)
    # equal values, in the declared containers, with every float field a float
    assert value == expected
    assert type(value.loops) is type(expected.loops) and type(value.arrays) is tuple
    assert type(value.ratio) is float and type(value.constants.scale) is float


def test_read_declared_prefixes_every_message_with_the_key_path():
    with pytest.raises(MalformedReport) as raised:
        read_declared(Declared, {"name": "a", "loops": [{"label": 1}]}, "flows[2].")
    assert str(raised.value) == "field flows[2].loops[0].'label' holds 1, not str"
    with pytest.raises(MalformedReport) as raised:
        read_declared(Declared, {"name": "a", "oops": 1}, "flows[2].")
    assert str(raised.value) == "flows[2]: unknown key(s) 'oops'"
    with pytest.raises(MalformedReport) as raised:
        read_declared(Declared, 3, "flows[2].")
    assert str(raised.value) == "flows[2] is not an object"
