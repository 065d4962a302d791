"""Lowering: sampling, xilinx rendering, intel annotation injection."""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from hlsforge.cli import bundled_designs_dir
from hlsforge.core import (
    AbstractDesign,
    ConcreteDesign,
    WorkspaceLayout,
    concrete_design_id,
    load_dataset,
    load_post_frontend,
)
import hlsforge.frontends as frontends
from hlsforge.errors import (
    AnchorNotFound,
    IdCollision,
    LabelUnknown,
    ManifestMissing,
    MissingTemplate,
    UnsupportedDirective,
)
from hlsforge.frontends import (
    FrontendConfig,
    empty_assignment,
    execute_frontend,
    lower_intel,
    lower_xilinx,
    map_directive_to_intel,
    sample_assignments,
)
from hlsforge.optdsl import (
    DirectiveLine,
    assignment_at,
    canonical_text,
    enumerate_design_space,
    iter_assignments,
    parse_opt_template,
)
from hlsforge.rng import Xoshiro256StarStar
from conftest import (
    REFERENCE_TEMPLATE,
    SIMPLE_MANIFEST,
    SIMPLE_SOURCE,
    SIMPLE_TEMPLATE,
    make_design,
    tree_bytes,
)

PARTITION_TEMPLATE = """\
mem_opt,1,1
0,buf,,array_partition,[cyclic-2 cyclic-4]
set_directive_array_partition -type [style] -factor [factor] top/[name]
"""


def simple_space():
    return enumerate_design_space(parse_opt_template(SIMPLE_TEMPLATE))


def test_sample_clamps_k_to_space_size():
    space = simple_space()
    assert space.size == 6
    sampled = sample_assignments(space, 100, seed=3)
    assert sampled == list(iter_assignments(space))


def test_sample_is_deterministic_and_distinct():
    space = simple_space()
    a = sample_assignments(space, 3, seed=7)
    b = sample_assignments(space, 3, seed=7)
    assert a == b
    assert len({canonical_text(x) for x in a}) == 3


def test_sample_draws_lie_in_the_space():
    space = simple_space()
    full = {canonical_text(a) for a in iter_assignments(space)}
    for seed in range(20):
        for assignment in sample_assignments(space, 2, seed=seed):
            assert canonical_text(assignment) in full


def test_sample_rejection_path_for_huge_spaces():
    rows = [f"{i},lp{i},,unroll,[1 2 3 4 5 6 7 8]" for i in range(8)]
    text = "g,8,1\n" + "\n".join(rows) + "\nset_directive_unroll -factor [f] t/[name]\n"
    space = enumerate_design_space(parse_opt_template(text))
    assert space.size == 8**8  # past the shuffle limit, so rejection sampling
    sampled = sample_assignments(space, 5, seed=11)
    again = sample_assignments(space, 5, seed=11)
    assert sampled == again
    assert len({canonical_text(a) for a in sampled}) == 5


def test_sample_matches_a_dense_shuffle_of_the_index_range():
    rows = [f"{i},lp{i},,unroll,[1 2 3 4 5 6 7 8]" for i in range(6)]
    text = "g,6,1\n" + "\n".join(rows) + "\nset_directive_unroll -factor [f] t/[name]\n"
    spaces = [enumerate_design_space(parse_opt_template(t))
              for t in (SIMPLE_TEMPLATE, REFERENCE_TEMPLATE, text)]
    assert [space.size for space in spaces] == [6, 32, 8**6]
    for space in spaces:
        for k in (1, 5, min(space.size - 1, 50)):
            for seed in range(4):
                indices = list(range(space.size))
                Xoshiro256StarStar(seed).shuffle_prefix(indices, k)
                dense = [assignment_at(space, i) for i in indices[:k]]
                assert sample_assignments(space, k, seed) == dense, (space.size, k, seed)


def test_empty_assignment_renders_bare_newline():
    assert canonical_text(empty_assignment()) == "\n"


def test_lower_xilinx_writes_canonical_opt_tcl(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    space = simple_space()
    assignment = next(iter_assignments(space))
    scrambled = assignment.__class__(tuple(reversed(assignment.selections)), assignment.template)

    concrete = lower_xilinx(design, scrambled, layout)
    assert concrete.vendor == "xilinx"
    assert concrete.id.startswith("d__")
    assert (concrete.dir / "opt.tcl").read_text() == canonical_text(assignment)
    assert not (concrete.dir / "opt_template.tcl").exists()
    assert (concrete.dir / "d.c").exists()
    assert (concrete.dir / "mock_manifest.json").exists()


def test_lower_xilinx_design_data_entries(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    assignment = next(iter_assignments(simple_space()))

    concrete = lower_xilinx(design, assignment, layout)
    meta = json.loads((concrete.dir / "data_design.json").read_text())
    assert meta["id"] == concrete.id
    assert meta["base_name"] == "d"
    assert meta["vendor"] == "xilinx"
    # lp1 carries a fixed pipeline (empty choice) plus the unroll pick
    assert meta["assignment"][0] == {"group": "loop_opt", "label": "lp1", "line_index": 0,
                                     "directive": "pipeline", "choice": ""}
    assert meta["assignment"][1]["directive"] == "unroll"
    assert meta["assignment"][1]["choice"] == "1"
    assert meta["assignment"][2]["label"] == "lp2"


def test_lower_requires_a_template(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "plain", template=None)
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    with pytest.raises(MissingTemplate):
        lower_xilinx(design, empty_assignment(), layout)
    with pytest.raises(MissingTemplate):
        lower_intel(design, empty_assignment(), layout)


def test_map_unroll_to_intel_pragma():
    line = DirectiveLine(0, "lp", "pipeline", "unroll", ("4",))
    assert map_directive_to_intel(line, "4") == ["#pragma unroll 4"]


def test_map_array_partition_to_intel_attributes():
    line = DirectiveLine(0, "buf", "", "array_partition", ("cyclic-4",))
    assert map_directive_to_intel(line, "cyclic-4", elem_bytes=8) == ["hls_numbanks(4)",
                                                                       "hls_bankwidth(8)"]


def test_map_array_partition_needs_elem_bytes():
    line = DirectiveLine(0, "buf", "", "array_partition", ("cyclic-4",))
    with pytest.raises(ManifestMissing):
        map_directive_to_intel(line, "cyclic-4")


def test_map_unknown_kind_rejected():
    line = DirectiveLine(0, "lp", "", "dataflow", ("1",))
    with pytest.raises(UnsupportedDirective):
        map_directive_to_intel(line, "1")
    fixed = DirectiveLine(0, "lp", "inline", "unroll", ("1",))
    with pytest.raises(UnsupportedDirective):
        map_directive_to_intel(fixed, "1")


def test_lower_intel_injects_after_anchors(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    space = simple_space()
    # last point: lp1 unroll 4, lp2 unroll 2
    assignment = list(iter_assignments(space))[-1]

    concrete = lower_intel(design, assignment, layout)
    assert concrete.vendor == "intel"
    text = (concrete.dir / "d.c").read_text()
    lines = text.splitlines()
    lp1_at = lines.index("  // HLSFORGE_LABEL: lp1")
    assert lines[lp1_at + 1] == "  #pragma unroll 4"
    lp2_at = lines.index("  // HLSFORGE_LABEL: lp2")
    assert lines[lp2_at + 1] == "  #pragma unroll 2"
    assert not (concrete.dir / "opt.tcl").exists()

    provenance = json.loads((concrete.dir / "data_intel_provenance.json").read_text())
    assert provenance["design_id"] == concrete.id
    effects = [e["effect"] for e in provenance["entries"]]
    assert "default-pipelined" in effects
    assert "#pragma unroll 4" in effects


def test_lower_intel_array_partition_reads_manifest(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d", template=PARTITION_TEMPLATE)
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    assignment = list(iter_assignments(enumerate_design_space(
        parse_opt_template(PARTITION_TEMPLATE))))[1]

    concrete = lower_intel(design, assignment, layout)
    lines = (concrete.dir / "d.c").read_text().splitlines()
    at = lines.index("  // HLSFORGE_LABEL: buf")
    assert lines[at + 1] == "  hls_numbanks(4)"
    assert lines[at + 2] == "  hls_bankwidth(4)"


def test_lower_intel_unknown_array_label(tmp_path):
    root = tmp_path / "ds"
    manifest = dict(SIMPLE_MANIFEST, arrays=[])
    make_design(root, "d", template=PARTITION_TEMPLATE, manifest=manifest)
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    assignment = next(iter_assignments(enumerate_design_space(
        parse_opt_template(PARTITION_TEMPLATE))))
    with pytest.raises(LabelUnknown):
        lower_intel(design, assignment, layout)


@pytest.mark.parametrize("elem_bytes", ["4", 4.0, True])
def test_lower_intel_takes_elem_bytes_only_as_an_int(tmp_path, elem_bytes):
    root = tmp_path / "ds"
    manifest = dict(SIMPLE_MANIFEST, arrays=[{"label": "buf", "depth": 64,
                                              "elem_bytes": elem_bytes}])
    make_design(root, "d", template=PARTITION_TEMPLATE, manifest=manifest)
    design = load_dataset(root).designs[0]
    assignment = next(iter_assignments(enumerate_design_space(
        parse_opt_template(PARTITION_TEMPLATE))))
    with pytest.raises(ManifestMissing, match=r"field arrays\[0\]\.'elem_bytes' holds "):
        lower_intel(design, assignment, WorkspaceLayout(tmp_path / "work"))


def test_lower_intel_reads_the_manifest_through_its_typed_loader(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d", template=PARTITION_TEMPLATE, manifest=dict(SIMPLE_MANIFEST, arrays=[7]))
    design = load_dataset(root).designs[0]
    assignment = next(iter_assignments(enumerate_design_space(
        parse_opt_template(PARTITION_TEMPLATE))))
    with pytest.raises(ManifestMissing, match=r"arrays\[0\] is not an object"):
        lower_intel(design, assignment, WorkspaceLayout(tmp_path / "work"))


TWO_ARRAY_SOURCE = """\
void top(int a[64]) {
  // HLSFORGE_LABEL: buf
  static int buf[64];
  // HLSFORGE_LABEL: acc
  static short acc[32];
}
"""
TWO_ARRAY_TEMPLATE = """\
mem_opt,2,1
0,buf,,array_partition,[cyclic-2]
1,acc,,array_partition,[cyclic-4]
set_directive_array_partition -type [style] -factor [factor] top/[name]
"""


def counted_manifest_loads(monkeypatch) -> list:
    """The design roots MockManifest.load is called with, from now on."""
    loads = []
    load = frontends.MockManifest.load
    monkeypatch.setattr(frontends.MockManifest, "load",
                        staticmethod(lambda root: loads.append(root) or load(root)))
    return loads


def test_lower_intel_loads_the_manifest_once_for_all_partitions_of_a_point(tmp_path,
                                                                          monkeypatch):
    root = tmp_path / "ds"
    manifest = dict(SIMPLE_MANIFEST, arrays=[{"label": "buf", "depth": 64, "elem_bytes": 4},
                                             {"label": "acc", "depth": 32, "elem_bytes": 2}])
    make_design(root, "d", template=TWO_ARRAY_TEMPLATE, manifest=manifest,
                source=TWO_ARRAY_SOURCE)
    design = load_dataset(root).designs[0]
    [assignment] = iter_assignments(enumerate_design_space(parse_opt_template(TWO_ARRAY_TEMPLATE)))
    loads = counted_manifest_loads(monkeypatch)
    lowered = lower_intel(design, assignment, WorkspaceLayout(tmp_path / "work"))
    assert loads == [design.source_dir]
    source = (lowered.dir / "d.c").read_text()
    assert "hls_bankwidth(4)" in source and "hls_bankwidth(2)" in source


def test_lower_intel_reads_no_manifest_without_a_partition(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    make_design(root, "d", manifest=None)
    (root / "d" / "mock_manifest.json").write_text("{broken")
    design = load_dataset(root).designs[0]
    assignment = next(iter_assignments(simple_space()))
    loads = counted_manifest_loads(monkeypatch)
    lower_intel(design, assignment, WorkspaceLayout(tmp_path / "work"))
    assert loads == []


def test_lower_intel_missing_anchor_raises(tmp_path):
    source = "void top(int *a) {\n  for (int i = 0; i < 4; i++) a[i] = i;\n}\n"
    root = tmp_path / "ds"
    make_design(root, "d", source=source)
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "work")
    assignment = next(iter_assignments(simple_space()))
    with pytest.raises(AnchorNotFound):
        lower_intel(design, assignment, layout)


def test_design_id_is_vendor_independent(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    assignment = next(iter_assignments(simple_space()))
    xilinx = lower_xilinx(design, assignment, WorkspaceLayout(tmp_path / "wx"))
    intel = lower_intel(design, assignment, WorkspaceLayout(tmp_path / "wi"))
    assert xilinx.id == intel.id


def test_execute_frontend_sizes_and_passthrough(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "expandable")
    make_design(root, "plain", template=None)
    collection = {"ds": load_dataset(root)}
    layout = WorkspaceLayout(tmp_path / "work")
    config = FrontendConfig(n_samples=2, seed=9)

    result = execute_frontend(collection, config, layout)
    assert result.failures == []
    assert result.sizes[("ds", "expandable")] == (6, 2)
    assert result.sizes[("ds", "plain")] == (1, 1)
    produced = result.collection["ds__post_frontend"].designs
    kinds = {type(d).__name__ for d in produced}
    assert kinds == {"ConcreteDesign", "AbstractDesign"}
    assert (tmp_path / "work" / "ds__post_frontend" / "plain" / "plain.c").exists()


def test_execute_frontend_isolates_failures(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "good")
    make_design(root, "broken", template="g,2,0\n0,lp,,unroll,[1]\n")
    collection = {"ds": load_dataset(root)}
    result = execute_frontend(collection, FrontendConfig(n_samples=1), WorkspaceLayout(tmp_path / "w"))
    assert len(result.failures) == 1
    assert result.failures[0][1] == "broken"
    assert "CountMismatch" in result.failures[0][2]
    assert result.sizes[("ds", "broken")] == (0, 0)
    assert result.sizes[("ds", "good")] == (6, 1)
    assert len(result.collection["ds__post_frontend"].designs) == 1


def test_execute_frontend_exhaustive_mode(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    config = FrontendConfig(random_sample=False)
    result = execute_frontend({"ds": load_dataset(root)}, config, WorkspaceLayout(tmp_path / "w"))
    assert result.sizes[("ds", "d")] == (6, 6)
    assert len(result.collection["ds__post_frontend"].designs) == 6


def test_execute_frontend_same_seed_same_tree(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "a")
    make_design(root, "b")
    config = FrontendConfig(n_samples=3, seed=1234)
    for work in ("w1", "w2"):
        execute_frontend({"ds": load_dataset(root)}, config, WorkspaceLayout(tmp_path / work))
    assert tree_bytes(tmp_path / "w1") == tree_bytes(tmp_path / "w2")

    execute_frontend({"ds": load_dataset(root)}, FrontendConfig(n_samples=3, seed=77),
                     WorkspaceLayout(tmp_path / "w3"))
    assert tree_bytes(tmp_path / "w1") != tree_bytes(tmp_path / "w3")


def test_load_post_frontend_round_trip(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "a")
    make_design(root, "plain", template=None)
    layout = WorkspaceLayout(tmp_path / "work")
    result = execute_frontend({"ds": load_dataset(root)}, FrontendConfig(n_samples=2, seed=5), layout)

    reloaded = load_post_frontend(tmp_path / "work")
    assert set(reloaded) == {"ds__post_frontend"}
    by_id = {d.id if isinstance(d, ConcreteDesign) else d.name: d
             for d in reloaded["ds__post_frontend"].designs}
    original = {d.id if isinstance(d, ConcreteDesign) else d.name
                for d in result.collection["ds__post_frontend"].designs}
    assert set(by_id) == original
    concrete = [d for d in reloaded["ds__post_frontend"].designs if isinstance(d, ConcreteDesign)]
    assert len(concrete) == 2
    assert all(d.vendor == "xilinx" for d in concrete)
    assert all(d.base_name == "a" for d in concrete)
    plain = [d for d in reloaded["ds__post_frontend"].designs if isinstance(d, AbstractDesign)]
    assert len(plain) == 1 and plain[0].name == "plain"


def test_frontend_config_validation():
    with pytest.raises(ValueError):
        FrontendConfig(vendor="altera")
    with pytest.raises(ValueError):
        FrontendConfig(n_samples=0)
    FrontendConfig(random_sample=False, n_samples=0)  # exhaustive mode ignores n_samples


def constant_ids(monkeypatch):
    """Give every point of a design the same id, as a truncated-digest collision would."""
    monkeypatch.setattr(frontends, "concrete_design_id", lambda base, assignment: f"{base}__0000cafe")


def test_colliding_ids_fail_alone_and_overwrite_nothing(tmp_path, monkeypatch):
    constant_ids(monkeypatch)
    root = tmp_path / "ds"
    make_design(root, "d")
    work = tmp_path / "w"
    result = execute_frontend({"ds": load_dataset(root)}, FrontendConfig(n_samples=3, seed=2),
                              WorkspaceLayout(work))
    assert result.collisions == 2
    assert [f[:2] for f in result.failures] == [("ds", "d"), ("ds", "d")]
    assert all(f[2].startswith("IdCollision: ") for f in result.failures)
    assert result.sizes[("ds", "d")] == (6, 1)
    [design] = result.collection["ds__post_frontend"].designs
    first = sample_assignments(simple_space(), 3, frontends._design_seed(2, "d"))[0]
    assert (design.dir / "opt.tcl").read_text() == canonical_text(first)


def test_an_id_held_on_disk_by_another_assignment_is_refused(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "w")
    *_, last = iter_assignments(simple_space())
    kept = lower_xilinx(design, last, layout)
    before = tree_bytes(kept.dir)
    lower_xilinx(design, last, layout)  # the same assignment lowers again in place

    monkeypatch.setattr(frontends, "concrete_design_id", lambda base, assignment: kept.id)
    with pytest.raises(IdCollision):
        lower_xilinx(design, next(iter_assignments(simple_space())), layout)
    result = execute_frontend({"ds": load_dataset(root)}, FrontendConfig(random_sample=False),
                              layout)
    # the first point collides with the disk, the other five with the first
    assert result.collisions == 6
    assert result.sizes[("ds", "d")] == (6, 0)
    assert tree_bytes(kept.dir) == before


@pytest.mark.parametrize("payload", [b"[1, 2]", b"{nope", b"\xff\xfe\x00", None],
                         ids=["non-object", "invalid", "undecodable", "directory"])
def test_reexpanding_over_an_unreadable_design_file_keeps_the_base(tmp_path, payload):
    root = tmp_path / "ds"
    make_design(root, "d")
    layout = WorkspaceLayout(tmp_path / "w")
    config = FrontendConfig(n_samples=3, seed=2)
    first = execute_frontend({"ds": load_dataset(root)}, config, layout)
    ids = [design.id for design in first.collection["ds__post_frontend"].designs]
    spoiled = first.collection["ds__post_frontend"].designs[0].dir / "data_design.json"
    intact = spoiled.read_bytes()
    if payload is None:  # a file that cannot be opened for reading
        spoiled.unlink()
        spoiled.mkdir()
    else:
        spoiled.write_bytes(payload)

    again = execute_frontend({"ds": load_dataset(root)}, config, layout)

    assert not again.failures
    assert [design.id for design in again.collection["ds__post_frontend"].designs] == ids
    assert sorted(path.name for path in (tmp_path / "w" / "ds__post_frontend").iterdir()) \
        == sorted(ids)
    assert spoiled.read_bytes() == intact


@pytest.mark.parametrize("vendor", ["xilinx", "intel"])
def test_a_lowered_copy_keeps_the_exec_bit_of_a_script(tmp_path, vendor):
    root = tmp_path / "ds"
    script = make_design(root, "d", extra={"scripts/run.sh": "#!/bin/sh\nexit 0\n"}) \
        / "scripts" / "run.sh"
    script.chmod(0o750)
    make_design(root, "p", template=None, extra={"run.sh": "#!/bin/sh\nexit 0\n"})
    (root / "p" / "run.sh").chmod(0o755)
    result = execute_frontend({"ds": load_dataset(root)},
                              FrontendConfig(vendor=vendor, n_samples=2, seed=1),
                              WorkspaceLayout(tmp_path / "w"))
    assert not result.failures
    *lowered, passed = sorted((tmp_path / "w" / "ds__post_frontend").iterdir())
    assert [out_dir.name.split("__")[0] for out_dir in lowered] == ["d", "d"]
    for out_dir in lowered:
        assert (out_dir / "scripts" / "run.sh").stat().st_mode & 0o777 == 0o750
        assert (out_dir / "d.c").stat().st_mode == (root / "d" / "d.c").stat().st_mode
    assert (passed / "run.sh").stat().st_mode & 0o777 == 0o755


def test_a_lowering_error_in_the_pool_leaves_other_bases_lowered(tmp_path, monkeypatch):
    monkeypatch.setattr(frontends, "local_workers", lambda: 2)
    # half of m's points use a directive intel cannot lower
    mixed = ("g,3,3\n0,lp1,pipeline,unroll,[1 2]\n1,lp2,,unroll,[1 2]\n"
             "2,lp2,dataflow,unroll,[1 2]\nset_directive_unroll -factor [factor] top/[name]\n"
             "set_directive_pipeline top/[name]\nset_directive_dataflow top/[name]\n")
    root = tmp_path / "ds"
    make_design(root, "a")
    make_design(root, "m", template=mixed)
    make_design(root, "z")
    work = tmp_path / "w"
    result = execute_frontend({"ds": load_dataset(root)},
                              FrontendConfig(vendor="intel", random_sample=False),
                              WorkspaceLayout(work))
    assert [f[1] for f in result.failures] == ["m"]
    assert "UnsupportedDirective" in result.failures[0][2]
    assert result.sizes == {("ds", "a"): (6, 6), ("ds", "m"): (0, 0), ("ds", "z"): (6, 6)}
    designs = result.collection["ds__post_frontend"].designs
    assert [d.base_name for d in designs] == ["a"] * 6 + ["z"] * 6
    for design in designs:
        assert "#pragma unroll" in (design.dir / f"{design.base_name}.c").read_text()
    assert sorted(p.name.split("__")[0] for p in (work / "ds__post_frontend").iterdir()) \
        == ["a"] * 6 + ["z"] * 6


def test_a_failed_design_leaves_only_the_directories_it_was_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(frontends, "local_workers", lambda: 2)
    root = tmp_path / "ds"
    make_design(root, "d")
    design = load_dataset(root).designs[0]
    layout = WorkspaceLayout(tmp_path / "w")
    first, *_, failing = iter_assignments(simple_space())
    held = lower_xilinx(design, first, layout)  # then made to hold another assignment
    data = json.loads((held.dir / "data_design.json").read_text())
    data["assignment"][0]["choice"] = "99"
    (held.dir / "data_design.json").write_text(json.dumps(data))
    before = tree_bytes(held.dir)
    lower = frontends._lower

    def lower_then_fail(design, assignment, layout, vendor, design_id):
        concrete = lower(design, assignment, layout, vendor, design_id)
        if canonical_text(assignment) == canonical_text(failing):
            raise RuntimeError("failed after the copy")
        return concrete

    monkeypatch.setattr(frontends, "_lower", lower_then_fail)
    result = execute_frontend({"ds": load_dataset(root)}, FrontendConfig(random_sample=False),
                              layout)
    assert [message.split(":")[0] for _, _, message in result.failures] \
        == ["IdCollision", "RuntimeError"]
    assert result.sizes[("ds", "d")] == (0, 0) and result.collection == {}
    assert [path.name for path in (tmp_path / "w" / "ds__post_frontend").iterdir()] == [held.id]
    assert tree_bytes(held.dir) == before


def test_a_point_whose_id_names_a_design_copied_through_is_refused(tmp_path):
    root = tmp_path / "ds"
    make_design(root, "d")
    config = FrontendConfig(n_samples=1, seed=0)
    [assignment] = frontends._sample(load_dataset(root).designs[0], config)[1]
    taken = concrete_design_id("d", assignment)
    make_design(root, taken, template=None, extra={"marker.txt": "copied through\n"})
    work = tmp_path / "work"
    result = execute_frontend({"ds": load_dataset(root, "ds")}, config, WorkspaceLayout(work))
    assert result.collisions == 1
    [(dataset, name, message)] = result.failures
    assert (dataset, name) == ("ds", "d") and message.startswith("IdCollision: ")
    assert result.sizes == {("ds", "d"): (6, 0), ("ds", taken): (1, 1)}
    [copy] = result.collection["ds__post_frontend"].designs
    assert isinstance(copy, AbstractDesign) and copy.id == taken
    assert (copy.source_dir / "marker.txt").read_text() == "copied through\n"
    assert sorted(tree_bytes(copy.source_dir)) == sorted(tree_bytes(root / taken))



def test_a_collection_of_lowered_designs_is_copied_through_under_their_ids(tmp_path):
    source = tmp_path / "src_ds"
    shutil.copytree(bundled_designs_dir() / "fir", source / "fir")
    first = tmp_path / "first"
    execute_frontend({"ds": load_dataset(source, "ds")}, FrontendConfig(n_samples=1),
                     WorkspaceLayout(first))
    lowered = load_post_frontend(first)
    [held] = lowered["ds__post_frontend"].designs
    assert isinstance(held, ConcreteDesign)
    second = tmp_path / "second"
    result = execute_frontend(lowered, FrontendConfig(n_samples=1), WorkspaceLayout(second))
    assert result.failures == []
    assert result.sizes == {("ds__post_frontend", held.id): (1, 1)}
    [copy] = result.collection["ds__post_frontend"].designs
    assert copy == ConcreteDesign(held.id, "fir", second / "ds__post_frontend" / held.id,
                                  held.vendor)
    assert tree_bytes(copy.dir) == tree_bytes(held.dir)

def test_ids_and_seeds_are_the_sha256_digests_of_hashlib():
    designs = [d for d in load_dataset(bundled_designs_dir()).designs if d.frontend_ready]
    assert len(designs) == 12
    for design in designs:
        seed = int.from_bytes(hashlib.sha256(design.name.encode()).digest()[:8], "big")
        assert frontends._design_seed(0, design.name) == seed
        space = enumerate_design_space(parse_opt_template(
            (design.source_dir / "opt_template.tcl").read_text()))
        for assignment in iter_assignments(space):
            digest = hashlib.sha256(canonical_text(assignment).encode()).hexdigest()
            assert concrete_design_id(design.name, assignment) == f"{design.name}__{digest[:8]}"


# sha256 of the JSON files lowering the bundled gemm at space index 42 writes (unroll
# 2, 2 and 4, and k1's fixed pipeline), recorded before data_design.json was declared
# as core.DesignRecord
PINNED_LOWERING = {
    ("xilinx", "data_design.json"):
        "2a6e7bffe6ab043c52eb77ba3cd0bf41b496374f62b475acb546d438af592090",
    ("intel", "data_design.json"):
        "dbd36b51c5e6627ebdc19503d1ec7ee77d4a4bc0f1a2219a10970ec817f00c8e",
    ("intel", "data_intel_provenance.json"):
        "c391cf69c06f8a40735a63cae8d84cc5632226ebb048bd889854b680e0732451",
}


@pytest.mark.parametrize("vendor, filename", list(PINNED_LOWERING),
                         ids=["-".join(key) for key in PINNED_LOWERING])
def test_lowering_json_bytes_are_pinned(tmp_path, vendor, filename):
    gemm = next(d for d in load_dataset(bundled_designs_dir()).designs if d.name == "gemm")
    space = enumerate_design_space(parse_opt_template(
        (gemm.source_dir / "opt_template.tcl").read_text()))
    lower = lower_intel if vendor == "intel" else lower_xilinx
    concrete = lower(gemm, assignment_at(space, 42), WorkspaceLayout(tmp_path))
    assert concrete.id == "gemm__eed24ed1"
    digest = hashlib.sha256((concrete.dir / filename).read_bytes()).hexdigest()
    assert digest == PINNED_LOWERING[vendor, filename]
