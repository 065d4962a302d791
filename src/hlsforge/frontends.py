"""Lowering of directive assignments into concrete, tool-ready design trees.

The xilinx path renders the assignment to an opt.tcl next to the copied
sources. The intel path injects pragma/attribute annotations into the sources
at anchor comments of the form ``// HLSFORGE_LABEL: <label>``. Both paths
write a vendor-independent data_design.json, whose format core.DesignRecord
declares: one entry per applied directive. Design ids hash the canonical
rendering, so the same assignment lowers to the same id for either vendor. An
id keeps only 8 hex digits, so two assignments can share one; the second is
refused as an IdCollision and never overwrites the first.
"""

from __future__ import annotations

import shutil
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .core import (
    ANCHOR_RE,
    DESIGN_DATA_FILENAME,
    MANIFEST_FILENAME,
    OPT_RENDERED_FILENAME,
    OPT_TEMPLATE_FILENAME,
    SOURCE_SUFFIXES,
    AbstractDesign,
    AssignmentEntry,
    ConcreteDesign,
    DatasetCollection,
    DesignDataset,
    DesignRecord,
    FrontendConfig,
    WorkspaceLayout,
    concrete_design_id,
    design_dir,
    design_identity,
    list_design_files,
    local_workers,
    read_record,
    sha256,
    write_json,
)
from .errors import (
    AnchorNotFound,
    IdCollision,
    LabelUnknown,
    MalformedReport,
    ManifestMissing,
    MissingTemplate,
    UnsupportedDirective,
    WorkerLost,
)
from .optdsl import (
    DesignSpace,
    DirectiveAssignment,
    DirectiveLine,
    OptTemplate,
    assignment_at,
    canonical_text,
    enumerate_design_space,
    iter_assignments,
    parse_opt_template,
)
from .pool import fork_imap
from .rng import Xoshiro256StarStar
from .toolflows import MockManifest

PROVENANCE_FILENAME = "data_intel_provenance.json"

# spaces up to this size are sampled by a partial Fisher-Yates shuffle of the
# index range, larger ones by rejection; both keep O(k) state, and the limit
# stays because it decides which draws a seed makes
_SHUFFLE_LIMIT = 1 << 20


@dataclass
class FrontendResult:
    """Post-frontend collection plus per-design expansion bookkeeping."""

    collection: DatasetCollection
    sizes: dict = field(default_factory=dict)  # (dataset, design) -> (space, lowered)
    failures: list = field(default_factory=list)  # (dataset, design, message)
    collisions: int = 0  # points refused because another assignment holds their id


def empty_assignment() -> DirectiveAssignment:
    """The all-defaults point: no selections, renders to a bare newline."""
    return DirectiveAssignment((), OptTemplate((), ()))


def sample_assignments(space: DesignSpace, k: int, seed: int) -> list[DirectiveAssignment]:
    """Uniformly sample min(k, size) distinct assignments; same seed, same sample."""
    size = space.size
    k = min(k, size)
    if k == size:
        return list(iter_assignments(space))
    rng = Xoshiro256StarStar(seed)
    chosen: list[int] = []
    if size <= _SHUFFLE_LIMIT:
        # Fisher-Yates on the first k slots of range(size), the same draws as
        # Xoshiro256StarStar.shuffle_prefix; only displaced slots are stored
        moved: dict[int, int] = {}
        for i in range(k):
            j = i + rng.below(size - i)
            chosen.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
    else:
        seen: set[int] = set()
        while len(chosen) < k:
            candidate = rng.below(size)
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
    return [assignment_at(space, index) for index in chosen]


def _assignment_entries(assignment: DirectiveAssignment) -> tuple[AssignmentEntry, ...]:
    entries = []
    for sel in assignment.canonicalized().selections:
        if sel.fixed_directive:
            entries.append(AssignmentEntry(sel.group, sel.label, sel.line_index,
                                           sel.fixed_directive, ""))
        entries.append(AssignmentEntry(sel.group, sel.label, sel.line_index, sel.param_kind,
                                       sel.choice))
    return tuple(entries)


def _fresh_copy(src_dir: Path, out_dir: Path, skip: tuple[str, ...] = ()) -> None:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    # shutil.copy keeps each file's mode (a script's exec bit) but not its times
    shutil.copytree(src_dir, out_dir, ignore=shutil.ignore_patterns(*skip) if skip else None,
                    copy_function=shutil.copy)


def _out_dir(layout: WorkspaceLayout, design: AbstractDesign, design_id: str) -> Path:
    return layout.post_frontend_dir(design.dataset_name) / design_id


def _lower(design: AbstractDesign, assignment: DirectiveAssignment, layout: WorkspaceLayout,
           vendor: str, design_id: str) -> ConcreteDesign:
    """Lower one point as design_id: a fresh copy of the design's sources minus the
    template, its vendor's directives (opt.tcl or annotated sources), data_design.json.

    Raises IdCollision, before touching anything, when the id's directory holds
    a data_design.json with a different assignment.
    """
    if not design.frontend_ready:
        raise MissingTemplate(f"design {design.name!r} has no {OPT_TEMPLATE_FILENAME}")
    record = DesignRecord(design.name, design_id, vendor, _assignment_entries(assignment))
    out_dir = _out_dir(layout, design, design_id)
    try:
        held = read_record(DesignRecord, out_dir / DESIGN_DATA_FILENAME)
    except MalformedReport:  # nothing readable to keep
        held = None
    if held is not None and held.assignment != record.assignment:
        raise IdCollision(f"{out_dir} already holds another assignment of {design.name!r}")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    _fresh_copy(design.source_dir, out_dir, skip=(OPT_TEMPLATE_FILENAME,))
    if vendor == "intel":
        _annotate(design, assignment, out_dir, design_id)
    else:
        (out_dir / OPT_RENDERED_FILENAME).write_text(canonical_text(assignment))
    write_json(out_dir / DESIGN_DATA_FILENAME, record)
    return ConcreteDesign(design_id, design.name, out_dir, vendor)


def lower_xilinx(design: AbstractDesign, assignment: DirectiveAssignment,
                 layout: WorkspaceLayout) -> ConcreteDesign:
    """Copy sources (minus the template), write canonical opt.tcl and design data."""
    return _lower(design, assignment, layout, "xilinx", concrete_design_id(design.name, assignment))


def map_directive_to_intel(line: DirectiveLine, choice: str,
                           elem_bytes: int | None = None) -> list[str]:
    """The annotation lines for one directive line, each to go under its label's
    anchor; pipeline is the no-op default on intel."""
    if line.fixed_directive and line.fixed_directive != "pipeline":
        raise UnsupportedDirective(
            f"fixed directive {line.fixed_directive!r} has no intel lowering")
    if line.param_kind == "unroll":
        return [f"#pragma unroll {choice}"]
    if line.param_kind == "array_partition":
        if elem_bytes is None:
            raise ManifestMissing(
                f"array_partition on {line.label!r} needs the element width from the manifest")
        return [f"hls_numbanks({choice.split('-')[-1]})", f"hls_bankwidth({elem_bytes})"]
    raise UnsupportedDirective(f"directive kind {line.param_kind!r} has no intel lowering")


def lower_intel(design: AbstractDesign, assignment: DirectiveAssignment,
                layout: WorkspaceLayout) -> ConcreteDesign:
    """Copy sources and inject annotations after each label's anchor comment."""
    return _lower(design, assignment, layout, "intel", concrete_design_id(design.name, assignment))


def _annotate(design: AbstractDesign, assignment: DirectiveAssignment, out_dir: Path,
              design_id: str) -> None:
    """Inject the assignment's annotations into the sources copied to out_dir, and
    write what each came from as its provenance file."""
    by_label: dict[str, list[str]] = {}
    provenance: list[dict] = []
    widths = None  # each array's elem_bytes, from the manifest once a partition needs them
    for sel in assignment.canonicalized().selections:
        line = DirectiveLine(sel.line_index, sel.label, sel.fixed_directive,
                             sel.param_kind, (sel.choice,))
        elem_bytes = None
        if sel.param_kind == "array_partition":
            if widths is None:
                widths = {array.label: array.elem_bytes
                          for array in MockManifest.load(design.source_dir).arrays}
            if sel.label not in widths:
                raise LabelUnknown(f"array label {sel.label!r} not defined in "
                                   f"{design.source_dir / MANIFEST_FILENAME}")
            elem_bytes = widths[sel.label]
        annotations = map_directive_to_intel(line, sel.choice, elem_bytes)
        by_label.setdefault(sel.label, []).extend(annotations)
        if sel.fixed_directive == "pipeline":
            provenance.append({"label": sel.label, "directive": "pipeline", "choice": "",
                               "effect": "default-pipelined"})
        for text in annotations:
            provenance.append({"label": sel.label, "directive": sel.param_kind,
                               "choice": sel.choice, "effect": text})

    pending = dict(by_label)
    for rel in list_design_files(out_dir):
        if not rel.endswith(SOURCE_SUFFIXES):
            continue
        path = out_dir / rel
        lines = path.read_text().splitlines(keepends=True)
        out_lines: list[str] = []
        for src_line in lines:
            out_lines.append(src_line)
            if match := ANCHOR_RE.search(src_line):
                for text in pending.pop(match.group(1), []):
                    indent = src_line[:len(src_line) - len(src_line.lstrip())].rstrip("\n")
                    out_lines.append(f"{indent}{text}\n")
        if len(out_lines) > len(lines):  # an annotation went in
            path.write_text("".join(out_lines))
    if pending:
        missing = ", ".join(sorted(pending))
        raise AnchorNotFound(f"no anchor comment found for label(s): {missing}")

    write_json(out_dir / PROVENANCE_FILENAME, {"design_id": design_id, "entries": provenance})


def _design_seed(base_seed: int, design_name: str) -> int:
    digest = sha256(design_name.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & ((1 << 64) - 1)


def _lowers(design) -> bool:
    return isinstance(design, AbstractDesign) and design.frontend_ready


def _pass_through(design, dataset_name: str, layout: WorkspaceLayout):
    """A copy of a design that is not lowered (a ConcreteDesign included), under its
    id in the directory of dataset_name."""
    out_dir = layout.post_frontend_dir(dataset_name) / design_identity(design)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    _fresh_copy(design_dir(design), out_dir)
    if isinstance(design, ConcreteDesign):
        return ConcreteDesign(design.id, design.base_name, out_dir, design.vendor)
    return AbstractDesign(design.name, out_dir.parent.name, out_dir, design.files)


@dataclass
class _Base:
    """One design's share of an expansion."""

    dataset_name: str
    design: object
    space_size: int = 1
    points: list = field(default_factory=list)  # (assignment, design id) to lower
    collisions: list = field(default_factory=list)  # failure messages of refused points
    error: str = ""  # a failure that drops the whole design
    lowered: list = field(default_factory=list)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sample(design: AbstractDesign, config: FrontendConfig) -> tuple[int, list]:
    """The design's space size and the assignments to lower."""
    template = parse_opt_template((design.source_dir / OPT_TEMPLATE_FILENAME).read_text())
    space = enumerate_design_space(template)
    k = config.n_samples if config.random_sample else space.size
    return space.size, sample_assignments(space, k, _design_seed(config.seed, design.name))


def _lower_point(layout: WorkspaceLayout, vendor: str, point: tuple) -> tuple | None:
    """Lower one (design, assignment, the id the parent gave it): None, or (is an id
    collision, message). Whatever a failed point left on disk is the parent's to remove."""
    design, assignment, design_id = point
    try:
        _lower(design, assignment, layout, vendor, design_id)
    except IdCollision as exc:
        return True, _failure(exc)
    except Exception as exc:  # per-design isolation: record and move on
        return False, _failure(exc)
    return None


def _lose_point(point: tuple) -> tuple:
    """_lower_point's result for a point whose worker died: a WorkerLost failure."""
    return False, _failure(WorkerLost("the pool worker lowering this point exited before it "
                                      "finished"))


def execute_frontend(collection: DatasetCollection, config: FrontendConfig,
                     layout: WorkspaceLayout) -> FrontendResult:
    """Expand every frontend-ready design; copy the rest through unchanged.

    Per-design failures are collected, not fatal. Sampling seeds are derived
    per design (config seed xor a hash of the design name) so a fixed config
    seed reproduces the whole tree byte for byte. Every id is computed here
    before any point is lowered; the points are then lowered on one forked
    process per available core. A point whose id another assignment holds, in
    this run or in an existing data_design.json, or whose directory a design
    copied through takes, fails alone as an IdCollision.
    Any other failure, a lost worker included, fails the whole design, and
    every directory of its points is removed, bar those refused as collisions.
    """
    layout.ensure()
    result = FrontendResult(collection={})
    # a design lands in the directory of the collection key it is passed under
    bases = [_Base(name, replace(design, dataset_name=name) if _lowers(design) else design)
             for name, dataset in collection.items() for design in dataset.designs]
    for base in bases:  # copied through first: no point may take their directories
        if not _lowers(base.design):
            base.lowered.append(_pass_through(base.design, base.dataset_name, layout))
    copied = {design_dir(base.lowered[0]) for base in bases if base.lowered}
    for base in bases:
        design = base.design
        if not _lowers(design):
            continue
        try:  # a choice the template cannot render fails here, as its id is hashed
            base.space_size, assignments = _sample(design, config)
            ids = [concrete_design_id(design.name, assignment) for assignment in assignments]
        except Exception as exc:  # per-design isolation: record and move on
            base.error = _failure(exc)
            continue
        claimed: dict = {}  # design id -> canonical selections; ids carry the design name
        for assignment, design_id in zip(assignments, ids):
            selections = assignment.canonicalized().selections
            if _out_dir(layout, design, design_id) in copied:
                base.collisions.append(_failure(IdCollision(
                    f"{design_id} is taken by a design copied through without a template")))
            elif design_id not in claimed:
                claimed[design_id] = selections
                base.points.append((assignment, design_id))
            elif claimed[design_id] != selections:  # equal: the same design
                base.collisions.append(_failure(IdCollision(
                    f"{design_id} is taken by another assignment of {design.name!r}")))

    points = [(base.design, *point) for base in bases for point in base.points]
    produced: dict[str, list] = {}
    with closing(fork_imap(partial(_lower_point, layout, config.vendor), points, local_workers(),
                           on_lost=_lose_point)) as outcomes:
        for base in bases:
            key = (base.dataset_name, design_identity(base.design))
            out_dirs = []  # of the points not refused as collisions
            for (_, design_id), failed in [(point, next(outcomes)) for point in base.points]:
                if failed is not None and failed[0]:
                    base.collisions.append(failed[1])
                    continue
                out_dirs.append(_out_dir(layout, base.design, design_id))
                if failed is None:
                    base.lowered.append(ConcreteDesign(design_id, base.design.name,
                                                       out_dirs[-1], config.vendor))
                else:
                    base.error = base.error or failed[1]
            result.collisions += len(base.collisions)
            result.failures.extend((base.dataset_name, key[1], message)
                                   for message in base.collisions)
            if base.error:  # the design fails whole: none of its own points stays on disk
                for out_dir in out_dirs:
                    shutil.rmtree(out_dir, ignore_errors=True)
                result.failures.append((base.dataset_name, key[1], base.error))
                result.sizes[key] = (0, 0)
                continue
            out_name = layout.post_frontend_dir(base.dataset_name).name
            produced.setdefault(out_name, []).extend(base.lowered)
            result.sizes[key] = (base.space_size, len(base.lowered))
    result.collection = {name: DesignDataset(name, designs)
                         for name, designs in produced.items() if designs}
    return result
