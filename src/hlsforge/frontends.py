"""Lowering of directive assignments into concrete, tool-ready design trees.

The xilinx path renders the assignment to an opt.tcl next to the copied
sources. The intel path injects pragma/attribute annotations into the sources
at anchor comments of the form ``// HLSFORGE_LABEL: <label>``. Both paths
write a vendor-independent data_design.json describing the assignment, one
entry per applied directive:

    {"base_name": ..., "id": ..., "vendor": ...,
     "assignment": [{"group", "label", "line_index", "directive", "choice"}]}

Fixed directives carry an empty choice. Design ids hash the canonical
rendering, so the same assignment lowers to the same id for either vendor.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    OPT_RENDERED_FILENAME,
    OPT_TEMPLATE_FILENAME,
    AbstractDesign,
    ConcreteDesign,
    DatasetCollection,
    DesignDataset,
    WorkspaceLayout,
    concrete_design_id,
    design_identity,
    list_design_files,
)
from .errors import (
    AnchorNotFound,
    LabelUnknown,
    ManifestMissing,
    MissingTemplate,
    UnsupportedDirective,
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
from .rng import Xoshiro256StarStar

MANIFEST_FILENAME = "mock_manifest.json"
PROVENANCE_FILENAME = "data_intel_provenance.json"
ANCHOR_RE = re.compile(r"//\s*HLSFORGE_LABEL:\s*([A-Za-z_][A-Za-z0-9_]*)")
SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".h", ".hpp", ".cl")

# spaces up to this size are sampled by partial Fisher-Yates over an index
# array; larger ones fall back to rejection so memory stays bounded
_SHUFFLE_LIMIT = 1 << 20


@dataclass(frozen=True)
class FrontendConfig:
    vendor: str = "xilinx"
    random_sample: bool = True
    n_samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.vendor not in ("xilinx", "intel"):
            raise ValueError(f"unknown vendor {self.vendor!r}")
        if self.random_sample and self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class IntelAnnotation:
    label: str
    text: str
    placement: str  # "before_loop" or "on_declaration"
    provenance: str


@dataclass
class FrontendResult:
    """Post-frontend collection plus per-design expansion bookkeeping."""

    collection: DatasetCollection
    sizes: dict = field(default_factory=dict)  # (dataset, design) -> (space, lowered)
    failures: list = field(default_factory=list)  # (dataset, design, message)


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
    if size <= _SHUFFLE_LIMIT:
        indices = list(range(size))
        rng.shuffle_prefix(indices, k)
        chosen = indices[:k]
    else:
        seen: set[int] = set()
        chosen = []
        while len(chosen) < k:
            candidate = rng.below(size)
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
    return [assignment_at(space, index) for index in chosen]


def _assignment_entries(assignment: DirectiveAssignment) -> list[dict]:
    entries = []
    for sel in assignment.canonicalized().selections:
        if sel.fixed_directive:
            entries.append({"group": sel.group, "label": sel.label, "line_index": sel.line_index,
                            "directive": sel.fixed_directive, "choice": ""})
        entries.append({"group": sel.group, "label": sel.label, "line_index": sel.line_index,
                        "directive": sel.param_kind, "choice": sel.choice})
    return entries


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _fresh_copy(src_dir: Path, out_dir: Path, skip: tuple[str, ...] = ()) -> None:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    shutil.copytree(src_dir, out_dir, ignore=shutil.ignore_patterns(*skip) if skip else None)


def _write_design_data(out_dir: Path, base_name: str, design_id: str, vendor: str,
                       assignment: DirectiveAssignment) -> None:
    _write_json(out_dir / "data_design.json", {
        "base_name": base_name,
        "id": design_id,
        "vendor": vendor,
        "assignment": _assignment_entries(assignment),
    })


def _lowering_copy(design: AbstractDesign, assignment: DirectiveAssignment,
                   layout: WorkspaceLayout) -> tuple[str, Path]:
    """The design's id and a fresh copy of its sources, minus the template."""
    if not design.frontend_ready:
        raise MissingTemplate(f"design {design.name!r} has no {OPT_TEMPLATE_FILENAME}")
    design_id = concrete_design_id(design.name, assignment)
    out_dir = layout.post_frontend_dir(design.dataset_name) / design_id
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    _fresh_copy(design.source_dir, out_dir, skip=(OPT_TEMPLATE_FILENAME,))
    return design_id, out_dir


def lower_xilinx(design: AbstractDesign, assignment: DirectiveAssignment,
                 layout: WorkspaceLayout) -> ConcreteDesign:
    """Copy sources (minus the template), write canonical opt.tcl and design data."""
    design_id, out_dir = _lowering_copy(design, assignment, layout)
    (out_dir / OPT_RENDERED_FILENAME).write_text(canonical_text(assignment))
    _write_design_data(out_dir, design.name, design_id, "xilinx", assignment)
    return ConcreteDesign(design_id, design.name, out_dir, "xilinx", assignment.canonicalized())


def map_directive_to_intel(line: DirectiveLine, choice: str,
                           elem_bytes: int | None = None) -> list[IntelAnnotation]:
    """Annotations for one directive line; pipeline is the no-op default on intel."""
    out: list[IntelAnnotation] = []
    if line.fixed_directive and line.fixed_directive != "pipeline":
        raise UnsupportedDirective(
            f"fixed directive {line.fixed_directive!r} has no intel lowering")
    if line.param_kind == "unroll":
        out.append(IntelAnnotation(line.label, f"#pragma unroll {choice}", "before_loop",
                                   f"unroll[{line.label}]={choice}"))
    elif line.param_kind == "array_partition":
        factor = choice.split("-")[-1]
        if elem_bytes is None:
            raise ManifestMissing(
                f"array_partition on {line.label!r} needs the element width from the manifest")
        out.append(IntelAnnotation(line.label, f"hls_numbanks({factor})", "on_declaration",
                                   f"array_partition[{line.label}]={choice}"))
        out.append(IntelAnnotation(line.label, f"hls_bankwidth({elem_bytes})", "on_declaration",
                                   f"array_partition[{line.label}]={choice}"))
    else:
        raise UnsupportedDirective(f"directive kind {line.param_kind!r} has no intel lowering")
    return out


def _manifest_elem_bytes(design_dir: Path, label: str) -> int:
    manifest_path = design_dir / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise ManifestMissing(f"{manifest_path} is required for array_partition lowering")
    manifest = json.loads(manifest_path.read_text())
    for array in manifest.get("arrays", []):
        if array.get("label") == label:
            if "elem_bytes" not in array:
                raise ManifestMissing(f"array {label!r} in {manifest_path} lacks elem_bytes")
            return int(array["elem_bytes"])
    raise LabelUnknown(f"array label {label!r} not defined in {manifest_path}")


def lower_intel(design: AbstractDesign, assignment: DirectiveAssignment,
                layout: WorkspaceLayout) -> ConcreteDesign:
    """Copy sources and inject annotations after each label's anchor comment."""
    design_id, out_dir = _lowering_copy(design, assignment, layout)

    canon = assignment.canonicalized()
    by_label: dict[str, list[IntelAnnotation]] = {}
    provenance: list[dict] = []
    for sel in canon.selections:
        line = DirectiveLine(sel.line_index, sel.label, sel.fixed_directive,
                             sel.param_kind, (sel.choice,))
        elem_bytes = None
        if sel.param_kind == "array_partition":
            elem_bytes = _manifest_elem_bytes(design.source_dir, sel.label)
        annotations = map_directive_to_intel(line, sel.choice, elem_bytes)
        by_label.setdefault(sel.label, []).extend(annotations)
        if sel.fixed_directive == "pipeline":
            provenance.append({"label": sel.label, "directive": "pipeline", "choice": "",
                               "effect": "default-pipelined"})
        for ann in annotations:
            provenance.append({"label": sel.label, "directive": sel.param_kind,
                               "choice": sel.choice, "effect": ann.text})

    pending = dict(by_label)
    for rel in list_design_files(out_dir):
        if not rel.endswith(SOURCE_SUFFIXES):
            continue
        path = out_dir / rel
        lines = path.read_text().splitlines(keepends=True)
        out_lines: list[str] = []
        changed = False
        for src_line in lines:
            out_lines.append(src_line)
            match = ANCHOR_RE.search(src_line)
            if not match:
                continue
            label = match.group(1)
            for ann in pending.pop(label, []):
                indent = src_line[:len(src_line) - len(src_line.lstrip())].rstrip("\n")
                out_lines.append(f"{indent}{ann.text}\n")
                changed = True
        if changed:
            path.write_text("".join(out_lines))
    if pending:
        missing = ", ".join(sorted(pending))
        raise AnchorNotFound(f"no anchor comment found for label(s): {missing}")

    _write_design_data(out_dir, design.name, design_id, "intel", assignment)
    _write_json(out_dir / PROVENANCE_FILENAME, {"design_id": design_id, "entries": provenance})
    return ConcreteDesign(design_id, design.name, out_dir, "intel", canon)


def _lower(design: AbstractDesign, assignment: DirectiveAssignment, layout: WorkspaceLayout,
           vendor: str) -> ConcreteDesign:
    if vendor == "intel":
        return lower_intel(design, assignment, layout)
    return lower_xilinx(design, assignment, layout)


def _design_seed(base_seed: int, design_name: str) -> int:
    digest = hashlib.sha256(design_name.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & ((1 << 64) - 1)


def _pass_through(design, layout: WorkspaceLayout):
    out_dir = layout.post_frontend_dir(design.dataset_name) / design_identity(design)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    src = design.dir if isinstance(design, ConcreteDesign) else design.source_dir
    _fresh_copy(src, out_dir)
    if isinstance(design, ConcreteDesign):
        return ConcreteDesign(design.id, design.base_name, out_dir, design.vendor, design.assignment)
    return AbstractDesign(design.name, out_dir.parent.name, out_dir, design.files)


def execute_frontend(collection: DatasetCollection, config: FrontendConfig,
                     layout: WorkspaceLayout) -> FrontendResult:
    """Expand every frontend-ready design; copy the rest through unchanged.

    Per-design failures are collected, not fatal. Sampling seeds are derived
    per design (config seed xor a hash of the design name) so a fixed config
    seed reproduces the whole tree byte for byte.
    """
    layout.ensure()
    result = FrontendResult(collection={})
    for dataset_name, dataset in collection.items():
        out_name = layout.post_frontend_dir(dataset_name).name
        produced: list = []
        for design in dataset.designs:
            if not isinstance(design, AbstractDesign) or not design.frontend_ready:
                produced.append(_pass_through(design, layout))
                result.sizes[(dataset_name, design_identity(design))] = (1, 1)
                continue
            try:
                template = parse_opt_template(
                    (design.source_dir / OPT_TEMPLATE_FILENAME).read_text())
                space = enumerate_design_space(template)
                if config.random_sample:
                    assignments = sample_assignments(
                        space, config.n_samples, _design_seed(config.seed, design.name))
                else:
                    assignments = list(iter_assignments(space))
                lowered = [_lower(design, a, layout, config.vendor) for a in assignments]
            except Exception as exc:  # per-design isolation: record and move on
                result.failures.append((dataset_name, design.name, f"{type(exc).__name__}: {exc}"))
                result.sizes[(dataset_name, design.name)] = (0, 0)
                continue
            produced.extend(lowered)
            result.sizes[(dataset_name, design.name)] = (space.size, len(lowered))
        if produced:
            result.collection[out_name] = DesignDataset(out_name, produced)
    return result
