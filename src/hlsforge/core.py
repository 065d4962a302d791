"""Design and dataset model plus the on-disk workspace layout.

A dataset directory holds one subdirectory per design. Lowering a design's
directive template produces concrete variants under
``<work_dir>/<dataset>__post_frontend/<design_id>/``; tool flows and
aggregation operate on that tree.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import re
import sys
from collections.abc import Collection, Iterator
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

from .errors import EmptyDataset, MalformedReport, MissingDirectory, MissingField
from .optdsl import DirectiveAssignment, canonical_text

# CPython's own SHA-256 module, _sha2 from 3.12 on and _sha256 before: hashlib would
# load OpenSSL's _hashlib, some 3.5 MB resident, for the same digests. Each name is in
# sys.stdlib_module_names only on its own versions, so it is imported by name.
for _module in ("_sha2", "_sha256", "hashlib"):
    try:
        sha256 = importlib.import_module(_module).sha256
        break
    except ImportError:
        pass

OPT_TEMPLATE_FILENAME = "opt_template.tcl"
OPT_RENDERED_FILENAME = "opt.tcl"
DESIGN_DATA_FILENAME = "data_design.json"
MANIFEST_FILENAME = "mock_manifest.json"
TIMELINE_FILENAME = "timeline.json"  # a build's, in the work directory
# where the synthesis and implementation reports sit in a design directory
CSYNTH_REPORT_RELPATH = "hls_prj/solution1/syn/report/csynth.xml"
IMPL_REPORT_RELPATH = "hls_prj/impl_report.json"
POST_FRONTEND_SUFFIX = "__post_frontend"
VENDORS = ("xilinx", "intel")
# the executor's scheduling policies (executor.run_chains)
STRATEGIES = ("fine_grained", "naive")
# file suffixes of compilation units, and of every source a lowering may annotate
COMPILED_SUFFIXES = (".c", ".cc", ".cpp", ".cxx")
SOURCE_SUFFIXES = (*COMPILED_SUFFIXES, ".h", ".hpp", ".cl")
# where a lowering for intel puts a label's annotations, and where they are read back
ANCHOR_RE = re.compile(r"//\s*HLSFORGE_LABEL:\s*([A-Za-z_][A-Za-z0-9_]*)")

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


class Range(NamedTuple):
    """The values a number field takes, declared with the field (ranged): low <= value
    <= high, which NaN never is. check_ranges names a range by its words."""

    words: str
    low: float = -math.inf
    high: float = math.inf


# math.ulp(0.0), the least float above 0, bounds "> 0"; past every float is not finite
FINITE = Range("finite", -sys.float_info.max, sys.float_info.max)
FINITE_ABOVE_0 = Range("finite and > 0", math.ulp(0.0), sys.float_info.max)
ABOVE_0 = Range("> 0", math.ulp(0.0))
AT_LEAST_0 = Range(">= 0", 0)
AT_LEAST_1 = Range(">= 1", 1)


def ranged(*ranges: Range, **options):
    """dataclasses.field(**options), declaring ranges its value must lie in (check_ranges)."""
    return field(metadata={"ranges": ranges}, **options)


@functools.cache
def _ranges(cls) -> tuple:
    """(field name, Range) for each range the fields of the dataclass cls declare, in
    field order: check_ranges' table, built on the class's first check."""
    return tuple((spec.name, bound) for spec in fields(cls)
                 for bound in spec.metadata.get("ranges", ()))


def check_ranges(record) -> None:
    """ValueError naming the first field of the dataclass record, in field order, whose
    value lies outside a Range it declares: the one range check, each declaring class's
    __post_init__ (read_declared puts the key path before it)."""
    for name, (words, low, high) in _ranges(type(record)):
        if not low <= (value := getattr(record, name)) <= high:
            raise ValueError(f"{name} must be {words}, got {value!r}")


@dataclass(frozen=True)
class AbstractDesign:
    """A design as shipped: sources plus, optionally, a directive template."""

    name: str
    dataset_name: str
    source_dir: Path
    files: tuple[str, ...]

    # what a ConcreteDesign names id and dir: the per-dataset key and the design's directory
    id = property(lambda design: design.name)
    dir = property(lambda design: design.source_dir)

    @property
    def frontend_ready(self) -> bool:
        return OPT_TEMPLATE_FILENAME in self.files


@dataclass(frozen=True)
class FrontendConfig:
    """How expansion samples each design space: the run config's frontend section,
    with the run's seed."""

    vendor: str = "xilinx"
    random_sample: bool = True
    n_samples: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.vendor not in VENDORS:
            raise ValueError(f"vendor must be {' or '.join(VENDORS)}, got {self.vendor!r}")
        if self.random_sample and self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class ConcreteDesign:
    """One lowered design-space point, rooted at its own directory.

    Its assignment is recorded on disk only: the directory's data_design.json
    (and opt.tcl for xilinx).
    """

    id: str
    base_name: str
    dir: Path
    vendor: str


@dataclass(frozen=True)
class AssignmentEntry:
    """One applied directive of a lowered design; a fixed directive has an empty choice."""

    group: str
    label: str
    line_index: int = ranged(AT_LEAST_0)
    directive: str
    choice: str

    __post_init__ = check_ranges


@dataclass(frozen=True)
class DesignRecord:
    """A lowered design's data_design.json, its keys in field order: what the design is."""

    base_name: str
    id: str
    vendor: str
    assignment: tuple[AssignmentEntry, ...]


@dataclass
class DesignDataset:
    """Named, ordered collection of designs with unique names."""

    name: str
    designs: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for design in self.designs:
            if design.id in seen:
                raise ValueError(f"duplicate design {design.id!r} in dataset {self.name!r}")
            seen.add(design.id)


# Collections are plain dicts keyed by dataset name (insertion order kept).
DatasetCollection = dict[str, DesignDataset]


@dataclass(frozen=True)
class WorkspaceLayout:
    """Root of all generated state for one run."""

    work_dir: Path

    def post_frontend_dir(self, dataset_name: str) -> Path:
        if dataset_name.endswith(POST_FRONTEND_SUFFIX):
            return self.work_dir / dataset_name
        return self.work_dir / f"{dataset_name}{POST_FRONTEND_SUFFIX}"

    def ensure(self) -> "WorkspaceLayout":
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return self


def local_workers() -> int:
    """Cores this process may run on: the worker count for lowering and extraction."""
    return len(os.sched_getaffinity(0))


def walk_files(root: Path, skip_dirs: Collection[str] = ()) -> Iterator[str]:
    """Relative POSIX paths of the regular files under root, in path-string
    order: the order sorted() gives the whole list.

    One os.scandir per directory; only the sorted listings of the directories
    on the current path are held. A directory named in skip_dirs is not
    listed. As with Path.rglob and Path.is_file: a symlink to a file is a
    file, a symlink to a directory is not descended, broken or looping links
    are skipped, and so is a directory that cannot be listed.
    """
    listings = [iter(_sorted_listing(root, "", skip_dirs))]
    while listings:
        for rel in listings[-1]:
            if rel.endswith("/"):  # a directory: its files come before the next entry
                listings.append(iter(_sorted_listing(root, rel, skip_dirs)))
                break
            yield rel
        else:
            listings.pop()


def _sorted_listing(root: Path, prefix: str, skip_dirs: Collection[str]) -> list[str]:
    """The files and directories of root/prefix as prefixed paths, a directory's
    with a trailing "/", sorted. Since no name holds "/", a directory's key
    orders every path under it exactly as sorted() orders the full paths."""
    try:
        entries = os.scandir(os.path.join(root, prefix))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    rels = []
    with entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                if entry.name not in skip_dirs:
                    rels.append(f"{prefix}{entry.name}/")
                continue
            try:
                is_file = entry.is_file()
            except OSError:  # a symlink loop, which Path.is_file also skips
                continue
            if is_file:
                rels.append(prefix + entry.name)
    rels.sort()
    return rels


def list_design_files(root: Path) -> tuple[str, ...]:
    """Relative paths of regular files under root, sorted; hidden and *.log skipped."""
    # sorted part by part, as sorted(Path) orders them
    return tuple(sorted((rel for rel in walk_files(root)
                         if not rel.startswith(".") and "/." not in rel
                         and not rel.endswith(".log")),
                        key=lambda rel: rel.split("/")))


def _subdirs(directory: Path) -> list[Path]:
    """The directories in directory (symlinks to directories too), sorted by name."""
    with os.scandir(directory) as entries:
        names = sorted(entry.name for entry in entries if entry.is_dir())
    return [directory / name for name in names]


def plain_name(what: str, name: str) -> None:
    """ValueError naming what, unless name is fit to name a file or directory of the
    work tree: [A-Za-z0-9_]+."""
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"{what} {name!r} must be [A-Za-z0-9_]+")


def load_dataset(dataset_dir: Path, name: str | None = None) -> DesignDataset:
    """Each immediate subdirectory becomes one AbstractDesign (sorted by name)."""
    dataset_dir = Path(dataset_dir)
    if not dataset_dir.is_dir():
        raise MissingDirectory(f"dataset directory {dataset_dir} does not exist")
    name = name if name is not None else dataset_dir.name
    designs = []
    for sub in _subdirs(dataset_dir):
        if sub.name.startswith("."):
            continue
        plain_name("design directory name", sub.name)
        designs.append(AbstractDesign(sub.name, name, sub, list_design_files(sub)))
    if not designs:
        raise EmptyDataset(f"dataset directory {dataset_dir} holds no design subdirectories")
    return DesignDataset(name, designs)


def concrete_design_id(base_name: str, assignment: DirectiveAssignment) -> str:
    """<base_name>__<hash8>: first 8 hex chars of SHA-256 over the canonical rendering."""
    digest = sha256(canonical_text(assignment).encode("utf-8")).hexdigest()
    return f"{base_name}__{digest[:8]}"


def validate_design_files(design, required: tuple[str, ...] | list[str]) -> list[str]:
    """Return the required relative paths absent from the design directory."""
    return [rel for rel in required if not (design.dir / rel).exists()]


def list_post_frontend(work_dir: Path) -> dict[str, list[Path]]:
    """Design directories of each <work_dir>/*__post_frontend directory.

    Keys are the post-frontend directory names; keys and directories are
    sorted by name, and symlinks to directories count as directories.
    """
    work_dir = Path(work_dir)
    if not work_dir.is_dir():
        raise MissingDirectory(f"work directory {work_dir} does not exist")
    return {pf_dir.name: _subdirs(pf_dir) for pf_dir in _subdirs(work_dir)
            if pf_dir.name.endswith(POST_FRONTEND_SUFFIX)}


def read_json(path: Path) -> dict | None:
    """The JSON object in the file at path, or None when there is no such file.

    Raises MalformedReport naming the file for any other OSError (a directory, no
    permission), undecodable bytes, text that is no JSON, or JSON that is no object.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:  # unreadable, undecodable bytes or invalid JSON
        raise MalformedReport(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedReport(f"{path}: not a JSON object")
    return payload


def read_record(cls, path: Path, ignore_unknown: bool = False):
    """The one reader of a declared record file: the file at path read as the dataclass
    cls declares (read_json, read_declared), or None when there is no such file.
    Raises MalformedReport naming the file for whatever either refuses."""
    if (payload := read_json(path)) is None:
        return None
    try:
        return read_declared(cls, payload, ignore_unknown=ignore_unknown)
    except (MissingField, MalformedReport, ValueError) as exc:
        raise MalformedReport(f"{path}: {exc}") from exc


def json_fits(value, hint) -> bool:
    """Whether a decoded JSON value has a field's type: only a bool fits bool, an
    int that is not a bool fits int, any number fits float, None fits only an
    optional field (``int | None``), and a list fits ``list[X]``, or an object
    ``dict[str, X]``, when each of its items, or values, fits X."""
    if get_origin(hint) in (list, dict):
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, get_origin(hint)) and all(
            json_fits(item, get_args(hint)[-1]) for item in items)
    kinds = get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in kinds
    return isinstance(value, kinds) or (float in kinds and isinstance(value, int))


@functools.cache
def _declaration(cls) -> dict:
    """The fields of the dataclass cls as read_declared reads them and write_json
    writes them, by name in field order: (the JSON type a value must fit, the types
    that fit it exactly, whether the key is required, the dataclass the value, or each
    of its items, is read as, the list or tuple holding those items). A value of an
    exact type needs no json_fits: ``int | None`` gives (int, NoneType), ``list[X]``
    and ``dict[str, X]`` give none, and an int reads as a float where float is one.
    Built on the class's first read or write."""
    hints = get_type_hints(cls)
    plan = {}
    for spec in fields(cls):
        hint = hints[spec.name]
        origin = get_origin(hint)
        container = origin if origin in (list, tuple) else None
        item = get_args(hint)[0] if container else hint
        if is_dataclass(item):
            hint, origin = list if container else dict, None
        else:
            item = container = None
        exact = get_args(hint) if type(hint) is UnionType else () if origin else (hint,)
        plan[spec.name] = (hint, exact,
                           spec.default is MISSING and spec.default_factory is MISSING,
                           item, container)
    return plan


def read_declared(cls, payload, where: str = "", /, ignore_unknown: bool = False, **given):
    """payload, a decoded JSON object, read as the dataclass cls, whose fields declare its keys.

    A field without a default is required, and each value must fit its field's type
    (json_fits); an int in a float field reads as a float. A field that is a dataclass,
    or a list or tuple of one, is read the same way, item by item, into its declared
    container. A key no field declares is refused, or with ignore_unknown ignored.
    Fields in given take given's values and are no keys of payload. where is payload's
    key path, "" at the top or ending in a dot ("loops[0]."), by which each message
    names its key. Raises MissingField for an absent required key and MalformedReport
    for anything else the payload gets wrong; a ValueError cls raises is raised again
    with where before its message.
    """
    if not isinstance(payload, dict):
        raise MalformedReport(f"{where[:-1]} is not an object" if where else "not an object")
    plan = _declaration(cls)
    if not ignore_unknown and (unknown := payload.keys() - (plan.keys() - given.keys())):
        raise MalformedReport(f"{where[:-1] + ': ' if where else ''}unknown key(s) "
                              f"{', '.join(map(repr, sorted(unknown)))}")
    for name, (hint, exact, required, item, container) in plan.items():
        if name in given or name not in payload:
            if required and name not in given:
                raise MissingField(f"lacks required field {where}{name!r}")
            continue
        value = payload[name]
        if type(value) not in exact and not json_fits(value, hint):
            raise MalformedReport(f"field {where}{name!r} holds {value!r}, not "
                                  f"{hint if get_args(hint) else hint.__name__}")
        if container is not None:
            value = container(read_declared(item, entry, f"{where}{name}[{i}].", ignore_unknown)
                              for i, entry in enumerate(value))
        elif item is not None:
            value = read_declared(item, value, f"{where}{name}.", ignore_unknown)
        elif float in exact and type(value) is int:
            with suppress(OverflowError):  # past every float: cls's own check may refuse it
                value = float(value)
        given[name] = value
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from exc


def write_json(path: Path, obj) -> Path:
    """Write obj, a JSON value or a declared record, to path, which it returns, as
    json.dumps(obj, indent=2) and a final newline: the work tree's one layout."""
    with open(path, "w") as handle:
        _write_layout(handle.write, obj, "\n")
        handle.write("\n")
    return path


def _write_layout(write, value, newline: str) -> None:
    """Write value as json.dumps(value, indent=2) does, indented by newline (a line break
    and value's indent). A record is the object of its fields (_declaration); a scalar,
    or an object or array holding only _JSON_SCALARS, is one call to json's C encoder;
    anything else goes part by part, each key as json writes it in '{<key>: 0}'."""
    if is_dataclass(value):
        value = {name: getattr(value, name) for name in _declaration(type(value))}
    is_object = isinstance(value, dict)
    if not is_object and not isinstance(value, (list, tuple)):
        return write(json.dumps(value))
    inner = newline + "  "
    if {*map(type, value.values() if is_object else value)} <= _JSON_SCALARS:
        text = json.dumps(value, separators=("," + inner, ": "))
        return write(f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}" if value else text)
    separator = "{" + inner if is_object else "[" + inner
    for key, member in value.items() if is_object else enumerate(value):
        write(separator + json.dumps({key: 0})[1:-2] if is_object else separator)
        _write_layout(write, member, inner)
        separator = "," + inner
    write(newline + ("}" if is_object else "]"))


@contextmanager
def replace_on_success(path: Path) -> Iterator[Path]:
    """A hidden sibling temp path to write path's new content to.

    When the block completes, the temp file replaces path in one os.replace;
    when it raises, the temp file is removed and path keeps its old content.
    The temp name starts with a dot and ends in ``.tmp``, so neither the
    archive nor the design file listing takes it up.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_post_frontend(work_dir: Path) -> DatasetCollection:
    """Rebuild a collection from <work_dir>/*__post_frontend trees.

    Directories with a data_design.json come back as ConcreteDesign (without
    the in-memory assignment); anything else is a pass-through AbstractDesign.
    A data_design.json read_record refuses raises its MalformedReport.
    """
    collection: DatasetCollection = {}
    for name, subs in list_post_frontend(work_dir).items():
        designs = []
        for sub in subs:
            record = read_record(DesignRecord, sub / DESIGN_DATA_FILENAME)
            if record is None:
                designs.append(AbstractDesign(sub.name, name, sub, list_design_files(sub)))
            else:
                designs.append(ConcreteDesign(record.id, record.base_name, sub, record.vendor))
        if designs:
            collection[name] = DesignDataset(name, designs)
    return collection
