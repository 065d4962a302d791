"""Parser and expander for the opt template DSL (opt_template.tcl).

An opt template interleaves three kinds of lines (blank lines and lines whose
first non-space character is ``#`` are ignored):

* group header: ``<group_name>,<n_lines>,<n_templates>`` opens a group and
  declares exactly how many directive lines and template commands follow it.
* directive line: ``<index>,<label>,<fixed_directive>,<param_kind>,[c1 c2 ...]``
  where ``index`` equals the line's position within its group, ``label`` names
  the loop or array the directives target, ``fixed_directive`` is an optional
  directive applied verbatim (empty field for none), ``param_kind`` is the
  parameterized directive, and the bracket list holds its candidate choices,
  single-space separated. Choice tokens carry no whitespace; multi-parameter
  choices join their parts with hyphens (``cyclic-2``).
* template command: a Tcl command with ``[placeholder]`` slots, e.g.
  ``set_directive_unroll -factor [factor] top/[name]``.

Directive lines in one group that share a label are mutually exclusive
alternatives for that label; every (line, choice) pair of an axis is one
alternative. The design space is the Cartesian product over axes, so its size
is the product of the per-axis alternative counts (1 for an empty template).

Rendering a selection looks up the first template command containing
``set_directive_<kind>`` for each directive kind, fills ``[name]`` with the
label and the remaining placeholders positionally with the hyphen-split parts
of the choice token (exactly one non-empty part each; a command with no other
placeholder takes the token as a bare switch), and emits the fixed
directive's command (if any) before the parameterized one. The canonical text
orders selections by (group, label, line index) and is what design ids hash.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

from .errors import CountMismatch, OptSyntaxError, UnfilledPlaceholder, UnmatchedTemplate

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"^\d+$")
_DIRECTIVE_SHAPE_RE = re.compile(r"^\s*\d+\s*,")
_PLACEHOLDER_RE = re.compile(r"\[([A-Za-z_][A-Za-z0-9_]*)\]")


@dataclass(frozen=True)
class DirectiveLine:
    index: int
    label: str
    fixed_directive: str  # "" when the line has no fixed directive
    param_kind: str
    choices: tuple[str, ...]


@dataclass(frozen=True)
class DirectiveGroup:
    name: str
    lines: tuple[DirectiveLine, ...]


@dataclass(frozen=True)
class OptTemplate:
    """Parsed opt template: groups in file order, template commands pooled."""

    groups: tuple[DirectiveGroup, ...]
    templates: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Selection:
    """One resolved axis: a directive line plus the chosen parameter token."""

    group: str
    label: str
    line_index: int
    fixed_directive: str
    param_kind: str
    choice: str


@dataclass(frozen=True)
class DirectiveAssignment:
    """A full point of the design space (one selection per axis)."""

    selections: tuple[Selection, ...]
    template: OptTemplate

    def canonicalized(self) -> "DirectiveAssignment":
        ordered = tuple(sorted(self.selections, key=lambda s: (s.group, s.label, s.line_index)))
        if ordered == self.selections:
            return self
        return replace(self, selections=ordered)


@dataclass(frozen=True)
class Axis:
    """All alternatives for one (group, label): lines x their choices."""

    group: str
    label: str
    alternatives: tuple[tuple[DirectiveLine, str], ...]


@dataclass(frozen=True)
class DesignSpace:
    axes: tuple[Axis, ...]
    template: OptTemplate

    @property
    def size(self) -> int:
        return math.prod(len(axis.alternatives) for axis in self.axes)


def _parse_group_header(line: str, lineno: int) -> tuple[str, int, int]:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 3:
        raise OptSyntaxError(lineno, f"expected group header 'name,n_lines,n_templates', got {line!r}")
    name, n_lines, n_templates = fields
    if not _IDENT_RE.match(name):
        raise OptSyntaxError(lineno, f"bad group name {name!r}")
    if not (_INT_RE.match(n_lines) and _INT_RE.match(n_templates)):
        raise OptSyntaxError(lineno, f"group counts must be non-negative integers, got {line!r}")
    return name, int(n_lines), int(n_templates)


def _parse_directive_line(line: str, lineno: int, position: int) -> DirectiveLine:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 5:
        raise OptSyntaxError(lineno, f"expected 5 comma-separated fields, got {len(fields)}")
    index_s, label, fixed, kind, bracket = fields
    if not _INT_RE.match(index_s):
        raise OptSyntaxError(lineno, f"bad line index {index_s!r}")
    index = int(index_s)
    if index != position:
        raise OptSyntaxError(lineno, f"line index {index} != position {position} within group")
    if not _IDENT_RE.match(label):
        raise OptSyntaxError(lineno, f"bad label {label!r}")
    if fixed and not _IDENT_RE.match(fixed):
        raise OptSyntaxError(lineno, f"bad fixed directive {fixed!r}")
    if not _IDENT_RE.match(kind):
        raise OptSyntaxError(lineno, f"bad directive kind {kind!r}")
    if not (bracket.startswith("[") and bracket.endswith("]")):
        raise OptSyntaxError(lineno, f"choice list must be bracketed, got {bracket!r}")
    inner = bracket[1:-1]
    if "\t" in inner:
        raise OptSyntaxError(lineno, "choice list must be single-space separated, found a tab")
    if not inner:
        raise OptSyntaxError(lineno, "empty choice list")
    tokens = inner.split(" ")
    if any(tok == "" for tok in tokens):
        raise OptSyntaxError(lineno, "choice list must be single-space separated")
    return DirectiveLine(index, label, fixed, kind, tuple(tokens))


def parse_opt_template(text: str) -> OptTemplate:
    """Parse opt template text; raises OptSyntaxError / CountMismatch."""
    entries = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")]
    groups: list[DirectiveGroup] = []
    templates: list[str] = []
    pos = 0
    while pos < len(entries):
        lineno, line = entries[pos]
        if _DIRECTIVE_SHAPE_RE.match(line):
            raise OptSyntaxError(lineno, "directive line outside any group (expected a group header)")
        name, n_lines, n_templates = _parse_group_header(line, lineno)
        pos += 1
        lines = []
        for k in range(n_lines):
            if pos >= len(entries) or not _DIRECTIVE_SHAPE_RE.match(entries[pos][1]):
                raise CountMismatch(
                    f"group {name!r} declares {n_lines} directive lines but only {k} follow")
            lines.append(_parse_directive_line(entries[pos][1], entries[pos][0], k))
            pos += 1
        if pos < len(entries) and _DIRECTIVE_SHAPE_RE.match(entries[pos][1]):
            raise CountMismatch(
                f"group {name!r} declares {n_lines} directive lines but more follow (line {entries[pos][0]})")
        for k in range(n_templates):
            if pos >= len(entries) or _is_header_shaped(entries[pos][1]) \
                    or _DIRECTIVE_SHAPE_RE.match(entries[pos][1]):
                raise CountMismatch(
                    f"group {name!r} declares {n_templates} template commands but only {k} follow")
            templates.append(entries[pos][1])
            pos += 1
        if pos < len(entries) and not _is_header_shaped(entries[pos][1]) \
                and not _DIRECTIVE_SHAPE_RE.match(entries[pos][1]):
            raise CountMismatch(
                f"group {name!r} declares {n_templates} template commands but more follow (line {entries[pos][0]})")
        groups.append(DirectiveGroup(name, tuple(lines)))
    return OptTemplate(tuple(groups), tuple(templates))


def _is_header_shaped(line: str) -> bool:
    try:
        _parse_group_header(line, 0)
    except OptSyntaxError:
        return False
    return True


def enumerate_design_space(template: OptTemplate) -> DesignSpace:
    """Build the axes (one per (group, label), labels in first-appearance order)."""
    axes: list[Axis] = []
    for group in template.groups:
        by_label: dict[str, list[DirectiveLine]] = {}
        for line in group.lines:
            by_label.setdefault(line.label, []).append(line)
        for label, lines in by_label.items():
            alternatives = tuple((line, choice) for line in lines for choice in line.choices)
            axes.append(Axis(group.name, label, alternatives))
    return DesignSpace(tuple(axes), template)


def assignment_at(space: DesignSpace, index: int) -> DirectiveAssignment:
    """Decode a flat index (mixed radix, product order) into an assignment."""
    if not 0 <= index < space.size:
        raise IndexError(f"assignment index {index} outside space of size {space.size}")
    selections = []
    remaining = index
    stride = space.size
    for axis in space.axes:
        stride //= len(axis.alternatives)
        digit = remaining // stride
        remaining %= stride
        line, choice = axis.alternatives[digit]
        selections.append(Selection(axis.group, axis.label, line.index,
                                    line.fixed_directive, line.param_kind, choice))
    return DirectiveAssignment(tuple(selections), space.template)


def iter_assignments(space: DesignSpace):
    """Yield every assignment in Cartesian-product order over the axes."""
    for index in range(space.size):
        yield assignment_at(space, index)


def _find_template(template: OptTemplate, kind: str) -> str:
    needle = f"set_directive_{kind}"
    for command in template.templates:
        if needle in command:
            return command
    raise UnmatchedTemplate(f"no template command contains {needle!r}")


def _fill(command: str, label: str, parts: tuple[str, ...]) -> str:
    """command with [name] filled by label, and each other placeholder, in order of
    first appearance, by the next part. A command with such placeholders takes exactly
    one non-empty part for each, or raises UnfilledPlaceholder, so no part is lost; one
    without takes its choice as a bare switch (pipeline's ``on``)."""
    names = [name for name in dict.fromkeys(_PLACEHOLDER_RE.findall(command)) if name != "name"]
    if names and (len(parts) != len(names) or "" in parts):
        raise UnfilledPlaceholder(f"template {command!r} needs {len(names)} non-empty "
                                  f"part(s) for {names}, but the choice gives {list(parts)}")
    filled = command.replace("[name]", label)
    for name, value in zip(names, parts):
        filled = filled.replace(f"[{name}]", value)
    if "[" in filled or "]" in filled:
        raise UnfilledPlaceholder(f"unresolved placeholder remains in {filled!r}")
    return filled


def render_assignment(template: OptTemplate, assignment: DirectiveAssignment) -> str:
    """Render the directive script for an assignment (selection order kept)."""
    out: list[str] = []
    for sel in assignment.selections:
        if sel.fixed_directive:
            out.append(_fill(_find_template(template, sel.fixed_directive), sel.label, ()))
        parts = tuple(sel.choice.split("-"))
        out.append(_fill(_find_template(template, sel.param_kind), sel.label, parts))
    return "\n".join(out) + "\n"


def canonical_text(assignment: DirectiveAssignment) -> str:
    """Canonical rendering (axes sorted by group, label, line index); hashed for ids."""
    canon = assignment.canonicalized()
    return render_assignment(canon.template, canon)
