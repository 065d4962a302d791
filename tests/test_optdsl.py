"""Template parsing, space enumeration, and rendering."""

from __future__ import annotations

import random

import pytest

from hlsforge.errors import CountMismatch, OptSyntaxError, UnfilledPlaceholder, UnmatchedTemplate
from hlsforge.optdsl import (
    DirectiveAssignment,
    assignment_at,
    canonical_text,
    enumerate_design_space,
    iter_assignments,
    parse_opt_template,
    render_assignment,
)
from conftest import REFERENCE_TEMPLATE
from oracles import oracle_canonical_renderings, random_template_text


def test_parse_reference_template():
    template = parse_opt_template(REFERENCE_TEMPLATE)
    assert len(template.groups) == 1
    group = template.groups[0]
    assert group.name == "loop_opt"
    assert [line.label for line in group.lines] == ["lp2", "lp3", "lp3"]
    assert group.lines[0].fixed_directive == "pipeline"
    assert group.lines[2].fixed_directive == ""
    assert group.lines[0].choices == ("1", "2", "4", "8")
    assert len(template.templates) == 2


def test_parse_skips_comments_and_blank_lines():
    text = "# header comment\n\ng,1,1\n# inline note\n0,lp,,unroll,[1 2]\n\nset_directive_unroll -factor [f] t/[name]\n"
    template = parse_opt_template(text)
    assert len(template.groups[0].lines) == 1
    assert enumerate_design_space(template).size == 2


def test_parse_empty_text_gives_empty_space():
    template = parse_opt_template("# nothing here\n")
    assert template.groups == ()
    assert enumerate_design_space(template).size == 1


def test_directive_line_before_any_header_rejected():
    with pytest.raises(OptSyntaxError) as exc:
        parse_opt_template("0,lp,,unroll,[1 2]\n")
    assert "line 1" in str(exc.value)


def test_declared_line_count_must_match():
    base = "g,2,1\n0,lp,,unroll,[1 2]\nset_directive_unroll -factor [f] t/[name]\n"
    with pytest.raises(CountMismatch):
        parse_opt_template(base)
    surplus = "g,1,1\n0,lp,,unroll,[1 2]\n1,lq,,unroll,[1 2]\nset_directive_unroll -factor [f] t/[name]\n"
    with pytest.raises(CountMismatch):
        parse_opt_template(surplus)


def test_declared_template_count_must_match():
    missing = "g,1,2\n0,lp,,unroll,[1 2]\nset_directive_unroll -factor [f] t/[name]\n"
    with pytest.raises(CountMismatch):
        parse_opt_template(missing)
    surplus = ("g,1,1\n0,lp,,unroll,[1 2]\nset_directive_unroll -factor [f] t/[name]\n"
               "set_directive_pipeline t/[name]\n")
    with pytest.raises(CountMismatch):
        parse_opt_template(surplus)


def test_line_index_must_equal_position():
    text = "g,2,1\n0,lp,,unroll,[1 2]\n5,lq,,unroll,[1 2]\nset_directive_unroll -factor [f] t/[name]\n"
    with pytest.raises(OptSyntaxError) as exc:
        parse_opt_template(text)
    assert "index 5" in str(exc.value)


@pytest.mark.parametrize("bracket", ["[1  2]", "[1\t2]", "[]", "[1 ]"])
def test_malformed_choice_lists_rejected(bracket):
    text = f"g,1,1\n0,lp,,unroll,{bracket}\nset_directive_unroll -factor [f] t/[name]\n"
    with pytest.raises(OptSyntaxError):
        parse_opt_template(text)


def test_reference_space_size_is_32():
    template = parse_opt_template(REFERENCE_TEMPLATE)
    space = enumerate_design_space(template)
    assert space.size == 32
    assert [len(axis.alternatives) for axis in space.axes] == [4, 8]


def test_shared_labels_merge_into_one_axis():
    template = parse_opt_template(REFERENCE_TEMPLATE)
    space = enumerate_design_space(template)
    assert [(axis.group, axis.label) for axis in space.axes] == [("loop_opt", "lp2"), ("loop_opt", "lp3")]


def test_assignment_at_agrees_with_iteration():
    space = enumerate_design_space(parse_opt_template(REFERENCE_TEMPLATE))
    indexed = [assignment_at(space, i) for i in range(space.size)]
    assert indexed == list(iter_assignments(space))
    with pytest.raises(IndexError):
        assignment_at(space, space.size)
    with pytest.raises(IndexError):
        assignment_at(space, -1)


def test_render_places_fixed_directive_first():
    space = enumerate_design_space(parse_opt_template(REFERENCE_TEMPLATE))
    text = render_assignment(space.template, assignment_at(space, 0))
    lines = text.splitlines()
    assert lines[0] == "set_directive_pipeline k2mm/lp2"
    assert lines[1] == "set_directive_unroll -factor 1 k2mm/lp2"


def test_multi_part_choices_fill_positionally():
    text = ("g,1,1\n0,buf,,array_partition,[cyclic-4]\n"
            "set_directive_array_partition -type [style] -factor [factor] t/[name]\n")
    space = enumerate_design_space(parse_opt_template(text))
    rendered = render_assignment(space.template, assignment_at(space, 0))
    assert rendered == "set_directive_array_partition -type cyclic -factor 4 t/buf\n"


def test_repeated_placeholder_reuses_first_binding():
    text = "g,1,1\n0,lp,,unroll,[3]\nset_directive_unroll -factor [f] -limit [f] t/[name]\n"
    space = enumerate_design_space(parse_opt_template(text))
    rendered = render_assignment(space.template, assignment_at(space, 0))
    assert rendered == "set_directive_unroll -factor 3 -limit 3 t/lp\n"


def test_missing_command_for_kind_raises():
    text = "g,1,1\n0,lp,,unroll,[1]\nset_directive_pipeline t/[name]\n"
    space = enumerate_design_space(parse_opt_template(text))
    with pytest.raises(UnmatchedTemplate):
        render_assignment(space.template, assignment_at(space, 0))


# a part too few, one too many (cyclic-2-8 and cyclic-2-16 would render one line and
# share an id), an empty one ("-2" splits into "" and "2")
@pytest.mark.parametrize("choice", ["cyclic", "cyclic-2-8", "-2"],
                         ids=["too-few", "extra", "empty"])
def test_a_choice_without_one_part_per_placeholder_raises(choice):
    text = (f"g,1,1\n0,buf,,array_partition,[{choice}]\n"
            "set_directive_array_partition -type [style] -factor [factor] t/[name]\n")
    space = enumerate_design_space(parse_opt_template(text))
    with pytest.raises(UnfilledPlaceholder):
        render_assignment(space.template, assignment_at(space, 0))


def test_empty_assignment_renders_single_newline():
    template = parse_opt_template("")
    assignment = DirectiveAssignment((), template)
    assert render_assignment(template, assignment) == "\n"
    assert canonical_text(assignment) == "\n"


def test_canonical_text_sorts_by_group_label_and_line():
    text = ("zz,1,1\n0,a,,unroll,[1]\nset_directive_unroll -factor [f] t/[name]\n"
            "aa,1,0\n0,b,,unroll,[2]\n")
    space = enumerate_design_space(parse_opt_template(text))
    assignment = assignment_at(space, 0)
    plain = render_assignment(space.template, assignment)
    canon = canonical_text(assignment)
    assert plain.splitlines() == ["set_directive_unroll -factor 1 t/a", "set_directive_unroll -factor 2 t/b"]
    assert canon.splitlines() == ["set_directive_unroll -factor 2 t/b", "set_directive_unroll -factor 1 t/a"]


def test_reference_renderings_match_recursive_oracle():
    template = parse_opt_template(REFERENCE_TEMPLATE)
    space = enumerate_design_space(template)
    mine = {canonical_text(a) for a in iter_assignments(space)}
    assert len(mine) == 32
    assert mine == oracle_canonical_renderings(template)


def test_random_templates_match_recursive_oracle():
    rng = random.Random(0x5EED)
    for _ in range(10):
        template = parse_opt_template(random_template_text(rng))
        space = enumerate_design_space(template)
        mine = {canonical_text(a) for a in iter_assignments(space)}
        assert mine == oracle_canonical_renderings(template)
