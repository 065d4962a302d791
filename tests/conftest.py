"""Shared fixtures: tiny on-disk designs and reference template text."""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

import pytest

# Reference template: one group, two labels, the second label carrying both a
# pipelined and an unpipelined alternative line, so the space is 4 * (4+4) = 32.
REFERENCE_TEMPLATE = """\
loop_opt,3,2
0,lp2,pipeline,unroll,[1 2 4 8]
1,lp3,pipeline,unroll,[1 2 4 8]
2,lp3,,unroll,[1 2 4 8]
set_directive_unroll -factor [factor] k2mm/[name]
set_directive_pipeline k2mm/[name]
"""

SIMPLE_SOURCE = """\
#define N 16

void top(const int a[N], int b[N]) {
  // HLSFORGE_LABEL: lp1
  for (int i = 0; i < N; i++)
    b[i] = a[i] * 3;
  // HLSFORGE_LABEL: buf
  static int buf[64];
  // HLSFORGE_LABEL: lp2
  for (int i = 0; i < N; i++)
    buf[i] = b[i];
}
"""

SIMPLE_TEMPLATE = """\
loop_opt,2,2
0,lp1,pipeline,unroll,[1 2 4]
1,lp2,,unroll,[1 2]
set_directive_unroll -factor [factor] top/[name]
set_directive_pipeline top/[name]
"""

SIMPLE_MANIFEST = {
    "top": "top",
    "clock_target_ns": 10.0,
    "base_lut": 100,
    "base_ff": 80,
    "loops": [
        {"label": "lp1", "trip_count": 16, "body_ops": 4, "mult_ops": 1},
        {"label": "lp2", "trip_count": 16, "body_ops": 2, "mult_ops": 0},
    ],
    "arrays": [{"label": "buf", "depth": 64, "elem_bytes": 4}],
}


def make_design(root: Path, name: str, template: str | None = SIMPLE_TEMPLATE,
                manifest: dict | None = SIMPLE_MANIFEST, source: str = SIMPLE_SOURCE,
                extra: dict | None = None) -> Path:
    """Create one design directory; pass template=None for a pass-through design."""
    d = root / name
    d.mkdir(parents=True)
    (d / f"{name}.c").write_text(source)
    if template is not None:
        (d / "opt_template.tcl").write_text(template)
    if manifest is not None:
        (d / "mock_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (d / "dataset_hls.tcl").write_text("open_project hls_prj\ncsynth_design\nexit\n")
    for rel, content in (extra or {}).items():
        path = d / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return d


# a design's metric sections, in write_standard_json's order
Sections = namedtuple("Sections", "hls impl execution", defaults=(None, None, None))


def read_sections(design_dir: Path) -> Sections:
    """The sections design_dir's data_hls/impl/execution.json hold, each read as
    aggregation reads it (aggregate._read_section): None when absent or unreadable."""
    from hlsforge.aggregate import _SECTIONS, _read_section
    return Sections(*(_read_section(Path(design_dir), filename, cls)
                      for cls, _, filename in _SECTIONS))


@pytest.fixture
def dataset_dir(tmp_path: Path) -> Path:
    """A dataset directory with two expandable designs."""
    root = tmp_path / "designs"
    make_design(root, "alpha")
    make_design(root, "beta")
    return root


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Relative path -> content for every file under root (for tree equality)."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
