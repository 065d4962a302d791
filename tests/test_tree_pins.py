"""Pins of what the archive and the design file listing take from a work tree.

The fixture tree holds the edge cases a tree walk can get wrong: a file
``a.c`` beside a directory ``a/`` (string order and path-part order differ
there), a symlink to a file, a symlink to a directory, a broken symlink, a
symlink to itself, a hidden file, a ``*.log`` file, ``hls_prj`` at two depths
and a root ``timeline.json``. The member names, the zip bytes and the listing were
recorded before the walk was rewritten, so a new walk cannot change them.
"""

from __future__ import annotations

import hashlib
import zipfile
from pathlib import Path

import pytest

from hlsforge.aggregate import archive_dataset
from hlsforge.core import list_design_files

FILES = {
    "timeline.json": '{"records": []}\n',
    "notes.txt": "not archived\n",
    "ds__post_frontend/d1/a.c": "int a;\n",
    "ds__post_frontend/d1/a/x.c": "int x;\n",
    "ds__post_frontend/d1/a/y.h": "#define Y 1\n",
    "ds__post_frontend/d1/a.h": "#define A 1\n",
    "ds__post_frontend/d1/opt.tcl": "set_directive_pipeline top/lp1\n",
    "ds__post_frontend/d1/data_design.json": '{"id": "d1"}\n',
    "ds__post_frontend/d1/data_hls.json": '{"schema_version": 1}\n',
    "ds__post_frontend/d1/mock_manifest.json": "{}\n",
    "ds__post_frontend/d1/.hidden.c": "int hidden;\n",
    "ds__post_frontend/d1/.cache/z.c": "int z;\n",
    "ds__post_frontend/d1/mock_hls_synth.log": "log\n",
    "ds__post_frontend/d1/hls_prj/solution1/syn/report/csynth.xml": "<profile/>\n",
    "ds__post_frontend/d1/hls_prj/impl.c": "int impl;\n",
    "ds__post_frontend/d1/sub/hls_prj/data_deep.json": "{}\n",
    "ds__post_frontend/d1/sub/kernel.cpp": "int k;\n",
    "ds__post_frontend/d1-2/top.cl": "kernel void top() {}\n",
    "ds__post_frontend/d1-2/data_execution.json": "{}\n",
}
LINKS = {
    "ds__post_frontend/d1/link.c": "a.c",             # to a file: a member
    "ds__post_frontend/d1/linkdir": "a",              # to a directory: not descended
    "ds__post_frontend/d1/broken.c": "missing.c",     # broken: skipped
    "ds__post_frontend/d1/loop.c": "loop.c",          # loops: skipped
}


def build_tree(root: Path) -> Path:
    for rel, text in FILES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    for rel, target in LINKS.items():
        (root / rel).symlink_to(target)
    return root


PINNED = {
    False: (
        [
            "ds__post_frontend/d1-2/data_execution.json",
            "ds__post_frontend/d1-2/top.cl",
            "ds__post_frontend/d1/.cache/z.c",
            "ds__post_frontend/d1/.hidden.c",
            "ds__post_frontend/d1/a.c",
            "ds__post_frontend/d1/a.h",
            "ds__post_frontend/d1/a/x.c",
            "ds__post_frontend/d1/a/y.h",
            "ds__post_frontend/d1/data_design.json",
            "ds__post_frontend/d1/data_hls.json",
            "ds__post_frontend/d1/link.c",
            "ds__post_frontend/d1/opt.tcl",
            "ds__post_frontend/d1/sub/kernel.cpp",
            "timeline.json",
        ],
        "95c8642d8126a08bc26e07e9bd21524392810a232654696dfbb449726cddf895",
    ),
    True: (
        [
            "ds__post_frontend/d1-2/data_execution.json",
            "ds__post_frontend/d1-2/top.cl",
            "ds__post_frontend/d1/.cache/z.c",
            "ds__post_frontend/d1/.hidden.c",
            "ds__post_frontend/d1/a.c",
            "ds__post_frontend/d1/a.h",
            "ds__post_frontend/d1/a/x.c",
            "ds__post_frontend/d1/a/y.h",
            "ds__post_frontend/d1/data_design.json",
            "ds__post_frontend/d1/data_hls.json",
            "ds__post_frontend/d1/hls_prj/impl.c",
            "ds__post_frontend/d1/hls_prj/solution1/syn/report/csynth.xml",
            "ds__post_frontend/d1/link.c",
            "ds__post_frontend/d1/opt.tcl",
            "ds__post_frontend/d1/sub/hls_prj/data_deep.json",
            "ds__post_frontend/d1/sub/kernel.cpp",
            "timeline.json",
        ],
        "dd3bae9fc98f604fc758359f28c08dff7a82b1b8d20b2db56243b5c82d416c6b",
    ),
}

PINNED_LISTING = (
    "ds__post_frontend/d1/a/x.c",
    "ds__post_frontend/d1/a/y.h",
    "ds__post_frontend/d1/a.c",
    "ds__post_frontend/d1/a.h",
    "ds__post_frontend/d1/data_design.json",
    "ds__post_frontend/d1/data_hls.json",
    "ds__post_frontend/d1/hls_prj/impl.c",
    "ds__post_frontend/d1/hls_prj/solution1/syn/report/csynth.xml",
    "ds__post_frontend/d1/link.c",
    "ds__post_frontend/d1/mock_manifest.json",
    "ds__post_frontend/d1/opt.tcl",
    "ds__post_frontend/d1/sub/hls_prj/data_deep.json",
    "ds__post_frontend/d1/sub/kernel.cpp",
    "ds__post_frontend/d1-2/data_execution.json",
    "ds__post_frontend/d1-2/top.cl",
    "notes.txt",
    "timeline.json",
)


@pytest.mark.parametrize("include_artifacts", [False, True])
def test_archive_members_and_bytes_are_pinned(tmp_path, include_artifacts):
    work = build_tree(tmp_path / "work")
    out = archive_dataset(work, tmp_path / "out.zip", include_artifacts=include_artifacts)
    names, digest = PINNED[include_artifacts]
    with zipfile.ZipFile(out) as zf:
        assert zf.namelist() == names
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_design_file_listing_is_pinned(tmp_path):
    assert list_design_files(build_tree(tmp_path / "work")) == PINNED_LISTING
