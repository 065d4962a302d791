"""The package imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hlsforge"


def top_level_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import in the file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_package_is_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    outside = {(path.name, name) for path in sources for name in top_level_imports(path)
               if name not in sys.stdlib_module_names}
    assert outside == set()


def test_the_guard_sees_imports_inside_functions(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import core\nimport os.path\n"
                      "def f():\n    import numpy as np\n    from scipy.stats import t\n")
    assert top_level_imports(source) == {"os", "numpy", "scipy"}
