"""Source hygiene: no module of the package imports a name it never uses,
and every name the benchmark's tracer patches exists.

__init__.py is exempt: its imports are the package's public names.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tbqkd"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that the source's import statements bind and no name in
    its code reads, sorted. The modules postpone annotations, so an
    annotation names what it uses without quotes and counts as code."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_unused_names():
    source = (
        "import os.path\nimport numpy as np\nfrom a import b, c as d, e\n"
        "def f(x: e) -> None:\n    return np.sum(d)\n"
    )
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def tracer_paths() -> list[str]:
    """The module attributes perfbench/tracer.py wraps in a traced run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [path for paths in tracer.WRAPPED.values() for path in paths]


@pytest.mark.parametrize("path", tracer_paths())
def test_every_traced_name_resolves(path):
    # a traced benchmark run patches these by name and stops at the
    # first one that is gone
    module, attr = path.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), attr, None)), path
