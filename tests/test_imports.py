"""Source hygiene: no module of the package imports a name it never uses
or another module's private name, no module defines a private name that
no module of the package reads, only the command line reads or writes
CSV or JSON, and every name the benchmark's tracer patches exists.

__init__.py is exempt from the import check: its imports are the
package's public names.
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


def private_imports(source: str) -> list[str]:
    """Names with a leading underscore (dunders aside) that the source's
    from-imports take from another module, sorted."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    )


def test_the_check_finds_private_imports():
    source = "from __future__ import annotations\nfrom .a import _B, c, __d\n"
    assert private_imports(source) == ["_B"]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_is_imported(module):
    assert private_imports((PACKAGE / module).read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """"module:name" of each top-level name with a leading underscore
    (dunders aside) that a module of sources defines, by def, class or
    assignment, and no module of sources reads, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        n.id
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{module}:{name}" for name in names
                if name.startswith("_") and not name.startswith("__")
                and name not in read
            ]
    return sorted(unread)


def test_the_check_finds_unread_private_names():
    sources = {
        "a.py": "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                "def _f():\n    return _A\nclass _K:\n    pass\n",
        "b.py": "from a import _C\ndef g(_D):\n    return _C + _D\n",
    }
    assert unread_private_names(sources) == ["a.py:_B", "a.py:_K", "a.py:_f"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def imported_modules(source: str) -> list[str]:
    """Top-level names of the modules the source's absolute imports
    load, sorted."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return sorted(modules)


def test_the_check_finds_imported_modules():
    source = (
        "from __future__ import annotations\nimport os.path, csv as c\n"
        "from json import dumps\nfrom . import sift\nfrom .keyrate import x\n"
    )
    assert imported_modules(source) == ["__future__", "csv", "json", "os"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli.py"])
def test_only_the_cli_knows_file_formats(module):
    # cli writes every output file; config keeps yaml for the scenario
    # schema's round trip
    found = set(imported_modules((PACKAGE / module).read_text()))
    assert found.isdisjoint({"csv", "json"}), module


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
