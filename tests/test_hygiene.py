"""Static hygiene of the package source, read with `ast` alone: no module
imports a name it never uses, no private module-level name goes
unreferenced across the package, no public module-level function or class
goes unreferenced by the package, its `__all__`, the demos and the
benchmark's tracer, and no module reads `sys.modules`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kiss3"
#: Files outside the package whose uses keep a public name alive; the
#: tracer names the functions it hooks as strings.
USERS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "bench" / "tracer.py"]


def _loaded(tree: ast.Module) -> set[str]:
    """Names the module reads, and the names its `__all__` lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Names the module reads, reads as an attribute or imports from a
    module of the package."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def _mentioned(tree: ast.Module) -> set[str]:
    """Names a file outside the package reads, reads as an attribute,
    imports, or spells out as a string."""
    names = _referenced(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _imported(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def findings(sources: dict[str, str], users: dict[str, str] | None = None) -> list[str]:
    """Unused imports, unreferenced private module-level names and public
    functions and classes nothing uses, in the modules of one package given
    as file name -> source text; `users` holds the outside files, by the
    same mapping, that may use its public names."""
    trees = {name: ast.parse(text, name) for name, text in sorted(sources.items())}
    referenced = set().union(*map(_referenced, trees.values()))
    outside = (_mentioned(ast.parse(text, n)) for n, text in (users or {}).items())
    used = referenced.union(*outside)
    out = []
    for name, tree in trees.items():
        loaded = _loaded(tree)
        for node in tree.body:
            out += [f"{name}: unused import {b}" for b in _imported(node) if b not in loaded]
            out += [
                f"{name}: unreferenced private name {d}"
                for d in _defined(node)
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            ]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_") and node.name not in used:
                    out.append(f"{name}: unused public name {node.name}")
    return out


def test_package_is_clean():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    users = {str(path.relative_to(ROOT)): path.read_text() for path in USERS}
    assert len(sources) > 1 and "bench/tracer.py" in users and len(users) > 1
    assert findings(sources, users) == []


def module_table_reads(tree: ast.Module) -> list[int]:
    """The lines where a module reads `sys.modules`, as an attribute of
    `sys` or imported from it: what a module does to pick numpy or math by
    whether numpy is loaded."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "modules":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            lines += [node.lineno for alias in node.names if alias.name == "modules"]
    return lines


def test_no_module_reads_sys_modules():
    # a function takes floats or arrays, not whichever the loaded modules suggest
    reads = {
        path.name: module_table_reads(ast.parse(path.read_text(), path.name))
        for path in SRC.glob("*.py")
    }
    assert len(reads) > 1
    assert {name: lines for name, lines in reads.items() if lines} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import sys\nnp = sys.modules.get('numpy')\n", [2]),
        ("import sys\n\ndef f():\n    return 'numpy' in sys.modules\n", [4]),
        ("from sys import modules\n", [1]),
        ("import sys\nsys.argv\nmodules = {}\nmodules.get('numpy')\n", []),
    ],
)
def test_module_table_reads(source, expected):
    assert module_table_reads(ast.parse(source)) == expected


@pytest.mark.parametrize(
    "sources, expected",
    [
        (
            {"legendre.py": "from dataclasses import dataclass\nimport math\nmath.pi\n"},
            ["legendre.py: unused import dataclass"],
        ),
        (
            {"certificate.py": "def _neg_t0_upper(c):\n    return -c\n"},
            ["certificate.py: unreferenced private name _neg_t0_upper"],
        ),
        ({"a.py": "import numpy as np\n_X = np.pi\n", "b.py": "from .a import _X\n_X\n"}, []),
        ({"a.py": "def _f():\n    pass\n", "b.py": "from . import a\na._f()\n"}, []),
        ({"__init__.py": "from .a import f\n__all__ = ['f']\n"}, []),
        ({"a.py": "from __future__ import annotations\nimport os.path\nos.sep\n"}, []),
    ],
)
def test_findings(sources, expected):
    assert findings(sources) == expected


@pytest.mark.parametrize(
    "sources, users, expected",
    [
        (
            {"sphere.py": "def rotated(ps):\n    pass\n"},
            {},
            ["sphere.py: unused public name rotated"],
        ),
        ({"a.py": "class Cell:\n    pass\n"}, {}, ["a.py: unused public name Cell"]),
        ({"a.py": "def f():\n    pass\n", "b.py": "from .a import f\nf()\n"}, {}, []),
        (
            {"__init__.py": "from .a import f\n__all__ = ['f']\n", "a.py": "def f():\n    pass\n"},
            {},
            [],
        ),
        ({"a.py": "def f():\n    pass\n"}, {"demos/tour.py": "from kiss3.a import f\n"}, []),
        ({"a.py": "def f():\n    pass\n"}, {"bench/tracer.py": "SPANS = {'a.f': (a, 'f')}\n"}, []),
        ({"a.py": "def f():\n    pass\n"}, {"bench/tracer.py": "import a\na.f\n"}, []),
    ],
)
def test_public_names(sources, users, expected):
    assert findings(sources, users) == expected
