"""Static hygiene of the package source, read with `ast` alone: no module
imports a name it never uses, and no private module-level name goes
unreferenced across the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kiss3"


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


def findings(sources: dict[str, str]) -> list[str]:
    """Unused imports and unreferenced private module-level names in the
    modules of one package, given as file name -> source text."""
    trees = {name: ast.parse(text, name) for name, text in sorted(sources.items())}
    referenced = set().union(*map(_referenced, trees.values()))
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
    return out


def test_package_is_clean():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) > 1
    assert findings(sources) == []


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
