"""Every import in the package and its tests is used: a name a module
imports must be read somewhere in that module or be listed in its
``__all__``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [*(ROOT / "src" / "reproguard").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but never reads and does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read | exported)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import math\n", ["math"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
    ],
)
def test_unused_imports_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused
