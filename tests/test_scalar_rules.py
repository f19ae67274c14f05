"""Only ``errors`` states the scalar input rules: no other module of the
package imports ``numbers``; they call ``errors._real`` and
``errors._whole``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "reproguard"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "errors.py")


def numbers_imports(source: str) -> list[int]:
    """The line of every import of ``numbers`` or of a name from it in
    ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "numbers" or name.startswith("numbers.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_errors_states_the_rules():
    assert numbers_imports((SRC / "errors.py").read_text()) != []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_only_errors_imports_numbers(path):
    assert numbers_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import numbers\n", [1]),
        ("x = 1\nfrom numbers import Integral, Real\n", [2]),
        ("import math, numbers as n\n", [1]),
        ("def f():\n    from numbers import Real\n", [2]),
        ("from . import numbers\nimport numpy\nx = numbers.Real\n", []),
    ],
)
def test_numbers_imports_finds_exactly_the_imports(source, lines):
    assert numbers_imports(source) == lines
