"""Every stream fault the package raises is typed: no module raises
``MalformedStreamError`` itself, only one of its documented subclasses, so
a caller can tell the failure classes apart."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "reproguard").glob("*.py"))


def bare_raises(source: str) -> list[int]:
    """The lines of ``source`` that raise MalformedStreamError itself,
    called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "MalformedStreamError":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_bare_malformed_stream_raise(path):
    assert bare_raises(path.read_text()) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("raise MalformedStreamError('x')\n", [1]),
        ("raise MalformedStreamError\n", [1]),
        ("raise errors.MalformedStreamError('x')\n", [1]),
        ("raise FieldValueError('x')\n", []),
        ("try:\n    f()\nexcept MalformedStreamError:\n    raise\n", []),
        ("raise FieldValueError('x') from MalformedStreamError('y')\n", []),
    ],
)
def test_bare_raises_finds_exactly_the_base_class(source, lines):
    assert bare_raises(source) == lines
