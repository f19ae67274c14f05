"""Only ``quantizer`` reads a grid's representation: no other module of the
package reads an attribute named ``_b`` (a table's boundaries) or
``_edges`` (a domain's edge indices)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "reproguard"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "quantizer.py")
PRIVATE = {"_b", "_edges"}


def grid_reads(source: str) -> list[str]:
    """``line:name`` of every ``_b`` or ``_edges`` attribute in ``source``."""
    return sorted(
        f"{node.lineno}:{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    )


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_only_quantizer_reads_a_grid(path):
    assert grid_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source, reads",
    [
        ("grid._edges\n", ["1:_edges"]),
        ("x = 1\nv = cfg.grid._b[m]\n", ["2:_b"]),
        ("_b = grid.boundaries\ngrid._bins(v)\n", []),
    ],
)
def test_grid_reads_finds_exactly_the_attribute_reads(source, reads):
    assert grid_reads(source) == reads
