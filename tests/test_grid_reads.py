"""Only ``quantizer`` reads a grid's representation: no other module of the
package reads an attribute named ``_b`` (a table's boundaries) or
``_edges`` (a domain's edge indices), and the only private names other
modules import from ``quantizer`` are ``_bins`` and ``_nearest``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "reproguard"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "quantizer.py")
PRIVATE = {"_b", "_edges"}
QUANTIZER_PRIVATE = {"_bins", "_nearest"}


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


def quantizer_imports(source: str) -> set[str]:
    """The private names ``source`` takes from ``quantizer``: imported from
    it, or read off the module as ``quantizer._name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "quantizer",
            "reproguard.quantizer",
        ):
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "quantizer"
        ):
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_quantizer_hands_out_only_bins_and_nearest(path):
    assert quantizer_imports(path.read_text()) <= QUANTIZER_PRIVATE


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .quantizer import _bins as b, _kernel\n", {"_bins", "_kernel"}),
        ("from reproguard.quantizer import (\n    _first_bin,\n)\n", {"_first_bin"}),
        ("from . import quantizer\nquantizer._inside(g, m)\n", {"_inside"}),
        ("from .entropy import _phi\nentropy._carry(e)\n", set()),
    ],
)
def test_quantizer_imports_finds_exactly_the_private_names(source, names):
    assert quantizer_imports(source) == names
