"""Only ``container`` states the latent-grid rule: no other module of the
package takes a remainder by ``_POOL`` (``%``, ``%=``, ``divmod`` or a
``mod``, ``remainder`` or ``fmod`` call); they call
``container._check_latent_dims``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "reproguard"
FILES = sorted(p for p in SRC.glob("*.py") if p.name != "container.py")
MOD_CALLS = {"divmod", "mod", "remainder", "fmod"}


def _is_pool(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_POOL") or (
        isinstance(node, ast.Attribute) and node.attr == "_POOL"
    )


def pool_remainders(source: str) -> list[int]:
    """The line of every remainder by ``_POOL`` in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            divisor = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
            divisor = node.value
        elif isinstance(node, ast.Call) and len(node.args) == 2 and (
            getattr(node.func, "id", None) in MOD_CALLS
            or getattr(node.func, "attr", None) in MOD_CALLS
        ):
            divisor = node.args[1]
        else:
            continue
        if _is_pool(divisor):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_only_container_checks_latent_dims(path):
    assert pool_remainders(path.read_text()) == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("if h % _POOL or w % _POOL:\n    pass\n", [1, 1]),
        ("x = 1\nq, r = divmod(h, container._POOL)\n", [2]),
        ("h %= _POOL\nnp.remainder(w, _POOL)\n", [1, 2]),
        ("n = h // _POOL * _POOL\ny = h % 4\nz = _POOL % h\n", []),
    ],
)
def test_pool_remainders_finds_exactly_the_remainders(source, lines):
    assert pool_remainders(source) == lines
