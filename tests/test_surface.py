"""The public surface: every exported name resolves, and README's library
quickstart runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import reproguard

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(reproguard.__path__))


def test_package_exports_resolve():
    missing = [n for n in reproguard.__all__ if not hasattr(reproguard, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"reproguard.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
