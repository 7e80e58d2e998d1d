"""Every name a mvreg module imports is used in it.

The one exception is mvreg.pipeline's imports of functions it never calls:
bench/spans.py rebinds them there by name (its WRAPPED_NAMES), so they stay
while the tracer lists them, and must go once it no longer does.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvreg"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACED = {module: set(names) for module, names in _load("spans").WRAPPED_NAMES}


def unused_imports(source: str) -> set[str]:
    """The names a module's import statements bind that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(path):
    allowed = TRACED.get("mvreg.pipeline", set()) if path == "pipeline.py" else set()
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) <= allowed


def test_an_unused_import_is_found():
    source = "from .graph import GAMMA, cauchy_scale\n\ndef f(r):\n    return cauchy_scale(r)\n"
    assert unused_imports(source) == {"GAMMA"}
