"""Every name a pmltk module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
Every layer function a traced benchmark run wraps exists in pmltk.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pmltk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_catches_a_left_over_import():
    source = "from .trainer import Model, fit\n\n\ndef run(X):\n    return fit(X)\n"
    assert unused_imports(source) == ["line 1: Model"]


BENCH_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_layer_functions() -> list[tuple[str, str]]:
    """``LAYER_FUNCTIONS`` of ``bench/tracing.py``, read without importing it."""
    tree = ast.parse(BENCH_TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no LAYER_FUNCTIONS in {BENCH_TRACING}")


def test_traced_layer_functions_exist():
    # a traced benchmark run (bench/run.py --trace 1) wraps each of these and
    # fails on a name that is gone
    pairs = traced_layer_functions()
    missing = [f"pmltk.{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(f"pmltk.{module}"), name, None))]
    assert pairs and missing == []
