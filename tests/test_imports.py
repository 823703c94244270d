"""Every name a pmltk module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
Every module-level private function, class or variable of pmltk is read
somewhere in pmltk, so code that nothing calls any more goes with the
change that stops calling it. Every layer function a traced benchmark
run wraps exists in pmltk.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private ``def``, ``class`` and assignment targets of
    ``sources`` (file name to text) that no source reads, as a ``Name`` or
    as an attribute."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                          else [node.target]) if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, node.lineno, t) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{name} line {line}: {t}" for name, line, t in defined if t not in read]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_check_catches_a_private_name_nothing_reads():
    sources = {
        "a.py": "_LIMIT = 3\n\n\nclass _Pool:\n    pass\n\n\ndef _run(x):\n    return x\n",
        "b.py": "from . import a\n\n\ndef run(x):\n    return a._run(x) + a._LIMIT\n",
    }
    assert unread_private_names(sources) == ["a.py line 4: _Pool"]


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
