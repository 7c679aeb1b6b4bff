"""The export lists: every name in a module's `__all__` is that module's own,
and every name the package root exports is one of them.  Tools that look up
each `__all__` name with getattr rely on both.  The library's soundness
checks are raises, never `assert` statements, which `python -O` strips."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import bkl4

MODULES = [
    importlib.import_module(f"bkl4.{info.name}")
    for info in pkgutil.iter_modules(bkl4.__path__)
]


def test_module_exports_are_defined_in_the_module():
    exporting = [m for m in MODULES if hasattr(m, "__all__")]
    assert {m.__name__ for m in exporting} >= {
        "bkl4.simples", "bkl4.engine", "bkl4.words", "bkl4.sliding",
        "bkl4.circuits", "bkl4.solver", "bkl4.classical",
    }
    for module in exporting:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert name in vars(module), f"{module.__name__}.{name}"
            value = vars(module)[name]
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_root_exports_come_from_module_exports():
    assert len(set(bkl4.__all__)) == len(bkl4.__all__)
    for name in bkl4.__all__:
        value = getattr(bkl4, name)
        assert any(
            name in getattr(m, "__all__", ()) and getattr(m, name) is value
            for m in MODULES
        ), name


def test_library_has_no_assert_statements():
    sources = sorted(Path(bkl4.__file__).parent.glob("*.py"))
    assert len(sources) == len(MODULES) + 1  # and __init__.py
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_library_imports_neither_dataclasses_nor_typing():
    # Each would load modules that nothing else on the command line's path
    # needs (dataclasses brings inspect, ast, dis and tokenize), and every
    # call pays its import.
    sources = sorted(Path(bkl4.__file__).parent.glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            assert not roots & {"dataclasses", "typing"}, f"{path.name}:{node.lineno}"
