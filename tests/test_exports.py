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


def _definitions_and_references():
    """Every module- and class-level definition in the package, as (file,
    name, first line, last line), and every reference, as (file, name, line,
    kind): kind is "name" for a loaded name, "attribute" for a loaded
    attribute and "import" for an imported name."""
    sources = sorted(Path(bkl4.__file__).parent.glob("*.py"))
    definitions = []
    references = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree.body]
        scopes += [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id] if isinstance(node.target, ast.Name) else []
                else:
                    continue
                for name in names:
                    definitions.append((path.name, name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((path.name, node.id, node.lineno, "name"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                references.append((path.name, node.attr, node.lineno, "attribute"))
            elif isinstance(node, ast.ImportFrom):
                references.extend(
                    (path.name, a.name, node.lineno, "import") for a in node.names
                )
    return definitions, references


def test_every_private_name_is_used_in_the_library():
    # A private module-level name or private method that only its own
    # definition (or a test) refers to is a leftover path: the library no
    # longer runs it.  References are loaded names, attributes and imports.
    definitions, references = _definitions_and_references()
    private = [
        d for d in definitions if d[1].startswith("_") and not d[1].startswith("__")
    ]
    assert len(private) > 50
    unused = [
        f"{file}:{first} {name}"
        for file, name, first, last in private
        if not any(
            n == name and not (f == file and first <= line <= last)
            for f, n, line, _ in references
        )
    ]
    assert not unused, unused


def test_every_public_function_is_used_in_the_library():
    # One spelling per operation: a function or class that a module exports
    # must be loaded somewhere in the package outside its own definition and
    # outside the package root's re-exports; an import alone does not count.
    # `bkl4.classical` is exempt: it is the independent oracle the tests and
    # the benchmark check the package against.
    definitions, references = _definitions_and_references()
    spans = {(f, n): (first, last) for f, n, first, last in definitions}
    public = [
        (f"{module.__name__.split('.')[1]}.py", name)
        for module in MODULES
        if module.__name__ != "bkl4.classical"
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(vars(module)[name]) or inspect.isclass(vars(module)[name])
    ]
    assert len(public) > 30
    unused = []
    for file, name in public:
        first, last = spans[file, name]
        if not any(
            n == name and kind != "import" and f != "__init__.py"
            and not (f == file and first <= line <= last)
            for f, n, line, kind in references
        ):
            unused.append(f"{file}:{first} {name}")
    assert not unused, unused


# `Orbit.members` is the only reader of an SC set's partition into orbits,
# which the tests check against `reference_sc.orbit_partition`.
_READ_ONLY_BY_TESTS = {("circuits.py", "Orbit", "members")}


def test_every_public_method_is_used_in_the_library():
    # A public method or property of a class that a module exports must be
    # read as an attribute somewhere in the package outside its own
    # definition.  Only attribute loads count: a local variable may share a
    # method's name.  `bkl4.classical` is exempt, as above.
    _, references = _definitions_and_references()
    methods = []
    for module in MODULES:
        if module.__name__ == "bkl4.classical":
            continue
        file = f"{module.__name__.split('.')[1]}.py"
        exported = {
            name for name in getattr(module, "__all__", ())
            if inspect.isclass(vars(module)[name])
        }
        tree = ast.parse(Path(module.__file__).read_text(), filename=file)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                methods += [
                    (file, cls.name, node.name, node.lineno, node.end_lineno)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]
    assert len(methods) > 5
    unused = [
        f"{file}:{first} {cls}.{name}"
        for file, cls, name, first, last in methods
        if (file, cls, name) not in _READ_ONLY_BY_TESTS
        and not any(
            n == name and kind == "attribute"
            and not (f == file and first <= line <= last)
            for f, n, line, kind in references
        )
    ]
    assert not unused, unused


def test_every_keyword_only_parameter_is_passed_in_the_library():
    # An option that no caller in the package passes is a mode only tests
    # run: a keyword-only parameter of a function that a module exports must
    # be passed by keyword somewhere in the package outside that function's
    # own definition.  `bkl4.classical` is exempt, as above.
    definitions, _ = _definitions_and_references()
    spans = {(f, n): (first, last) for f, n, first, last in definitions}
    passed = set()  # (file, line, called name, keyword)
    for path in sorted(Path(bkl4.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                for k in node.keywords:
                    passed.add((path.name, node.lineno, name, k.arg))
    options = [
        (f"{module.__name__.split('.')[1]}.py", name, parameter.name)
        for module in MODULES
        if module.__name__ != "bkl4.classical"
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(vars(module)[name])
        for parameter in inspect.signature(vars(module)[name]).parameters.values()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert len(options) >= 3
    unused = []
    for file, name, keyword in options:
        first, last = spans[file, name]
        if not any(
            n == name and k == keyword and not (f == file and first <= line <= last)
            for f, line, n, k in passed
        ):
            unused.append(f"{file}:{first} {name}({keyword}=)")
    assert not unused, unused
