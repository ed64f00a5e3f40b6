"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import knotcert

PACKAGE = Path(knotcert.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """Every check must survive `python -O`, which strips assert statements;
    the package raises InconsistencyError (or another KnotCertError) instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_public_names_are_listed_once_and_bound():
    """`knotcert.__all__` names each public name once, every one of them is
    bound in the package, and `from knotcert import *` succeeds."""
    names = knotcert.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(knotcert, n)] == []
    namespace: dict = {}
    exec("from knotcert import *", namespace)
    assert set(names) <= set(namespace)


def _functions(node, prefix):
    """(qualified name, def node) of every function under `node`, nested
    ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def test_no_package_function_calls_itself():
    """The package's depth of Python frames does not grow with its input:
    no function calls itself, by name or as a method, from its own body or
    from a function nested in it.  `cli._json` is the exception: its depth
    is the nesting of a report, which the report schema fixes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text("utf-8"), str(path)), path.stem):
            calls = set()
            for call in ast.walk(fn):
                f = call.func if isinstance(call, ast.Call) else None
                if isinstance(f, ast.Name):
                    calls.add(f.id)
                elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in ("self", "cls"):
                    calls.add(f.attr)
            if fn.name in calls:
                found.append(name)
    assert found == ["cli._json"], found
