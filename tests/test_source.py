"""Properties of the package source itself."""

from __future__ import annotations

import ast
from collections import Counter
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



def _definitions(tree, module):
    """(qualified name, name, node) of each module-level function and class,
    and of each method of such a class but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{m.name}", m.name, m


def _references(tree) -> Counter:
    """How often `tree` reads each identifier, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_no_package_function_is_reached_only_from_tests():
    """Each module-level function and class of the package, and each method
    but the dunder ones, is referenced from package code outside its own
    definition and outside `__init__.py`, or from `tools/`: code that only
    the tests call lives in tests/helpers.py.  The exceptions are the three
    functions that the benchmark's per-layer metrics name."""
    trees = {
        path.stem: ast.parse(path.read_text("utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    package = sum((_references(tree) for tree in trees.values()), Counter())
    tools = sum((
        _references(ast.parse(path.read_text("utf-8"), str(path)))
        for path in sorted((PACKAGE.parents[1] / "tools").glob("*.py"))
    ), Counter())
    found = [
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree, module)
        if not tools[name] and package[name] == _references(node)[name]
    ]
    held = ["invariants.goeritz_matrix", "lattice.definiteness", "lattice.short_vectors"]
    assert found == held, found


def _trees():
    return {
        path.stem: ast.parse(path.read_text("utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_the_rank_cap_is_checked_in_one_place():
    """The package raises RankCapExceededError once, in the certificate's
    gate in `obstruct`: a second cap check fails here."""
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "RankCapExceededError" in _references(node)
    ]
    assert [site.split(":")[0] for site in found] == ["obstruct"], found


def test_only_the_cli_hashes_the_pd():
    """`cli` makes a report's one PD hash: no other module binds `sha256` or
    imports a module that provides it."""
    found = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {n for a in node.names for n in (a.name, a.asname)}
                bound.add(getattr(node, "module", None))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound = {node.id}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {node.name}
            else:
                continue
            if bound & {"sha256", "hashlib", "_sha2", "_sha256"}:
                found.add(module)
    assert found == {"cli"}, found
