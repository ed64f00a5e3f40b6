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
