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
