"""Properties of the package's own source text."""

import ast
from pathlib import Path

import fieldcalc

SRC = Path(fieldcalc.__file__).resolve().parent


def test_no_check_in_the_package_is_an_assert():
    """python -O drops every assert, so no correctness check in the
    package may be one."""
    found = [f"{p.name}:{node.lineno}"
             for p in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []
