"""Properties of the package's own source text."""

import ast
import sys
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


def test_the_package_imports_only_itself_and_the_standard_library():
    """fieldcalc has no runtime dependency: every import is relative or
    names a module of Python's standard library."""
    found = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{p.name}:{node.lineno}: {n}" for n in names
                      if n.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
