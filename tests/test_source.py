"""Properties of the package's own source text."""

import ast
import os
import subprocess
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


def test_importing_the_package_generates_no_code():
    """Every record is a plain class, so the package imports neither
    dataclasses, which writes and runs the source of each decorated
    class's methods, nor inspect, which only dataclasses pulled in. In a
    fresh interpreter that has first run the package's own imports of the
    standard library (on some Python versions importlib.resources loads
    inspect), importing every module of the package loads neither."""
    stdlib = sorted({ast.unparse(node)
                     for p in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
                     if isinstance(node, ast.Import)
                     or isinstance(node, ast.ImportFrom) and node.level == 0
                     and node.module != "__future__"})
    unwanted = {"dataclasses", "inspect"}
    assert not [s for s in stdlib if s.split()[1].partition(".")[0] in unwanted]
    mods = sorted(f"fieldcalc.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__")
    code = "\n".join(["import sys", *stdlib, "before = set(sys.modules)",
                      *(f"import {m}" for m in mods), "print(*sorted(set(sys.modules) - before))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert set(mods) <= added
    assert not added & unwanted, sorted(added)


# names the package keeps for callers outside it, each with its reason
UNREFERENCED_ALLOWED = {
    "denot.EventDAG.neigh": "a read-only view of the edges, derived from the senders, for the "
                            "tests, CI's Memory step and bench/spans.py's len(result.neigh)",
    "denot.shift": "bench/spans.py wraps it by attribute",
    "denot.latest_event": "bench/spans.py wraps it by attribute",
    "denot.restrict_evolution": "bench/spans.py wraps it by attribute",
    "denot.position_at (import)": "bench/spans.py wraps denot's re-export by attribute",
    "denot.run_scenario (import)": "bench/spans.py wraps denot's re-export by attribute",
    "denot.build_dag_from_scenario": "the tests' reference induced DAG, and bench/spans.py "
                                     "wraps it by attribute",
    "cli.build_dag_from_scenario (import)": "bench/spans.py wraps cli's re-export by attribute",
    "stdlib.corpus_entry": "the scripts look corpus programs up by name with it",
    "network.FireTrace.jsonl": "bench/spans.py wraps it by attribute; the records API writes with it",
}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each method of a top-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not (
                            m.name.startswith("__") and m.name.endswith("__")):
                        yield f"{node.name}.{m.name}", m


def _references(tree):
    """(name, line) of each name the module reads, as a variable it does
    not bind in an enclosing function or as an attribute."""
    def walk(node, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            local = local | {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                             args.vararg, args.kwarg) if a is not None}
            local |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, local)

    return walk(tree, frozenset())


def test_every_definition_in_the_package_is_used_in_it():
    """Each top-level function and class, and each method, is read
    somewhere in the package outside its own body, and each name a module
    imports from the package is read in that module: a name only tests
    call lives in tests/helpers.py. The allowed names must be unread, so
    the list cannot outlive its reasons."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(SRC.glob("*.py"))}
    refs = {mod: list(_references(tree)) for mod, tree in trees.items()}
    unread = []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rpartition(".")[2]
            if not any(n == name and not (m == mod and node.lineno <= line <= node.end_lineno)
                       for m, rs in refs.items() for n, line in rs):
                unread.append(f"{mod}.{qual}")
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                unread += [f"{mod}.{a.asname or a.name} (import)" for a in node.names
                           if not any(n == (a.asname or a.name) for n, _ in refs[mod])]
    assert sorted(unread) == sorted(UNREFERENCED_ALLOWED)
