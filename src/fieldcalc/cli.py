"""The fieldc command line front end.

Exit codes: 0 success, 1 semantic failure (type error, evaluation error,
failed check) or a closed stdout, 2 usage error or unreadable/malformed
input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .builtins import EvalError
from .denot import (
    DagError,
    DenotError,
    dag_from_json,
    check_adequacy,
    denot_program,
    denot_scenario,
    validate_dag,
    verdict_json,
)
# only for tracers that wrap cli.build_dag_from_scenario (bench/spans.py):
# fieldc never builds the DAG of a scenario
from .denot import build_dag_from_scenario  # noqa: F401
from .device import DEFAULT_FUEL, record_json, scalar_json, text_sink, value_json, value_to_text
from .network import (
    RUN_CSV_HEADER,
    ScenarioError,
    fire_csv_row,
    fire_jsonl,
    run_scenario,
    scenario_from_json,
    show_id,
)
from .parser import ParseError, parse_program
from .stdlib import CorpusError, load_corpus
from .typer import TypecheckError, principal_scheme, show_scheme, typecheck_program


class CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code
        self.msg = msg


def _diag(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(2, str(e)) from None
    except UnicodeDecodeError as e:
        raise CliError(2, f"{path}: not UTF-8 text: {e}") from None


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise CliError(2, f"{path}: not valid JSON: {e}") from None
    except ValueError:  # Python converts no integer of more digits than its limit
        raise CliError(2, f"{path}: not valid JSON: an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise CliError(2, f"{path}: JSON nested too deep to read") from None


def _emit(parts: list, out) -> None:
    """Write the strings parts to stdout or to the file out, one by one,
    so that the text is never copied whole."""
    if out is None:
        sys.stdout.writelines(parts)
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(parts)
    except OSError as e:
        raise CliError(2, str(e)) from None


def _load_program(path: str):
    """Parse and typecheck a program file; diagnostics exit with code 1."""
    src = _read(path)
    try:
        prog = parse_program(src, path=path)
        main_type, schemes, _ = typecheck_program(prog)
    except (ParseError, TypecheckError) as e:
        raise CliError(1, str(e)) from None
    return prog, main_type, schemes


def _load_scenario(path: str, ns, obj=None):
    """Read a scenario (``obj`` when the JSON is already parsed) and apply
    the --decay/--radius overrides; malformed input exits with code 2."""
    try:
        sc = scenario_from_json(_read_json(path) if obj is None else obj)
    except ScenarioError as e:
        raise CliError(2, f"{path}: {e}") from None
    try:
        if ns.decay is not None:
            sc = sc.replace(decay=ns.decay)
        if ns.radius is not None:
            sc = sc.replace(radius=ns.radius)
    except ScenarioError as e:
        raise CliError(2, str(e)) from None  # the message names the field
    return sc


# ---------------------------------------------------------------------------
# subcommands

def cmd_typecheck(ns) -> int:
    prog, main_type, schemes = _load_program(ns.file)
    print(show_scheme(principal_scheme(prog, main_type, schemes)))
    return 0


def cmd_run(ns) -> int:
    prog, _, _ = _load_program(ns.program)
    sc = _load_scenario(ns.scenario, ns)
    rng = random.Random(ns.seed) if ns.seed is not None else None
    # each fire's text is made as the fire returns, and written at the end,
    # so that an error leaves no output
    lines = []
    sink = text_sink(ns.format, lines, RUN_CSV_HEADER, fire_jsonl,
                     lambda t, d, tree, fresh: fire_csv_row(t, d, tree.root))
    try:
        run_scenario(sc, prog, fuel=ns.fuel, rng=rng, sink=sink)
    except (EvalError, ScenarioError) as e:
        raise CliError(1, str(e)) from None
    _emit(lines, ns.out)
    return 0


def _denot_jsonl(i: int, t, d: int, value) -> str:
    """An event's JSONL line in fieldc denot's output."""
    return record_json(("device", scalar_json(d)), ("event", scalar_json(i)),
                       ("t", scalar_json(str(t))), ("value", value_json(value))) + "\n"


def cmd_denot(ns) -> int:
    prog, _, _ = _load_program(ns.program)
    obj, g = _read_json(ns.input), None
    if isinstance(obj, dict) and "events" in obj:
        for opt in ("decay", "radius"):
            if getattr(ns, opt) is not None:
                raise CliError(2, f"{ns.input}: --{opt} overrides a scenario, "
                                  "not an event DAG")
        try:
            g = dag_from_json(obj)
        except DagError as e:
            raise CliError(2, f"{ns.input}: {e}") from None
        bad = validate_dag(g)
        if bad:
            raise CliError(2, f"{ns.input}: neigh violates " + "; ".join(
                f"{v.kind} (events {', '.join(map(show_id, v.events))})" for v in bad))
    else:
        sc = _load_scenario(ns.input, ns, obj)
    del obj  # the file's JSON is dead once read: the run does not hold it
    # each event's text is made as it is denoted, and written at the end,
    # so that an error leaves no output
    lines = []
    sink = text_sink(ns.format, lines, ("event", "t", "device", "value"), _denot_jsonl,
                     lambda i, t, d, value: [i, str(t), d, value_to_text(value)])
    try:
        if g is None:
            denot_scenario(sc, prog, sink, fuel=ns.fuel)
        else:
            denots = denot_program(g, prog, fuel=ns.fuel)
            for e in g.events:
                sink(e.id, e.time, e.device, denots[e])
    except (DenotError, EvalError, ScenarioError) as e:
        raise CliError(1, str(e)) from None
    _emit(lines, ns.out)
    return 0


def cmd_check_adequacy(ns) -> int:
    prog, _, _ = _load_program(ns.program)
    sc = _load_scenario(ns.scenario, ns)
    # the JSON report keeps each verdict's text; the summary line only counts
    texts = []
    sink = (lambda v: texts.append(verdict_json(v))) if ns.format == "json" else None
    try:
        report = check_adequacy(sc, prog, fuel=ns.fuel, sink=sink)
    except (DenotError, EvalError, ScenarioError) as e:
        raise CliError(1, str(e)) from None
    if ns.format == "json":
        _emit([report.to_json(texts), "\n"], ns.out)
    else:
        _emit([f"{report.equal}/{report.events} events equal\n"], ns.out)
    if report.ok:
        return 0
    c = report.first_counterexample
    _diag(
        f"event {c.event} (t={c.t}, device {c.device}): "
        f"denotational {value_to_text(c.denotational)} != "
        f"operational {value_to_text(c.operational)}"
    )
    return 1


def cmd_corpus_test(ns) -> int:
    try:
        entries = load_corpus()
    except CorpusError as e:
        raise CliError(1, str(e)) from None
    failed = 0
    for entry in entries:
        try:
            ok = entry.check()
            detail = show_scheme(entry.declared_type)
        except (ParseError, TypecheckError, CorpusError) as e:
            ok, detail = False, str(e)
        if ok:
            print(f"{entry.name}: ok ({detail})")
        else:
            failed += 1
            print(f"{entry.name}: FAIL ({detail})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, seed=False, fmt=True):
    if fmt:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N")
    if seed:
        p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--decay", metavar="T",
                   help="override the scenario's message decay")
    p.add_argument("--radius", type=float, metavar="R",
                   help="override the scenario's communication radius")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldc",
        description="Typecheck, run, and cross-check field calculus programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("typecheck", help="print a program's principal type")
    p.add_argument("file")
    p.set_defaults(handler=cmd_typecheck)

    p = sub.add_parser("run", help="simulate a scenario and emit the trace")
    p.add_argument("program")
    p.add_argument("scenario")
    _add_common(p, seed=True)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("denot",
                       help="evaluate denotationally over an event DAG")
    p.add_argument("program")
    p.add_argument("input", help="DAG JSON or scenario JSON")
    _add_common(p)
    p.set_defaults(handler=cmd_denot)

    p = sub.add_parser("check-adequacy",
                       help="compare operational and denotational results")
    p.add_argument("program")
    p.add_argument("scenario")
    p.add_argument("--format", choices=["json"],
                   help="emit the full report instead of the summary line")
    _add_common(p, fmt=False)
    p.set_defaults(handler=cmd_check_adequacy)

    p = sub.add_parser("corpus-test",
                       help="verify the shipped corpus annotations")
    p.set_defaults(handler=cmd_corpus_test)

    return parser


@functools.cache
def parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first call: argparse
    keeps no state between parses, and building it costs about 1 ms."""
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(ns, "fuel", 0) < 0:
            raise CliError(2, f"--fuel must be >= 0, got {ns.fuel}")
        code = ns.handler(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as e:
        _diag(e.msg)
        return e.code
    except RecursionError:
        # deep nesting in the source, or recursion that Python's stack
        # cannot hold before the fuel runs out
        _diag("nesting or recursion too deep for the interpreter's stack")
        return 1


if __name__ == "__main__":
    sys.exit(main())
