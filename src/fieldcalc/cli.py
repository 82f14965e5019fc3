"""The fieldc command line front end.

Exit codes: 0 success, 1 semantic failure (type error, evaluation error,
failed check), 2 usage error or unreadable/malformed input file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import replace

from .ast import DefName
from .builtins import EvalError
from .denot import (
    DagError,
    DenotError,
    dag_from_json,
    build_dag_from_scenario,
    check_adequacy,
    denot_program,
    validate_dag,
)
from .device import DEFAULT_FUEL, value_to_json, value_to_text
from .network import ScenarioError, as_time, run_scenario, scenario_from_json
from .parser import ParseError, parse_program
from .stdlib import CorpusError, load_corpus
from .typer import Scheme, TypecheckError, show_scheme, typecheck_program


class CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code
        self.msg = msg


def _color() -> bool:
    return os.environ.get("FIELDC_COLOR", "").lower() not in (
        "", "0", "false", "no", "never",
    )


def _diag(msg: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _color() else "error:"
    print(f"{prefix} {msg}", file=sys.stderr)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError(2, str(e)) from None


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise CliError(2, f"{path}: not valid JSON: {e}") from None


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
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
    if ns.decay is not None:
        try:
            sc = replace(sc, decay=as_time(ns.decay))
        except ScenarioError as e:
            raise CliError(2, f"--decay: {e}") from None
    if ns.radius is not None:
        sc = replace(sc, radius=ns.radius)
    return sc


# ---------------------------------------------------------------------------
# subcommands

def cmd_typecheck(ns) -> int:
    prog, main_type, schemes = _load_program(ns.file)
    if isinstance(prog.main, DefName) and prog.main.name in schemes:
        print(show_scheme(schemes[prog.main.name]))
    else:
        print(show_scheme(Scheme((), main_type)))
    return 0


def cmd_run(ns) -> int:
    prog, _, _ = _load_program(ns.program)
    sc = _load_scenario(ns.scenario, ns)
    rng = random.Random(ns.seed) if ns.seed is not None else None
    try:
        trace = run_scenario(sc, prog, fuel=ns.fuel, rng=rng)
    except (EvalError, ScenarioError) as e:
        raise CliError(1, str(e)) from None
    _emit(trace.jsonl() if ns.format == "json" else trace.csv(), ns.out)
    return 0


def cmd_denot(ns) -> int:
    prog, _, _ = _load_program(ns.program)
    obj = _read_json(ns.input)
    if isinstance(obj, dict) and "events" in obj:
        try:
            g = dag_from_json(obj)
        except DagError as e:
            raise CliError(2, f"{ns.input}: {e}") from None
        bad = validate_dag(g)
        if bad:
            raise CliError(2, f"{ns.input}: neigh violates " + "; ".join(
                f"{v.kind} (events {', '.join(map(str, v.events))})" for v in bad))
    else:
        sc = _load_scenario(ns.input, ns, obj)
        try:
            g = build_dag_from_scenario(sc)
        except ScenarioError as e:
            raise CliError(1, str(e)) from None
    try:
        denots = denot_program(g, prog, fuel=ns.fuel)
    except (DenotError, EvalError) as e:
        raise CliError(1, str(e)) from None
    events = sorted(g.events, key=lambda e: (e.time, e.id))
    if ns.format == "json":
        lines = [
            _dumps({
                "event": e.id,
                "t": str(e.time),
                "device": e.device,
                "value": value_to_json(denots[e]),
            })
            for e in events
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["event", "t", "device", "value"])
        for e in events:
            w.writerow([e.id, str(e.time), e.device, value_to_text(denots[e])])
        text = buf.getvalue()
    _emit(text, ns.out)
    return 0


def cmd_check_adequacy(ns) -> int:
    prog, _, _ = _load_program(ns.program)
    sc = _load_scenario(ns.scenario, ns)
    try:
        report = check_adequacy(sc, prog, fuel=ns.fuel)
    except (DenotError, EvalError, ScenarioError) as e:
        raise CliError(1, str(e)) from None
    if ns.format == "json":
        _emit(_dumps(report.to_json()) + "\n", ns.out)
    else:
        n = sum(1 for v in report.verdicts if v.ok)
        _emit(f"{n}/{len(report.verdicts)} events equal\n", ns.out)
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

def _add_common(p, seed=False):
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
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N")
    p.add_argument("--decay", metavar="T",
                   help="override the scenario's message decay")
    p.add_argument("--radius", type=float, metavar="R",
                   help="override the scenario's communication radius")
    p.set_defaults(handler=cmd_check_adequacy)

    p = sub.add_parser("corpus-test",
                       help="verify the shipped corpus annotations")
    p.set_defaults(handler=cmd_corpus_test)

    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return ns.handler(ns)
    except CliError as e:
        _diag(e.msg)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
