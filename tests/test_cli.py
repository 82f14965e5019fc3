"""End-to-end checks of the fieldc command line."""

import copy
import csv
import functools
import gc
import io
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldcalc
from fieldcalc import cli, device, network
from fieldcalc.ast import boolean, num
from fieldcalc.cli import main
from fieldcalc.denot import (
    AdequacyReport,
    Event,
    EventDAG,
    Verdict,
    build_dag_from_scenario,
    check_adequacy,
)
from fieldcalc.device import DEFAULT_FUEL, ValueTree, csv_text
from fieldcalc.network import FireError, FireTrace, run_scenario, scenario_from_json
from fieldcalc.parser import parse_program
from fieldcalc.stdlib import corpus_entry
from generators import ExprGen, gen_dag, gen_scenario
from helpers import (
    dag_to_json,
    denot_jsonl,
    denotation,
    line_scenario,
    pretty_program,
    report_json,
    run_csv,
    run_jsonl,
    scenario_json,
    static_scenario,
    value_text,
)

COUNTER = "rep(0){(x) => x + 1}\n"

ONE_DEVICE = {
    "devices": [1],
    "radius": 5,
    "decay": 100,
    "paths": {"1": [{"from": 0, "to": 10, "waypoints": [[0, 0]]}]},
    "fires": [{"t": t, "device": 1} for t in range(1, 6)],
}


@pytest.fixture
def counter(tmp_path):
    p = tmp_path / "counter.hfc"
    p.write_text(COUNTER)
    return str(p)


@pytest.fixture
def one_device(tmp_path):
    p = tmp_path / "one.json"
    p.write_text(json.dumps(ONE_DEVICE))
    return str(p)


# ---------------------------------------------------------------------------
# typecheck

def test_typecheck_corpus_annotation(tmp_path, capsys):
    p = tmp_path / "distance-to.hfc"
    p.write_text(corpus_entry("distance-to").source)
    assert main(["typecheck", str(p)]) == 0
    assert capsys.readouterr().out == "(bool) -> num\n"


def test_typecheck_polymorphic_scheme(tmp_path, capsys):
    p = tmp_path / "gradcast.hfc"
    p.write_text(corpus_entry("gradcast").source)
    assert main(["typecheck", str(p)]) == 0
    assert capsys.readouterr().out == "forall s1. (bool, s1) -> s1\n"


def test_typecheck_expression_main(tmp_path, capsys):
    p = tmp_path / "e.hfc"
    p.write_text("1 + 2\n")
    assert main(["typecheck", str(p)]) == 0
    assert capsys.readouterr().out == "num\n"


def test_typecheck_type_error_names_the_rule(tmp_path, capsys):
    p = tmp_path / "bad.hfc"
    p.write_text("nbr{nbr{1}}\n")
    assert main(["typecheck", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "[T-NBR]" in err


def test_typecheck_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.hfc"
    p.write_text("rep(0){\n")
    assert main(["typecheck", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_exit_2(capsys):
    assert main(["typecheck", "/no/such/file.hfc"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["program", "scenario"])
def test_non_utf8_file_is_exit_2(position, counter, tmp_path, capsys):
    bad = tmp_path / "bad.hfc"
    bad.write_bytes(b"\xff\xfe bad")
    argv = ["typecheck", str(bad)] if position == "program" else ["run", counter, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["corpus-test", "run"])
def test_closed_stdout_is_exit_1_without_traceback(command, counter, one_device):
    argv = [command] + ([counter, one_device] if command == "run" else [])
    src = str(Path(fieldcalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    r, w = os.pipe()
    os.close(r)  # the reader is gone before fieldc writes a byte
    try:
        proc = subprocess.run([sys.executable, "-m", "fieldcalc.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_the_parser_is_built_once_and_parses_as_a_fresh_one(counter, one_device,
                                                            monkeypatch, capsys):
    argvs = [["run", counter, one_device], ["run", "--fuel", "many", counter],
             ["denot", counter, one_device]]

    def outputs():
        out = []
        for argv in argvs:
            code = main(argv)
            printed = capsys.readouterr()
            out.append((code, printed.out, printed.err))
        return out

    build = cli.build_parser
    monkeypatch.setattr(cli, "parser", build)  # a fresh parser per call
    fresh = outputs()
    monkeypatch.undo()
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli.parser.cache_clear()
    assert outputs() == fresh
    assert len(builds) == 1
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert fresh[1][1] == "" and fresh[1][2].startswith("usage: fieldc run")
    assert "invalid int value: 'many'" in fresh[1][2]
    assert fresh[0][1] and fresh[2][1] and fresh[0][1] != fresh[2][1]


# ---------------------------------------------------------------------------
# run

def test_run_jsonl_roots(counter, one_device, capsys):
    assert main(["run", counter, one_device]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    recs = [json.loads(l) for l in lines]
    assert [r["root"] for r in recs] == [{"num": float(i)} for i in range(1, 6)]
    assert recs[0]["t"] == "1" and recs[0]["device"] == 1
    assert set(recs[0]) == {"t", "device", "root", "tree", "env"}


def test_run_csv(counter, one_device, capsys):
    assert main(["run", counter, one_device, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["t", "device", "root"]
    assert [r[2] for r in rows[1:]] == ["1", "2", "3", "4", "5"]


def test_run_out_file(counter, one_device, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["run", counter, one_device, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 5


def test_run_is_byte_identical(counter, one_device, capsys):
    main(["run", counter, one_device, "--seed", "7"])
    first = capsys.readouterr().out
    main(["run", counter, one_device, "--seed", "7"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("block", range(4))
def test_run_writes_what_the_records_api_writes(block, tmp_path, capsys):
    """fieldc run makes each fire's text as the fire returns. On 50
    generated program and scenario pairs per block it prints exactly the
    reference JSONL and CSV of run_scenario's records, with and without
    --seed. Every third pair runs on a small fuel budget, so that some
    fail: such a pair exits 1 with the fire's diagnostic, prints nothing,
    and leaves an existing --out file as it was."""
    prog_file, sc_file, out = tmp_path / "p.hfc", tmp_path / "s.json", tmp_path / "out"
    files = [str(prog_file), str(sc_file)]
    failed = 0
    for seed in range(50 * block, 50 * block + 50):
        rnd = random.Random(seed)
        source, obj = pretty_program(ExprGen(rnd).program()), scenario_json(gen_scenario(rnd))
        prog_file.write_text(source)
        sc_file.write_text(json.dumps(obj))
        prog, sc = parse_program(source), scenario_from_json(obj)
        fuel = rnd.randint(0, 30) if seed % 3 == 0 else DEFAULT_FUEL
        for opts in ([], ["--seed", str(seed)]):
            argv = ["run", *files, "--fuel", str(fuel), *opts]
            try:
                trace = run_scenario(sc, prog, fuel=fuel,
                                     rng=random.Random(seed) if opts else None)
            except FireError as e:
                failed += 1
                assert re.match(r"t=\S+ device=\S+: ", str(e))
                out.write_bytes(b"kept\n")
                for fmt in ("json", "csv"):
                    assert main([*argv, "--format", fmt]) == 1
                    assert capsys.readouterr() == ("", f"error: {e}\n")
                    assert main([*argv, "--format", fmt, "--out", str(out)]) == 1
                    assert capsys.readouterr() == ("", f"error: {e}\n")
                    assert out.read_bytes() == b"kept\n"
                continue
            for fmt, want in (("json", run_jsonl(trace)), ("csv", run_csv(trace))):
                assert main([*argv, "--format", fmt]) == 0
                assert capsys.readouterr() == (want, ""), (seed, fmt, opts)
    assert failed >= 10


def _gradient_files(tmp_path, sc):
    prog_file, sc_file = tmp_path / "gradient.hfc", tmp_path / "sc.json"
    prog_file.write_text(corpus_entry("gradient").source)
    sc_file.write_text(json.dumps(scenario_json(sc)))
    return [str(prog_file), str(sc_file), "--out", str(tmp_path / "out")]


def test_run_keeps_no_value_tree_past_its_last_reader(tmp_path, monkeypatch):
    """fieldc run keeps each fire's text, not its record: the most
    value-trees alive as a fire starts is the same for 4 rounds as for
    16, so a fire's tree lives only while some inbox holds it."""
    evaluate, peaks = network.evaluate_main, {}
    for rounds in (4, 16):
        files = _gradient_files(tmp_path, line_scenario(6, rounds=rounds, sensors={
            d: {"sns-injection-point": boolean(d == 0)} for d in range(6)}))
        live = []

        def counting(*args):
            live.append(sum(type(o) is ValueTree for o in gc.get_objects()))
            return evaluate(*args)

        monkeypatch.setattr(network, "evaluate_main", counting)
        gc.freeze()  # get_objects then skips what lived before the run
        try:
            assert main(["run", *files]) == 0
        finally:
            gc.unfreeze()
        peaks[rounds] = max(live)
    assert peaks[4] == peaks[16] > 0


def test_run_writes_each_constant_leaf_once(tmp_path, monkeypatch):
    """The leaves of closed constants and builtin names, which a compiled
    node makes once, keep their text: while fieldc run writes corpus
    gradient on a static 4 x 4 grid, the writer prints a function value
    as often for 2 rounds as for 8."""
    pretty, calls = device.pretty, {}
    for rounds in (2, 8):
        sc = static_scenario({d: (d % 4, d // 4) for d in range(16)}, radius=1.5, decay=100,
                             fires=[(r + F(d, 16), d) for r in range(rounds) for d in range(16)],
                             sensors={d: {"sns-injection-point": boolean(d == 0)}
                                      for d in range(16)})
        files = _gradient_files(tmp_path, sc)
        n = calls[rounds] = [0]

        def counting(v):
            n[0] += 1
            return pretty(v)

        monkeypatch.setattr(device, "pretty", counting)
        assert main(["run", *files]) == 0
    assert calls[2] == calls[8] != [0]


def test_run_bad_scenario_json(counter, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["run", counter, str(p)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_invalid_scenario_shape(counter, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"devices": [1]}')
    assert main(["run", counter, str(p)]) == 2
    assert "lacks keys" in capsys.readouterr().err


def test_run_eval_error_is_exit_1(one_device, tmp_path, capsys):
    p = tmp_path / "needy.hfc"
    p.write_text("sns-num()\n")
    assert main(["run", str(p), one_device]) == 1
    assert "sns-num" in capsys.readouterr().err


def test_run_decay_override_changes_behaviour(tmp_path, capsys):
    sc = dict(ONE_DEVICE)
    prog = tmp_path / "p.hfc"
    prog.write_text("min-hood(nbr{rep(0){(x) => x + 1}})\n")
    scf = tmp_path / "sc.json"
    scf.write_text(json.dumps(sc))
    main(["run", str(prog), str(scf), "--format", "csv"])
    with_memory = capsys.readouterr().out
    main(["run", str(prog), str(scf), "--format", "csv", "--decay", "0"])
    amnesiac = capsys.readouterr().out
    assert with_memory != amnesiac


# ---------------------------------------------------------------------------
# denot

def test_denot_on_scenario(counter, one_device, capsys):
    assert main(["denot", counter, one_device]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["value"] for r in recs] == [{"num": float(i)} for i in range(1, 6)]


def test_denot_on_dag_file(counter, tmp_path, capsys):
    g = EventDAG(
        [Event(1, 1, F(1)), Event(2, 1, F(2)), Event(3, 1, F(3))],
        [(1, 2), (2, 3)],
    )
    p = tmp_path / "dag.json"
    p.write_text(json.dumps(dag_to_json(g)))
    assert main(["denot", counter, str(p)]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["value"] for r in recs] == [{"num": float(i)} for i in (1, 2, 3)]


def test_denot_csv_quotes_structured_values(tmp_path, one_device, capsys):
    prog = tmp_path / "pair.hfc"
    prog.write_text("Pair(1, 2)\n")
    assert main(["denot", str(prog), one_device, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["event", "t", "device", "value"]
    assert json.loads(rows[1][3]) == {
        "data": "Pair", "args": [{"num": 1.0}, {"num": 2.0}],
    }


# every output format against the reference records, on three devices
# whose sensors read values JSON has no literal for
LINE3 = {
    "devices": [1, 2, 3],
    "radius": 1.5,
    "decay": 3,
    "paths": {str(d): [{"from": 0, "to": 20, "waypoints": [[d, 0]]}] for d in (1, 2, 3)},
    "fires": [{"t": f"{3 * r + d}/2", "device": d} for r in range(4) for d in (1, 2, 3)],
    "sensors": {str(d): {"sns-num": x, "sns-injection-point": d == 1}
                for d, x in ((1, "NaN"), (2, "-infinity"), (3, 1e300))},
}

RECORD_SOURCES = [
    COUNTER,
    corpus_entry("gradient").source,
    "Pair(uid(), (é) => é)\n",
    "rep(Null){(l) => Cons(Pair(min-hood(nbr{sns-num()}), uid() < 2), l)}\n",
    "Pair(-infinity, Pair(5e-324, min-hood+(nbr{sns-num()})))\n",
]


@pytest.mark.parametrize("source", RECORD_SOURCES, ids=range(len(RECORD_SOURCES)))
def test_every_output_is_the_reference_records(source, tmp_path, capsys):
    prog_file, sc_file = tmp_path / "p.hfc", tmp_path / "s.json"
    prog_file.write_text(source)
    sc_file.write_text(json.dumps(LINE3))
    prog, sc = parse_program(source), scenario_from_json(LINE3)
    trace, g = run_scenario(sc, prog), build_dag_from_scenario(sc)
    denots, verdicts = denotation(g, prog), []
    want = {
        ("run",): run_jsonl(trace),
        ("run", "--format", "csv"): csv_text(["t", "device", "root"], (
            [str(r.t), r.device, value_text(r.root)] for r in trace.records)),
        ("denot",): denot_jsonl(g.events, denots),
        ("denot", "--format", "csv"): csv_text(["event", "t", "device", "value"], (
            [e.id, str(e.time), e.device, value_text(denots[e])] for e in g.events)),
        ("check-adequacy", "--format", "json"): report_json(
            check_adequacy(sc, prog, sink=verdicts.append), verdicts) + "\n",
    }
    for (command, *opts), text in want.items():
        assert main([command, str(prog_file), str(sc_file), *opts]) == 0
        assert capsys.readouterr().out == text, (command, *opts)


def test_denot_missing_sensor_is_exit_1(tmp_path, capsys):
    g = EventDAG([Event(1, 1, F(1))], [])
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps(dag_to_json(g)))
    prog = tmp_path / "needy.hfc"
    prog.write_text("sns-num()\n")
    assert main(["denot", str(prog), str(dag)]) == 1
    assert "sns-num" in capsys.readouterr().err


def test_denot_rejects_seed(counter, one_device, capsys):
    assert main(["denot", counter, one_device, "--seed", "7"]) == 2


@pytest.mark.parametrize("override", [["--radius", "-3"], ["--radius", "2"], ["--decay", "5"]])
def test_denot_rejects_scenario_overrides_on_a_dag_file(counter, tmp_path, capsys, override):
    """--radius and --decay override a scenario; on an event DAG file they
    would be silently ignored, so denot exits 2 and names the option."""
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps(dag_to_json(EventDAG([Event(1, 1, F(1))], []))))
    assert main(["denot", counter, str(dag)]) == 0
    capsys.readouterr()
    assert main(["denot", counter, str(dag), *override]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {dag}: {override[0]} overrides a scenario, " \
                                 "not an event DAG\n"


def test_denot_and_check_adequacy_report_the_same_first_failure(tmp_path, capsys):
    """Both denote a scenario in the sweep's time order, so both stop at
    the first fire that fails in time: device 2 at t=2, which lacks the
    sensor. Device 3 at t=3 lacks it too, and hears nobody."""
    sc = static_scenario({1: (0, 0), 2: (1, 0), 3: (10, 0)}, radius=1.5, decay=10,
                         fires=[(1, 1), (2, 2), (3, 3)], sensors={1: {"sns-num": num(4)}})
    prog, sc_file = tmp_path / "sense.hfc", tmp_path / "sc.json"
    prog.write_text("sns-num()\n")
    sc_file.write_text(json.dumps(scenario_json(sc)))
    for command in ("denot", "check-adequacy"):
        assert main([command, str(prog), str(sc_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("sensor sns-num not available at device 2\n"), err


def test_denot_bad_dag_file(counter, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text('{"events": [], "neigh": [[1, 2]]}')
    assert main(["denot", counter, str(p)]) == 2


# device 2's event at t=5 is independent of device 1's two, so the causal
# generations were (1, 2), (3), where the output is in (time, id) order
FORWARD_DAG = {"events": [{"id": 1, "device": 1, "time": "1"}, {"id": 2, "device": 2, "time": "5"},
                          {"id": 3, "device": 1, "time": "2"}], "neigh": [[1, 3]]}
# event 1 at t=5 feeds event 2 at t=1: an edge that points backward in time
BACKWARD_DAG = {"events": [{"id": 1, "device": 1, "time": "5"}, {"id": 2, "device": 2, "time": "1"},
                           {"id": 3, "device": 1, "time": "6"}], "neigh": [[1, 2], [1, 3]]}


@pytest.mark.parametrize("dag, order", [(FORWARD_DAG, (1, 3, 2)), (BACKWARD_DAG, (1, 2, 3))],
                         ids=["forward", "backward"])
def test_denot_writes_a_dag_in_its_replay_order(dag, order, counter, tmp_path, capsys):
    """denot writes a DAG's events in the replay's order: the least (time,
    id) of the events whose senders have all run comes next. When every
    edge points forward in (time, id), that is (time, id) order; an edge
    backward in time puts its sender first."""
    p = tmp_path / "dag.json"
    p.write_text(json.dumps(dag))
    assert main(["denot", counter, str(p)]) == 0
    times = {e["id"]: e["time"] for e in dag["events"]}
    devices = {e["id"]: e["device"] for e in dag["events"]}
    values = {1: 1, 2: 1, 3: 2}
    assert capsys.readouterr().out == "".join(
        f'{{"device":{devices[i]},"event":{i},"t":"{times[i]}","value":{{"num":{values[i]}.0}}}}\n'
        for i in order)


def test_run_and_check_adequacy_take_a_dag_file(tmp_path, capsys):
    """run fires the program at each event of a DAG file, as denot denotes
    it: env lists the devices of the event's senders. check-adequacy
    compares the two sides there, counting its events."""
    prog, p = tmp_path / "heard.hfc", tmp_path / "dag.json"
    prog.write_text("sum-hood+(nbr{uid()}) + rep(0){(x) => x + 1}\n")
    p.write_text(json.dumps(BACKWARD_DAG))
    assert main(["run", str(prog), str(p)]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["device"], r["t"], r["env"], r["root"]) for r in recs] == [
        (1, "5", [], {"num": 1.0}), (2, "1", [1], {"num": 2.0}), (1, "6", [1], {"num": 2.0})]
    assert main(["check-adequacy", str(prog), str(p)]) == 0
    assert capsys.readouterr().out == "3/3 events equal\n"
    assert main(["denot", str(prog), str(p), "--format", "csv"]) == 0
    assert [r[3] for r in csv.reader(io.StringIO(capsys.readouterr().out))][1:] == ["1", "2", "2"]


def test_a_dag_event_senses_nothing(tmp_path, capsys):
    """A DAG file carries no sensor readings, so under every command a
    sensor or nbr-range is not available, an evaluation error. The error
    names the first event that fails in replay order: in the last program
    events 2 and 3 both sense, and event 3 (device 1, t=2) comes first."""
    p = tmp_path / "dag.json"
    p.write_text(json.dumps(FORWARD_DAG))
    for source, err in (("sns-num()\n", "sensor sns-num not available at device 1"),
                        ("min-hood+(nbr-range())\n", "nbr-range not available at device 1"),
                        ("if (uid() < 2) { if (1 < rep(0){(x) => x + 1}) { sns-num() } "
                         "else { 0 } } else { sns-num() }\n",
                         "sensor sns-num not available at device 1")):
        prog = tmp_path / "sense.hfc"
        prog.write_text(source)
        for command in ("run", "denot", "check-adequacy"):
            assert main([command, str(prog), str(p)]) == 1
            out, got = capsys.readouterr()
            assert out == "" and got.endswith(err + "\n"), (command, got)


TWO_EVENTS = [{"id": 1, "device": 1, "time": "0"}, {"id": 2, "device": 2, "time": "1"}]
BAD_DAG_INPUTS = {
    "--decay on a DAG": ({"events": TWO_EVENTS, "neigh": []}, ["--decay", "5"],
                         "--decay overrides a scenario, not an event DAG"),
    "--radius on a DAG": ({"events": TWO_EVENTS, "neigh": []}, ["--radius", "2"],
                          "--radius overrides a scenario, not an event DAG"),
    "cycle": ({"events": TWO_EVENTS, "neigh": [[1, 2], [2, 1]]}, [],
              "neigh violates cycle (events 1, 2, 1)"),
    "duplicate device": ({"events": [{"id": i, "device": 1, "time": str(i)} for i in (1, 2, 3)],
                          "neigh": [[1, 3], [2, 3]]}, [], "duplicate-device (events 1, 2, 3)"),
    "double consumption": ({"events": [{"id": i, "device": 1, "time": str(i)} for i in (1, 2, 3)],
                            "neigh": [[1, 2], [1, 3]]}, [], "double-consumption (events 1, 2, 3)"),
    "unknown edge end": ({"events": [], "neigh": [[1, 2]]}, [],
                         "neigh edge (1, 2) references unknown events"),
    "event without time": ({"events": [{"id": 1, "device": 1}], "neigh": []}, [],
                           "DAG event lacks key 'time'"),
    "neigh edge not a pair": ({"events": TWO_EVENTS, "neigh": [[1]]}, [],
                              "neigh edge must be [id, id], got [1]"),
    "no neigh": ({"events": TWO_EVENTS}, [], "DAG file must be an object with keys events, neigh"),
}


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
@pytest.mark.parametrize("case", sorted(BAD_DAG_INPUTS))
def test_a_bad_dag_input_is_exit_2_under_every_command(command, case, counter, tmp_path, capsys):
    obj, opts, msg = BAD_DAG_INPUTS[case]
    p = tmp_path / "dag.json"
    p.write_text(json.dumps(obj))
    assert main([command, counter, str(p), *opts]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {p}: ") and msg in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["run"], ["denot"], ["check-adequacy", "--format", "json"]],
                         ids=["run", "denot", "check-adequacy"])
def test_an_edge_listed_twice_runs_as_listed_once(command, tmp_path, capsys):
    """A DAG file that repeats edges writes what it writes with each edge
    listed once: the DAG holds each edge once."""
    prog = tmp_path / "heard.hfc"
    prog.write_text("sum-hood+(nbr{uid()}) + rep(0){(x) => x + 1}\n")
    rnd, runs = random.Random(7), 0
    while runs < 10:
        dag = dag_to_json(gen_dag(rnd))
        if not dag["neigh"]:
            continue
        runs += 1
        outs = []
        for neigh in (dag["neigh"], [*dag["neigh"], *rnd.choices(dag["neigh"], k=3)]):
            p = tmp_path / "dag.json"
            p.write_text(json.dumps({**dag, "neigh": neigh}))
            outs.append((main([*command, str(prog), str(p)]), capsys.readouterr()))
        assert outs[0][0] == 0 and outs[1] == outs[0]


def test_denot_calls_denot_program_once_for_any_input(counter, one_device, tmp_path,
                                                      monkeypatch):
    """fieldc denot of a scenario and of a DAG file each goes through one
    call of cli.denot_program, the name a tracer wraps to time the
    denotation."""
    calls = []
    real = cli.denot_program
    monkeypatch.setattr(cli, "denot_program", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    p = tmp_path / "dag.json"
    p.write_text(json.dumps(FORWARD_DAG))
    assert main(["denot", counter, one_device, "--out", str(tmp_path / "a")]) == 0
    assert main(["denot", counter, str(p), "--out", str(tmp_path / "b")]) == 0
    assert [type(src).__name__ for src in calls] == ["Scenario", "EventDAG"]


# ---------------------------------------------------------------------------
# check-adequacy

def test_check_adequacy_summary_line(counter, one_device, capsys):
    assert main(["check-adequacy", counter, one_device]) == 0
    assert capsys.readouterr().out == "5/5 events equal\n"


# devices 1 to 3 at x = 1 to 3 in reach of their line neighbours only,
# firing in turn at t = k/3
THREE_ON_A_LINE = {
    "devices": [1, 2, 3],
    "radius": 1.5,
    "decay": 100,
    "paths": {str(d): [{"from": 0, "to": 10, "waypoints": [[d, 0]]}] for d in (1, 2, 3)},
    "fires": [{"t": f"{k}/3", "device": k % 3 + 1} for k in range(9)],
}

# (program, its roots): builtin names as values, applied where the program
# computes them and where fold-hood calls them
BUILTIN_VALUES = [
    ("((f) => f(1, 2))(+)", ["3"] * 9),
    ("fold-hood(+, nbr{uid()})", ["1", "3", "5", "3", "6", "5", "3", "6", "5"]),
    ("mux(uid() < 2, +, -)(3, 1)", ["4", "2", "2"] * 3),
]


@pytest.mark.parametrize("source, roots", BUILTIN_VALUES, ids=["passed", "folded", "chosen"])
def test_builtin_values_applied_at_run_time(source, roots, tmp_path, capsys):
    """The roots are pinned: both sides of check-adequacy apply a function
    that a builtin calls on one path, so agreement alone would not show a
    fault there."""
    prog, sc = tmp_path / "prog.hfc", tmp_path / "line.json"
    prog.write_text(source + "\n")
    sc.write_text(json.dumps(THREE_ON_A_LINE))
    assert main(["run", str(prog), str(sc), "--format", "csv"]) == 0
    assert [r["root"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))] == roots
    assert main(["check-adequacy", str(prog), str(sc)]) == 0
    assert capsys.readouterr().out == "9/9 events equal\n"


def test_check_adequacy_json_report(counter, one_device, capsys):
    assert main(["check-adequacy", counter, one_device,
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["first_counterexample"] is None
    assert len(report["events"]) == 5


def test_check_adequacy_rejects_seed(counter, one_device, capsys):
    assert main(["check-adequacy", counter, one_device, "--seed", "3"]) == 2


def test_check_adequacy_mismatch_is_exit_1(counter, one_device, capsys,
                                           monkeypatch):
    bad = AdequacyReport(1, 0, Verdict(1, F(1), 1, num(1), num(2), False))
    monkeypatch.setattr("fieldcalc.cli.check_adequacy",
                        lambda sc, prog, fuel, sink: bad)
    assert main(["check-adequacy", counter, one_device]) == 1
    captured = capsys.readouterr()
    assert captured.out == "0/1 events equal\n"
    assert "denotational 1" in captured.err


def _one_device_on(tmp_path, *segs):
    sc = {**ONE_DEVICE,
          "paths": {"1": [{"from": a, "to": b, "waypoints": [[0, 0]]}
                          for a, b in segs]},
          "fires": [{"t": 4, "device": 1}, {"t": 6, "device": 1}]}
    p = tmp_path / "segs.json"
    p.write_text(json.dumps(sc))
    return str(p)


def test_check_adequacy_on_abutting_segments(counter, tmp_path, capsys):
    # the device stays on across the seam at t=5, so both sides count 1, 2
    sc = _one_device_on(tmp_path, (0, 5), (5, 10))
    assert main(["check-adequacy", counter, sc]) == 0
    assert capsys.readouterr().out == "2/2 events equal\n"


def test_check_adequacy_on_gapped_segments(counter, tmp_path, capsys):
    # off during (5, 11/2): the reboot drops the count, on both sides
    sc = _one_device_on(tmp_path, (0, 5), ("11/2", 10))
    assert main(["check-adequacy", counter, sc, "--format", "json"]) == 0
    events = json.loads(capsys.readouterr().out)["events"]
    assert [(e["t"], e["denotational"], e["operational"]) for e in events] == [
        ("4", {"num": 1.0}, {"num": 1.0}), ("6", {"num": 1.0}, {"num": 1.0})]


# Which error check-adequacy reports: the first failure in time order, and
# at one fire the device's before the denotation's. Under --fuel 50 each
# fire of CLOSURES fits its budget, but each event of the denotation pays for
# the body of every cluster it enters (main's, k's and the closure's) from a
# budget of --fuel, which the first event already overspends.
CLOSURES = """def k(x) { () => x + x + x + x + x + x + x + x }
sns-num() + k(rep(0){(c) => c + 1})()
"""
DENOT_OUT_OF_FUEL = "error: denotational evaluation fuel exhausted\n"


def _sns_num_scenario(tmp_path, script, fires):
    sc = {**ONE_DEVICE, "fires": ONE_DEVICE["fires"][:fires],
          "sensors": {"1": {"sns-num": script}}}
    p = tmp_path / f"sns-{fires}.json"
    p.write_text(json.dumps(sc))
    return str(p)


@pytest.fixture
def closures(tmp_path):
    p = tmp_path / "closures.hfc"
    p.write_text(CLOSURES)
    return str(p)


def test_check_adequacy_reports_an_earlier_denotational_failure_first(
        closures, tmp_path, capsys):
    # alone, the first fire runs, and its event's denotation fails
    first = _sns_num_scenario(tmp_path, 1, 1)
    assert main(["run", closures, first, "--fuel", "50"]) == 0
    capsys.readouterr()
    assert main(["check-adequacy", closures, first, "--fuel", "50"]) == 1
    assert capsys.readouterr().err == DENOT_OUT_OF_FUEL
    # sns-num turns boolean at t=4, where the fourth fire fails; the
    # denotation failed at the first event, so that failure is reported
    sc = _sns_num_scenario(tmp_path, {"steps": [[0, 1], [4, True]]}, 5)
    assert main(["run", closures, sc, "--fuel", "50"]) == 1
    assert capsys.readouterr().err.startswith("error: t=4 device=1: + expects numbers")
    assert main(["check-adequacy", closures, sc, "--fuel", "50"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", DENOT_OUT_OF_FUEL)


def test_check_adequacy_reports_the_device_failure_at_the_same_event(
        closures, tmp_path, capsys):
    # a boolean sns-num fails the first fire, whose event's denotation
    # would run out of fuel as above: the device's error is reported
    sc = _sns_num_scenario(tmp_path, True, 1)
    assert main(["check-adequacy", closures, sc, "--fuel", "50"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: t=1 device=1: + expects numbers")


# ---------------------------------------------------------------------------
# corpus-test

def test_corpus_test_lists_every_entry(capsys):
    assert main(["corpus-test"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(": ok (" in l for l in lines)
    assert lines == sorted(lines)


# ---------------------------------------------------------------------------
# usage and diagnostics

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "typecheck" in capsys.readouterr().out


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


MALFORMED_SCENARIOS = {
    **{f"segment without {key}": {**ONE_DEVICE, "paths": {"1": [_without(
        ONE_DEVICE["paths"]["1"][0], key)]}} for key in ("from", "to", "waypoints")},
    **{f"fire without {key}": {**ONE_DEVICE, "fires": [_without(
        ONE_DEVICE["fires"][0], key)]} for key in ("device", "t")},
}


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_a_diagnostic(counter, tmp_path, capsys, case, command):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(MALFORMED_SCENARIOS[case]))
    assert main([command, counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert f"lacks key '{case.split()[-1]}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["id", "device", "time"])
def test_malformed_dag_event_is_a_diagnostic(counter, tmp_path, capsys, key):
    event = _without({"id": 1, "device": 1, "time": "1"}, key)
    p = tmp_path / "dag.json"
    p.write_text(json.dumps({"events": [event], "neigh": []}))
    assert main(["denot", counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert f"DAG event lacks key '{key}'" in err
    assert "Traceback" not in err


ONE_EVENT = {"events": [{"id": 1, "device": 1, "time": "1"}], "neigh": []}

MALFORMED_SHAPES = {
    "waypoint not a pair": ("run", {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [[0, 0, 0]]}]}}, "path segment 0 of device 1 must be"),
    "device id not numeric": ("run", {**ONE_DEVICE, "devices": ["one"]},
                              "must be an integer"),
    "paths a list": ("run", {**ONE_DEVICE, "paths": [ONE_DEVICE["paths"]["1"]]},
                     "paths must be a JSON object"),
    "fire not an object": ("run", {**ONE_DEVICE, "fires": [[1, 1]]},
                           "fire 0 must be"),
    "fire device a float": ("run", {**ONE_DEVICE, "fires": [{"t": 1, "device": 1.0}]},
                            "device of fire 0 must be an integer"),
    "waypoint coordinate not a number": ("check-adequacy", {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [[0, "left"]]}]}}, "[[0, 'left']]"),
    "sensor value not a value": ("denot", {**ONE_DEVICE, "sensors": {"1": {
        "sns-num": "(("}}}, "cannot read sensor value"),
    "neigh edge not a pair": ("denot", {**ONE_EVENT, "neigh": [[1]]},
                              "neigh edge must be [id, id], got [1]"),
    "neigh edge end not an id": ("denot", {**ONE_EVENT, "neigh": [[1, None]]},
                                 "neigh edge end must be an integer"),
    "DAG event not an object": ("denot", {**ONE_EVENT, "events": [1]},
                                "DAG event must be"),
    "DAG event id a float": ("denot", {**ONE_EVENT, "events": [
        {"id": 1.5, "device": 1, "time": "1"}]}, "DAG event id must be an integer"),
    "radius negative": ("run", {**ONE_DEVICE, "radius": -1},
                        "radius must be a number >= 0, got -1"),
    "radius NaN": ("denot", {**ONE_DEVICE, "radius": "nan"},
                   "radius must be a number >= 0, got 'nan'"),
    "decay negative": ("check-adequacy", {**ONE_DEVICE, "decay": -1},
                       "decay must be >= 0, got -1"),
    # a non-finite waypoint puts a device at NaN distance from itself
    "waypoint NaN": ("run", {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [[math.nan, 0]]}]}},
        "path segment 0 of device 1: waypoints must be finite, got [[nan, 0]]"),
    "waypoint Infinity": ("check-adequacy", {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [[math.inf, 0]]}]}},
        "path segment 0 of device 1: waypoints must be finite"),
    "waypoint 'inf'": ("denot", {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [["inf", 0]]}]}},
        "path segment 0 of device 1: waypoints must be finite"),
    # JSON booleans are no numbers, though Python's float() reads them
    "radius a boolean": ("run", {**ONE_DEVICE, "radius": True},
                         "radius must be a number >= 0, got True"),
    "waypoint booleans": ("check-adequacy", {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [[True, False]]}]}},
        "path segment 0 of device 1: waypoints must be numbers, got [[True, False]]"),
    # a misspelt sensor would never be read
    "sensor name no builtin": ("run", {**ONE_DEVICE, "sensors": {"1": {"sns-rnage": 3}}},
                               "unknown sensor 'sns-rnage' for device 1"),
    "scenario not an object": ("run", [], "scenario must be a JSON object"),
    "sensor step not a pair": ("check-adequacy", {**ONE_DEVICE, "sensors": {"1": {
        "sns-num": {"steps": [[1]]}}}}, "sensor step must be [time, value], got [1]"),
    "sensor value not closed": ("denot", {**ONE_DEVICE, "sensors": {"1": {
        "sns-num": "nbr{1}"}}}, "expression is not a closed value"),
    # an events key makes the file an event DAG under every command
    "scenario with an events key (run)": ("run", {**ONE_DEVICE, "events": []},
                                          "DAG file must be an object with keys events, neigh"),
    "scenario with an events key (check-adequacy)": (
        "check-adequacy", {**ONE_DEVICE, "events": []},
        "DAG file must be an object with keys events, neigh"),
    # a file with the keys of both shapes is neither, under every command
    **{f"scenario with events and neigh keys ({command})": (
        command, {**ONE_DEVICE, "events": [], "neigh": []},
        ": DAG file holds the scenario keys decay, devices, fires, paths, radius\n")
       for command in ("run", "denot", "check-adequacy")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
def test_malformed_shape_is_a_diagnostic(counter, tmp_path, capsys, case):
    command, obj, msg = MALFORMED_SHAPES[case]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    assert main([command, counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert msg in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "check-adequacy"])
def test_overflowing_waypoint_step_is_exit_2(counter, tmp_path, capsys, command):
    # each waypoint is finite, but the step between them is not: the
    # device's position would not be finite and it would never hear itself
    # (the counter read 1, 1, 1 and adequacy held on 3/3 events)
    sc = {**ONE_DEVICE, "paths": {"1": [
        {"from": 0, "to": 10, "waypoints": [[-1e308, 0], [1e308, 0]]}]},
        "fires": [{"t": t, "device": 1} for t in (1, 2, 3)]}
    p = tmp_path / "far.json"
    p.write_text(json.dumps(sc))
    assert main([command, counter, str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "path segment 0 of device 1: consecutive waypoints must differ" in err
    assert "Traceback" not in err


def test_denot_rejects_a_cyclic_dag(counter, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text(json.dumps({
        "events": [{"id": 1, "device": 1, "time": "0"}, {"id": 2, "device": 2, "time": "1"}],
        "neigh": [[1, 2], [2, 1]],
    }))
    assert main(["denot", counter, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cycle (events 1, 2, 1)" in captured.err


def test_denot_rejects_two_same_device_predecessors(counter, tmp_path, capsys):
    """A duplicate-device violation names the two senders in the order the
    file lists their edges, then the receiver."""
    p = tmp_path / "dag.json"
    for neigh, named in (([[1, 3], [2, 3]], "1, 2, 3"), ([[2, 3], [1, 3]], "2, 1, 3")):
        p.write_text(json.dumps({
            "events": [{"id": i, "device": 1, "time": str(i)} for i in (1, 2, 3)],
            "neigh": neigh,
        }))
        assert main(["denot", counter, str(p)]) == 2
        assert f"duplicate-device (events {named})" in capsys.readouterr().err


def test_bad_timestamps_are_diagnostics(counter, one_device, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text(json.dumps({"events": [{"id": 1, "device": 1, "time": "soon"}],
                             "neigh": []}))
    assert main(["denot", counter, str(p)]) == 2
    assert main(["run", counter, one_device, "--decay", "soon"]) == 2
    err = capsys.readouterr().err
    assert err.count("not a timestamp") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
def test_non_boolean_sensor_value_is_exit_1(command, tmp_path, capsys):
    prog = tmp_path / "guard.hfc"
    prog.write_text("mux(sns-injection-point(), 1, 0)\n")
    p = tmp_path / "sensed.json"
    p.write_text(json.dumps({**ONE_DEVICE, "sensors": {"1": {"sns-injection-point": -1}}}))
    assert main([command, str(prog), str(p)]) == 1
    err = capsys.readouterr().err
    assert "mux expects a boolean, got" in err
    assert "Traceback" not in err


def test_denot_of_a_fire_while_off_is_exit_1(counter, tmp_path, capsys):
    sc = {**ONE_DEVICE, "fires": [{"t": 20, "device": 1}]}
    p = tmp_path / "off.json"
    p.write_text(json.dumps(sc))
    assert main(["denot", counter, str(p)]) == 1
    assert "not in the network" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deep recursion and nesting end in a diagnostic

@pytest.mark.parametrize("command, source", [
    ("run", "def f(x) { f(x + 1) }\nf(0)\n"),
    ("denot", "def f(x) { f(x + 1) }\nf(0)\n"),
    ("typecheck", "(" * 3000 + "1" + ")" * 3000 + "\n"),
], ids=["run", "denot", "typecheck"])
def test_deep_recursion_is_a_diagnostic(command, source, one_device, tmp_path, capsys):
    p = tmp_path / "deep.hfc"
    p.write_text(source)
    argv = [command, str(p)] + ([] if command == "typecheck" else [one_device])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


CONS_ONTO = "rep(Null){(l) => Cons(1, l)}\n"


def cons_onto_files(tmp_path, n):
    """The rep that conses onto its list, and a scenario of n fires of one
    device, as files; and that scenario."""
    sc = {**ONE_DEVICE, "paths": {"1": [{"from": 0, "to": n + 1, "waypoints": [[0, 0]]}]},
          "fires": [{"t": t, "device": 1} for t in range(1, n + 1)]}
    prog_file, sc_file = tmp_path / "cons.hfc", tmp_path / "cons.json"
    prog_file.write_text(CONS_ONTO)
    sc_file.write_text(json.dumps(sc))
    return str(prog_file), str(sc_file), sc


def fresh_fieldc(*argv):
    """fieldc argv in a fresh interpreter, whose stack holds nothing else."""
    src = str(Path(fieldcalc.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "fieldcalc.cli", *argv],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_a_list_as_deep_as_the_evaluator_builds_is_written(tmp_path):
    """450 fires of a rep that conses onto its list: fieldc run, in a fresh
    interpreter, builds lists 450 deep and writes them as the reference
    does. The reference takes 4 frames a level, so it runs here under a
    raised recursion limit, and on every 25th fire and the deepest 5 (its
    time grows with the square of the depth)."""
    n = 450
    prog_file, sc_file, sc = cons_onto_files(tmp_path, n)
    proc = fresh_fieldc("run", prog_file, sc_file)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.decode().splitlines(keepends=True)
    assert len(lines) == n
    sample = [*range(0, n, 25), *range(n - 5, n)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * n)
    try:
        trace = run_scenario(scenario_from_json(sc), parse_program(CONS_ONTO))
        want = run_jsonl(FireTrace([trace.records[i] for i in sample]))
    finally:
        sys.setrecursionlimit(limit)
    assert "".join(lines[i] for i in sample) == want


def test_every_command_takes_a_list_1200_deep(tmp_path):
    """1,200 fires of the same rep: run, denot and check-adequacy each exit
    0 in a fresh interpreter, past Python's recursion limit of 1,000; the
    two semantics agree at every event, whose values Data's equality
    compares without recursion; and the last record of run and of denot
    holds the list 1,200 deep, written without recursion."""
    n = 1200
    prog_file, sc_file, _ = cons_onto_files(tmp_path, n)
    deepest = '{"args":[{"num":1.0},' * n + '{"args":[],"data":"Null"}' + '],"data":"Cons"}' * n
    for command, want in (("run", f'"root":{deepest},"t":"{n}"'),
                          ("denot", f'"t":"{n}","value":{deepest}}}\n'),
                          ("check-adequacy", f"{n}/{n} events equal\n")):
        out = tmp_path / command
        proc = fresh_fieldc(command, prog_file, sc_file, "--out", str(out))
        assert proc.returncode == 0, (command, proc.stderr.decode())
        with open(out, "rb") as f:  # run writes about 80 MB: only its end is read
            f.seek(max(0, out.stat().st_size - 4 * len(deepest)))
            last = f.read().decode().splitlines(keepends=True)[-1]
        out.unlink()
        assert want in last, command


def test_a_function_recursing_110_calls_deep_runs_and_checks(one_device, tmp_path):
    """build(110), a program's own function recursing 110 calls deep on
    one device: run and check-adequacy each exit 0 in a fresh interpreter,
    under Python's default recursion limit of 1,000, and run's last record
    holds the list. The device evaluator spends 8 frames per call level
    and reaches 121 levels; at 13 frames per level (10 on Python 3.12 and
    later) it stopped at 74 (97)."""
    n = 110
    p = tmp_path / "build.hfc"
    p.write_text("def build(n) { if (n < 1) { Null } else { Cons(n, build(n - 1)) } }\n"
                 f"build({n})\n")
    listed = "".join(f'{{"args":[{{"num":{k}.0}},' for k in range(n, 0, -1))
    deepest = listed + '{"args":[],"data":"Null"}' + '],"data":"Cons"}' * n
    for command, want in (("run", f'"root":{deepest},"t":"5"'),
                          ("check-adequacy", "5/5 events equal\n")):
        proc = fresh_fieldc(command, str(p), one_device)
        assert proc.returncode == 0, (command, proc.stderr.decode())
        assert want in proc.stdout.decode().splitlines(keepends=True)[-1], command


def test_writing_fresh_deep_lists_holds_no_text_past_its_record(tmp_path):
    """fieldc denot of a list 50 deep, built afresh at each of 12 events:
    beyond what the denotation itself holds, writing it takes memory of
    the order of its output, not a text for every suffix of every list."""
    source = "def build(n) { if (n < 1) { Null } else { Cons(n, build(n - 1)) } }\nbuild(50)\n"
    n = 12
    sc = {**ONE_DEVICE, "paths": {"1": [{"from": 0, "to": n + 1, "waypoints": [[0, 0]]}]},
          "fires": [{"t": t, "device": 1} for t in range(1, n + 1)]}
    prog_file, sc_file, out = tmp_path / "build.hfc", tmp_path / "build.json", tmp_path / "out"
    prog_file.write_text(source)
    sc_file.write_text(json.dumps(sc))
    tracemalloc.start()
    try:
        denotation(build_dag_from_scenario(scenario_from_json(sc)), parse_program(source))
        held = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["denot", str(prog_file), str(sc_file), "--out", str(out)]) == 0
        command = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 50 * 30 * n
    assert command - held < 5 * size


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
def test_deeply_nested_json_is_exit_2(command, counter, tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{p}: JSON nested too deep to read" in err
    assert "Traceback" not in err


def test_integer_of_over_4300_digits_is_exit_2(counter, tmp_path, capsys):
    # valid JSON that Python's int conversion refuses to read
    p = tmp_path / "huge.json"
    p.write_text('{"devices": [' + "1" * 5000 + "]}")
    assert main(["run", counter, str(p)]) == 2
    assert f"{p}: not valid JSON" in capsys.readouterr().err


# each time is read as an exact rational and printed on every output line,
# so one whose numerator or denominator has more digits than Python
# converts to text is refused as it is read, before an exponent expands
TOO_LONG_TIMES = {
    "fire": ({**ONE_DEVICE, "fires": [{"t": "1e-5000", "device": 1}]}, [],
             "fire 0: timestamp has more than 4300 digits, got '1e-5000'"),
    "segment border": ({**ONE_DEVICE, "paths": {"1": [
        {"from": "-1e10000000", "to": 10, "waypoints": [[0, 0]]}]}}, [],
        "path segment 0 of device 1: timestamp has more than 4300 digits, got '-1e10000000'"),
    "sensor step": ({**ONE_DEVICE, "sensors": {"1": {"sns-num": {"steps": [["1e-10000000", 1]]}}}},
                    [], "sensor step: timestamp has more than 4300 digits, got '1e-10000000'"),
    "--decay": (ONE_DEVICE, ["--decay", "1e-5000"],
                "decay: timestamp has more than 4300 digits, got '1e-5000'"),
    "DAG event": ({"events": [{"id": 1, "device": 1, "time": "1e-5000"}], "neigh": []}, [],
                  "DAG event: timestamp has more than 4300 digits, got '1e-5000'"),
    "DAG event, exponent to expand": (
        {"events": [{"id": 1, "device": 1, "time": "2.5e10000000"}], "neigh": []}, [],
        "DAG event: timestamp has more than 4300 digits, got '2.5e10000000'"),
}


@pytest.mark.parametrize("command", [["run"], ["denot"], ["check-adequacy", "--format", "json"]],
                         ids=["run", "denot", "check-adequacy"])
@pytest.mark.parametrize("case", sorted(TOO_LONG_TIMES))
def test_a_time_of_too_many_digits_is_exit_2(command, case, counter, tmp_path, capsys):
    # a fire at t=1e-5000 ended in a traceback from the output writer
    obj, opts, msg = TOO_LONG_TIMES[case]
    p = tmp_path / "long.json"
    p.write_text(json.dumps(obj))
    t0 = time.monotonic()
    assert main([*command, counter, str(p), *opts]) == 2
    assert time.monotonic() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and msg in err, err
    assert "Traceback" not in err


def test_the_longest_printable_time_is_read(counter, tmp_path, capsys):
    """A time of exactly 4300 digits is read, and printed whole."""
    p = tmp_path / "long.json"
    p.write_text(json.dumps({**ONE_DEVICE, "fires": [{"t": "1e-4299", "device": 1}]}))
    assert main(["denot", counter, str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == "1/1" + "0" * 4299


# ---------------------------------------------------------------------------
# program text that no token matches ends in a diagnostic

@settings(max_examples=100, deadline=None)
@given(st.text())
def test_typecheck_of_any_text_is_exit_0_or_1(src):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "any.hfc")
        Path(p).write_text(src, encoding="utf-8")
        assert main(["typecheck", p]) in (0, 1)


def test_non_decimal_digit_in_a_program_is_exit_1(tmp_path, capsys):
    # str.isdigit holds for '²', float() fails on it: this was a ValueError
    p = tmp_path / "sq.hfc"
    p.write_text("2²\n", encoding="utf-8")
    assert main(["typecheck", str(p)]) == 1
    err = capsys.readouterr().err
    assert f"{p}:1:2: error: unexpected character '²'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
def test_non_decimal_digit_in_a_sensor_value_is_exit_2(command, counter, tmp_path, capsys):
    p = tmp_path / "sq.json"
    p.write_text(json.dumps({**ONE_DEVICE, "sensors": {"1": {"sns-num": "2²"}}}),
                 encoding="utf-8")
    assert main([command, counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert "cannot read sensor value '2²'" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# device ids are integers that uid() holds exactly

def _devices_file(tmp_path, devices):
    """Devices side by side, firing once each in the order given."""
    p = tmp_path / "ids.json"
    p.write_text(json.dumps({
        "devices": devices, "radius": 5, "decay": 100,
        "paths": {str(d): [{"from": 0, "to": 10, "waypoints": [[0, 0]]}] for d in devices},
        "fires": [{"t": t, "device": d} for t, d in enumerate(devices, 1)],
    }))
    return str(p)


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
def test_device_id_beyond_a_float_is_exit_2(command, tmp_path, capsys):
    # uid() read 10**400 as a float: an OverflowError traceback
    prog = tmp_path / "uid.hfc"
    prog.write_text("uid()\n")
    assert main([command, str(prog), _devices_file(tmp_path, [1, 10 ** 400])]) == 2
    err = capsys.readouterr().err
    assert "device id must lie in [-2**53, 2**53]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
def test_device_ids_that_share_a_uid_are_exit_2(command, tmp_path, capsys):
    # 2**53 and 2**53 + 1 round to one float: device 2**53 + 1 took its
    # neighbour 2**53 for itself and read 1 where 0 is right
    prog = tmp_path / "same.hfc"
    prog.write_text("sum-hood+(mux[f,f,l](nbr{uid()} =[f,l] uid(), nbr{1}, 0))\n")
    sc = _devices_file(tmp_path, [2 ** 53, 2 ** 53 + 1])
    assert main([command, str(prog), sc]) == 2
    assert f"device id must lie in [-2**53, 2**53], where uid() is exact, got {2 ** 53 + 1}" \
        in capsys.readouterr().err


def test_device_ids_at_the_uid_limits_run(tmp_path, capsys):
    prog = tmp_path / "uid.hfc"
    prog.write_text("uid()\n")
    assert main(["run", str(prog), _devices_file(tmp_path, [-2 ** 53, 2 ** 53]),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"{t},{d},{d}" for t, d in (
        (1, -2 ** 53), (2, 2 ** 53))]


def test_dag_event_device_beyond_the_uid_limit_is_exit_2(counter, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text(json.dumps({"events": [{"id": 10 ** 400, "device": -2 ** 53 - 1, "time": "1"}],
                             "neigh": []}))
    assert main(["denot", counter, str(p)]) == 2
    assert "DAG event device must lie in [-2**53, 2**53]" in capsys.readouterr().err


def _huge(n):
    return "1" + "0" * (n - 1)  # an integer of n digits, as JSON text


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
@pytest.mark.parametrize("devices, fires, shown", [
    ("[1, " + _huge(401) + "]", "[]", "got 100000000000... (401 digits)"),
    ("[1]", '[{"t": 1, "device": ' + _huge(401) + "}]",
     "fire by unknown device 100000000000... (401 digits)"),
    ("[" + _huge(5000) + "]", "[]", "not valid JSON: an integer of more than"),
], ids=["device-id", "fire-device", "over-the-digit-limit"])
def test_a_huge_integer_gives_a_short_diagnostic(command, devices, fires, shown,
                                                 counter, tmp_path, capsys):
    # the id was printed whole, and Python's own advice on its digit limit
    # was passed on as if it were about the file
    p = tmp_path / "huge.json"
    p.write_text('{"devices": ' + devices + ', "radius": 5, "decay": 100, "paths": {}, '
                 '"fires": ' + fires + "}")
    assert main([command, counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert shown in err
    assert len(err) < len(str(p)) + 120
    assert "set_int_max_str_digits" not in err


def test_a_huge_dag_event_id_gives_a_short_diagnostic(counter, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text('{"events": [], "neigh": [[' + _huge(401) + ", 1]]}")
    assert main(["denot", counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert "neigh edge (100000000000... (401 digits), 1) references unknown events" in err
    assert len(err) < len(str(p)) + 120


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
@pytest.mark.parametrize("change, shown", [
    ('"decay": -' + _huge(401), "decay must be >= 0, got -1000000000000000"),
    ('"decay": "-1e-5000"', "decay: timestamp has more than 4300 digits, got '-1e-5000'"),
    ('"radius": [' + ", ".join(["0"] * 3000) + "]",
     "radius must be a number >= 0, got [0, 0, 0,"),
    ('"paths": {"' + "1" * 5000 + '": []}', "device id has too many digits to read, "
     "got 111111111111... (5000 digits)"),
    ('"sensors": [' + ", ".join(["0"] * 3000) + "]", "sensors must be a JSON object, got [0, 0,"),
    ('"fires": [[' + ", ".join(["0"] * 3000) + "]]",
     'fire 0 must be {"t": time, "device": id}, got [0, 0,'),
], ids=["decay", "decay-fraction", "radius", "paths-key", "sensors", "fire"])
def test_a_long_value_gives_a_short_diagnostic(command, change, shown, counter, tmp_path, capsys):
    # each value was printed whole: a 5,000-digit key as over 5,000 bytes
    # of stderr, a 3,000-element sensors list as over 9,000; a decay of
    # -1/10**5000 could not be printed at all
    p = tmp_path / "long.json"
    p.write_text(json.dumps(ONE_DEVICE)[:-1] + ", " + change + "}")
    assert main([command, counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert shown in err
    assert "characters)" in err or "digits" in err
    assert len(err) < len(str(p)) + 160


def test_a_violation_naming_a_huge_event_id_is_short(counter, tmp_path, capsys):
    # event 10**400 and event 2, both on device 1, are neighbours of event 3
    p = tmp_path / "dag.json"
    p.write_text('{"events": [{"id": ' + _huge(401) + ', "device": 1, "time": "1"}, '
                 '{"id": 2, "device": 1, "time": "2"}, {"id": 3, "device": 2, "time": "3"}], '
                 '"neigh": [[' + _huge(401) + ", 3], [2, 3]]}")
    assert main(["denot", counter, str(p)]) == 2
    err = capsys.readouterr().err
    assert "duplicate-device (events 100000000000... (401 digits), 2, 3)" in err
    assert len(err) < len(str(p)) + 120


# ---------------------------------------------------------------------------
# radius and decay overrides pass the scenario's own check

@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
@pytest.mark.parametrize("flag, value", [
    ("--radius", "-1"), ("--radius", "nan"), ("--decay", "-1"),
])
def test_bad_radius_or_decay_override_is_exit_2(command, flag, value, counter,
                                                one_device, capsys):
    assert main([command, counter, one_device, flag, value]) == 2
    assert f"{flag[2:]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--radius", "0"], ["--radius", "inf"],
                                   ["--decay", "0"]])
def test_edge_radius_and_decay_stay_valid(flags, counter, one_device, capsys):
    assert main(["run", counter, one_device, "--format", "csv", *flags]) == 0
    roots = [r["root"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    # the device hears itself unless decay 0 expires its own last message
    want = ["1"] * 5 if flags == ["--decay", "0"] else ["1", "2", "3", "4", "5"]
    assert roots == want


@pytest.mark.parametrize("command", ["run", "denot", "check-adequacy"])
def test_negative_fuel_is_exit_2(command, counter, one_device, capsys):
    """A fuel budget below 0 is a usage error, named before anything runs;
    a budget of 0 is valid, and the first fire runs out of it."""
    assert main([command, counter, one_device, "--fuel", "-5"]) == 2
    assert capsys.readouterr() == ("", "error: --fuel must be >= 0, got -5\n")
    assert main([command, counter, one_device, "--fuel", "0"]) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and "fuel exhausted" in printed.err


# ---------------------------------------------------------------------------
# the README's example session, byte for byte

README = Path(__file__).resolve().parent.parent / "README.md"
README_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)


def _readme_session(session, files, capsys) -> list:
    """Run each ``$ fieldc`` line of a README session on files (name ->
    path), checking its output; the commands run, in order."""
    checked = []
    for cmd in re.split(r"^\$ fieldc ", session, flags=re.M)[1:]:
        line, _, want = cmd.partition("\n")
        argv = [str(files.get(a, a)) for a in line.split()]
        if argv[0] == "corpus-test":  # its listing is elided in the README
            continue
        assert main(argv) == 0
        # CSV rows end in CRLF (RFC 4180); the README shows plain lines
        assert capsys.readouterr().out.replace("\r\n", "\n") == want
        checked.append(argv[0])
    return checked


def test_readme_example_session(tmp_path, capsys):
    blocks = README_BLOCKS
    program = next(text for _, text in blocks if text.startswith("// grad.hfc"))
    scenario = next(text for info, text in blocks if info == "json" and '"fires"' in text)
    session = next(text for _, text in blocks if "$ fieldc run" in text)
    files = {"grad.hfc": tmp_path / "grad.hfc", "line.json": tmp_path / "line.json"}
    files["grad.hfc"].write_text(program)
    files["line.json"].write_text(scenario)
    assert _readme_session(session, files, capsys) == ["typecheck", "run", "check-adequacy"]


def test_readme_dag_session(tmp_path, capsys):
    blocks = README_BLOCKS
    program = next(text for _, text in blocks if text.startswith("// heard.hfc"))
    dag = next(text for info, text in blocks if info == "json" and '"events"' in text)
    session = next(text for _, text in blocks if "$ fieldc run heard.hfc" in text)
    files = {"heard.hfc": tmp_path / "heard.hfc", "dag.json": tmp_path / "dag.json"}
    files["heard.hfc"].write_text(program)
    files["dag.json"].write_text(dag)
    assert _readme_session(session, files, capsys) == ["run", "denot", "check-adequacy"]


# ---------------------------------------------------------------------------
# input files mutated once still end in a defined outcome

FUZZ_PROGRAM = next(text for _, text in README_BLOCKS if text.startswith("// grad.hfc"))
FUZZ_INPUTS = {
    kind: json.loads(next(text for info, text in README_BLOCKS
                          if info == "json" and f'"{key}"' in text))
    for kind, key in (("scenario", "fires"), ("dag", "events"))
}
DELETE = object()


def _json_paths(obj, path=()):
    """The path (keys and indices) of every value nested in obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield (*path, k)
        yield from _json_paths(v, (*path, k))


@st.composite
def mutated_inputs(draw):
    """The README scenario or DAG with one value deleted or replaced."""
    kind = draw(st.sampled_from(sorted(FUZZ_INPUTS)))
    obj = copy.deepcopy(FUZZ_INPUTS[kind])
    *where, key = draw(st.sampled_from(list(_json_paths(obj))))
    parent = functools.reduce(operator.getitem, where, obj)
    value = draw(st.sampled_from([DELETE, None, "x", [], {}, -1, 1e308]))
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return kind, obj


@settings(max_examples=200, deadline=None)
@given(mutated_inputs())
def test_mutated_input_files_end_in_a_defined_outcome(mutated):
    kind, obj = mutated
    with tempfile.TemporaryDirectory() as d:
        prog, inp, out = (os.path.join(d, name) for name in ("grad.hfc", "in.json", "out"))
        Path(prog).write_text(FUZZ_PROGRAM)
        Path(inp).write_text(json.dumps(obj))
        for command in ("run", "denot", "check-adequacy"):
            assert main([command, prog, inp, "--out", out]) in (0, 1, 2)
