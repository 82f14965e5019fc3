"""End-to-end checks of the fieldc command line."""

import csv
import io
import json
from fractions import Fraction as F

import pytest

from fieldcalc.ast import num
from fieldcalc.cli import main
from fieldcalc.denot import AdequacyReport, Event, EventDAG, Verdict, dag_to_json
from fieldcalc.stdlib import corpus_entry

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


def test_denot_bad_dag_file(counter, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text('{"events": [], "neigh": [[1, 2]]}')
    assert main(["denot", counter, str(p)]) == 2


# ---------------------------------------------------------------------------
# check-adequacy

def test_check_adequacy_summary_line(counter, one_device, capsys):
    assert main(["check-adequacy", counter, one_device]) == 0
    assert capsys.readouterr().out == "5/5 events equal\n"


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
    bad = AdequacyReport([
        Verdict(1, F(1), 1, num(1), num(2), False),
    ])
    monkeypatch.setattr("fieldcalc.cli.check_adequacy",
                        lambda sc, prog, fuel: bad)
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


def test_color_toggle(tmp_path, capsys, monkeypatch):
    p = tmp_path / "bad.hfc"
    p.write_text("nbr{nbr{1}}\n")
    monkeypatch.setenv("FIELDC_COLOR", "1")
    main(["typecheck", str(p)])
    assert "\x1b[31m" in capsys.readouterr().err
    monkeypatch.setenv("FIELDC_COLOR", "0")
    main(["typecheck", str(p)])
    assert "\x1b[" not in capsys.readouterr().err


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
    p = tmp_path / "dag.json"
    p.write_text(json.dumps({
        "events": [{"id": i, "device": 1, "time": str(i)} for i in (1, 2, 3)],
        "neigh": [[1, 3], [2, 3]],
    }))
    assert main(["denot", counter, str(p)]) == 2
    assert "duplicate-device (events 2, 1, 3)" in capsys.readouterr().err


def test_bad_timestamps_are_diagnostics(counter, one_device, tmp_path, capsys):
    p = tmp_path / "dag.json"
    p.write_text(json.dumps({"events": [{"id": 1, "device": 1, "time": "soon"}],
                             "neigh": []}))
    assert main(["denot", counter, str(p)]) == 2
    assert main(["run", counter, one_device, "--decay", "soon"]) == 2
    err = capsys.readouterr().err
    assert err.count("not a timestamp") == 2
    assert "Traceback" not in err


def test_denot_of_a_fire_while_off_is_exit_1(counter, tmp_path, capsys):
    sc = {**ONE_DEVICE, "fires": [{"t": 20, "device": 1}]}
    p = tmp_path / "off.json"
    p.write_text(json.dumps(sc))
    assert main(["denot", counter, str(p)]) == 1
    assert "not in the network" in capsys.readouterr().err
