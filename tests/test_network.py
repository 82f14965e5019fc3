"""Network transitions: the delivery sweep, firing, decay, reboots, scenarios."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from fieldcalc.ast import mkfield, num
from fieldcalc.builtins import SensorState
from fieldcalc.device import leaf
from fieldcalc.network import (
    FireError,
    FireRecord,
    PathSeg,
    Scenario,
    ScenarioError,
    Stored,
    World,
    as_time,
    clamped_position_at,
    env_at,
    env_change,
    filter_old,
    fire,
    hearers,
    position_at,
    ranges_at,
    run_scenario,
    scenario_from_json,
    sweep,
)
from fieldcalc.parser import parse_program


def static_sc(positions, radius, decay, fires, sensors=None, until=100):
    """All devices stationary from t=0 to t=until."""
    paths = {
        d: (PathSeg(F(0), F(until), ((float(x), float(y)),)),)
        for d, (x, y) in positions.items()
    }
    scripts = {
        d: {name: ((None, v),) for name, v in table.items()}
        for d, table in (sensors or {}).items()
    }
    return Scenario(
        devices=tuple(positions),
        radius=radius,
        decay=as_time(decay),
        paths=paths,
        fires=tuple((as_time(t), d) for t, d in fires),
        sensor_scripts=scripts,
    )


# ---------------------------------------------------------------------------
# plumbing

def test_as_time():
    assert as_time(3) == F(3)
    assert as_time("3/2") == F(3, 2)
    assert as_time(0.1) == F(1, 10)
    with pytest.raises(ScenarioError):
        as_time("soon")
    with pytest.raises(ScenarioError):
        as_time(True)


HERE = ((0.0, 0.0),)


def test_filter_old_boundaries():
    sc = static_sc({1: (0, 0), 2: (1, 0), 3: (2, 0)}, radius=5, decay=10, fires=[])

    def inbox():
        return {1: {2: Stored(leaf(num(0)), F(0)), 3: Stored(leaf(num(1)), F(5))},
                2: {}, 3: {}}

    assert set(filter_old(World(sc), inbox(), 1, F(10))) == {2, 3}  # tag == now - decay survives
    box = inbox()
    assert set(filter_old(World(replace(sc, decay=F(5))), box, 1, F(10))) == {3}
    assert set(box[1]) == {3}  # the cut is for good
    out = filter_old(World(replace(sc, decay=F(0))), inbox(), 1, F(5))
    assert set(out) == {3}  # decay 0 keeps only trees tagged now


def test_filter_old_cuts_at_the_last_reboot():
    # device 1 is off during (2, 4): what it stored at t=2 is gone, what
    # arrived at t=4, as it came back, stays
    sc = Scenario(
        devices=(1, 2), radius=1, decay=F(100),
        paths={1: (PathSeg(F(0), F(2), HERE), PathSeg(F(4), F(9), HERE)),
               2: (PathSeg(F(0), F(9), HERE),)},
        fires=(),
    )
    box = {1: {1: Stored(leaf(num(0)), F(2)), 2: Stored(leaf(num(1)), F(4))}, 2: {}}
    assert set(filter_old(World(sc), box, 1, F(5))) == {2}


def test_env_change_add_remove_retain():
    # device 1 stays on across abutting and overlapping segments (its
    # stored context is retained), device 2 is off during (2, 4) (its
    # context is removed), device 3 joins at t=3 (added with nothing stored)
    sc = Scenario(
        devices=(1, 2, 3), radius=10, decay=F(100),
        paths={
            1: (PathSeg(F(5), F(10), HERE), PathSeg(F(0), F(5), HERE),
                PathSeg(F(8), F(12), HERE)),
            2: (PathSeg(F(0), F(2), HERE), PathSeg(F(4), F(10), HERE)),
            3: (PathSeg(F(3), F(10), HERE),),
        },
        fires=(),
    )
    w = World(sc)
    assert w.on[1] == ((F(0), F(12)),)
    assert env_change(w, 1, F(5)) == env_change(w, 1, F(11)) == 0
    assert env_change(w, 2, F(2)) == 0
    assert env_change(w, 2, F(4)) == env_change(w, 2, F(7)) == 4
    assert env_change(w, 3, F(3)) == 3


def test_env_change_validates_well_formedness():
    # a device may fire only while it is on
    sc = Scenario(
        devices=(1, 2), radius=10, decay=F(100),
        paths={1: (PathSeg(F(1), F(2), HERE), PathSeg(F(4), F(6), HERE))},
        fires=(),
    )
    w = World(sc)
    for d, t in [(1, F(1, 2)), (1, F(3)), (1, F(7)), (2, F(1)), (9, F(1))]:
        with pytest.raises(ScenarioError, match="not in the network"):
            env_change(w, d, t)


def test_fire_requires_known_device():
    prog = parse_program("0")
    sc = static_sc({1: (0, 0)}, radius=1, decay=10, fires=[(0, 1), (1, 2)])
    with pytest.raises(ScenarioError, match="device 2 fires at t=1"):
        run_scenario(sc, prog)
    sc = static_sc({1: (0, 0)}, radius=1, decay=10, fires=[(200, 1)])
    with pytest.raises(ScenarioError, match="not in the network"):
        run_scenario(sc, prog)


def test_fire_wraps_evaluation_errors():
    prog = parse_program("def loop() { loop() } loop()")
    with pytest.raises(FireError, match="t=0 device=1"):
        fire(prog, 1, F(0), {}, SensorState(), fuel=50)


def test_fire_broadcast_includes_self():
    prog = parse_program("rep(0){(x) => x + 1}")
    sc = static_sc({1: (0, 0), 2: (9, 0)}, radius=1, decay=10,
                   fires=[(0, 1), (1, 1), (2, 1)])
    assert hearers(World(sc), 1, F(0)) == [1]
    assert run_scenario(sc, prog).roots() == [num(1), num(2), num(3)]


def test_env_at_ranges_over_fresh_senders_only():
    sc = static_sc({1: (0, 0), 2: (3, 0), 3: (0, 4)}, radius=10, decay=10, fires=[])
    inbox = {1: {2: Stored(leaf(num(0)), F(1))}, 2: {}, 3: {}}
    fresh, sensors = env_at(World(sc), inbox, 1, F(2))
    assert set(fresh) == {2}
    assert sensors.nbr["nbr-range"] == {1: 0.0, 2: 3.0}


def test_sweep_feeds_each_fire_the_latest_payloads():
    # 1 and 2 hear each other, 3 is out of range; the payload is the fire
    # index, so each fire sees the latest index of every sender it heard
    sc = static_sc({1: (0, 0), 2: (1, 0), 3: (50, 0)}, radius=5, decay=100,
                   fires=[(0, 1), (1, 2), (2, 1), (3, 3), (4, 2)])
    seen = []

    def step(t, d, fresh, sensors):
        seen.append({s: m.payload for s, m in fresh.items()})
        return len(seen) - 1

    sweep(sc, step)
    assert seen == [{}, {1: 0}, {1: 0, 2: 1}, {}, {1: 2, 2: 1}]


def test_min_hood_fire_order_walkthrough():
    # fully-connected 3 devices sensing 1, 2, 3 and firing A, B, C, B:
    # broadcast is instantaneous, so every fire after A's sees reading 1,
    # and B's second fire collects the whole field
    prog = parse_program("min-hood(nbr{sns-num()})")
    sc = static_sc(
        {1: (0, 0), 2: (1, 0), 3: (0, 1)}, radius=2, decay=100,
        fires=[(0, 1), (1, 2), (2, 3), (3, 2)],
        sensors={d: {"sns-num": num(d)} for d in (1, 2, 3)},
    )
    trace = run_scenario(sc, prog)
    assert trace.roots() == [num(1)] * 4
    last = trace.records[-1]
    assert last.tree.children[0].root == mkfield({1: num(1), 2: num(2), 3: num(3)})


# ---------------------------------------------------------------------------
# paths and topology

def test_position_interpolation_and_clamping():
    sc = Scenario(
        devices=(1,), radius=1, decay=F(1),
        paths={1: (PathSeg(F(0), F(10), ((0.0, 0.0), (10.0, 0.0))),)},
        fires=(),
    )
    assert position_at(sc, 1, F(5)) == (5.0, 0.0)
    assert position_at(sc, 1, F(11)) is None
    assert clamped_position_at(sc, 1, F(11)) == (10.0, 0.0)
    assert clamped_position_at(sc, 1, F(-1)) == (0.0, 0.0)


def test_topology_distance_boundary():
    sc = static_sc({1: (0, 0), 2: (5, 0), 3: (11, 0)}, radius=5, decay=1, fires=[])
    w = World(sc)
    assert hearers(w, 1, F(0)) == [1, 2]  # distance 5 == radius counts
    assert hearers(w, 2, F(0)) == [1, 2]  # distance 6 does not
    assert hearers(w, 3, F(0)) == [3]


def test_topology_excludes_inactive_devices():
    sc = Scenario(
        devices=(1, 2), radius=10, decay=F(1),
        paths={
            1: (PathSeg(F(0), F(10), ((0.0, 0.0),)),),
            2: (PathSeg(F(0), F(2), ((1.0, 0.0),)),),
        },
        fires=(),
    )
    w = World(sc)
    assert hearers(w, 1, F(1)) == [1, 2]
    assert hearers(w, 1, F(3)) == [1]


def test_ranges_use_clamped_positions():
    sc = Scenario(
        devices=(1, 2), radius=10, decay=F(1),
        paths={
            1: (PathSeg(F(0), F(10), ((0.0, 0.0),)),),
            2: (PathSeg(F(0), F(2), ((3.0, 4.0),)),),
        },
        fires=(),
    )
    r = ranges_at(sc, 1, F(5))
    assert r[1] == 0
    assert r[2] == 5  # device 2 parked at its last position


# ---------------------------------------------------------------------------
# scenario runs

def test_rep_counter_scenario():
    prog = parse_program("rep(0){(x) => x + 1}")
    sc = static_sc({1: (0, 0)}, radius=1, decay=100,
                   fires=[(t, 1) for t in range(5)])
    assert run_scenario(sc, prog).roots() == [num(k) for k in range(1, 6)]


def test_out_of_radius_devices_compute_isolated():
    prog = parse_program("nbr{uid()}")
    sc = static_sc({1: (0, 0), 2: (50, 0)}, radius=5, decay=100,
                   fires=[(0, 1), (1, 2), (2, 1)])
    trace = run_scenario(sc, prog)
    assert trace.roots()[-1] == mkfield({1: num(1)})


def test_decay_boundary_in_a_run():
    prog = parse_program("nbr{uid()}")
    fires = [(0, 1), (10, 2)]
    sc = static_sc({1: (0, 0), 2: (1, 0)}, radius=5, decay=10, fires=fires)
    trace = run_scenario(sc, prog)
    assert trace.roots()[-1] == mkfield({1: num(1), 2: num(2)})
    sc2 = static_sc({1: (0, 0), 2: (1, 0)}, radius=5, decay=F(99, 10), fires=fires)
    trace2 = run_scenario(sc2, prog)
    assert trace2.roots()[-1] == mkfield({2: num(2)})


def test_reboot_restarts_rep_state():
    prog = parse_program("rep(0){(x) => x + 1}")
    sc = Scenario(
        devices=(1,), radius=1, decay=F(1000),
        paths={1: (PathSeg(F(0), F(2), ((0.0, 0.0),)),
                   PathSeg(F(4), F(6), ((0.0, 0.0),)),)},
        fires=((F(1, 2), 1), (F(3, 2), 1), (F(9, 2), 1), (F(11, 2), 1)),
    )
    trace = run_scenario(sc, prog)
    assert trace.roots() == [num(1), num(2), num(1), num(2)]


def counter_on(*segs):
    """The rep counter's roots on one device with the given path
    segments, firing at t=4 and t=6."""
    sc = Scenario(
        devices=(1,), radius=1, decay=F(100),
        paths={1: tuple(PathSeg(as_time(a), as_time(b), HERE) for a, b in segs)},
        fires=((F(4), 1), (F(6), 1)),
    )
    return run_scenario(sc, parse_program("rep(0){(x) => x + 1}")).roots()


def test_abutting_segments_keep_stored_context():
    assert counter_on((0, 5), (5, 10)) == [num(1), num(2)]
    assert counter_on((0, 6), (5, 10)) == [num(1), num(2)]
    assert counter_on((0, 5), ("11/2", 10)) == [num(1), num(1)]


def _grid_position_queries(monkeypatch, build, side, rounds=2):
    """position_at calls per fire when ``build`` runs a static side x side
    grid for the given number of rounds."""
    import fieldcalc.network as network

    calls = [0]
    original = network.position_at

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(network, "position_at", counted)
    n = side * side
    sc = static_sc({i: (i % side, i // side) for i in range(n)}, radius=1.5,
                   decay=100, fires=[(F(k, n), k % n) for k in range(rounds * n)])
    build(sc)
    return calls[0] / len(sc.fires)


@pytest.mark.parametrize("build", ["run", "dag"])
def test_position_queries_per_fire_grow_linearly(monkeypatch, build):
    from fieldcalc.denot import build_dag_from_scenario

    prog = parse_program("min-hood(nbr-range())")
    fn = {"run": lambda sc: run_scenario(sc, prog),
          "dag": build_dag_from_scenario}[build]
    small = _grid_position_queries(monkeypatch, fn, 4)
    assert small > 0
    # 4x the devices: a whole-network refresh per fire gives a ratio of ~16
    assert _grid_position_queries(monkeypatch, fn, 8) / small < 6
    # 4x the rounds: an all-pairs scan over fires gives ~4
    assert _grid_position_queries(monkeypatch, fn, 4, rounds=8) / small < 1.5


def test_nbr_range_from_paths():
    prog = parse_program("min-hood+(nbr-range())")
    sc = static_sc({1: (0, 0), 2: (3, 0)}, radius=5, decay=100,
                   fires=[(0, 1), (1, 2)])
    trace = run_scenario(sc, prog)
    assert trace.roots() == [num(float("inf")), num(3)]


def test_env_domain_recorded_per_fire():
    prog = parse_program("rep(0){(x) => x + 1}")
    sc = static_sc({1: (0, 0)}, radius=1, decay=100, fires=[(0, 1), (1, 1)])
    trace = run_scenario(sc, prog)
    assert trace.records[0].env_domain == frozenset()
    assert trace.records[1].env_domain == frozenset({1})


def test_trace_determinism_with_seed():
    prog = parse_program("pick-hood(nbr{uid()})")
    sc = static_sc({1: (0, 0), 2: (1, 0)}, radius=5, decay=100,
                   fires=[(0, 1), (1, 2), (2, 1), (3, 2)])
    a = run_scenario(sc, prog, rng=random.Random(7)).jsonl()
    b = run_scenario(sc, prog, rng=random.Random(7)).jsonl()
    assert a == b
    c = run_scenario(sc, prog).jsonl()
    d = run_scenario(sc, prog).jsonl()
    assert c == d


# ---------------------------------------------------------------------------
# trace formats

def test_jsonl_records():
    prog = parse_program("1 + 1")
    sc = static_sc({1: (0, 0)}, radius=1, decay=1, fires=[(0, 1)])
    lines = run_scenario(sc, prog).jsonl().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["t"] == "0"
    assert rec["device"] == 1
    assert rec["root"] == {"num": 2.0}
    assert rec["tree"]["root"] == {"num": 2.0}
    assert rec["env"] == []


def test_csv_rows():
    prog = parse_program("nbr{uid()}")
    sc = static_sc({1: (0, 0)}, radius=1, decay=1, fires=[(F(1, 2), 1)])
    out = run_scenario(sc, prog).csv()
    lines = out.strip().splitlines()
    assert lines[0] == "t,device,root"
    t, device, root = next(iter([lines[1].split(",", 2)]))
    assert t == "1/2"
    assert device == "1"
    assert json.loads(root.replace('""', '"').strip('"')) == {
        "field": [[1, {"num": 1.0}]]
    }


# ---------------------------------------------------------------------------
# scenario JSON

GOOD = {
    "devices": [1, 2],
    "radius": 5,
    "decay": 10,
    "paths": {
        "1": [{"from": 0, "to": 10, "waypoints": [[0, 0]]}],
        "2": [{"from": 0, "to": 10, "waypoints": [[3, 4]]}],
    },
    "fires": [{"t": 0, "device": 1}, {"t": "1/2", "device": 2}],
    "sensors": {"1": {"sns-num": 4, "sns-patron": True}},
}


def test_scenario_from_json_round():
    sc = scenario_from_json(GOOD)
    assert sc.devices == (1, 2)
    assert sc.decay == F(10)
    assert sc.fires == ((F(0), 1), (F(1, 2), 2))
    assert position_at(sc, 2, F(1)) == (3.0, 4.0)
    assert sc.sensor_scripts[1]["sns-num"] == ((None, num(4)),)


def test_scenario_json_rejects_bad_input():
    for bad in [
        {},
        {**GOOD, "devices": [1, 1]},
        {**GOOD, "fires": [{"t": 0, "device": 1}, {"t": 0, "device": 2}]},
        {**GOOD, "fires": [{"t": 0, "device": 9}]},
        {**GOOD, "paths": {"9": []}},
        {**GOOD, "sensors": {"9": {}}},
    ]:
        with pytest.raises(ScenarioError):
            scenario_from_json(bad)


SEGMENT = {"from": 0, "to": 10, "waypoints": [[0, 0]]}


@pytest.mark.parametrize("key", ["from", "to", "waypoints"])
def test_scenario_json_names_a_missing_segment_key(key):
    seg = {k: v for k, v in SEGMENT.items() if k != key}
    bad = {**GOOD, "paths": {"1": [SEGMENT, seg]}}
    with pytest.raises(ScenarioError, match=f"path segment 1 of device 1 lacks key '{key}'"):
        scenario_from_json(bad)


@pytest.mark.parametrize("key", ["t", "device"])
def test_scenario_json_names_a_missing_fire_key(key):
    bad = {**GOOD, "fires": [{"t": 0, "device": 1}, {"t": 1, "device": 2, **{key: None}}]}
    del bad["fires"][1][key]
    with pytest.raises(ScenarioError, match=f"fire 1 lacks key '{key}'"):
        scenario_from_json(bad)


def test_scenario_sensor_value_kinds():
    sc = scenario_from_json({
        **GOOD,
        "sensors": {"1": {"sns-fun": "() => 0", "sns-patron": False}},
    })
    from fieldcalc.parser import parse_expr

    assert sc.sensor_scripts[1]["sns-fun"] == ((None, parse_expr("() => 0")),)


def test_scripted_sensor_steps():
    obj = {
        "devices": [1],
        "radius": 1,
        "decay": 10,
        "paths": {"1": [{"from": 0, "to": 10, "waypoints": [[0, 0]]}]},
        "fires": [{"t": 1, "device": 1}, {"t": 5, "device": 1}],
        "sensors": {"1": {"sns-patron": {"steps": [[0, False], [4, True]]}}},
    }
    prog = parse_program("sns-patron()")
    trace = run_scenario(scenario_from_json(obj), prog)
    from fieldcalc.ast import FALSE, TRUE

    assert trace.roots() == [FALSE, TRUE]


def test_sensor_missing_before_first_step():
    obj = {
        "devices": [1],
        "radius": 1,
        "decay": 10,
        "paths": {"1": [{"from": 0, "to": 10, "waypoints": [[0, 0]]}]},
        "fires": [{"t": 0, "device": 1}],
        "sensors": {"1": {"sns-patron": {"steps": [[4, True]]}}},
    }
    prog = parse_program("sns-patron()")
    with pytest.raises(FireError, match="sns-patron"):
        run_scenario(scenario_from_json(obj), prog)
