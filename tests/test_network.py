"""Network transitions: the delivery sweep, firing, decay, reboots, scenarios."""

import json
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fieldcalc import network
from fieldcalc.ast import num
from fieldcalc.builtins import SensorState
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
    heard,
    hearers,
    position_at,
    ranges_at,
    run_scenario,
    scenario_from_json,
    sweep,
)
from fieldcalc.parser import parse_program
from generators import gen_world
from helpers import leaf, mkfield, reference_position_at, reference_sweep, roots


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


def stored(world, payload, tag):
    return Stored(payload, tag, world.tick(tag))


def test_filter_old_boundaries():
    sc = static_sc({1: (0, 0), 2: (1, 0), 3: (2, 0)}, radius=5, decay=10, fires=[])

    def inbox(w):
        return {1: {2: stored(w, leaf(num(0)), F(0)), 3: stored(w, leaf(num(1)), F(5))},
                2: {}, 3: {}}

    w = World(sc).at(F(10))
    assert set(filter_old(w, inbox(w), 1)) == {2, 3}  # tag == now - decay survives
    w = World(sc.replace(decay=F(5))).at(F(10))
    box = inbox(w)
    assert set(filter_old(w, box, 1)) == {3}
    assert set(box[1]) == {3}  # the cut is for good
    w = World(sc.replace(decay=F(0))).at(F(5))
    assert set(filter_old(w, inbox(w), 1)) == {3}  # decay 0 keeps only trees tagged now


def test_filter_old_cuts_at_the_last_reboot():
    # device 1 is off during (2, 4): what it stored at t=2 is gone, what
    # arrived at t=4, as it came back, stays
    sc = Scenario(
        devices=(1, 2), radius=1, decay=F(100),
        paths={1: (PathSeg(F(0), F(2), HERE), PathSeg(F(4), F(9), HERE)),
               2: (PathSeg(F(0), F(9), HERE),)},
        fires=(),
    )
    w = World(sc).at(F(5))
    box = {1: {1: stored(w, leaf(num(0)), F(2)), 2: stored(w, leaf(num(1)), F(4))}, 2: {}}
    assert set(filter_old(w, box, 1)) == {2}


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

    def change(d, t):
        return env_change(w.at(F(t)), d)

    assert w.on[1] == ((w.tick(F(0)), w.tick(F(12))),)
    assert change(1, 5) == change(1, 11) == w.tick(F(0))
    assert change(2, 2) == w.tick(F(0))
    assert change(2, 4) == change(2, 7) == w.tick(F(4))
    assert change(3, 3) == w.tick(F(3))


def test_env_change_validates_well_formedness():
    # a device may fire only while it is on
    off = [(1, F(1, 2)), (1, F(3)), (1, F(7)), (2, F(1)), (9, F(1))]
    sc = Scenario(
        devices=(1, 2), radius=10, decay=F(100),
        paths={1: (PathSeg(F(1), F(2), HERE), PathSeg(F(4), F(6), HERE))},
        fires=tuple((t, d) for d, t in off),
    )
    w = World(sc)
    for d, t in off:
        with pytest.raises(ScenarioError, match="not in the network"):
            env_change(w.at(t), d)


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
    assert hearers(World(sc).at(F(0)), 1) == [1]
    assert roots(run_scenario(sc, prog)) == [num(1), num(2), num(3)]


def test_env_at_ranges_over_fresh_senders_only():
    sc = static_sc({1: (0, 0), 2: (3, 0), 3: (0, 4)}, radius=10, decay=10, fires=[])
    w = World(sc).at(F(2))
    inbox = {1: {2: stored(w, leaf(num(0)), F(1))}, 2: {}, 3: {}}
    fresh, sensors = env_at(w, inbox, 1)
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
    assert roots(trace) == [num(1)] * 4
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
    w = World(sc)
    assert position_at(w, 1, w.tick(F(5))) == (5.0, 0.0)
    assert position_at(w, 1, w.tick(F(11))) is None
    assert clamped_position_at(w.at(F(11)), 1) == (10.0, 0.0)
    assert clamped_position_at(w.at(F(-1)), 1) == (0.0, 0.0)


def test_topology_distance_boundary():
    sc = static_sc({1: (0, 0), 2: (5, 0), 3: (11, 0)}, radius=5, decay=1, fires=[])
    w = World(sc).at(F(0))
    assert hearers(w, 1) == [1, 2]  # distance 5 == radius counts
    assert hearers(w, 2) == [1, 2]  # distance 6 does not
    assert hearers(w, 3) == [3]


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
    assert hearers(w.at(F(1)), 1) == [1, 2]
    assert hearers(w.at(F(3)), 1) == [1]


def test_ranges_use_clamped_positions():
    sc = Scenario(
        devices=(1, 2), radius=10, decay=F(1),
        paths={
            1: (PathSeg(F(0), F(10), ((0.0, 0.0),)),),
            2: (PathSeg(F(0), F(2), ((3.0, 4.0),)),),
        },
        fires=(),
    )
    r = ranges_at(World(sc).at(F(5)), 1, (1, 2))
    assert r[1] == 0
    assert r[2] == 5  # device 2 parked at its last position


# ---------------------------------------------------------------------------
# scenario runs

def test_rep_counter_scenario():
    prog = parse_program("rep(0){(x) => x + 1}")
    sc = static_sc({1: (0, 0)}, radius=1, decay=100,
                   fires=[(t, 1) for t in range(5)])
    assert roots(run_scenario(sc, prog)) == [num(k) for k in range(1, 6)]


def test_out_of_radius_devices_compute_isolated():
    prog = parse_program("nbr{uid()}")
    sc = static_sc({1: (0, 0), 2: (50, 0)}, radius=5, decay=100,
                   fires=[(0, 1), (1, 2), (2, 1)])
    trace = run_scenario(sc, prog)
    assert roots(trace)[-1] == mkfield({1: num(1)})


def test_decay_boundary_in_a_run():
    prog = parse_program("nbr{uid()}")
    fires = [(0, 1), (10, 2)]
    sc = static_sc({1: (0, 0), 2: (1, 0)}, radius=5, decay=10, fires=fires)
    trace = run_scenario(sc, prog)
    assert roots(trace)[-1] == mkfield({1: num(1), 2: num(2)})
    sc2 = static_sc({1: (0, 0), 2: (1, 0)}, radius=5, decay=F(99, 10), fires=fires)
    trace2 = run_scenario(sc2, prog)
    assert roots(trace2)[-1] == mkfield({2: num(2)})


def test_reboot_restarts_rep_state():
    prog = parse_program("rep(0){(x) => x + 1}")
    sc = Scenario(
        devices=(1,), radius=1, decay=F(1000),
        paths={1: (PathSeg(F(0), F(2), ((0.0, 0.0),)),
                   PathSeg(F(4), F(6), ((0.0, 0.0),)),)},
        fires=((F(1, 2), 1), (F(3, 2), 1), (F(9, 2), 1), (F(11, 2), 1)),
    )
    trace = run_scenario(sc, prog)
    assert roots(trace) == [num(1), num(2), num(1), num(2)]


def counter_on(*segs):
    """The rep counter's roots on one device with the given path
    segments, firing at t=4 and t=6."""
    sc = Scenario(
        devices=(1,), radius=1, decay=F(100),
        paths={1: tuple(PathSeg(as_time(a), as_time(b), HERE) for a, b in segs)},
        fires=((F(4), 1), (F(6), 1)),
    )
    return roots(run_scenario(sc, parse_program("rep(0){(x) => x + 1}")))


def test_abutting_segments_keep_stored_context():
    assert counter_on((0, 5), (5, 10)) == [num(1), num(2)]
    assert counter_on((0, 6), (5, 10)) == [num(1), num(2)]
    assert counter_on((0, 5), ("11/2", 10)) == [num(1), num(1)]


def _grid_queries_per_fire(monkeypatch, build, side, rounds=2):
    """(position_at calls, distance checks) per fire when ``build`` runs a
    static side x side grid for the given number of rounds."""
    calls = {"position_at": 0, "dist": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(network, "position_at", counting("position_at", network.position_at))
    monkeypatch.setattr(math, "dist", counting("dist", math.dist))
    n = side * side
    sc = static_sc({i: (i % side, i // side) for i in range(n)}, radius=1.5,
                   decay=100, fires=[(F(k, n), k % n) for k in range(rounds * n)])
    build(sc)
    monkeypatch.undo()
    return calls["position_at"] / len(sc.fires), calls["dist"] / len(sc.fires)


@pytest.mark.parametrize("build", ["run", "dag"])
def test_position_queries_per_fire_grow_linearly(monkeypatch, build):
    from fieldcalc.denot import build_dag_from_scenario

    prog = parse_program("min-hood(nbr-range())")
    fn = {"run": lambda sc: run_scenario(sc, prog),
          "dag": build_dag_from_scenario}[build]
    small = _grid_queries_per_fire(monkeypatch, fn, 4)
    assert min(small) > 0
    # 4x the devices: a whole-network refresh per fire gives a ratio of ~16
    # and an all-pairs scan ~4; the radius grid keeps both counts flat
    big = _grid_queries_per_fire(monkeypatch, fn, 8)
    assert all(b / s < 1.5 for b, s in zip(big, small)), (big, small)
    # 4x the rounds: an all-pairs scan over fires gives ~4
    long = _grid_queries_per_fire(monkeypatch, fn, 4, rounds=8)
    assert all(b / s < 1.5 for b, s in zip(long, small)), (long, small)


@pytest.mark.parametrize("build", ["run", "dag"])
def test_still_geometry_is_worked_out_once_per_device(monkeypatch, build):
    """On a grid of still devices, each device's neighbours and ranges are
    worked out at its first fire and read back after: distance checks per
    fire fall with the rounds (recomputed per fire, they stay flat)."""
    from fieldcalc.denot import build_dag_from_scenario

    prog = parse_program("min-hood(nbr-range())")
    fn = {"run": lambda sc: run_scenario(sc, prog),
          "dag": build_dag_from_scenario}[build]
    _, one = _grid_queries_per_fire(monkeypatch, fn, 4, rounds=1)
    _, eight = _grid_queries_per_fire(monkeypatch, fn, 4, rounds=8)
    assert one > 0 and eight <= one / 4, (one, eight)


def _sweep_answers(sc) -> list:
    """(t, device, hearers, fresh (sender, tag) pairs, nbr-range) of each
    fire of the delivery sweep."""
    out = []

    def step(t, d, fresh, sensors):
        out.append([t, d, None, heard(fresh), sensors.nbr["nbr-range"]])

    def recording(world, d):
        out[-1][2] = hearers(world, d)
        return out[-1][2]

    with mock.patch.object(network, "hearers", recording):
        sweep(sc, step)
    return [tuple(r) for r in out]


def _exact(answers) -> list:
    """The answers with each range as the hex of its float, in order."""
    return [(t, d, hear, pairs, [(k, v.hex()) for k, v in ranges.items()])
            for t, d, hear, pairs, ranges in answers]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_world_answers_as_the_all_pairs_scan(seed):
    """At every fire, the World's grid, per-instant positions and integer
    ticks give the all-pairs scan on exact rationals: the same hearers in
    the same order, the same fresh (sender, tag) pairs and the same
    nbr-range floats, bit for bit."""
    sc = gen_world(random.Random(seed))
    assert _exact(_sweep_answers(sc)) == _exact(reference_sweep(sc))


def test_world_generator_reaches_its_corner_cases():
    seen = dict.fromkeys(["radius 0", "radius inf", "grid", "20+ devices", "negative",
                          "at radius across a border", "overlap at a shared instant",
                          "jumping waypoint", "ticks of 1/210", "still and moving",
                          "still, off in a gap, while a neighbour fires",
                          "one point listed several times"], 0)
    for seed in range(200):
        sc = gen_world(random.Random(seed))
        w = World(sc)
        seen["radius 0"] += sc.radius == 0
        seen["radius inf"] += sc.radius == math.inf
        seen["grid"] += len(w.cells) > 1
        seen["20+ devices"] += len(sc.devices) >= 20
        seen["ticks of 1/210"] += w.scale % 210 == 0
        spots = {d: segs[0].waypoints[0] for d, segs in sc.paths.items()
                 if len({p for s in segs for p in s.waypoints}) == 1}
        seen["negative"] += any(min(p) < 0 for p in spots.values())
        seen["at radius across a border"] += bool(w.cells) and any(
            math.dist(p, q) == sc.radius and w.cell(p) != w.cell(q)
            for p in spots.values() for q in spots.values())
        seen["still and moving"] += bool(w.cells) and 0 < len(spots) < len(sc.paths)
        seen["still, off in a gap, while a neighbour fires"] += bool(w.cells) and any(
            d in spots and math.dist(spots[d], spots[d2]) <= sc.radius
            and not any(s.start <= t <= s.end for s in segs)
            and any(s.end < t for s in segs) and any(t < s.start for s in segs)
            for t, d2 in sc.fires if d2 in spots for d, segs in sc.paths.items())
        seen["one point listed several times"] += any(
            d in spots and len(s.waypoints) > 1
            for d, segs in sc.paths.items() for s in segs)
        seen["jumping waypoint"] += any(
            len(segs) > 1 and len({s.waypoints for s in segs}) > 1
            and all(len(s.waypoints) == 1 for s in segs) for segs in sc.paths.values())
        seen["overlap at a shared instant"] += any(
            a.start < b.end and b.start < a.end and any(
                a.start <= t <= a.end and b.start <= t <= b.end for t, _ in sc.fires)
            for segs in sc.paths.values() for a, b in zip(segs, segs[1:]))
    assert min(seen.values()) >= 10, seen


def test_world_ticks_are_exact_on_co_prime_denominators():
    sc = Scenario(
        devices=(1,), radius=1, decay=F(1, 3),
        paths={1: (PathSeg(F(0), F(1, 7), ((0.0, 0.0), (1.0, 0.5), (0.3, -2.0))),)},
        fires=((F(1, 10), 1),),
    )
    w = World(sc)
    assert w.scale == 210 and w.decay == 70 and w.tick(F(1, 10)) == 21
    # the same float as interpolating on the exact rationals
    assert position_at(w, 1, 21) == reference_position_at(sc, 1, F(1, 10))
    with pytest.raises(ValueError, match="ticks"):
        w.tick(F(1, 11))


def test_nbr_range_from_paths():
    prog = parse_program("min-hood+(nbr-range())")
    sc = static_sc({1: (0, 0), 2: (3, 0)}, radius=5, decay=100,
                   fires=[(0, 1), (1, 2)])
    trace = run_scenario(sc, prog)
    assert roots(trace) == [num(float("inf")), num(3)]


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
    w = World(sc)
    assert position_at(w, 2, w.tick(F(1))) == (3.0, 4.0)
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

    assert roots(trace) == [FALSE, TRUE]


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
