"""Whole-network evolution driven by timed scenarios.

Scenarios script everything external: device motion as piecewise paths,
fire times, sensor readings. Timestamps are exact rationals so schedule
comparisons never suffer float drift.

One forward delivery sweep decides who hears whom. Every device keeps an
inbox holding the latest time-tagged message of each sender. When device
d fires at t, the sweep reads only d's part of the world: it cuts d's
inbox at max(t - decay, start of d's current on-interval), computes d's
sensors (ranges to d and its fresh senders only), lets its consumer turn
the fresh inbox into a payload, and delivers that payload to every
device that is on and within radius at t, d itself included. The
simulator evaluates the program along the sweep (the payload is the
value-tree); the induced event DAG records the same deliveries as neigh
edges (the payload is the event id).

A device is on while some path segment covers the current time.
Segments that abut or overlap make one continuous on-interval; only a
gap is an outage, and it drops everything the device had stored.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .ast import Expr, Program, num
from .builtins import EvalError, SensorState
from .device import (
    DEFAULT_FUEL,
    ValueTree,
    evaluate_main,
    tree_to_json,
    value_to_json,
    value_to_text,
)


class ScenarioError(ValueError):
    pass


class FireError(EvalError):
    """An evaluation error wrapped with the time and device of the fire."""


Timestamp = Fraction


def as_time(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ScenarioError(f"not a timestamp: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, str)):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"not a timestamp: {x!r}") from None
    raise ScenarioError(f"not a timestamp: {x!r}")


# ---------------------------------------------------------------------------
# scenarios

@dataclass(frozen=True)
class PathSeg:
    start: Timestamp
    end: Timestamp
    waypoints: tuple  # of (x, y)


@dataclass(frozen=True)
class Scenario:
    devices: tuple
    radius: float
    decay: Timestamp
    paths: dict  # DeviceId -> tuple of PathSeg
    fires: tuple  # of (Timestamp, DeviceId), strictly increasing times
    sensor_scripts: dict = dc_field(default_factory=dict)
    # DeviceId -> {sensor name -> tuple of (start time or None, value)}


def _interp(seg: PathSeg, t: Timestamp):
    pts = seg.waypoints
    if len(pts) == 1 or seg.end == seg.start:
        return pts[0]
    frac = (t - seg.start) / (seg.end - seg.start)
    pos = frac * (len(pts) - 1)
    i = min(int(pos), len(pts) - 2)
    u = float(pos - i)
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))


def position_at(sc: Scenario, d: int, t: Timestamp):
    """Position while active; None when no path segment covers t."""
    for seg in sc.paths.get(d, ()):
        if seg.start <= t <= seg.end:
            return _interp(seg, t)
    return None


def clamped_position_at(sc: Scenario, d: int, t: Timestamp):
    """Position at t, falling back to the nearest earlier segment end
    (or the very first waypoint when t precedes all segments)."""
    pos = position_at(sc, d, t)
    if pos is not None:
        return pos
    best = None
    first = None
    for seg in sc.paths.get(d, ()):
        if first is None or seg.start < first.start:
            first = seg
        if seg.end <= t and (best is None or seg.end > best.end):
            best = seg
    if best is not None:
        return best.waypoints[-1]
    if first is not None:
        return first.waypoints[0]
    return None


def ranges_at(sc: Scenario, d: int, t: Timestamp, others=None) -> dict:
    """Distances from d to each other device at time t, using clamped
    positions for devices currently off. Shared by the simulator and the
    denotational evaluator so both sides sense identical ranges."""
    here = clamped_position_at(sc, d, t)
    if here is None:
        raise ScenarioError(f"device {d} has no path")
    out = {}
    for d2 in (sc.devices if others is None else others):
        there = clamped_position_at(sc, d2, t)
        if there is not None:
            out[d2] = math.dist(here, there)
    return out


def sample_script(steps, t: Timestamp):
    """Value of a piecewise-constant script at t; None before the first step."""
    current = None
    for start, v in steps:
        if start is None or start <= t:
            current = v
    return current


def sensors_at(sc: Scenario, d: int, t: Timestamp, others=None) -> SensorState:
    """Sensor readings of d at t; nbr-range covers ``others`` (every
    device when None)."""
    local = {}
    for name, steps in sc.sensor_scripts.get(d, {}).items():
        v = sample_script(steps, t)
        if v is not None:
            local[name] = v
    return SensorState(local=local, nbr={"nbr-range": ranges_at(sc, d, t, others)})


# ---------------------------------------------------------------------------
# the delivery sweep

@dataclass(frozen=True)
class Stored:
    payload: object  # a ValueTree in the simulator, an event id in the DAG
    tag: Timestamp


def _on_intervals(segs) -> tuple:
    """Maximal (start, end) intervals covered by the segments, sorted;
    segments that abut or overlap merge into one."""
    out = []
    for seg in sorted(segs, key=lambda s: s.start):
        if out and seg.start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], seg.end)
        else:
            out.append([seg.start, seg.end])
    return tuple((a, b) for a, b in out)


class World:
    """The physical world of one scenario, built once per sweep: each
    device's on-intervals; positions come from the scenario's paths."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.on = {d: _on_intervals(sc.paths.get(d, ())) for d in sc.devices}


def hearers(world: World, d: int, t: Timestamp) -> list:
    """Devices on at t and within radius of d, d included."""
    sc = world.sc
    here = position_at(sc, d, t)
    out = []
    for d2 in sc.devices:
        there = position_at(sc, d2, t)
        if there is not None and math.dist(here, there) <= sc.radius:
            out.append(d2)
    return out


def env_change(world: World, d: int, t: Timestamp) -> Timestamp:
    """When d last joined the network: the start of its on-interval
    containing t. Nothing d stored before then survived its outage."""
    for start, end in world.on.get(d, ()):
        if start <= t <= end:
            return start
    raise ScenarioError(f"device {d} fires at t={t} but is not in the network")


def filter_old(world: World, inbox: dict, d: int, now: Timestamp) -> dict:
    """Cut d's inbox for good at max(now - decay, d's last reboot) and
    return it: what is older has expired or was lost while d was off."""
    cutoff = max(now - world.sc.decay, env_change(world, d, now))
    box = inbox[d]
    for sender in [s for s, m in box.items() if m.tag < cutoff]:
        del box[sender]
    return box


def env_at(world: World, inbox: dict, d: int, t: Timestamp):
    """The firing device's view of the world at t: its fresh inbox and
    its sensors, ranging over itself and its fresh senders only."""
    fresh = filter_old(world, inbox, d, t)
    return fresh, sensors_at(world.sc, d, t, (d, *fresh))


def sweep(sc: Scenario, step) -> None:
    """Run the scenario's fires in time order. ``step(t, d, fresh,
    sensors)`` returns the payload d sends; ``fresh`` maps each sender d
    hears to its Stored message and is only valid during the call."""
    world = World(sc)
    inbox = {d: {} for d in sc.devices}
    for t, d in sc.fires:
        fresh, sensors = env_at(world, inbox, d, t)
        msg = Stored(step(t, d, fresh, sensors), t)
        for d2 in hearers(world, d, t):
            inbox[d2][d] = msg


def fire(program: Program, d: int, now: Timestamp, fresh: dict,
         sensors: SensorState, fuel: int = DEFAULT_FUEL, rng=None) -> ValueTree:
    """One firing of device d: evaluate main against the trees in its
    fresh inbox."""
    env = {d2: m.payload for d2, m in fresh.items()}
    try:
        return evaluate_main(program, d, env, sensors, fuel, rng)
    except EvalError as e:
        raise FireError(f"t={now} device={d}: {e}") from e


# ---------------------------------------------------------------------------
# running a scenario

@dataclass(frozen=True)
class FireRecord:
    t: Timestamp
    device: int
    root: Expr
    tree: ValueTree
    env_domain: frozenset


@dataclass
class FireTrace:
    records: list = dc_field(default_factory=list)

    def roots(self):
        return [r.root for r in self.records]

    def jsonl(self) -> str:
        lines = []
        for r in self.records:
            lines.append(json.dumps({
                "t": str(r.t),
                "device": r.device,
                "root": value_to_json(r.root),
                "tree": tree_to_json(r.tree),
                "env": sorted(r.env_domain),
            }, separators=(",", ":"), sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "device", "root"])
        for r in self.records:
            w.writerow([str(r.t), r.device, value_to_text(r.root)])
        return buf.getvalue()


def run_scenario(sc: Scenario, program: Program, fuel: int = DEFAULT_FUEL,
                 rng=None) -> FireTrace:
    """Evaluate the program along the delivery sweep, one record per fire."""
    trace = FireTrace()

    def step(t, d, fresh, sensors):
        tree = fire(program, d, t, fresh, sensors, fuel, rng)
        trace.records.append(FireRecord(t, d, tree.root, tree, frozenset(fresh)))
        return tree

    sweep(sc, step)
    return trace


# ---------------------------------------------------------------------------
# JSON shapes: scenario and DAG files are read by plain indexing, one part
# (a segment, a fire, an event, an edge) inside one try, so valid input
# pays nothing for the diagnosis; a part that does not have its shape is a
# ScenarioError naming it. Explicit checks stay only where a wrong shape
# would not raise: containers of the wrong kind and non-integer ids.

SHAPE_ERRORS = (KeyError, TypeError, ValueError, ScenarioError)


def shape_error(what: str, shape: str, v, exc: Exception) -> ScenarioError:
    """The diagnostic for part ``what`` of a JSON file, read from ``v``
    expecting ``shape``, whose reading raised ``exc``."""
    if isinstance(exc, KeyError) and isinstance(v, dict):
        return ScenarioError(f"{what} lacks key {exc.args[0]!r}")
    if isinstance(exc, ScenarioError):
        return ScenarioError(f"{what}: {exc}")
    return ScenarioError(f"{what} must be {shape}, got {v!r}")


def json_container(v, kind: type, what: str):
    if not isinstance(v, kind):
        name = "a JSON object" if kind is dict else "a list"
        raise ScenarioError(f"{what} must be {name}, got {v!r}")
    return v


def json_id(v, what: str) -> int:
    """An integer id; object keys carry it as a string."""
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise ScenarioError(f"{what} must be an integer, got {v!r}")


SEGMENT_SHAPE = '{"from": time, "to": time, "waypoints": [[x, y], ...]}'
FIRE_SHAPE = '{"t": time, "device": id}'


def _parse_scalar(v) -> Expr:
    from .ast import boolean
    from .parser import ParseError, parse_value

    if isinstance(v, bool):
        return boolean(v)
    if isinstance(v, (int, float)):
        return num(v)
    if isinstance(v, str):
        try:
            return parse_value(v)
        except ParseError as e:
            raise ScenarioError(f"cannot read sensor value {v!r}: {e.msg}") from None
    raise ScenarioError(f"cannot read sensor value {v!r}")


def _parse_script(v):
    if isinstance(v, dict) and set(v) == {"steps"}:
        steps = []
        for step in json_container(v["steps"], list, "sensor steps"):
            try:
                t, value = step
                steps.append((as_time(t), _parse_scalar(value)))
            except SHAPE_ERRORS as e:
                raise shape_error("sensor step", "[time, value]", step, e) from None
        steps.sort(key=lambda s: s[0])
        return tuple(steps)
    return ((None, _parse_scalar(v)),)


def scenario_from_json(obj) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    missing = {"devices", "radius", "decay", "fires"} - set(obj)
    if missing:
        raise ScenarioError(f"scenario lacks keys: {', '.join(sorted(missing))}")
    devices = tuple(json_id(d, "device id")
                    for d in json_container(obj["devices"], list, "devices"))
    if len(set(devices)) != len(devices):
        raise ScenarioError("duplicate device ids")
    paths = {}
    for key, segs in json_container(obj.get("paths", {}), dict, "paths").items():
        d = json_id(key, "device id")
        if d not in devices:
            raise ScenarioError(f"path for unknown device {d}")
        out = []
        for i, seg in enumerate(json_container(segs, list, f"path of device {d}")):
            try:
                start, end = as_time(seg["from"]), as_time(seg["to"])
                pts = tuple((float(x), float(y)) for x, y in seg["waypoints"])
            except SHAPE_ERRORS as e:
                raise shape_error(f"path segment {i} of device {d}", SEGMENT_SHAPE,
                                  seg, e) from None
            if end < start:
                raise ScenarioError(f"path segment of device {d} ends before it starts")
            if not pts:
                raise ScenarioError(f"empty waypoints for device {d}")
            out.append(PathSeg(start, end, pts))
        paths[d] = tuple(out)
    fires = []
    for i, f in enumerate(json_container(obj["fires"], list, "fires")):
        try:
            t, d = as_time(f["t"]), f["device"]
        except SHAPE_ERRORS as e:
            raise shape_error(f"fire {i}", FIRE_SHAPE, f, e) from None
        if type(d) is not int:
            d = json_id(d, f"device of fire {i}")
        if d not in devices:
            raise ScenarioError(f"fire by unknown device {d}")
        fires.append((t, d))
    fires.sort(key=lambda f: f[0])
    for (t1, _), (t2, _) in zip(fires, fires[1:]):
        if t1 == t2:
            raise ScenarioError(f"two fires at the same instant t={t1}")
    sensors = {}
    for key, table in json_container(obj.get("sensors", {}), dict, "sensors").items():
        d = json_id(key, "device id")
        if d not in devices:
            raise ScenarioError(f"sensors for unknown device {d}")
        table = json_container(table, dict, f"sensors of device {d}")
        sensors[d] = {name: _parse_script(v) for name, v in table.items()}
    try:
        radius = float(obj["radius"])
    except (TypeError, ValueError):
        raise ScenarioError(f"radius must be a number, got {obj['radius']!r}") from None
    try:
        decay = as_time(obj["decay"])
    except ScenarioError as e:
        raise ScenarioError(f"decay: {e}") from None
    return Scenario(
        devices=devices,
        radius=radius,
        decay=decay,
        paths=paths,
        fires=tuple(fires),
        sensor_scripts=sensors,
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ScenarioError(f"{path}: not valid JSON: {e}") from None
    return scenario_from_json(obj)
