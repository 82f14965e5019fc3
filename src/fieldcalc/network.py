"""Whole-network evolution driven by timed scenarios.

Scenarios script everything external: device motion as piecewise paths,
fire times, sensor readings. Timestamps are exact rationals. The sweep
compares them as integer ticks of 1/L, L the lcm of the denominators of
decay, fire times and segment borders, so it suffers no float drift and
does no Fraction arithmetic.

One forward delivery sweep decides who hears whom. Every device keeps an
inbox holding the latest payload of each sender, beside the tick it was
sent at. When device d fires at t, the sweep reads only d's part of the
world: it cuts d's inbox at max(t - decay, start of d's current
on-interval), computes d's sensors (ranges to d and its fresh senders
only), lets its consumer turn the fresh payloads, by sender, into a
payload, and delivers that payload to every device that is on and within
radius at t, d itself included. The simulator evaluates the program
along the sweep (the payload is the value-tree), and the denotation
denotes each fire's event along it (the payload is the event's record);
the induced event DAG records the same deliveries as neigh edges (the
payload is the event id). An event DAG's replay takes the same consumer
(``walk``).

A device is on while some path segment covers the current time.
Segments that abut or overlap make one continuous on-interval; only a
gap is an outage, and it drops everything the device had stored.

A fire costs O(neighbours), not O(N): the sweep's World queries each
device's position at most once per instant, and a still device, one that
never leaves one point, sits in a grid cell of side just over the
radius, so a fire checks the 3 x 3 cells around it and the devices that
move. A still device's geometry cannot change, so the World works it out
once, at its first fire: its still neighbours within radius, of which a
later fire asks only which are on, and its range to each still device.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Optional

from .ast import Expr, Frozen, Program, Record, boolean, num, set_field
from .builtins import TABLE, EvalError, SensorState
from .device import (
    DEFAULT_FUEL,
    ValueTree,
    csv_text,
    evaluate_main,
    list_json,
    record_json,
    scalar_json,
    tree_json,
    value_json,
    value_to_text,
)
from .parser import ParseError, parse_value


class ScenarioError(ValueError):
    pass


class FireError(EvalError):
    """An evaluation error wrapped with the time and device of the fire."""


Timestamp = Fraction


# a decimal time with an exponent: its integer digits, fraction digits and exponent
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?"
                       r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def as_time(x) -> Fraction:
    """A time, exact. Each output line prints its time, so one whose
    numerator or denominator has more digits than Python converts to text
    (sys.get_int_max_str_digits()) is refused, before Fraction expands
    an exponent that alone makes it so."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float, Fraction)):
        raise ScenarioError(f"not a timestamp: {show_value(x)}")
    limit = sys.get_int_max_str_digits() or math.inf
    s = str(x) if isinstance(x, (float, str)) else ""
    m = _EXPONENT.fullmatch(s) if "e" in s or "E" in s else None
    if m:  # s is a mantissa of n digits times 10 ** (exponent - fraction digits)
        frac, exp = (m[2] or "").replace("_", ""), m[3].replace("_", "")
        n = len((m[1].replace("_", "") + frac).lstrip("0"))
        if n and (len(exp.lstrip("+-0")) > 18 or not -limit - n < int(exp) - len(frac) < limit):
            raise ScenarioError(f"timestamp has more than {limit} digits, got {show_value(x)}")
        s = s if n else "0"  # zero, whatever its exponent
    try:
        t = Fraction(s or x)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"not a timestamp: {show_value(x)}") from None
    if fault := _digit_fault(t, limit, x):
        raise ScenarioError(fault)
    return t


def _digit_fault(t, limit, given) -> Optional[str]:
    """as_time's text on the exact time t, shown as given, when its numerator
    or denominator has more than limit digits; None when neither has."""
    num, den = t.as_integer_ratio()  # 2 ** (3 * limit) < 10 ** limit
    if max(num.bit_length(), den.bit_length()) > 3 * limit and max(-num, num, den) >= 10 ** limit:
        return f"timestamp has more than {limit} digits, got {show_value(given)}"
    return None


# ---------------------------------------------------------------------------
# scenarios

class PathSeg(Frozen):
    __slots__ = _fields = ("start", "end", "waypoints")  # waypoints: a tuple of (x, y)


class Scenario(Frozen):
    """paths maps a device id to its tuple of PathSeg; fires holds
    (Timestamp, device id) pairs at strictly increasing times;
    sensor_scripts maps a device id to {sensor name: tuple of (start time
    or None, value)}, a new empty dict when not given."""

    __slots__ = _fields = ("devices", "radius", "decay", "paths", "fires", "sensor_scripts")

    def __init__(self, devices: tuple, radius: float, decay: Timestamp, paths: dict,
                 fires: tuple, sensor_scripts: Optional[dict] = None):
        # the one check of radius, decay and sensor names, which may arrive
        # raw from a file, an override or a caller: a negative or NaN radius
        # would cut a device off from itself, a negative decay would expire
        # messages early, a sensor no sns-* builtin names is never read, and
        # a caller's time with more digits than as_time allows never prints
        try:
            r = math.nan if isinstance(radius, bool) else float(radius)
        except (TypeError, ValueError):
            r = math.nan
        if not r >= 0:
            raise ScenarioError(f"radius must be a number >= 0, got {show_value(radius)}")
        try:
            d = as_time(decay)
        except ScenarioError as e:
            raise ScenarioError(f"decay: {e}") from None
        if d < 0:
            raise ScenarioError(f"decay must be >= 0, got {show_value(d, str)}")
        limit = sys.get_int_max_str_digits() or math.inf
        for i, (t, _) in enumerate(fires):
            if fault := _digit_fault(t, limit, t):
                raise ScenarioError(f"fire {i}: {fault}")
        for device, segs in paths.items():
            for i, t in enumerate(b for seg in segs for b in (seg.start, seg.end)):
                if fault := _digit_fault(t, limit, t):
                    raise ScenarioError(f"path segment {i // 2} of device {device}: {fault}")
        sensor_scripts = {} if sensor_scripts is None else sensor_scripts
        for device, table in sensor_scripts.items():
            for name in table:
                if not TABLE.is_sensor_name(name):
                    raise ScenarioError(f"unknown sensor {show_value(name)} for device {device}: "
                                        "a sensor is named by an sns-* builtin")
        set_field(self, "devices", devices)
        set_field(self, "radius", r)
        set_field(self, "decay", d)
        set_field(self, "paths", paths)
        set_field(self, "fires", fires)
        set_field(self, "sensor_scripts", sensor_scripts)

    def replace(self, **changes) -> Scenario:
        """This scenario with the named fields changed, checked again."""
        return Scenario(**{**{f: getattr(self, f) for f in self._fields}, **changes})


def sample_script(steps, t: Timestamp):
    """Value of a piecewise-constant script at t; None before the first step."""
    current = None
    for start, v in steps:
        if start is None or start <= t:
            current = v
    return current


# ---------------------------------------------------------------------------
# the world and the delivery sweep

def _on_intervals(segs) -> tuple:
    """Maximal (start, end) intervals covered by the (start, end, ...)
    segments, sorted; segments that abut or overlap merge into one."""
    out = []
    for start, end, *_ in sorted(segs, key=lambda s: s[0]):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return tuple((a, b) for a, b in out)


class World:
    """The physical world of one scenario, built once per sweep, at the
    instant the sweep has reached (``at``): times in ticks of 1/scale,
    per-instant positions, the radius grid and the fixed geometry of the
    still devices."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        times = [sc.decay, *(t for t, _ in sc.fires),
                 *(b for segs in sc.paths.values() for s in segs for b in (s.start, s.end))]
        self.scale = math.lcm(*{t.denominator for t in times})
        self.decay = self.tick(sc.decay)
        self.paths = {d: tuple((self.tick(s.start), self.tick(s.end), s.waypoints)
                               for s in segs) for d, segs in sc.paths.items()}
        self.on = {d: _on_intervals(self.paths.get(d, ())) for d in sc.devices}
        # a still device: every waypoint of every segment is the same point,
        # which is then its clamped position at every instant
        self.spots = {}
        for d in sc.devices:
            spots = {p for _, _, pts in self.paths.get(d, ()) for p in pts}
            if len(spots) == 1:
                self.spots[d] = spots.pop()
        # the cell side exceeds the radius by a relative 2^-20, which outweighs
        # the rounding of math.dist and of p / side while |p / side| < 2^30:
        # then a point within radius is at most one cell index away
        self.side = sc.radius * (1 + 2**-20)
        self.cells, self.movers = {}, list(range(len(sc.devices)))
        if sc.radius < self.side < math.inf:  # else the scan: radius 0 or inf
            self.movers = []
            for i, d in enumerate(sc.devices):
                key = self.cell(self.spots[d]) if d in self.spots else None
                if key is None:
                    self.movers.append(i)
                else:
                    self.cells.setdefault(key, []).append(i)
        # filled as devices first fire: a still device's hearer candidates
        # (None for any other device), and its ranges to still devices
        self._near, self.ranges = {}, {}
        self.t = self.now = self._pos = None

    def tick(self, t: Timestamp) -> int:
        if self.scale % t.denominator:
            raise ValueError(f"t={t} is not a whole number of ticks of 1/{self.scale}")
        return t.numerator * (self.scale // t.denominator)

    def at(self, t: Timestamp) -> World:
        """Move to instant t: positions are queried afresh."""
        self.t, self.now, self._pos = t, self.tick(t), {}
        return self

    def position(self, d: int):
        """d's position now, None while it is off: one query per instant."""
        pos = self._pos
        if d not in pos:
            pos[d] = position_at(self, d, self.now)
        return pos[d]

    def cell(self, p):
        """The grid cell of point p; None where rounding could misfile it."""
        x, y = p[0] / self.side, p[1] / self.side
        if abs(x) < 2**30 and abs(y) < 2**30:
            return math.floor(x), math.floor(y)
        return None

    def near(self, here) -> list:
        """Indices in sc.devices, in order, of the devices that may be
        within radius of ``here``: its 3 x 3 cells and every mover."""
        if not self.cells:
            return self.movers
        key = self.cell(here)
        if key is None:
            return range(len(self.sc.devices))
        out, (cx, cy), cells = list(self.movers), key, self.cells
        for x in (cx - 1, cx, cx + 1):
            for y in (cy - 1, cy, cy + 1):
                out += cells.get((x, y), ())
        out.sort()
        return out

    def still_near(self, d: int):
        """(device, close) of each device that may hear still device d, in
        sc.devices order, worked out at d's first call: the still devices
        within radius, which are ``close`` for good, and every mover. None
        when d moves, sits off the grid or the grid is off."""
        try:
            return self._near[d]
        except KeyError:
            pass
        here, near = self.spots.get(d), None
        if here is not None and self.cells and self.cell(here) is not None:
            devices, movers = self.sc.devices, set(self.movers)
            near = [(devices[i], i not in movers) for i in self.near(here) if i in movers
                    or math.dist(here, self.spots[devices[i]]) <= self.sc.radius]
        self._near[d] = near
        return near


def position_at(world: World, d: int, now: int):
    """d's position at tick ``now``; None when no path segment covers it.
    The first listed segment covering ``now`` wins. Interpolating on ints
    gives the same float as on the exact rationals."""
    for start, end, pts in world.paths.get(d, ()):
        if start <= now <= end:
            if len(pts) == 1 or end == start:
                return pts[0]
            num, den = (now - start) * (len(pts) - 1), end - start
            i = min(num // den, len(pts) - 2)
            u = (num - i * den) / den
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))
    return None


def clamped_position_at(world: World, d: int):
    """d's position now, falling back to the nearest earlier segment end
    (or the very first waypoint when now precedes all segments)."""
    pos, segs = world.position(d), world.paths.get(d)
    if pos is not None or not segs:
        return pos
    ended = [s for s in segs if s[1] <= world.now]
    if ended:
        return max(ended, key=lambda s: s[1])[2][-1]
    return min(segs, key=lambda s: s[0])[2][0]


def hearers(world: World, d: int) -> list:
    """Devices on now and within radius of d, d included, in sc.devices
    order."""
    position, radius = world.position, world.sc.radius
    near = world.still_near(d)
    if near is not None:  # d is still: only who is on, and where movers are, is new
        here = world.spots[d]
        return [d2 for d2, close in near if (there := position(d2)) is not None
                and (close or math.dist(here, there) <= radius)]
    here, devices, out = position(d), world.sc.devices, []
    for i in world.near(here):
        there = position(devices[i])
        if there is not None and math.dist(here, there) <= radius:
            out.append(devices[i])
    return out


def ranges_at(world: World, d: int, others) -> dict:
    """Distances from d to each of ``others`` now, devices that have fired
    (so each has a path), using clamped positions for devices currently
    off. Shared by the simulator and the denotational evaluator so both
    sides sense identical ranges. A range between two still devices
    never changes: it is worked out once."""
    spots, out = world.spots, {}
    here = spots.get(d)
    if here is not None:
        known = world.ranges.setdefault(d, {})
    else:  # d moves: no range from it is kept
        here, known = clamped_position_at(world, d), {}
    for d2 in others:
        r = known.get(d2)
        if r is None:
            r = math.dist(here, clamped_position_at(world, d2))
            if d2 in spots:
                known[d2] = r
        out[d2] = r
    return out


def sensors_at(world: World, d: int, others) -> SensorState:
    """Sensor readings of d now; its ranges cover ``others``."""
    local = {}
    for name, steps in world.sc.sensor_scripts.get(d, {}).items():
        v = sample_script(steps, world.t)
        if v is not None:
            local[name] = v
    return SensorState(local, ranges_at(world, d, others))


def env_change(world: World, d: int) -> int:
    """When d last joined the network, in ticks: the start of its
    on-interval containing now. Nothing d stored before then survived its
    outage."""
    now = world.now
    for start, end in world.on.get(d, ()):
        if start <= now <= end:
            return start
    raise ScenarioError(f"device {d} fires at t={world.t} but is not in the network")


def filter_old(world: World, inbox: dict, d: int) -> dict:
    """Cut d's inbox, the pair (payloads, ticks sent) by sender, for good
    at max(now - decay, d's last reboot), and return its payloads: what
    is older has expired or was lost while d was off."""
    cutoff = max(world.now - world.decay, env_change(world, d))
    payloads, ticks = inbox[d]
    for sender in [s for s, tick in ticks.items() if tick < cutoff]:
        del payloads[sender], ticks[sender]
    return payloads


def env_at(world: World, inbox: dict, d: int):
    """The firing device's view of the world now: its fresh payloads by
    sender and its sensors, ranging over itself and its fresh senders
    only."""
    fresh = filter_old(world, inbox, d)
    return fresh, sensors_at(world, d, (d, *fresh))


def sweep(sc: Scenario, step) -> None:
    """Run the scenario's fires in time order. ``step(i, t, d, fresh,
    sensors)`` returns the payload d sends, where i numbers the fires from
    0; ``fresh`` maps each sender d hears to its payload and is only valid
    during the call. Each inbox keeps its payloads beside the ticks they
    were sent at, which no step sees."""
    world = World(sc)
    inbox = {d: ({}, {}) for d in sc.devices}
    for i, (t, d) in enumerate(sc.fires):
        fresh, sensors = env_at(world.at(t), inbox, d)
        payload, now = step(i, t, d, fresh, sensors), world.now
        for d2 in hearers(world, d):
            payloads, ticks = inbox[d2]
            payloads[d] = payload
            ticks[d] = now


def walk(src, step) -> None:
    """Run step at each event of src: the sweep of a Scenario, the replay
    of an event DAG (denot.EventDAG.replay), each calling it as sweep does."""
    if isinstance(src, Scenario):
        sweep(src, step)
    else:
        src.replay(step)


def fire(program: Program, d: int, now: Timestamp, env: dict,
         sensors: SensorState, fuel: int = DEFAULT_FUEL, rng=None) -> ValueTree:
    """One firing of device d: evaluate main against env, the trees of its
    fresh senders by device."""
    try:
        return evaluate_main(program, d, env, sensors, fuel, rng)
    except EvalError as e:
        raise FireError(f"t={now} device={d}: {e}") from e


# ---------------------------------------------------------------------------
# running a scenario

class FireRecord(Frozen):
    # env_domain: the frozenset of the senders the fire heard
    __slots__ = _fields = ("t", "device", "root", "tree", "env_domain")


# The text of one fire, for fieldc run and FireTrace alike: senders are the
# devices the fire heard.

RUN_CSV_HEADER = ("t", "device", "root")


def fire_jsonl(t: Timestamp, d: int, tree: ValueTree, senders) -> str:
    """A fire's JSONL line, its keys in sorted order; the root's text is
    made once, for the record and its tree."""
    root = value_json(tree.root)
    return record_json(
        ("device", scalar_json(d)),
        ("env", list_json(map(str, sorted(senders)))),  # ids are ints
        ("root", root),
        ("t", scalar_json(str(t))),
        ("tree", tree_json(tree, root))) + "\n"


def fire_csv_row(t: Timestamp, d: int, root) -> list:
    return [str(t), d, value_to_text(root)]


class FireTrace(Record):
    __slots__ = _fields = ("records",)

    def __init__(self, records: Optional[list] = None):
        self.records = [] if records is None else records

    def jsonl(self) -> str:
        """One canonical JSON object per fire, its keys in sorted order."""
        return "".join([fire_jsonl(r.t, r.device, r.tree, r.env_domain) for r in self.records])

    def csv(self) -> str:
        return csv_text(RUN_CSV_HEADER,
                        (fire_csv_row(r.t, r.device, r.root) for r in self.records))


def run_scenario(src, program: Program, fuel: int = DEFAULT_FUEL,
                 rng=None, sink=None) -> Optional[FireTrace]:
    """Fire the program at each event of src, a scenario or an event DAG
    (``walk``). ``sink(t, d, tree, fresh)`` takes each fire as it returns,
    where ``fresh`` holds the trees it heard by sender, valid only during
    the call; without a sink, one record per fire is kept and the
    FireTrace of them returned."""
    trace = None
    if sink is None:
        trace = FireTrace()
        records = trace.records

        def sink(t, d, tree, fresh):
            records.append(FireRecord(t, d, tree.root, tree, frozenset(fresh)))

    def step(i, t, d, fresh, sensors):
        tree = fire(program, d, t, fresh, sensors, fuel, rng)
        sink(t, d, tree, fresh)
        return tree

    walk(src, step)
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
    return ScenarioError(f"{what} must be {shape}, got {show_value(v)}")


def json_container(v, kind: type, what: str):
    if not isinstance(v, kind):
        name = "a JSON object" if kind is dict else "a list"
        raise ScenarioError(f"{what} must be {name}, got {show_value(v)}")
    return v


def json_id(v, what: str) -> int:
    """An integer id; object keys carry it as a string."""
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            s = v.strip()
            if (s[1:] if s[:1] in ("+", "-") else s).isdecimal():  # refused for its length
                raise ScenarioError(f"{what} has too many digits to read, "
                                    f"got {show_id(s.removeprefix('+'))}") from None
    raise ScenarioError(f"{what} must be an integer, got {show_value(v)}")


# uid() is a float, which holds every integer in this range exactly
DEVICE_ID_LIMIT = 2 ** 53


def show_id(d: int) -> str:
    """An id read from a file, for a diagnostic: a long one by its head and digit count."""
    s = str(d)
    return s if len(s) <= 20 else f"{s[:12]}... ({len(s.lstrip('-'))} digits)"


def show_value(v, text=repr) -> str:
    """Any other value read from a file, for a diagnostic, as text shows it:
    a long one by its head and length."""
    try:
        s = text(v)
    except ValueError:  # it holds an integer longer than Python will print
        return "a value with too many digits to print"
    return s if len(s) <= 80 else f"{s[:60]}... ({len(s)} characters)"


def json_device(v, what: str) -> int:
    """A device id: an integer id that uid() represents exactly."""
    d = json_id(v, what)
    if not -DEVICE_ID_LIMIT <= d <= DEVICE_ID_LIMIT:
        raise ScenarioError(f"{what} must lie in [-2**53, 2**53], where uid() "
                            f"is exact, got {show_id(d)}")
    return d


SEGMENT_SHAPE = '{"from": time, "to": time, "waypoints": [[x, y], ...]}'
FIRE_SHAPE = '{"t": time, "device": id}'


def _parse_scalar(v) -> Expr:
    if isinstance(v, bool):
        return boolean(v)
    if isinstance(v, (int, float)):
        return num(v)
    if isinstance(v, str):
        try:
            return parse_value(v)
        except ParseError as e:
            raise ScenarioError(f"cannot read sensor value {show_value(v)}: {e.msg}") from None
    raise ScenarioError(f"cannot read sensor value {show_value(v)}")


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
    devices = tuple(json_device(d, "device id")
                    for d in json_container(obj["devices"], list, "devices"))
    if len(set(devices)) != len(devices):
        raise ScenarioError("duplicate device ids")
    paths = {}
    for key, segs in json_container(obj.get("paths", {}), dict, "paths").items():
        d = json_id(key, "device id")
        if d not in devices:
            raise ScenarioError(f"path for unknown device {show_id(d)}")
        out = []
        for i, seg in enumerate(json_container(segs, list, f"path of device {d}")):
            try:
                start, end = as_time(seg["from"]), as_time(seg["to"])
                pts = tuple((float(x), float(y)) for x, y in seg["waypoints"])
                if any(isinstance(c, bool) for p in seg["waypoints"] for c in p):
                    raise ScenarioError("waypoints must be numbers, "
                                        f"got {show_value(seg['waypoints'])}")
                if not all(map(math.isfinite, (c for p in pts for c in p))):
                    raise ScenarioError("waypoints must be finite, "
                                        f"got {show_value(seg['waypoints'])}")
                # interpolation scales the step between waypoints, which must
                # be finite too: [-1e308, 0] to [1e308, 0] would overflow
                if not all(math.isfinite(b - a) for p, q in zip(pts, pts[1:])
                           for a, b in zip(p, q)):
                    raise ScenarioError("consecutive waypoints must differ by a finite "
                                        f"amount, got {show_value(seg['waypoints'])}")
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
            raise ScenarioError(f"fire by unknown device {show_id(d)}")
        fires.append((t, d))
    fires.sort(key=lambda f: f[0])
    for (t1, _), (t2, _) in zip(fires, fires[1:]):
        if t1 == t2:
            raise ScenarioError(f"two fires at the same instant t={t1}")
    sensors = {}
    for key, table in json_container(obj.get("sensors", {}), dict, "sensors").items():
        d = json_id(key, "device id")
        if d not in devices:
            raise ScenarioError(f"sensors for unknown device {show_id(d)}")
        table = json_container(table, dict, f"sensors of device {d}")
        sensors[d] = {name: _parse_script(v) for name, v in table.items()}
    return Scenario(
        devices=devices,
        radius=obj["radius"],
        decay=obj["decay"],
        paths=paths,
        fires=tuple(fires),
        sensor_scripts=sensors,
    )

