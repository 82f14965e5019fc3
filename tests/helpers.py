"""Shared fixtures: the four-device example DAG and its JSON, scenario
builders, the all-pairs references for the world's answers and the
induced DAG, the sorting field constructor, the value order and
pointwise lifting that the builtins' value order and field kernels are
checked against, the JSON objects of values, trees and output records
that the canonical-JSON writer is checked against and readers of them,
the substitution reference for the device evaluator, the fixpoint
reference for the denotation, the package's denotation of an event set
under assumptions (denot_eval) and of a program at each event of a DAG
(denotation), the restriction checker, and small
helpers only tests call (a leaf tree, an expression's subexpressions,
a trace's roots, a tree's i-th subtree, a scenario's JSON, a program's
source text, a bare expression's type).

The DAG mirrors the running example: four devices firing 4 to 6 times,
device 2 rebooting after its second firing (so the self-link into its
third firing is severed), and connectivity between devices 2 and 4
dropping before device 4's fourth firing. Devices 1 and 3 are never in
range of each other. Event 12 (device 3's third firing) plays the role
of the highlighted event: it is aware of devices 2, 3 and 4 only.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction as F
from itertools import repeat
from typing import Optional

from fieldcalc.ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    Expr,
    FieldVal,
    Lambda,
    Nbr,
    Rep,
    Var,
    boolean,
    children,
    is_num,
    num,
    restrict_value,
    substitute,
)
from fieldcalc.builtins import TABLE, EvalError, SensorState
from fieldcalc.denot import (
    DenotError,
    Event,
    EventDAG,
    _Denot,
    _Scope,
    denot_program,
    latest_event,
    nbr_devices,
    restrict_evolution,
    shift,
)
from fieldcalc.device import (
    DEFAULT_FUEL,
    EvalContext,
    FuelExhausted,
    MalformedEnv,
    ValueTree,
    fun_parts,
)
from fieldcalc.network import PathSeg, Scenario, as_time, sample_script
from fieldcalc.parser import parse_expr, pretty, show_num
from fieldcalc.typer import Base, Typer

NUM = Base("num")
BOOL = Base("bool")

# (id, device, time)
EXAMPLE_EVENTS = [
    (1, 1, "1"), (2, 1, "4"), (3, 1, "7"), (4, 1, "10"),
    (5, 2, "1/2"), (6, 2, "3"), (7, 2, "6"), (8, 2, "17/2"), (9, 2, "11"),
    (10, 3, "3/2"), (11, 3, "9/2"), (12, 3, "15/2"), (13, 3, "21/2"),
    (14, 4, "4/5"), (15, 4, "16/5"), (16, 4, "29/5"),
    (17, 4, "41/5"), (18, 4, "54/5"), (19, 4, "12"),
]

# (sender, receiver); device 2's reboot removes (6, 7), the 2-4 drop
# removes every 2->4 and 4->2 edge that would be sent from t=8 on
EXAMPLE_NEIGH = [
    # same-device chains
    (1, 2), (2, 3), (3, 4),
    (5, 6), (7, 8), (8, 9),
    (10, 11), (11, 12), (12, 13),
    (14, 15), (15, 16), (16, 17), (17, 18), (18, 19),
    # devices 1 and 2
    (5, 1), (1, 6), (6, 2), (2, 7), (7, 3), (3, 8), (8, 4), (4, 9),
    # devices 2 and 3
    (5, 10), (10, 6), (6, 11), (11, 7), (7, 12), (12, 8), (8, 13), (13, 9),
    # devices 3 and 4
    (14, 10), (10, 15), (15, 11), (11, 16), (16, 12), (12, 17),
    (17, 13), (13, 18), (13, 19),
    # devices 2 and 4, until the connection drops
    (5, 14), (14, 6), (6, 15), (6, 16), (16, 7), (16, 8),
]

FOCUS = 12


def example_dag() -> EventDAG:
    return EventDAG(
        [Event(i, d, as_time(t)) for i, d, t in EXAMPLE_EVENTS],
        EXAMPLE_NEIGH,
    )


def static_scenario(positions, radius, decay, fires, sensors=None, until=100):
    """Stationary devices, single path segment [0, until]."""
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
        fires=tuple(sorted((as_time(t), d) for t, d in fires)),
        sensor_scripts=scripts,
    )


def line_scenario(n, spacing=1.0, radius=1.5, decay=100, rounds=6,
                  sensors=None, until=100):
    """n devices on a line, firing round-robin, each round taking one time
    unit; device ids 0..n-1, in the network from 0 to until."""
    fires = []
    t = F(0)
    for _ in range(rounds):
        for d in range(n):
            fires.append((t, d))
            t += F(1, n)
    return static_scenario(
        {d: (d * spacing, 0.0) for d in range(n)},
        radius=radius,
        decay=decay,
        fires=fires,
        sensors=sensors,
        until=until,
    )


def on_throughout(segs, a, b) -> bool:
    """[a, b] lies inside the union of the closed segments: abutting or
    overlapping segments count as continuous, only a gap is an outage."""
    reach = None
    for seg in sorted(segs, key=lambda s: s.start):
        if reach is not None and seg.start <= reach:
            reach = max(reach, seg.end)
        elif seg.start <= a:
            reach = seg.end
        else:
            break
        if reach >= b:
            return True
    return False


# ---------------------------------------------------------------------------
# the world by all-pairs scans on exact rationals: the specification of
# network.World's per-instant positions, radius grid and integer ticks

def reference_position_at(sc: Scenario, d: int, t):
    """Position while active; None when no path segment covers t. The
    first listed segment covering t wins."""
    for seg in sc.paths.get(d, ()):
        if seg.start <= t <= seg.end:
            pts = seg.waypoints
            if len(pts) == 1 or seg.end == seg.start:
                return pts[0]
            pos = (t - seg.start) / (seg.end - seg.start) * (len(pts) - 1)
            i = min(int(pos), len(pts) - 2)
            u = float(pos - i)
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))
    return None


def reference_clamped_position_at(sc: Scenario, d: int, t):
    """Position at t, falling back to the nearest earlier segment end
    (or the very first waypoint when t precedes all segments)."""
    pos = reference_position_at(sc, d, t)
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


def reference_sensors(sc: Scenario, d: int, t, others=None) -> SensorState:
    """Sensor readings of d at t; its ranges cover ``others`` (every
    device when None), by clamped positions."""
    local = {}
    for name, steps in sc.sensor_scripts.get(d, {}).items():
        v = sample_script(steps, t)
        if v is not None:
            local[name] = v
    here = reference_clamped_position_at(sc, d, t)
    ranges = {}
    for d2 in (sc.devices if others is None else others):
        there = reference_clamped_position_at(sc, d2, t)
        if there is not None:
            ranges[d2] = math.dist(here, there)
    return SensorState(local=local, ranges=ranges)


def reference_hearers(sc: Scenario, d: int, t) -> list:
    """Devices on at t and within radius of d, d included: every device's
    position is queried."""
    here = reference_position_at(sc, d, t)
    out = []
    for d2 in sc.devices:
        there = reference_position_at(sc, d2, t)
        if there is not None and math.dist(here, there) <= sc.radius:
            out.append(d2)
    return out


def reference_sweep(sc: Scenario) -> list:
    """(t, device, hearers, fresh (sender, time sent) pairs, ranges) of
    each fire of the delivery sweep, by the rules on exact times: a message
    stays fresh while it is within decay and its receiver has stayed on
    since it arrived."""
    inbox = {d: {} for d in sc.devices}
    out = []
    for t, d in sc.fires:
        segs = sc.paths.get(d, ())
        if not on_throughout(segs, t, t):
            raise ValueError(f"device {d} fires at t={t} but is off")
        box = inbox[d] = {s: tag for s, tag in inbox[d].items()
                          if tag >= t - sc.decay and on_throughout(segs, tag, t)}
        ranges = reference_sensors(sc, d, t, (d, *box)).ranges
        hear = reference_hearers(sc, d, t)
        out.append((t, d, hear, tuple(box.items()), ranges))
        for d2 in hear:
            inbox[d2][d] = t
    return out


def reference_dag(sc: Scenario) -> EventDAG:
    """The induced DAG by the all-pairs rule: e' feeds e when (1) it
    happened within the decay window [t-r, t), (2) the receiving device
    was on throughout [t', t], (3) the devices were within radius when e'
    fired, and (4) no later firing of the same device also qualifies.
    Sensors cover every device."""
    events = [Event(i, d, t) for i, (t, d) in enumerate(sc.fires)]
    sensors = {e.id: reference_sensors(sc, e.device, e.time) for e in events}
    neigh = []
    for e in events:
        best = {}
        for e2 in events:
            t, t2 = e.time, e2.time
            if not (t - sc.decay <= t2 < t):
                continue
            if not on_throughout(sc.paths.get(e.device, ()), t2, t):
                continue
            p = reference_position_at(sc, e.device, t2)
            q = reference_position_at(sc, e2.device, t2)
            if p is None or q is None:
                continue
            if ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5 > sc.radius:
                continue
            prev = best.get(e2.device)
            if prev is None or e2.time > prev.time:
                best[e2.device] = e2
        neigh.extend((e2.id, e.id) for e2 in best.values())
    return EventDAG(events, neigh, sensors)


# ---------------------------------------------------------------------------
# the references' own value predicates: a walk per question, as the
# calculus defines them, independent of the evaluators' per-node plans

def free_vars(e) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    out = frozenset()
    for c, bound in children(e):
        out |= free_vars(c).difference(bound)
    return out


def is_local_value(e) -> bool:
    match e:
        case Builtin() | DefName():
            return True
        case Lambda():
            return not free_vars(e)
        case Data(args=args):
            return all(is_local_value(a) for a in args)
    return False


def is_value(e) -> bool:
    if isinstance(e, FieldVal):
        return all(is_local_value(v) for v in e.vals)
    return is_local_value(e)


def mkfield(pairs) -> FieldVal:
    """The field of (device id, value) pairs, or of a dict, in any order:
    the reference for fields the evaluators build in domain order."""
    items = sorted(pairs.items() if isinstance(pairs, dict) else pairs, key=lambda kv: kv[0])
    return FieldVal(tuple(d for d, _ in items), tuple(v for _, v in items))


# ---------------------------------------------------------------------------
# references for the builtins' field kernels and value order

_CTOR_RANK = {"False": 0, "True": 1, "Null": 0, "Cons": 1}


def cmp_values(a: Expr, b: Expr) -> int:
    """The value order of min-hood and < as a three-way comparison, the
    reference for builtins._compare. Numbers order as usual with NaN greatest
    (so NaN markers lose against real values), booleans as False < True,
    structured data lexicographically. Functions have no ordering."""
    if isinstance(a, (Lambda, Builtin, DefName)) or isinstance(b, (Lambda, Builtin, DefName)):
        raise EvalError("values of function type cannot be ordered")
    if isinstance(a, FieldVal) or isinstance(b, FieldVal):
        raise EvalError("neighbouring field values cannot be ordered")
    an, bn = is_num(a), is_num(b)
    if an != bn:
        return -1 if an else 1  # ill-typed mix; keep it deterministic
    if an:
        x, y = a.ctor, b.ctor
        xn, yn = math.isnan(x), math.isnan(y)
        if xn or yn:
            return 0 if xn and yn else (1 if xn else -1)
        return 0 if x == y else (-1 if x < y else 1)
    ka = (_CTOR_RANK.get(a.ctor, 0), a.ctor)
    kb = (_CTOR_RANK.get(b.ctor, 0), b.ctor)
    if ka != kb:
        return -1 if ka < kb else 1
    for x, y in zip(a.args, b.args):
        c = cmp_values(x, y)
        if c:
            return c
    la, lb = len(a.args), len(b.args)
    return 0 if la == lb else (-1 if la < lb else 1)


def reference_min_value(values):
    """The first least value under cmp_values; a lone value is not compared."""
    best = None
    for v in values:
        if best is None or cmp_values(v, best) < 0:
            best = v
    return best


def reference_decorated(name: str, ctx, args) -> FieldVal:
    """The decorated builtin name applied to args as the generic lifting
    does it: the base op at each device, a field argument giving its value
    there and a local one repeating."""
    base, _, deco = name.partition("[")
    flags = deco[:-1].split(",")
    e = TABLE.entry(base)
    op = e.op if e is not None else lambda ctx, point: Data(base, tuple(point))
    cols = [a.vals if flag == "f" else repeat(a) for a, flag in zip(args, flags)]
    return FieldVal(ctx.domain, tuple([op(ctx, point) for point in zip(*cols)]))


# ---------------------------------------------------------------------------
# values, trees and output records as JSON objects: the reference that the
# writer's text (device.value_json and the emitters) must equal once dumped

def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no spaces, ASCII escapes."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def value_to_json(v: Expr):
    match v:
        case Data(ctor=c, args=args):
            if isinstance(c, float):
                # JSON has no NaN or infinities: "nan", "inf", "-inf"
                return {"num": c if math.isfinite(c) else repr(c)}
            if c == "True" or c == "False":
                return {"bool": c == "True"}
            return {"data": c, "args": [value_to_json(a) for a in args]}
        case FieldVal(entries=ent):
            return {"field": [[d, value_to_json(x)] for d, x in ent]}
        case Lambda() | Builtin() | DefName():
            return {"fun": pretty(v)}
    raise ValueError(f"not a serializable value: {v!r}")


def tree_to_json(t: ValueTree):
    out = {"root": value_to_json(t.root)}
    if t.children:
        out["children"] = [tree_to_json(c) for c in t.children]
    return out


def value_text(v: Expr) -> str:
    """A CSV cell: a number or a constant by its source text, any other
    value as its JSON."""
    if isinstance(v, Data) and not v.args:
        return show_num(v.ctor) if isinstance(v.ctor, float) else v.ctor
    return dumps(value_to_json(v))


def run_jsonl(trace) -> str:
    """`fieldc run`'s JSONL: one object per fire."""
    return "".join(dumps({
        "t": str(r.t),
        "device": r.device,
        "root": value_to_json(r.root),
        "tree": tree_to_json(r.tree),
        "env": sorted(r.env_domain),
    }) + "\n" for r in trace.records)


def run_csv(trace) -> str:
    """`fieldc run --format csv`: a header, then one row per fire."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "device", "root"])
    w.writerows([str(r.t), r.device, value_text(r.root)] for r in trace.records)
    return buf.getvalue()


def denot_jsonl(events, denots: dict) -> str:
    """`fieldc denot`'s JSONL: one object per event."""
    return "".join(dumps({
        "event": e.id,
        "t": str(e.time),
        "device": e.device,
        "value": value_to_json(denots[e]),
    }) + "\n" for e in events)


def report_json(report, verdicts) -> str:
    """`fieldc check-adequacy --format json`'s report, without its newline,
    where verdicts are the ones check_adequacy handed its sink."""
    c = report.first_counterexample
    return dumps({
        "ok": report.ok,
        "events": [
            {
                "event": v.event,
                "t": str(v.t),
                "device": v.device,
                "denotational": value_to_json(v.denotational),
                "operational": value_to_json(v.operational),
                "ok": v.ok,
            }
            for v in verdicts
        ],
        "first_counterexample": None if c is None else c.event,
    })


def dag_to_json(g: EventDAG):
    return {
        "events": [
            {"id": e.id, "device": e.device, "time": str(e.time)}
            for e in g.events
        ],
        "neigh": [list(edge) for edge in sorted(g.neigh)],
    }


# ---------------------------------------------------------------------------
# reading values and trees back from their JSON records

def value_from_json(j, defs=()) -> Expr:
    if "num" in j:
        return num(float(j["num"]))
    if "bool" in j:
        return boolean(bool(j["bool"]))
    if "data" in j:
        return Data(j["data"], tuple(value_from_json(a, defs) for a in j["args"]))
    if "field" in j:
        return mkfield([(int(d), value_from_json(x, defs)) for d, x in j["field"]])
    if "fun" in j:
        return parse_expr(j["fun"], defs=defs)
    raise ValueError(f"not a value record: {j!r}")


def tree_from_json(j, defs=()) -> ValueTree:
    return ValueTree(
        value_from_json(j["root"], defs),
        tuple(tree_from_json(c, defs) for c in j.get("children", ())),
    )


# ---------------------------------------------------------------------------
# the device evaluator as the substitution semantics states it
#
# value-tree environments are plain dicts device id -> ValueTree

def subtree_fun(t: ValueTree, f: Expr) -> Optional[ValueTree]:
    """Last child, provided the second-to-last child's root equals the
    function value f; None otherwise."""
    if len(t.children) >= 2 and t.children[-2].root == f:
        return t.children[-1]
    return None


def align_i(env: dict, i: int) -> dict:
    """The i-th subtree (1-based) of each tree that has one."""
    return {d: t.children[i - 1] for d, t in env.items() if len(t.children) >= i}


def align_fun(env: dict, f: Expr) -> dict:
    """The body subtree of each tree that applied function value f."""
    out = {}
    for d, t in env.items():
        sub = subtree_fun(t, f)
        if sub is not None:
            out[d] = sub
    return out


def reference_eval_expr(ctx: EvalContext, env: dict, e) -> ValueTree:
    """The big-step rules on closed expressions: application and rep
    substitute the argument values into the body before evaluating it.
    Builtins that apply functions (map-hood, fold-hood) call back here."""
    ctx.tick()
    match e:
        case FieldVal():
            return leaf(restrict_value(e, env.keys() | {ctx.device}))
        case Data(args=args) if not is_value(e):
            kids = tuple(
                reference_eval_expr(ctx, align_i(env, i), a) for i, a in enumerate(args, 1)
            )
            return ValueTree(Data(e.ctor, tuple(k.root for k in kids)), kids)
        case _ if is_value(e):
            return leaf(e)
        case Var(name=n):
            raise EvalError(f"unbound variable {n!r} at runtime")
        case Apply(fn=fe, args=args):
            kids = [reference_eval_expr(ctx, align_i(env, i), a) for i, a in enumerate(args, 1)]
            ft = reference_eval_expr(ctx, align_i(env, len(args) + 1), fe)
            f = ft.root
            if isinstance(f, Builtin):
                opctx = EvalContext(device=ctx.device, sensors=ctx.sensors, rng=ctx.rng,
                                    domain=tuple(sorted(env.keys() | {ctx.device})))
                opctx.call = lambda g, vs: reference_eval_expr(ctx, {}, Apply(g, tuple(vs))).root
                v = TABLE.eval(f.name, opctx, [k.root for k in kids])
                return ValueTree(v, (*kids, ft))
            params, body = fun_parts(ctx.defs, f, len(kids))
            inst = substitute(body, dict(zip(params, (k.root for k in kids))))
            bt = reference_eval_expr(ctx, align_fun(env, f), inst)
            return ValueTree(bt.root, (*kids, ft, bt))
        case Nbr(body=b):
            nbr_env = align_i(env, 1)
            bt = reference_eval_expr(ctx, nbr_env, b)
            phi = {d: t.root for d, t in nbr_env.items()}
            phi[ctx.device] = bt.root
            return ValueTree(mkfield(phi), (bt,))
        case Rep(init=e1, var=x, body=e2):
            t1 = reference_eval_expr(ctx, align_i(env, 1), e1)
            prev_env = align_i(env, 2)
            if ctx.device in env:
                if ctx.device not in prev_env:
                    raise MalformedEnv(
                        f"device {ctx.device} has no stored rep state in its own tree"
                    )
                l0 = prev_env[ctx.device].root
            else:
                l0 = t1.root
            t2 = reference_eval_expr(ctx, prev_env, substitute(e2, {x: l0}))
            return ValueTree(t2.root, (t1, t2))
    raise EvalError(f"cannot evaluate {e!r}")


# ---------------------------------------------------------------------------
# the denotation by its fixpoint

class _FixpointDenot:
    """The denotation as the calculus states it, one whole evolution at a
    time: rep is a Kleene fixpoint over all of E (at most |E|+1 passes of
    the body under the shifted guess), and application evaluates the body
    over each cluster with the arguments restricted to it."""

    def __init__(self, g, defs, fuel):
        self.g = g
        self.defs = defs or {}
        self.fuel = fuel

    def tick(self):
        if self.fuel <= 0:
            raise FuelExhausted("denotational evaluation fuel exhausted")
        self.fuel -= 1

    def eval(self, E, X, e) -> dict:
        self.tick()
        g = self.g
        match e:
            case FieldVal():
                return {ev: restrict_value(e, nbr_devices(g, E, ev)) for ev in E}
            case Data(args=args) if not is_value(e):
                aevs = [self.eval(E, X, a) for a in args]
                return {
                    ev: Data(e.ctor, tuple(av[ev] for av in aevs)) for ev in E
                }
            case Lambda():
                fv = sorted(free_vars(e))
                if not fv:
                    return {ev: e for ev in E}
                for v in fv:
                    if v not in X:
                        raise DenotError(f"unbound variable {v!r}")
                return {
                    ev: substitute(e, {v: X[v][ev] for v in fv}) for ev in E
                }
            case _ if is_value(e):
                return {ev: e for ev in E}
            case Var(name=n):
                if n not in X:
                    raise DenotError(f"unbound variable {n!r}")
                phi = X[n]
                return {ev: restrict_value(phi[ev], nbr_devices(g, E, ev)) for ev in E}
            case Nbr(body=b):
                bev = self.eval(E, X, b)
                return {
                    ev: mkfield({
                        d: bev[latest_event(g, E, ev, d)]
                        for d in nbr_devices(g, E, ev)
                    })
                    for ev in E
                }
            case Rep(init=e1, var=x, body=e2):
                r0 = self.eval(E, X, e1)
                r = r0
                for _ in range(len(E) + 1):
                    r2 = self.eval(E, {**X, x: shift(g, E, r, r0)}, e2)
                    if r2 == r:
                        return r2
                    r = r2
                raise DenotError(
                    "internal: rep did not stabilize within |E'|+1 iterations")
            case Apply(fn=fe, args=args):
                fev = self.eval(E, X, fe)
                aevs = [self.eval(E, X, a) for a in args]
                groups = {}
                for ev in E:
                    groups.setdefault(fev[ev], []).append(ev)
                out = {}
                for f, evs in groups.items():
                    if isinstance(f, Builtin):
                        res = self.apply_builtin(f.name, E, aevs)
                    else:
                        c = frozenset(evs)
                        res = self.apply_fun(
                            f, c, [restrict_evolution(g, av, c) for av in aevs])
                    for ev in evs:
                        out[ev] = res[ev]
                return out
        raise DenotError(f"cannot interpret {e!r}")

    def apply_builtin(self, name, E, aevs) -> dict:
        out = {}
        for ev in E:
            ctx = EvalContext(
                device=ev.device,
                sensors=self.g.sensors.get(ev.id) or SensorState(),
                domain=tuple(sorted(nbr_devices(self.g, E, ev))),
            )
            ctx.call = lambda fn, vs, ev=ev: self.device_call(ev, fn, vs)
            out[ev] = TABLE.eval(name, ctx, [av[ev] for av in aevs])
        return out

    def apply_fun(self, f, cluster, aevs) -> dict:
        if isinstance(f, Lambda):
            params, body = f.params, f.body
        elif isinstance(f, DefName):
            d = self.defs.get(f.name)
            if d is None:
                raise DenotError(f"unknown function name {f.name!r}")
            params, body = d.params, d.body
        else:
            raise DenotError(f"not a function value: {f!r}")
        if len(params) != len(aevs):
            raise DenotError(
                f"function {f!r} takes {len(params)} argument(s), got {len(aevs)}")
        return self.eval(cluster, dict(zip(params, aevs)), body)

    def device_call(self, ev, fn, vals):
        ctx = EvalContext(
            device=ev.device,
            sensors=self.g.sensors.get(ev.id) or SensorState(),
            defs=self.defs,
            fuel=self.fuel,
        )
        try:
            return ctx.call(fn, vals)
        finally:
            self.fuel = ctx.fuel


def denot_eval(g: EventDAG, E, X: dict, e, defs=None, fuel: int = DEFAULT_FUEL) -> dict:
    """Interpret e over the events E of g under assumptions X (evolutions)
    with the package's evaluator: the replay of g restricted to E, each
    event reading the values X gives it."""
    E = frozenset(E)
    sub = EventDAG([ev for ev in g.events if ev in E],
                   [(a, b) for a, b in g.neigh if g.by_id[a] in E and g.by_id[b] in E],
                   g.sensors)
    den, root, out = _Denot(defs, fuel), _Scope((), e), {}

    def step(i, t, d, fresh, sensors):
        ev, rec = g.by_id[i], {}
        out[ev] = den.event(root, rec, d, fresh, sensors, {n: phi[ev] for n, phi in X.items()})
        return rec

    sub.replay(step)
    return out


def denotation(g: EventDAG, program, fuel: int = DEFAULT_FUEL) -> dict:
    """The program's value at each event of g, by denot.denot_program."""
    out = {}
    denot_program(g, program, lambda i, t, d, v: out.__setitem__(g.by_id[i], v), fuel)
    return out


def reference_denot(g: EventDAG, E, X: dict, e, defs=None,
                    fuel: int = DEFAULT_FUEL) -> dict:
    """Interpret e over the events E under assumptions X (evolutions) by
    the fixpoint specification."""
    return _FixpointDenot(g, defs, fuel).eval(frozenset(E), X, e)


def cluster(g: EventDAG, E, fn, X: dict, ev: Event, defs=None) -> frozenset:
    """Events of E that selected the same function value as ev did for fn;
    all of E when the value is a builtin."""
    E = frozenset(E)
    fev = reference_denot(g, E, X, fn, defs)
    f = fev[ev]
    if isinstance(f, Builtin):
        return E
    return frozenset(e2 for e2 in E if fev[e2] == f)


# ---------------------------------------------------------------------------
# well-formedness of stored trees (shape check per rule)

def well_formed(e, t: ValueTree, defs: dict) -> bool:
    """Whether the value-tree t has the shape evaluating e produces."""
    match e:
        case _ if is_value(e) or isinstance(e, (Var, FieldVal, Lambda)):
            # a lambda with free variables is still a leaf: evaluation
            # substitutes values for them and stores the closed function
            return not t.children
        case Data(args=args):
            return len(t.children) == len(args) and all(
                well_formed(a, k, defs) for a, k in zip(args, t.children)
            )
        case Nbr(body=b):
            return len(t.children) == 1 and well_formed(b, t.children[0], defs)
        case Rep(body=e2):
            return (
                len(t.children) == 2
                and well_formed(e2, t.children[1], defs)
            )
        case Apply(fn=fe, args=args):
            n = len(args)
            if len(t.children) == n + 1:
                return (
                    isinstance(t.children[n].root, Builtin)
                    and all(well_formed(a, k, defs) for a, k in zip(args, t.children))
                    and well_formed(fe, t.children[n], defs)
                )
            if len(t.children) == n + 2:
                f = t.children[n].root
                if not isinstance(f, (Lambda, DefName)):
                    return False
                if isinstance(f, Lambda):
                    body = f.body
                elif f.name in defs:
                    body = defs[f.name].body
                else:
                    return False
                return (
                    all(well_formed(a, k, defs) for a, k in zip(args, t.children))
                    and well_formed(fe, t.children[n], defs)
                    and well_formed(body, t.children[n + 1], defs)
                )
            return False
    return False


# ---------------------------------------------------------------------------
# the restriction property, checked per cluster

@dataclass(frozen=True)
class ClusterVerdict:
    fun: Expr
    events: tuple
    args_agree: bool
    results_agree: bool

    @property
    def ok(self) -> bool:
        return not self.args_agree or self.results_agree


@dataclass
class RestrictionReport:
    clusters: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clusters)


def check_restriction(g: EventDAG, E, e0: Expr, args, args2, X: dict,
                      defs=None, fuel: int = DEFAULT_FUEL) -> RestrictionReport:
    """Per cluster of e0: when the two argument lists denote the same
    restricted evolutions there, the two applications must agree there."""
    E = frozenset(E)
    fev = denot_eval(g, E, X, e0, defs, fuel)
    app1 = denot_eval(g, E, X, Apply(e0, tuple(args)), defs, fuel)
    app2 = denot_eval(g, E, X, Apply(e0, tuple(args2)), defs, fuel)
    groups = {}
    for ev in E:
        groups.setdefault(fev[ev], []).append(ev)
    report = RestrictionReport()
    for f, evs in groups.items():
        c = E if isinstance(f, Builtin) else frozenset(evs)
        agree = True
        for a, b in zip(args, args2):
            ra = restrict_evolution(g, denot_eval(g, E, X, a, defs, fuel), c)
            rb = restrict_evolution(g, denot_eval(g, E, X, b, defs, fuel), c)
            if any(ra[ev] != rb[ev] for ev in evs):
                agree = False
                break
        results = all(app1[ev] == app2[ev] for ev in evs)
        report.clusters.append(
            ClusterVerdict(f, tuple(sorted(ev.id for ev in evs)), agree, results)
        )
    return report


# ---------------------------------------------------------------------------
# small helpers only tests call

def leaf(v: Expr) -> ValueTree:
    return ValueTree(v)


def subexpressions(e: Expr):
    """e and every subexpression of it, preorder."""
    yield e
    for c, _ in children(e):
        yield from subexpressions(c)


def roots(trace) -> list:
    """The root value of each fire of a FireTrace, in order."""
    return [r.root for r in trace.records]


def subtree_i(t: ValueTree, i: int):
    """i-th child, 1-based; None when absent."""
    if 1 <= i <= len(t.children):
        return t.children[i - 1]
    return None


def scenario_json(sc: Scenario) -> dict:
    """The JSON object of a scenario file that fieldc reads as sc: a
    number or a boolean reading as itself, any other by its source text."""
    def reading(v):
        if isinstance(v, Data) and not v.args:
            if isinstance(v.ctor, float):
                return v.ctor
            if v.ctor in ("True", "False"):
                return v.ctor == "True"
        return pretty(v)

    def script(steps):
        if len(steps) == 1 and steps[0][0] is None:
            return reading(steps[0][1])
        return {"steps": [[str(t), reading(v)] for t, v in steps]}

    return {
        "devices": list(sc.devices),
        "radius": sc.radius,
        "decay": str(sc.decay),
        "paths": {str(d): [{"from": str(s.start), "to": str(s.end),
                            "waypoints": [list(p) for p in s.waypoints]} for s in segs]
                  for d, segs in sc.paths.items()},
        "fires": [{"t": str(t), "device": d} for t, d in sc.fires],
        "sensors": {str(d): {name: script(steps) for name, steps in table.items()}
                    for d, table in sc.sensor_scripts.items()},
    }


def pretty_program(p) -> str:
    out = []
    for d in p.defs:
        out.append(f"def {d.name}({', '.join(d.params)}) {{\n  {pretty(d.body)}\n}}")
    out.append(pretty(p.main))
    return "\n".join(out) + "\n"


def typecheck_expr(e: Expr):
    """Type a bare expression with no declarations in scope."""
    ty = Typer()
    return ty.deep_resolve(ty.infer(e, {}, {}))
