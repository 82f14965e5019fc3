"""Denotational semantics over event DAGs, and the adequacy checker.

Programs denote field evolutions: maps from events to values. The event
structure is a DAG whose edges carry messages from a firing to the later
firings that still hold its value-tree. Evaluation is compositional and
per-event, with three non-pointwise ingredients: nbr reads neighbour
events, rep chains same-device events through a fixpoint, and function
application restricts evaluation to the cluster of events that selected
the same function value.

Denotational values reuse the syntax tree: local data values and fields
stand for themselves, and a function value is represented by its tag
(the syntactic function value), from which the evaluating operator is
derived on demand. Tag equality is exactly the function equality of the
calculus, so evolutions compare with plain structural equality.

The adequacy checker builds the DAG a scenario induces, runs the
operational simulator on the same scenario, and compares the denotation
of the program with the denotation of each fire's root, event by event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    Expr,
    FieldVal,
    Lambda,
    Nbr,
    Program,
    Rep,
    Var,
    free_vars,
    is_value,
    mkfield,
    substitute,
)
from .builtins import TABLE, OpContext, SensorState
from .device import DEFAULT_FUEL, FuelExhausted
from .network import Scenario, ScenarioError, as_time, run_scenario, sweep
# position_at stays importable as denot.position_at for tracers that count
# calls through that name (bench/spans.py); the DAG build itself queries
# positions only through network's sweep
from .network import position_at  # noqa: F401


class DenotError(ValueError):
    pass


class DagError(DenotError):
    pass


class CoherenceError(DenotError):
    pass


# ---------------------------------------------------------------------------
# event DAGs

@dataclass(frozen=True)
class Event:
    id: int
    device: int
    time: Fraction


class EventDAG:
    """Events plus the neigh relation, stored as sender -> receiver edges.

    neigh(e, e') of the calculus ("e is aware of e'") corresponds to an
    edge (e'.id, e.id) here. Sensor readings are attached per event so
    builtins can be interpreted at each event."""

    def __init__(self, events, neigh, sensors=None):
        self.events = tuple(sorted(events, key=lambda e: (e.time, e.id)))
        self.neigh = frozenset((int(a), int(b)) for a, b in neigh)
        self.sensors = dict(sensors or {})
        self.by_id = {}
        for e in self.events:
            if e.id in self.by_id:
                raise DagError(f"duplicate event id {e.id}")
            self.by_id[e.id] = e
        for a, b in self.neigh:
            if a not in self.by_id or b not in self.by_id:
                raise DagError(f"neigh edge ({a}, {b}) references unknown events")
        self._in = {e.id: [] for e in self.events}
        for a, b in self.neigh:
            self._in[b].append(self.by_id[a])

    def senders(self, e: Event):
        """Events e is aware of (its neighbour events)."""
        return tuple(self._in[e.id])


@dataclass(frozen=True)
class Violation:
    kind: str  # "cycle" | "duplicate-device" | "double-consumption"
    events: tuple


def validate_dag(g: EventDAG):
    """Check the three neigh properties; violations come back as data."""
    out = []
    # property 1: acyclicity
    state = {}
    stack = []

    def visit(e):
        state[e.id] = 1
        stack.append(e.id)
        for s in g.senders(e):
            if state.get(s.id) == 1:
                cyc = stack[stack.index(s.id):] + [s.id]
                out.append(Violation("cycle", tuple(cyc)))
            elif s.id not in state:
                visit(s)
        stack.pop()
        state[e.id] = 2

    for e in g.events:
        if e.id not in state:
            visit(e)
    # property 2: neighbour events of any event lie on distinct devices
    for e in g.events:
        seen = {}
        for s in g.senders(e):
            if s.device in seen:
                out.append(Violation("duplicate-device", (seen[s.device], s.id, e.id)))
            seen[s.device] = s.id
    # property 3: an event feeds at most one later event of its own device
    consumers = {}
    for a, b in g.neigh:
        if g.by_id[b].device == g.by_id[a].device:
            consumers.setdefault(a, []).append(b)
    for a, bs in consumers.items():
        if len(bs) > 1:
            out.append(Violation("double-consumption", (a, *sorted(bs))))
    return out


def latest_event(g: EventDAG, E, e: Event, d: int) -> Optional[Event]:
    """The latest event at device d that e is aware of within E; e itself
    when d is e's own device."""
    if d == e.device:
        return e if e in E else None
    found = None
    for s in g.senders(e):
        if s.device == d and s in E:
            if found is not None:
                raise DagError(f"event {e.id} has two neighbour events at device {d}")
            found = s
    return found


def nbr_devices(g: EventDAG, E, e: Event) -> frozenset:
    """The aligned neighbours of e within E (e's own device included)."""
    out = {e.device} if e in E else set()
    for s in g.senders(e):
        if s in E:
            out.add(s.device)
    return frozenset(out)


def prev_event(g: EventDAG, e: Event) -> Optional[Event]:
    found = None
    for s in g.senders(e):
        if s.device == e.device:
            if found is not None:
                raise DagError(f"event {e.id} has two same-device predecessors")
            found = s
    return found


def shift(g: EventDAG, E, phi: dict, phi0: dict) -> dict:
    """Push each value to the next same-device event, starting from phi0."""
    out = {}
    for e in E:
        p = prev_event(g, e)
        out[e] = phi[p] if p is not None and p in E else phi0[e]
    return out


# ---------------------------------------------------------------------------
# DAG JSON

def dag_to_json(g: EventDAG):
    return {
        "events": [
            {"id": e.id, "device": e.device, "time": str(e.time)}
            for e in g.events
        ],
        "neigh": [list(edge) for edge in sorted(g.neigh)],
    }


def dag_from_json(obj) -> EventDAG:
    if not isinstance(obj, dict) or "events" not in obj or "neigh" not in obj:
        raise DagError("DAG file must be an object with keys events, neigh")
    try:
        events = [
            Event(int(r["id"]), int(r["device"]), as_time(r["time"]))
            for r in obj["events"]
        ]
    except KeyError as e:
        raise DagError(f"DAG event lacks key {e.args[0]!r}") from None
    except ScenarioError as e:
        raise DagError(f"DAG event: {e}") from None
    return EventDAG(events, [(int(a), int(b)) for a, b in obj["neigh"]])


def load_dag(path: str) -> EventDAG:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise DagError(f"{path}: not valid JSON: {e}") from None
    return dag_from_json(obj)


# ---------------------------------------------------------------------------
# DAG induced by a scenario (unit-disc communication)

def build_dag_from_scenario(sc: Scenario) -> EventDAG:
    """Events are the scenario's fires; e' feeds e when the delivery sweep
    leaves the message of e' in the fresh inbox of e: e' happened within
    the decay window [t-r, t) and within radius of the receiving device,
    which stayed on from t' to t, and no later firing of the same device
    qualifies. The simulator runs on the same sweep, so both sides agree
    on who hears whom."""
    events, neigh, sensors = [], [], {}

    def step(t, d, fresh, sens):
        e = Event(len(events), d, t)
        events.append(e)
        sensors[e.id] = sens
        neigh.extend((m.payload, e.id) for m in fresh.values())
        return e.id

    sweep(sc, step)
    return EventDAG(events, neigh, sensors)


# ---------------------------------------------------------------------------
# evaluation

def restrict_value(v: Expr, devs) -> Expr:
    if isinstance(v, FieldVal):
        return mkfield([(d, x) for d, x in v.entries if d in devs])
    return v


def restrict_evolution(g: EventDAG, ev: dict, E) -> dict:
    return {e: restrict_value(ev[e], nbr_devices(g, E, e)) for e in E}


class _Denot:
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
                out = {}
                for ev in E:
                    out[ev] = mkfield({
                        d: bev[latest_event(g, E, ev, d)]
                        for d in nbr_devices(g, E, ev)
                    })
                return out
            case Rep(init=e1, var=x, body=e2):
                r0 = self.eval(E, X, e1)
                r = r0
                for _ in range(len(E) + 1):
                    r2 = self.eval(E, {**X, x: shift(g, E, r, r0)}, e2)
                    if r2 == r:
                        return r2
                    r = r2
                raise DenotError(
                    "internal: rep did not stabilize within |E'|+1 iterations"
                )
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
                        cluster = frozenset(evs)
                        res = self.apply_fun(
                            f,
                            cluster,
                            [restrict_evolution(g, av, cluster) for av in aevs],
                        )
                    for ev in evs:
                        out[ev] = res[ev]
                return out
        raise DenotError(f"cannot interpret {e!r}")

    def apply_builtin(self, name: str, E, aevs) -> dict:
        out = {}
        for ev in E:
            pi = nbr_devices(self.g, E, ev)
            ctx = OpContext(
                device=ev.device,
                env_domain=pi - {ev.device},
                sensors=self.g.sensors.get(ev.id) or SensorState(),
                call=lambda fn, vs, ev=ev: self.device_call(ev, fn, vs),
                rng=None,
            )
            out[ev] = TABLE.eval(name, ctx, [av[ev] for av in aevs])
        return out

    def apply_fun(self, f: Expr, cluster, aevs) -> dict:
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
                f"function {f!r} takes {len(params)} argument(s), got {len(aevs)}"
            )
        return self.eval(cluster, dict(zip(params, aevs)), body)

    def device_call(self, ev: Event, fn: Expr, vals):
        from .device import EvalContext, apply_function

        ctx = EvalContext(
            device=ev.device,
            sensors=self.g.sensors.get(ev.id) or SensorState(),
            defs=self.defs,
            fuel=self.fuel,
        )
        try:
            return apply_function(ctx, fn, vals)
        finally:
            self.fuel = ctx.fuel


def denot_eval(g: EventDAG, E, X: dict, e: Expr, defs=None,
               fuel: int = DEFAULT_FUEL) -> dict:
    """Interpret e over the events E under assumptions X."""
    return _Denot(g, defs, fuel).eval(frozenset(E), X, e)


def cluster(g: EventDAG, E, fn: Expr, X: dict, ev: Event, defs=None,
            fuel: int = DEFAULT_FUEL) -> frozenset:
    """Events that selected the same function value as ev did for fn;
    all of E when the value is a builtin."""
    E = frozenset(E)
    fev = _Denot(g, defs, fuel).eval(E, X, fn)
    f = fev[ev]
    if isinstance(f, Builtin):
        return E
    return frozenset(e2 for e2 in E if fev[e2] == f)


def denot_program(g: EventDAG, program: Program, E=None,
                  fuel: int = DEFAULT_FUEL) -> dict:
    defs = {d.name: d for d in program.defs}
    events = frozenset(g.events if E is None else E)
    return denot_eval(g, events, {}, program.main, defs, fuel)


# ---------------------------------------------------------------------------
# adequacy

@dataclass(frozen=True)
class Verdict:
    event: int
    t: Fraction
    device: int
    denotational: Expr
    operational: Expr
    ok: bool


@dataclass
class AdequacyReport:
    verdicts: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def first_counterexample(self) -> Optional[Verdict]:
        for v in self.verdicts:
            if not v.ok:
                return v
        return None

    def to_json(self):
        from .device import value_to_json

        out = {
            "ok": self.ok,
            "events": [
                {
                    "event": v.event,
                    "t": str(v.t),
                    "device": v.device,
                    "denotational": value_to_json(v.denotational),
                    "operational": value_to_json(v.operational),
                    "ok": v.ok,
                }
                for v in self.verdicts
            ],
        }
        c = self.first_counterexample
        out["first_counterexample"] = None if c is None else c.event
        return out


def check_adequacy(sc: Scenario, program: Program,
                   fuel: int = DEFAULT_FUEL) -> AdequacyReport:
    """Compare the denotation of the program with the denotation of each
    fire's operational result on the DAG the scenario induces."""
    g = build_dag_from_scenario(sc)
    bad = validate_dag(g)
    if bad:
        raise CoherenceError(f"induced DAG violates neigh properties: {bad}")
    trace = run_scenario(sc, program, fuel=fuel)
    denots = denot_program(g, program, fuel=fuel)
    E = frozenset(g.events)
    report = AdequacyReport()
    for ev, rec in zip(sorted(g.events, key=lambda e: e.time), trace.records):
        assert (ev.time, ev.device) == (rec.t, rec.device)
        lhs = denots[ev]
        rhs = restrict_value(rec.root, nbr_devices(g, E, ev))
        report.verdicts.append(
            Verdict(ev.id, ev.time, ev.device, lhs, rhs, lhs == rhs)
        )
    return report


# ---------------------------------------------------------------------------
# restriction checker

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
    den = _Denot(g, defs, fuel)
    fev = den.eval(E, X, e0)
    app1 = den.eval(E, X, Apply(e0, tuple(args)))
    app2 = den.eval(E, X, Apply(e0, tuple(args2)))
    groups = {}
    for ev in E:
        groups.setdefault(fev[ev], []).append(ev)
    report = RestrictionReport()
    for f, evs in groups.items():
        c = E if isinstance(f, Builtin) else frozenset(evs)
        agree = True
        for a, b in zip(args, args2):
            ra = restrict_evolution(g, den.eval(E, X, a), c)
            rb = restrict_evolution(g, den.eval(E, X, b), c)
            if any(ra[ev] != rb[ev] for ev in evs):
                agree = False
                break
        results = all(app1[ev] == app2[ev] for ev in evs)
        report.clusters.append(
            ClusterVerdict(f, tuple(sorted(ev.id for ev in evs)), agree, results)
        )
    return report
