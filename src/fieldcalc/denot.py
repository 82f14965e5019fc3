"""Denotational semantics over event DAGs, and the adequacy checker.

Programs denote field evolutions: maps from events to values. The event
structure is a DAG whose edges carry messages from a firing to the later
firings that still hold its value-tree. Evaluation is compositional and
per-event, with three non-pointwise ingredients: nbr reads neighbour
events, rep chains same-device events through a fixpoint, and function
application restricts evaluation to the cluster of events that selected
the same function value. All three read only an event's causal past, so
the evaluator visits the events once, in causal order, and the rep
fixpoint has exactly the solution that order builds.

Denotational values reuse the syntax tree: local data values and fields
stand for themselves, and a function value is represented by its tag
(the syntactic function value), from which the evaluating operator is
derived on demand. Tag equality is exactly the function equality of the
calculus, so evolutions compare with plain structural equality.

The adequacy checker runs the operational simulator on a scenario, reads
the DAG the scenario induces off the simulator's trace (one delivery
sweep serves both sides), and compares the denotation of the program
with the denotation of each fire's root, event by event.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .ast import (
    Apply,
    Builtin,
    Data,
    Expr,
    FieldVal,
    Lambda,
    Nbr,
    Program,
    Rep,
    Var,
    plan,
    restrict_value,
    value_of,
)
from .builtins import SensorState
from .device import (
    DEFAULT_FUEL,
    EvalContext,
    FuelExhausted,
    call_builtin,
    fun_parts,
    value_to_json,
)
from .network import (
    FireTrace,
    Scenario,
    SHAPE_ERRORS,
    ScenarioError,
    as_time,
    heard,
    json_container,
    json_id,
    run_scenario,
    shape_error,
    sweep,
)
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

    def __hash__(self):
        # ids are unique within a DAG; hashing the Fraction time is slow
        return hash(self.id)


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
        senders = {e.id: [] for e in self.events}
        for a, b in self.neigh:
            senders[b].append(self.by_id[a])
        self._in = {i: tuple(ss) for i, ss in senders.items()}
        self._order = None

    def senders(self, e: Event) -> tuple:
        """Events e is aware of (its neighbour events)."""
        return self._in[e.id]

    def causal_order(self) -> tuple:
        """The events in topological generations: a generation holds the
        events whose senders all lie in earlier generations, in (time, id)
        order. Raises DagError when neigh has a cycle."""
        if self._order is None:
            waiting = {e.id: len(self._in[e.id]) for e in self.events}
            receivers = {e.id: [] for e in self.events}
            for a, b in self.neigh:
                receivers[a].append(b)
            rank = {e.id: i for i, e in enumerate(self.events)}
            gen = [e.id for e in self.events if not waiting[e.id]]
            order = []
            while gen:
                order.extend(gen)
                ready = []
                for a in gen:
                    for b in receivers[a]:
                        waiting[b] -= 1
                        if not waiting[b]:
                            ready.append(b)
                gen = sorted(ready, key=rank.__getitem__)
            if len(order) < len(self.events):
                raise DagError("neigh relation has a cycle")
            self._order = tuple(self.by_id[i] for i in order)
        return self._order


@dataclass(frozen=True)
class Violation:
    kind: str  # "cycle" | "duplicate-device" | "double-consumption"
    events: tuple


def validate_dag(g: EventDAG):
    """Check the three neigh properties; violations come back as data."""
    out = []
    # property 1: acyclicity, by a depth-first walk along senders with an
    # explicit stack (long causal chains would exhaust Python's)
    state = {}
    for e in g.events:
        if e.id in state:
            continue
        state[e.id] = 1
        path, todo = [e.id], [iter(g.senders(e))]
        while todo:
            s = next(todo[-1], None)
            if s is None:
                todo.pop()
                state[path.pop()] = 2
            elif state.get(s.id) == 1:
                cyc = path[path.index(s.id):] + [s.id]
                out.append(Violation("cycle", tuple(cyc)))
            elif s.id not in state:
                state[s.id] = 1
                path.append(s.id)
                todo.append(iter(g.senders(s)))
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


# latest_event and shift are the steps of the fixpoint reading of nbr and
# rep, which tests keep as the specification (tests/helpers.reference_denot);
# the causal-order evaluator below does not call them. They stay here while
# tracers count calls through these names (bench/spans.py).

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
    """Push each value to the next same-device event, starting from phi0:
    the step of rep's fixpoint over a whole evolution."""
    out = {}
    for e in E:
        p = prev_event(g, e)
        out[e] = phi[p] if p is not None and p in E else phi0[e]
    return out


# ---------------------------------------------------------------------------
# DAG JSON

EVENT_SHAPE = '{"id": id, "device": id, "time": time}'

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
        events = []
        for r in json_container(obj["events"], list, "events"):
            try:
                i, d, t = r["id"], r["device"], as_time(r["time"])
            except SHAPE_ERRORS as e:
                raise shape_error("DAG event", EVENT_SHAPE, r, e) from None
            if type(i) is not int or type(d) is not int:
                i, d = json_id(i, "DAG event id"), json_id(d, "DAG event device")
            events.append(Event(i, d, t))
        neigh = []
        for edge in json_container(obj["neigh"], list, "neigh"):
            try:
                a, b = edge
            except SHAPE_ERRORS as e:
                raise shape_error("neigh edge", "[id, id]", edge, e) from None
            if type(a) is not int or type(b) is not int:
                a, b = json_id(a, "neigh edge end"), json_id(b, "neigh edge end")
            neigh.append((a, b))
    except ScenarioError as e:
        raise DagError(str(e)) from None
    return EventDAG(events, neigh)


# ---------------------------------------------------------------------------
# DAG induced by a scenario (unit-disc communication)

def build_dag_from_scenario(sc: Scenario, trace: FireTrace = None) -> EventDAG:
    """Events are the scenario's fires; e' feeds e when the delivery sweep
    leaves the message of e' in the fresh inbox of e: e' happened within
    the decay window [t-r, t) and within radius of the receiving device,
    which stayed on from t' to t, and no later firing of the same device
    qualifies. The simulator runs on the same sweep, so both sides agree
    on who hears whom: given ``trace``, a run of the simulator on sc, the
    DAG is read off its records instead of sweeping again."""
    if trace is None:
        fires = []
        sweep(sc, lambda t, d, fresh, sens: fires.append((t, d, heard(fresh), sens)))
    else:
        fires = ((r.t, r.device, r.heard, r.sensors) for r in trace.records)
    events, neigh, sensors, at = [], [], {}, {}
    for t, d, pairs, sens in fires:
        e = Event(len(events), d, t)
        events.append(e)
        sensors[e.id] = sens
        at[t] = e.id  # no two fires share an instant: a tag names its fire
        neigh.extend((at[tag], e.id) for _, tag in pairs)
    return EventDAG(events, neigh, sensors)


# ---------------------------------------------------------------------------
# evaluation

def restrict_evolution(g: EventDAG, ev: dict, E) -> dict:
    return {e: restrict_value(ev[e], nbr_devices(g, E, e)) for e in E}


class _Scope:
    """The events of one cluster and the memos of its body's nodes.

    The root scope evaluates the top-level expression; an Apply node opens
    one child scope per function value it selects, holding the parent's
    events that selected it. Scopes fill event by event in causal order,
    so when an event is entered every earlier event of the cluster, and
    with it every sender the event can be aware of, is already there.
    ``nbrs`` and ``pi`` describe the event being evaluated."""

    __slots__ = ("params", "body", "domain", "memo", "children", "nbrs", "pi")

    def __init__(self, params, body):
        self.params = params
        self.body = body
        self.domain = set()  # ids of the events entered so far
        self.memo = {}  # id of a Nbr or Rep node -> {event id: value}
        self.children = {}  # (id of an Apply node, function value) -> _Scope
        self.nbrs = {}  # other device -> id of the sender event there
        self.pi = ()  # the aligned neighbours, own device included, in increasing order


class _Denot:
    """Builds the evolution of each node instance event by event, in
    topological generations of the DAG, evaluating each node once per
    event. A node instance is a node of a scope's body: an AST path plus
    the function value of each Apply cluster on it. nbr reads its body's
    memoised values at the senders, and rep its own value at the previous
    event of the device, or its init after a reboot. Since neigh is
    acyclic this is the unique solution of rep's fixpoint.

    Fuel pays for the nodes of each body once per scope it opens, so it
    bounds the nesting of clusters (unbounded recursion), not |E|;
    builtins that call functions spend it as the device evaluator does.
    It is kept in one EvalContext, which builtins run in: eval moves it to
    each event's device and sensors."""

    def __init__(self, g, defs, fuel):
        self.g = g
        self.ctx = EvalContext(device=None, defs=defs or {}, fuel=fuel)

    def scope(self, params, body) -> _Scope:
        size = plan(body).size
        if self.ctx.fuel < size:
            self.ctx.fuel = 0
            raise FuelExhausted("denotational evaluation fuel exhausted")
        self.ctx.fuel -= size
        return _Scope(params, body)

    def enter(self, S: _Scope, ev: Event) -> None:
        """Add ev to S, recording its aligned neighbours there."""
        nbrs = {}
        for s in self.g.senders(ev):
            if s.id in S.domain and s.device != ev.device:
                if s.device in nbrs:
                    raise DagError(
                        f"event {ev.id} has two neighbour events at device {s.device}"
                    )
                nbrs[s.device] = s.id
        S.domain.add(ev.id)
        S.nbrs = nbrs
        S.pi = tuple(sorted((*nbrs, ev.device)))

    def eval(self, E, X, e) -> dict:
        root, ctx = self.scope((), e), self.ctx
        out = {}
        for ev in self.g.causal_order():
            if ev in E:
                ctx.device, ctx.sensors = ev.device, self.g.sensors.get(ev.id) or SensorState()
                self.enter(root, ev)
                out[ev] = self.eval_at(root, {n: phi[ev] for n, phi in X.items()}, e, ev)
        return out

    def eval_at(self, S: _Scope, X: dict, e: Expr, ev: Event) -> Expr:
        """The value at ev of e, a node of S's body, where X holds the
        values at ev of the variables in scope. Apply, nbr and rep are
        never values, a variable's value is restricted to the cluster, and
        any other node is first tried as a value (value_of)."""
        k = type(e)
        if k is Apply:
            f = self.eval_at(S, X, e.fn, ev)
            avs = [self.eval_at(S, X, a, ev) for a in e.args]
            if isinstance(f, Builtin):
                return call_builtin(self.ctx, f.name, S.pi, avs)
            C = S.children.get((id(e), f))
            if C is None:
                C = S.children[id(e), f] = self.scope(*fun_parts(self.ctx.defs, f, len(avs)))
            self.enter(C, ev)
            params = {x: restrict_value(a, C.pi) for x, a in zip(C.params, avs)}
            return self.eval_at(C, params, C.body, ev)
        if k is Var:
            if e.name not in X:
                raise DenotError(f"unbound variable {e.name!r}")
            return restrict_value(X[e.name], S.pi)
        if k is Nbr:
            v = self.eval_at(S, X, e.body, ev)
            memo = S.memo.setdefault(id(e), {})
            memo[ev.id] = v
            nbrs = S.nbrs
            return FieldVal(S.pi, tuple([memo[nbrs[d]] if d in nbrs else v for d in S.pi]))
        if k is Rep:
            r0 = self.eval_at(S, X, e.init, ev)
            memo = S.memo.setdefault(id(e), {})
            prev = prev_event(self.g, ev)
            last = memo[prev.id] if prev is not None and prev.id in S.domain else r0
            v = memo[ev.id] = self.eval_at(S, {**X, e.var: last}, e.body, ev)
            return v
        v = value_of(e, X)
        if v is not None:
            return v
        if k is Data:
            return Data(e.ctor, tuple(self.eval_at(S, X, a, ev) for a in e.args))
        if k is Lambda:  # value_of found a free variable unbound
            v = next(v for v in plan(e).fv if v not in X)
            raise DenotError(f"unbound variable {v!r}")
        if k is FieldVal:
            return restrict_value(e, S.pi)
        raise DenotError(f"cannot interpret {e!r}")


def denot_eval(g: EventDAG, E, X: dict, e: Expr, defs=None,
               fuel: int = DEFAULT_FUEL) -> dict:
    """Interpret e over the events E under assumptions X."""
    return _Denot(g, defs, fuel).eval(frozenset(E), X, e)


def denot_program(g: EventDAG, program: Program, fuel: int = DEFAULT_FUEL) -> dict:
    defs = {d.name: d for d in program.defs}
    return denot_eval(g, g.events, {}, program.main, defs, fuel)


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
    trace = run_scenario(sc, program, fuel=fuel)
    g = build_dag_from_scenario(sc, trace)
    bad = validate_dag(g)
    if bad:
        raise CoherenceError(f"induced DAG violates neigh properties: {bad}")
    denots = denot_program(g, program, fuel=fuel)
    E = frozenset(g.events)
    report = AdequacyReport()
    for ev, rec in zip(g.events, trace.records):
        assert (ev.time, ev.device) == (rec.t, rec.device)
        lhs = denots[ev]
        rhs = restrict_value(rec.root, nbr_devices(g, E, ev))
        report.verdicts.append(
            Verdict(ev.id, ev.time, ev.device, lhs, rhs, lhs == rhs)
        )
    return report
