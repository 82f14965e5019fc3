"""Denotational semantics over event structures, and the adequacy checker.

Programs denote field evolutions: maps from events to values. The event
structure is a DAG whose edges carry messages from a firing to the later
firings that still hold its value-tree. Evaluation is compositional and
per-event, with three non-pointwise ingredients: nbr reads neighbour
events, rep chains same-device events through a fixpoint, and function
application restricts evaluation to the cluster of events that selected
the same function value. All three read only an event's causal past, so
the evaluator visits the events once, in a causal order, and the rep
fixpoint has exactly the solution that order builds. What a later event
reads of an event, its nbr and rep values in each cluster, is one record.

A scenario is denoted in lockstep with the delivery sweep, whose time
order is causal: each fire's event is denoted as it fires, and its record
travels in the fire's message. The adequacy checker takes the same step,
plus the fire and the comparison. The first failure in time order is
reported; at one fire, the device's error comes before the denotation's.
An event DAG file is kept whole and denoted in its causal generations.

Denotational values reuse the syntax tree: local data values and fields
stand for themselves, and a function value is represented by its tag
(the syntactic function value), from which the evaluating operator is
derived on demand. Tag equality is exactly the function equality of the
calculus, so evolutions compare with plain structural equality.

As on the device side, each node is compiled once, at its first
evaluation, into a closure built from its children's and kept on the
node; a closed constant child is its own value.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from .ast import (
    Apply,
    Builtin,
    Data,
    Expr,
    FieldVal,
    Frozen,
    Lambda,
    Nbr,
    Program,
    Record,
    Rep,
    Var,
    plan,
    restrict_value,
    set_field,
    value_of,
)
from .builtins import TABLE, SensorState
from .device import (
    DEFAULT_FUEL,
    EvalContext,
    FuelExhausted,
    fun_parts,
    list_json,
    record_json,
    scalar_json,
    value_json,
)
from .network import (
    Scenario,
    SHAPE_ERRORS,
    ScenarioError,
    as_time,
    fire,
    json_container,
    json_device,
    json_id,
    shape_error,
    show_id,
    sweep,
)
# position_at and run_scenario stay importable as denot.position_at and
# denot.run_scenario for tracers that wrap those names (bench/spans.py);
# denot itself reaches both only through network's sweep
from .network import position_at, run_scenario  # noqa: F401


class DenotError(ValueError):
    pass


class DagError(DenotError):
    pass


# ---------------------------------------------------------------------------
# event DAGs

class Event(Frozen):
    __slots__ = _fields = ("id", "device", "time")

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
                raise DagError(f"duplicate event id {show_id(e.id)}")
            self.by_id[e.id] = e
        for a, b in self.neigh:
            if a not in self.by_id or b not in self.by_id:
                raise DagError(f"neigh edge ({show_id(a)}, {show_id(b)}) references unknown events")
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


class Violation(Frozen):
    __slots__ = _fields = ("kind", "events")  # "cycle" | "duplicate-device" | "double-consumption"


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


# latest_event, nbr_devices, prev_event, shift and restrict_evolution are the
# steps of the fixpoint reading of nbr, rep and restriction, which tests keep
# as the specification (tests/helpers.reference_denot); the evaluator below
# calls none of them. They stay here while tracers count calls through these
# names (bench/spans.py).

def latest_event(g: EventDAG, E, e: Event, d: int) -> Optional[Event]:
    """The latest event at device d that e is aware of within E; e itself
    when d is e's own device."""
    if d == e.device:
        return e if e in E else None
    found = None
    for s in g.senders(e):
        if s.device == d and s in E:
            if found is not None:
                raise DagError(f"event {show_id(e.id)} has two neighbour events at device {d}")
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
                raise DagError(f"event {show_id(e.id)} has two same-device predecessors")
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


def restrict_evolution(g: EventDAG, ev: dict, E) -> dict:
    return {e: restrict_value(ev[e], nbr_devices(g, E, e)) for e in E}


# ---------------------------------------------------------------------------
# DAG JSON

EVENT_SHAPE = '{"id": id, "device": id, "time": time}'

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
            i, d = json_id(i, "DAG event id"), json_device(d, "DAG event device")
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

def build_dag_from_scenario(sc: Scenario) -> EventDAG:
    """Events are the scenario's fires; e' feeds e when the delivery sweep
    leaves the message of e' in the fresh inbox of e: e' happened within
    the decay window [t-r, t) and within radius of the receiving device,
    which stayed on from t' to t, and no later firing of the same device
    qualifies. fieldc denotes a scenario along the sweep itself and never
    builds this DAG; tests keep it as the reference, and tracers wrap it
    (bench/spans.py)."""
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

class Denoted(Record):
    """What later events read of one event: for each cluster (_Scope) it
    entered, the values there of the body's nbr and rep nodes, by node id."""

    __slots__ = _fields = ("id", "device", "scopes")

    def __init__(self, id: int, device: int):
        self.id = id
        self.device = device
        self.scopes = {}


class _Scope:
    """One cluster and the body it evaluates.

    The root scope evaluates the top-level expression; an Apply node opens
    one child scope per function value it selects, holding the parent's
    events that selected it. An event belongs to a scope when its record
    holds values there. Events come in a causal order, so when an event is
    entered every sender it can be aware of has its record. ``here``,
    ``nbrs``, ``prev`` and ``pi`` describe the event being evaluated."""

    __slots__ = ("params", "body", "run", "children", "here", "nbrs", "prev", "pi")

    def __init__(self, params, body):
        self.params = params
        self.body = body
        self.run = _child(body)
        self.children = {}  # (id of an Apply node, function value) -> _Scope
        self.here = None  # the event's values here, which its record holds
        self.nbrs = {}  # other device -> the values here of the sender event there
        self.prev = None  # the values here of the sender event on the own device, if any
        self.pi = None  # the aligned neighbours and own device, increasing; None till then


class _Denot:
    """Builds the value of each node instance event by event, evaluating
    each node once per event. A node instance is a node of a scope's body:
    an AST path plus the function value of each Apply cluster on it. nbr
    reads its body's values at the senders, and rep its own value at the
    previous event of the device, or its init after a reboot, each from
    the sender's record. Since events come in a causal order, this is the
    unique solution of rep's fixpoint. ``event`` takes one event; ``eval``
    drives it along a DAG's causal order, denot_scenario and
    check_adequacy along the delivery sweep.

    A scope pays for the nodes of its body, at its first event, from one
    budget for the run, so fuel bounds the nesting of clusters (unbounded
    recursion), not |E|. The functions builtins call (map-hood, fold-hood)
    spend ctx's fuel, which each event resets as each fire's is. ctx is
    the one EvalContext builtins run in; event moves it to each event."""

    def __init__(self, defs, fuel):
        self.ctx = EvalContext(device=None, defs=defs or {}, fuel=fuel)
        self.fuel = self.budget = fuel
        self.rec = None  # the record of the event being evaluated
        self.senders = ()  # the records of its senders

    def enter(self, S: _Scope) -> None:
        """Add the event to S, recording its aligned neighbours there. The
        first event S takes pays for the nodes of its body."""
        if S.pi is None:
            size = plan(S.body).size
            if self.budget < size:
                raise FuelExhausted("denotational evaluation fuel exhausted")
            self.budget -= size
        rec, nbrs = self.rec, {}
        for s in self.senders:
            vals = s.scopes.get(S)
            if vals is not None:
                if s.device in nbrs:
                    raise DagError(f"event {show_id(rec.id)} has two neighbour events "
                                   f"at device {s.device}")
                nbrs[s.device] = vals
        S.here = rec.scopes[S] = {}
        S.prev = nbrs.pop(rec.device, None)
        S.nbrs = nbrs
        S.pi = tuple(sorted((*nbrs, rec.device)))

    def event(self, root: _Scope, rec: Denoted, senders, sensors, X) -> Expr:
        """The value of root's body at the event whose record is rec, where
        X holds the values there of the variables in scope. senders are the
        records of the events it is aware of; rec is filled as it goes."""
        ctx = self.ctx
        ctx.device, ctx.sensors, ctx.fuel = rec.device, sensors, self.fuel
        self.rec, self.senders = rec, senders
        self.enter(root)
        return root.run(self, root, X)

    def eval(self, g: EventDAG, E, X, e) -> dict:
        """The evolution of e over the events E of g under assumptions X."""
        root, recs, out = _Scope((), e), {}, {}
        for ev in g.causal_order():
            if ev in E:
                rec = recs[ev.id] = Denoted(ev.id, ev.device)
                senders = [recs[s.id] for s in g.senders(ev) if s.id in recs]
                out[ev] = self.event(root, rec, senders, g.sensors.get(ev.id) or SensorState(),
                                     {n: phi[ev] for n, phi in X.items()})
        return out


# A node's closure run(den, S, X) is the value at den's event of the node,
# a node of scope S's body, where X holds the values there of the
# variables in scope. Apply, nbr and rep are never values, a variable's
# value is restricted to the cluster, and any other node is first tried as
# a value (value_of), unless it can never be one.

def _compiled(e: Expr):
    """e's closure, compiled on the first call and kept on the node."""
    try:
        return e._den
    except AttributeError:
        run = _compile(e)
        set_field(e, "_den", run)
        return run


def _child(c: Expr):
    """The closure of c, a child of a node or a scope's body; a closed
    constant is its own value, and is not compiled."""
    fv, leaf_vars, _ = plan(c)
    if leaf_vars is not None and not fv:
        return lambda den, S, X: c
    return _compiled(c)


def _apply_builtin(b, arg_runs: list):
    """The closure of an application of a builtin name: b is what
    TABLE.bind gives for the name. One closure per argument count from 1
    to 3 calls its argument closures without a comprehension."""
    n = len(arg_runs)
    if n == 1:
        r0, = arg_runs

        def run(den, S, X):
            avs = [r0(den, S, X)]
            ctx = den.ctx
            ctx.domain = S.pi
            return TABLE.eval(b, ctx, avs)
    elif n == 2:
        r0, r1 = arg_runs

        def run(den, S, X):
            avs = [r0(den, S, X), r1(den, S, X)]
            ctx = den.ctx
            ctx.domain = S.pi
            return TABLE.eval(b, ctx, avs)
    elif n == 3:
        r0, r1, r2 = arg_runs

        def run(den, S, X):
            avs = [r0(den, S, X), r1(den, S, X), r2(den, S, X)]
            ctx = den.ctx
            ctx.domain = S.pi
            return TABLE.eval(b, ctx, avs)
    else:
        def run(den, S, X):
            avs = [r(den, S, X) for r in arg_runs] if arg_runs else []
            ctx = den.ctx
            ctx.domain = S.pi
            return TABLE.eval(b, ctx, avs)
    return run


def _compile(e: Expr):
    """The closure run(den, S, X) of e, from its children's."""
    k = type(e)
    if k is Apply:
        n, key = len(e.args), id(e)
        arg_runs = [_child(a) for a in e.args]
        if type(e.fn) is Builtin:
            return _apply_builtin(TABLE.bind(e.fn.name), arg_runs)
        fn_run = _child(e.fn)

        def run(den, S, X):
            f = fn_run(den, S, X)
            avs = [r(den, S, X) for r in arg_runs]
            if isinstance(f, Builtin):
                ctx = den.ctx
                ctx.domain = S.pi
                return TABLE.eval(f.name, ctx, avs)
            C = S.children.get((key, f))
            if C is None:
                C = S.children[key, f] = _Scope(*fun_parts(den.ctx.defs, f, n))
            den.enter(C)
            params = {x: restrict_value(a, C.pi) for x, a in zip(C.params, avs)}
            return C.run(den, C, params)

        return run
    if k is Var:
        name = e.name

        def run(den, S, X):
            if name not in X:
                raise DenotError(f"unbound variable {name!r}")
            return restrict_value(X[name], S.pi)

        return run
    if k is Nbr:
        body_run, key = _child(e.body), id(e)

        def run(den, S, X):
            v = S.here[key] = body_run(den, S, X)
            nbrs = S.nbrs
            return FieldVal(S.pi, tuple([nbrs[d][key] if d in nbrs else v for d in S.pi]))

        return run
    if k is Rep:
        init_run, var, body_run, key = _child(e.init), e.var, _child(e.body), id(e)

        def run(den, S, X):
            r0 = init_run(den, S, X)
            last = r0 if S.prev is None else S.prev[key]
            v = S.here[key] = body_run(den, S, {**X, var: last})
            return v

        return run
    fv, leaf_vars, _ = plan(e)
    if k is Data:
        ctor, arg_runs = e.ctor, [_child(a) for a in e.args]
        if leaf_vars is None:
            return lambda den, S, X: Data(ctor, tuple([r(den, S, X) for r in arg_runs]))

        def run(den, S, X):
            v = value_of(e, X)
            if v is not None:
                return v
            return Data(ctor, tuple([r(den, S, X) for r in arg_runs]))

        return run
    if k is Lambda:
        def run(den, S, X):
            v = value_of(e, X)
            if v is not None:
                return v
            v = next(v for v in fv if v not in X)
            raise DenotError(f"unbound variable {v!r}")

        return run
    if k is FieldVal:
        return lambda den, S, X: restrict_value(e, S.pi)

    def run(den, S, X):
        raise DenotError(f"cannot interpret {e!r}")

    return run


def denot_eval(g: EventDAG, E, X: dict, e: Expr, defs=None,
               fuel: int = DEFAULT_FUEL) -> dict:
    """Interpret e over the events E under assumptions X."""
    return _Denot(defs, fuel).eval(g, frozenset(E), X, e)


def denot_program(g: EventDAG, program: Program, fuel: int = DEFAULT_FUEL) -> dict:
    defs = {d.name: d for d in program.defs}
    return denot_eval(g, g.events, {}, program.main, defs, fuel)


def denot_scenario(sc: Scenario, program: Program, sink, fuel: int = DEFAULT_FUEL) -> None:
    """Denote each fire's event as the sweep fires it, in time order, and
    hand it to ``sink(event, t, d, value)``; events are numbered from 0 in
    time order. Each fire's message carries its event's record."""
    den, root = _Denot({d.name: d for d in program.defs}, fuel), _Scope((), program.main)
    ids = count()

    def step(t, d, fresh, sensors):
        rec = Denoted(next(ids), d)
        sink(rec.id, t, d, den.event(root, rec, [m.payload for m in fresh.values()], sensors, {}))
        return rec

    sweep(sc, step)


# ---------------------------------------------------------------------------
# adequacy

class Verdict(Frozen):
    __slots__ = _fields = ("event", "t", "device", "denotational", "operational", "ok")


def verdict_json(v: Verdict) -> str:
    """A verdict as canonical JSON text, its keys in sorted order."""
    return record_json(
        ("denotational", value_json(v.denotational)),
        ("device", scalar_json(v.device)),
        ("event", scalar_json(v.event)),
        ("ok", scalar_json(v.ok)),
        ("operational", value_json(v.operational)),
        ("t", scalar_json(str(v.t))))


class AdequacyReport(Record):
    """The counts of an adequacy check and its first counterexample."""

    __slots__ = _fields = ("events", "equal", "first_counterexample")

    def __init__(self, events: int = 0, equal: int = 0,
                 first_counterexample: Optional[Verdict] = None):
        self.events = events
        self.equal = equal
        self.first_counterexample = first_counterexample

    @property
    def ok(self) -> bool:
        return self.first_counterexample is None

    def add(self, v: Verdict) -> None:
        """Count one more verdict."""
        self.events += 1
        if v.ok:
            self.equal += 1
        elif self.first_counterexample is None:
            self.first_counterexample = v

    def to_json(self, texts) -> str:
        """The report as canonical JSON text, its keys in sorted order;
        texts are the verdicts' own (verdict_json), in order."""
        c = self.first_counterexample
        return record_json(
            ("events", list_json(texts)),
            ("first_counterexample", scalar_json(None if c is None else c.event)),
            ("ok", scalar_json(self.ok)))


def check_adequacy(sc: Scenario, program: Program, fuel: int = DEFAULT_FUEL,
                   sink=None) -> AdequacyReport:
    """Fire each device and denote its event as the sweep fires it, and
    compare the value with the fire's root restricted to the event's
    aligned neighbours. ``sink(verdict)``, when given, takes each verdict;
    the report keeps only counts and the first counterexample. Each fire's
    message carries its value-tree and its event's record."""
    den, root = _Denot({d.name: d for d in program.defs}, fuel), _Scope((), program.main)
    report = AdequacyReport()

    def step(t, d, fresh, sensors):
        tree = fire(program, d, t, {s: m.payload[0] for s, m in fresh.items()}, sensors, fuel)
        rec = Denoted(report.events, d)
        lhs = den.event(root, rec, [m.payload[1] for m in fresh.values()], sensors, {})
        rhs = restrict_value(tree.root, root.pi)
        v = Verdict(rec.id, t, d, lhs, rhs, lhs == rhs)
        report.add(v)
        if sink is not None:
            sink(v)
        return tree, rec

    sweep(sc, step)
    return report
