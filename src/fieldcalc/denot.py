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
reads of an event, its nbr and rep values in each cluster, is one record:
a dict from each cluster (_Scope) the event entered to the values there
of the body's nbr and rep nodes, by node id.

Every input is denoted in one event loop (network.walk): a scenario in
lockstep with the delivery sweep, whose time order is causal, and an
event DAG by its replay, which visits its events in a causal order, least
(time, id) first. An EventDAG is checked where it is made, so no replay
meets a structure the neigh properties forbid. Each event is denoted as
it is reached, and its record goes out in the payload it sends, which is
dropped once its last receiver has read it. The adequacy checker takes
the same step, plus the fire and the comparison. The first failure in
that order is reported; at one event, the device's error comes before
the denotation's.

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

from heapq import heappop, heappush
from typing import Optional
from weakref import WeakValueDictionary

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
    show_value,
    sweep,
    walk,
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
    """Events plus the neigh relation, kept once: each event's senders, in
    the order the edges first list them.

    neigh(e, e') of the calculus ("e is aware of e'") corresponds to an
    edge (e'.id, e.id) here. Sensor readings are attached per event so
    builtins can be interpreted at each event. The constructor is the one
    check of an event structure, from a file or a caller alike: it raises
    DagError unless the ids are unique, each edge end is an id as given,
    and validate_dag finds no violation."""

    def __init__(self, events, neigh, sensors=None):
        self.events = tuple(sorted(events, key=lambda e: (e.time, e.id)))
        self.sensors = dict(sensors or {})
        self.by_id = by_id = {}
        for e in self.events:
            if e.id in by_id:
                raise DagError(f"duplicate event id {_show_event_id(e.id)}")
            by_id[e.id] = e
        self._in = heard = {}  # receiver id -> sender ids as listed, then its senders
        for a, b in neigh:
            if a not in by_id or b not in by_id:
                raise DagError(f"neigh edge ({_show_event_id(a)}, {_show_event_id(b)}) "
                               "references unknown events")
            heard.setdefault(b, []).append(a)
        for b, ss in heard.items():  # each sender once, where it is first listed
            heard[b] = tuple(map(by_id.__getitem__, dict.fromkeys(ss)))
        if bad := validate_dag(self):
            raise DagError("neigh violates " + "; ".join(
                f"{v.kind} (events {', '.join(map(_show_event_id, v.events))})" for v in bad))

    def senders(self, e: Event) -> tuple:
        """Events e is aware of (its neighbour events)."""
        return self._in.get(e.id, ())

    @property
    def neigh(self) -> frozenset:
        """The edges (sender id, receiver id), for readers outside the package."""
        return frozenset((s.id, e.id) for e in self.events for s in self.senders(e))

    def replay(self, step) -> None:
        """Run the events as network.sweep runs fires: ``step(i, t, d, fresh,
        sensors)`` returns the payload of event i, of device d at time t;
        ``fresh`` maps the device of each sender to its payload, and
        sensors are the event's own or none. The events come in a causal
        order, least (time, id) first of those whose senders have all run,
        which is (time, id) order when every edge points forward in it. A
        payload is kept only until its last receiver has read it. The
        constructor has refused two senders on one device and any cycle."""
        events = self.events  # in (time, id) order, so ranks are heap keys
        rank = {e.id: k for k, e in enumerate(events)}
        waiting = [len(self.senders(e)) for e in events]
        receivers = [[] for _ in events]
        for k, e in enumerate(events):
            for s in self.senders(e):
                receivers[rank[s.id]].append(k)
        unread = [len(rs) for rs in receivers]
        ready = [k for k, n in enumerate(waiting) if not n]  # sorted, so a heap
        kept, none = {}, SensorState()
        while ready:
            k = heappop(ready)
            e, fresh = events[k], {}
            for s in self.senders(e):
                j = rank[s.id]
                fresh[s.device] = kept[j]
                unread[j] -= 1
                if not unread[j]:
                    del kept[j]
            kept[k] = step(e.id, e.time, e.device, fresh, self.sensors.get(e.id) or none)
            if not unread[k]:  # a lost message
                del kept[k]
            for b in receivers[k]:
                waiting[b] -= 1
                if not waiting[b]:
                    heappush(ready, b)


def _show_event_id(i) -> str:  # a caller's id that is no integer as given: '2', not 2
    return show_id(i) if isinstance(i, int) else show_value(i)


class Violation(Frozen):
    __slots__ = _fields = ("kind", "events")  # "cycle" | "duplicate-device" | "double-consumption"


def validate_dag(g: EventDAG):
    """Check the three neigh properties on g's senders, for EventDAG's
    constructor; violations come back as data, in the order of g's events
    and of their senders."""
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
    # and property 3: an event feeds at most one later event of its own device
    consumers = {}
    for e in g.events:
        seen = {}
        for s in g.senders(e):
            if s.device in seen:
                out.append(Violation("duplicate-device", (seen[s.device], s.id, e.id)))
            seen[s.device] = s.id
            if s.device == e.device:
                consumers.setdefault(s.id, []).append(e.id)
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
    return next((s for s in g.senders(e) if s.device == d and s in E), None)


def nbr_devices(g: EventDAG, E, e: Event) -> frozenset:
    """The aligned neighbours of e within E (e's own device included)."""
    out = {e.device} if e in E else set()
    for s in g.senders(e):
        if s in E:
            out.add(s.device)
    return frozenset(out)


def prev_event(g: EventDAG, e: Event) -> Optional[Event]:
    return next((s for s in g.senders(e) if s.device == e.device), None)


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
SCENARIO_KEYS = frozenset({"decay", "devices", "fires", "paths", "radius", "sensors"})


def dag_from_json(obj) -> EventDAG:
    """The event DAG a DAG file holds; EventDAG checks it, reading each edge
    from the file as it takes it, after the events."""
    if not isinstance(obj, dict) or "events" not in obj or "neigh" not in obj:
        raise DagError("DAG file must be an object with keys events, neigh")
    mixed = sorted(SCENARIO_KEYS.intersection(obj))
    if mixed:
        raise DagError(f"DAG file holds the scenario keys {', '.join(mixed)}")
    try:
        events = []
        for r in json_container(obj["events"], list, "events"):
            try:
                i, d, t = r["id"], r["device"], as_time(r["time"])
            except SHAPE_ERRORS as e:
                raise shape_error("DAG event", EVENT_SHAPE, r, e) from None
            i, d = json_id(i, "DAG event id"), json_device(d, "DAG event device")
            events.append(Event(i, d, t))
        return EventDAG(events, map(_edge, json_container(obj["neigh"], list, "neigh")))
    except ScenarioError as e:
        raise DagError(str(e)) from None


def _edge(edge) -> tuple:
    """An edge of a DAG file, as a pair of integer ids."""
    try:
        a, b = edge
    except SHAPE_ERRORS as e:
        raise shape_error("neigh edge", "[id, id]", edge, e) from None
    if type(a) is not int or type(b) is not int:
        a, b = json_id(a, "neigh edge end"), json_id(b, "neigh edge end")
    return a, b


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

    def step(i, t, d, fresh, sens):
        events.append(Event(i, d, t))
        sensors[i] = sens
        neigh.extend((j, i) for j in fresh.values())
        return i

    sweep(sc, step)
    return EventDAG(events, neigh, sensors)


# ---------------------------------------------------------------------------
# evaluation

class _Scope:
    """One cluster and the body it evaluates.

    The root scope evaluates the top-level expression; an Apply node opens
    one child scope per function value it selects, holding the parent's
    events that selected it. An event belongs to a scope when its record
    holds values there. Events come in a causal order, so when an event is
    entered every sender it can be aware of has its record, keyed by its
    device (network.walk). ``here``, ``nbrs``, ``prev`` and ``pi``
    describe the event being evaluated. A parent holds its children
    weakly, so a scope lives while a live record reads it; it keeps its
    body, so the Apply node ids keying children stay unique."""

    __slots__ = ("params", "body", "size", "run", "children", "here", "nbrs", "prev", "pi",
                 "__weakref__")

    def __init__(self, params, body):
        self.params = params
        self.body = body
        self.size = plan(body).size
        self.run = _child(body)
        self.children = WeakValueDictionary()  # (id of an Apply node, function value) -> _Scope
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
    unique solution of rep's fixpoint. ``event`` takes one event;
    denot_program and check_adequacy drive it along network.walk, the
    delivery sweep of a scenario or the replay of an event DAG.

    Each event pays for the body of each scope it enters from a budget
    reset to fuel, so fuel bounds the clusters of one event (unbounded
    recursion), not |E|. The functions builtins call (map-hood, fold-hood)
    spend ctx's fuel, which each event resets as each fire's is. ctx is
    the one EvalContext builtins run in; event moves it to each event."""

    def __init__(self, defs, fuel):
        self.ctx = EvalContext(device=None, defs=defs or {}, fuel=fuel)
        self.fuel = self.budget = fuel
        self.rec = None  # the record of the event being evaluated
        self.senders = {}  # the records of its senders, by device

    def enter(self, S: _Scope) -> None:
        """Add the event to S, paying for S's body, and record its aligned neighbours."""
        if self.budget < S.size:
            raise FuelExhausted("denotational evaluation fuel exhausted")
        self.budget -= S.size
        nbrs, d = {}, self.ctx.device
        for s, sent in self.senders.items():
            vals = sent.get(S)
            if vals is not None:
                nbrs[s] = vals
        S.here = self.rec[S] = {}
        S.prev, S.nbrs = nbrs.pop(d, None), nbrs
        S.pi = tuple(sorted((*nbrs, d)))

    def event(self, root: _Scope, rec: dict, d: int, senders: dict, sensors, X) -> Expr:
        """The value of root's body at the event of device d whose record is
        rec, where X holds the values there of the variables in scope.
        senders maps the device of each event it is aware of to that
        event's record; rec is filled as it goes."""
        ctx = self.ctx
        ctx.device, ctx.sensors, ctx.fuel = d, sensors, self.fuel
        self.rec, self.senders, self.budget = rec, senders, self.fuel
        self.enter(root)
        v = root.run(self, root, X)
        self.rec, self.senders = None, {}  # the records live only as long as their payloads
        return v


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
    """The closure of an application of a builtin name: b is the kernel
    TABLE.bind gives for the name and the number of arguments, which the
    node fixes. The arguments run in a plain loop, which costs no frame of
    its own, as a comprehension does before Python 3.12."""
    def run(den, S, X):
        avs = []
        for r in arg_runs:
            avs.append(r(den, S, X))
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
            return _apply_builtin(TABLE.bind(e.fn.name, n), arg_runs)
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


def denot_program(src, program: Program, sink, fuel: int = DEFAULT_FUEL) -> None:
    """Denote each event of src, a scenario or an event DAG, as network.walk
    reaches it, and hand it to ``sink(event, t, d, value)``. Each event
    sends its record."""
    den, root = _Denot({d.name: d for d in program.defs}, fuel), _Scope((), program.main)

    def step(i, t, d, fresh, sensors):
        rec = {}
        sink(i, t, d, den.event(root, rec, d, fresh, sensors, {}))
        return rec

    walk(src, step)


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


def check_adequacy(src, program: Program, fuel: int = DEFAULT_FUEL,
                   sink=None) -> AdequacyReport:
    """At each event of src, a scenario or an event DAG, as network.walk
    reaches it, fire the device and denote the event, and compare the
    value with the fire's root restricted to the event's aligned
    neighbours. ``sink(verdict)``, when given, takes each verdict; the
    report keeps only counts and the first counterexample. Each event
    sends the pair of its value-tree and its record."""
    den, root = _Denot({d.name: d for d in program.defs}, fuel), _Scope((), program.main)
    report = AdequacyReport()

    def step(i, t, d, fresh, sensors):
        tree = fire(program, d, t, {s: p[0] for s, p in fresh.items()}, sensors, fuel)
        rec = {}
        lhs = den.event(root, rec, d, {s: p[1] for s, p in fresh.items()}, sensors, {})
        rhs = restrict_value(tree.root, root.pi)
        v = Verdict(i, t, d, lhs, rhs, lhs == rhs)
        report.add(v)
        if sink is not None:
            sink(v)
        return tree, rec

    walk(src, step)
    return report
