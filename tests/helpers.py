"""Shared fixtures: the four-device example DAG, scenario builders, the
all-pairs reference for the induced DAG and the fixpoint reference for
the denotation.

The DAG mirrors the running example: four devices firing 4 to 6 times,
device 2 rebooting after its second firing (so the self-link into its
third firing is severed), and connectivity between devices 2 and 4
dropping before device 4's fourth firing. Devices 1 and 3 are never in
range of each other. Event 12 (device 3's third firing) plays the role
of the highlighted event: it is aware of devices 2, 3 and 4 only.
"""

from fractions import Fraction as F

from fieldcalc.ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    FieldVal,
    Lambda,
    Nbr,
    Rep,
    Var,
    free_vars,
    is_value,
    mkfield,
    substitute,
)
from fieldcalc.builtins import TABLE, OpContext, SensorState
from fieldcalc.denot import (
    DenotError,
    Event,
    EventDAG,
    latest_event,
    nbr_devices,
    restrict_evolution,
    restrict_value,
    shift,
)
from fieldcalc.device import DEFAULT_FUEL, EvalContext, FuelExhausted, apply_function
from fieldcalc.network import PathSeg, Scenario, as_time, position_at, sensors_at

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
                  sensors=None):
    """n devices on a line, firing round-robin; device ids 0..n-1."""
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


def reference_dag(sc: Scenario) -> EventDAG:
    """The induced DAG by the all-pairs rule: e' feeds e when (1) it
    happened within the decay window [t-r, t), (2) the receiving device
    was on throughout [t', t], (3) the devices were within radius when e'
    fired, and (4) no later firing of the same device also qualifies.
    Sensors cover every device."""
    events = [Event(i, d, t) for i, (t, d) in enumerate(sc.fires)]
    sensors = {e.id: sensors_at(sc, e.device, e.time) for e in events}
    neigh = []
    for e in events:
        best = {}
        for e2 in events:
            t, t2 = e.time, e2.time
            if not (t - sc.decay <= t2 < t):
                continue
            if not on_throughout(sc.paths.get(e.device, ()), t2, t):
                continue
            p = position_at(sc, e.device, t2)
            q = position_at(sc, e2.device, t2)
            if p is None or q is None:
                continue
            if ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5 > sc.radius:
                continue
            prev = best.get(e2.device)
            if prev is None or e2.time > prev.time:
                best[e2.device] = e2
        neigh.extend((e2.id, e.id) for e2 in best.values())
    return EventDAG(events, neigh, sensors)


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
            return apply_function(ctx, fn, vals)
        finally:
            self.fuel = ctx.fuel


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
