"""Seeded random generators for the property suites.

The expression generator is type-directed: draw a target type, then
build an expression of that type bottom-up, so every draw is well typed
by construction.  Closures never capture field-typed variables and
function results stay local, mirroring the static checker's rules.  The
scenario generator draws small mobile networks with outages, abutting
segments, border and decay-edge fires, varied decay, and scripted
sensors. The world generator draws the geometry and clock of the
delivery sweep: many devices on a lattice of the radius, and times whose
denominators are co-prime. The DAG generator draws event structures no
geometry produces.
"""

import math
import random
from fractions import Fraction

from fieldcalc.ast import (
    Apply,
    Builtin,
    FALSE,
    Lambda,
    Nbr,
    Program,
    Rep,
    TRUE,
    Var,
    boolean,
    num,
)
from fieldcalc.builtins import MAP_HOOD_MAX_ARITY, SensorState
from fieldcalc.denot import Event, EventDAG
from fieldcalc.network import PathSeg, Scenario, as_time
from fieldcalc.parser import parse_value
from fieldcalc.typer import Arrow, field
from helpers import BOOL, NUM, is_field


def bapp(name, *args):
    return Apply(Builtin(name), tuple(args))


FUN0_NUM = Arrow((), NUM)

# builtin names drawn as function values, by their arrow type
BUILTIN_FUNS = {
    Arrow((NUM, NUM), NUM): ("+", "-", "*"),
    Arrow((NUM, NUM), BOOL): ("<", "="),
    Arrow((BOOL, BOOL), BOOL): ("and",),
}


class ExprGen:
    """Draw closed, well-typed expressions of a given target type."""

    def __init__(self, rnd: random.Random, sensors: bool = True):
        self.rnd = rnd
        self.sensors = sensors
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"x{self.counter}"

    # ---- types -------------------------------------------------------

    def type(self, fields=True, funs=True):
        kinds = ["num"] * 3 + ["bool"] * 2
        if fields:
            kinds += ["fnum", "fnum", "fbool"]
        if funs:
            kinds += ["fun", "fun"]
        kind = self.rnd.choice(kinds)
        if kind == "num":
            return NUM
        if kind == "bool":
            return BOOL
        if kind == "fnum":
            return field(NUM)
        if kind == "fbool":
            return field(BOOL)
        n = self.rnd.randint(0, 2)
        args = tuple(self.type(fields=True, funs=False) for _ in range(n))
        return Arrow(args, self.type(fields=False, funs=False))

    # ---- expressions -------------------------------------------------

    def expr(self, T, env=None, depth=3):
        env = env or {}
        if depth <= 0:
            return self.atom(T, env)
        mk = self.rnd.choice(self.builders(T, env))
        return mk(T, env, depth - 1)

    def atom(self, T, env):
        opts = [Var(x) for x, t in env.items() if t == T]
        if T == NUM:
            opts += [num(self.rnd.choice([0, 1, 2, 3, 5, -1])), bapp("uid")]
            if self.sensors:
                opts += [bapp("sns-num"), bapp("sns-range")]
        elif T == BOOL:
            opts += [TRUE, FALSE]
            if self.sensors:
                opts += [bapp("sns-patron"), bapp("sns-injection-point")]
        elif is_field(T):
            opts += [] if is_field(T.args[0]) else [Nbr(self.atom(T.args[0], env))]
            if T == field(NUM) and self.sensors:
                opts += [bapp("nbr-range")]
        elif isinstance(T, Arrow):
            opts += [self.lam(T, env, 0)]
            if T in BUILTIN_FUNS:
                opts += [Builtin(self.rnd.choice(BUILTIN_FUNS[T]))]
            if T == FUN0_NUM and self.sensors:
                opts += [bapp("sns-fun")]
        if not opts:
            raise ValueError(f"no atoms of type {T}")
        return self.rnd.choice(opts)

    def lam(self, T, env, depth):
        """A literal lambda; the body may not capture field-typed vars."""
        params = tuple(self.fresh() for _ in T.args)
        inner = {x: t for x, t in env.items() if not is_field(t)}
        inner.update(zip(params, T.args))
        return Lambda(params, self.expr(T.res, inner, depth))

    def hood_fun(self, T, env, depth):
        """A function a hood or a branch gives: a third of the time a
        builtin name of type T, when one has it, else a lambda."""
        if T in BUILTIN_FUNS and self.rnd.random() < 1 / 3:
            return Builtin(self.rnd.choice(BUILTIN_FUNS[T]))
        return self.lam(T, env, depth)

    def fun_value(self, T, env, depth):
        """A function-typed expression: a lambda, a branch between two
        lambdas or builtin names (exercising clusters), or a
        function-valued atom.

        Branching with mux is only well sorted for arrows over local
        types, so field-consuming functions stay literal."""
        local_arrow = not any(is_field(a) for a in T.args)
        roll = self.rnd.random()
        if roll < 0.55 or not local_arrow:
            return self.lam(T, env, depth)
        if roll < 0.8:
            return bapp("mux", self.expr(BOOL, env, depth),
                        self.hood_fun(T, env, depth), self.hood_fun(T, env, depth))
        return self.atom(T, env)

    def builders(self, T, env):
        g = self.expr
        if T == NUM:
            out = [
                lambda T, e, d: self.atom(T, e),
                lambda T, e, d: bapp(self.rnd.choice(["+", "-", "*"]),
                                     g(NUM, e, d), g(NUM, e, d)),
                lambda T, e, d: bapp("mux", g(BOOL, e, d), g(NUM, e, d),
                                     g(NUM, e, d)),
                lambda T, e, d: bapp(
                    self.rnd.choice(["min-hood", "min-hood+", "sum-hood+",
                                     "pick-hood"]),
                    g(field(NUM), e, d)),
                lambda T, e, d: Rep(g(NUM, e, 1), "r",
                                    g(NUM, {**e, "r": NUM}, d)),
                lambda T, e, d: self.apply(NUM, e, d),
                lambda T, e, d: bapp("fold-hood",
                                     self.hood_fun(Arrow((NUM, NUM), NUM), e, d),
                                     g(field(NUM), e, d)),
                lambda T, e, d: Apply(bapp("pick-hood", Nbr(bapp("sns-fun"))),
                                      ()) if self.sensors
                else self.atom(NUM, e),
            ]
        elif T == BOOL:
            out = [
                lambda T, e, d: self.atom(T, e),
                lambda T, e, d: bapp(self.rnd.choice(["<", "="]),
                                     g(NUM, e, d), g(NUM, e, d)),
                lambda T, e, d: bapp("and", g(BOOL, e, d), g(BOOL, e, d)),
                lambda T, e, d: bapp("mux", g(BOOL, e, d), g(BOOL, e, d),
                                     g(BOOL, e, d)),
                lambda T, e, d: bapp("pick-hood", g(field(BOOL), e, d)),
                lambda T, e, d: bapp("fold-hood",
                                     self.hood_fun(Arrow((BOOL, BOOL), BOOL), e, d),
                                     g(field(BOOL), e, d)),
                lambda T, e, d: Rep(g(BOOL, e, 1), "r",
                                    g(BOOL, {**e, "r": BOOL}, d)),
                lambda T, e, d: self.apply(BOOL, e, d),
            ]
        elif T == field(NUM):
            out = [
                lambda T, e, d: self.atom(T, e),
                lambda T, e, d: Nbr(g(NUM, e, d)),
                lambda T, e, d: bapp("+[f,f]", g(T, e, d), g(T, e, d)),
                lambda T, e, d: bapp("mux[f,f,l]", g(field(BOOL), e, d),
                                     g(T, e, d), g(NUM, e, d)),
                lambda T, e, d: self.map_hood(NUM, e, d),
            ]
        elif T == field(BOOL):
            out = [
                lambda T, e, d: self.atom(T, e),
                lambda T, e, d: Nbr(g(BOOL, e, d)),
                lambda T, e, d: bapp("<[f,f]", g(field(NUM), e, d),
                                     g(field(NUM), e, d)),
                lambda T, e, d: self.map_hood(BOOL, e, d),
            ]
        elif isinstance(T, Arrow):
            out = [lambda T, e, d: self.fun_value(T, e, d)]
        else:
            raise ValueError(f"no builders for type {T}")
        return out

    def map_hood(self, R, env, depth):
        """map-hood of a function to R over 1 to MAP_HOOD_MAX_ARITY number
        fields, so builtins are applied to up to 5 arguments."""
        n = self.rnd.randint(1, MAP_HOOD_MAX_ARITY)
        return bapp("map-hood", self.hood_fun(Arrow((NUM,) * n, R), env, depth),
                    *[self.expr(field(NUM), env, depth) for _ in range(n)])

    def apply(self, R, env, depth):
        n = self.rnd.randint(0, 2)
        args = tuple(self.type(fields=True, funs=False) for _ in range(n))
        fn = self.fun_value(Arrow(args, R), env, depth)
        return Apply(fn, tuple(self.expr(t, env, depth // 2) for t in args))

    def program(self, depth=3) -> Program:
        """A closed program with a local-typed main expression."""
        T = self.rnd.choice([NUM, NUM, NUM, BOOL])
        return Program((), self.expr(T, {}, depth))


# ---------------------------------------------------------------------------
# scenarios

SNS_FUNS = [
    "() => 0",
    "() => uid()",
    "() => min-hood(nbr{sns-num()})",
]


def _waypoints(rnd):
    n = rnd.choice([1, 1, 2, 3])
    return tuple(
        (rnd.randint(-4, 4) / 2.0, rnd.randint(-4, 4) / 2.0) for _ in range(n)
    )


def _script(rnd, draw):
    """A constant reading or a two-step schedule starting at t=0."""
    if rnd.random() < 0.3:
        return ((Fraction(0), draw()), (Fraction(rnd.randint(1, 9)), draw()))
    return ((None, draw()),)


def gen_scenario(rnd: random.Random) -> Scenario:
    """A small mobile network. Besides random fires it reaches the corner
    cases of who hears whom: outages, abutting segments (no outage) with
    fires just before and just after the seam, fires exactly on segment
    borders, and a receiver firing exactly ``decay`` after a sender (the
    closed edge of the window)."""
    n = rnd.randint(1, 5)
    devices = tuple(range(1, n + 1))
    paths = {}
    seams = {}
    for d in devices:
        roll = rnd.random()
        if roll < 0.3:
            # mid-run outage: the device drops off and reboots
            down = Fraction(rnd.randint(2, 5))
            up = down + Fraction(rnd.randint(1, 3))
            paths[d] = (
                PathSeg(Fraction(0), down, _waypoints(rnd)),
                PathSeg(up, Fraction(10), _waypoints(rnd)),
            )
        elif roll < 0.45:
            # abutting segments: the device stays on, its path jumps
            seam = Fraction(rnd.randint(2, 8))
            paths[d] = (
                PathSeg(Fraction(0), seam, _waypoints(rnd)),
                PathSeg(seam, Fraction(10), _waypoints(rnd)),
            )
            seams[d] = seam
        else:
            paths[d] = (PathSeg(Fraction(0), Fraction(10), _waypoints(rnd)),)
    decay = as_time(rnd.choice([0, 1, 3, 10, 100]))

    def active(d, t):
        return any(s.start <= t <= s.end for s in paths[d])

    fires = {}
    for t4 in rnd.sample(range(1, 40), k=rnd.randint(1, 8)):
        t = Fraction(t4, 4)
        d = rnd.choice(devices)
        if active(d, t):
            fires[t] = d
    for d in devices:
        for seg in paths[d]:
            for t in (seg.start, seg.end):
                if t not in fires and rnd.random() < 0.2:
                    fires[t] = d
    for d, seam in seams.items():
        if rnd.random() < 0.5:
            # off the quarter grid, so they cannot clash with a random fire
            for t in (seam - Fraction(1, 8), seam + Fraction(1, 8)):
                fires.setdefault(t, d)
    if fires and decay > 0 and rnd.random() < 0.5:
        t = rnd.choice(sorted(fires)) + decay
        d = rnd.choice(devices)
        if t not in fires and active(d, t):
            fires[t] = d
    if not fires:
        d = devices[0]
        fires = {paths[d][0].start + 1: d}

    sensors = {
        d: {
            "sns-num": _script(rnd, lambda: num(rnd.randint(-3, 9))),
            "sns-range": _script(rnd, lambda: num(rnd.randint(0, 5))),
            "sns-patron": _script(rnd, lambda: boolean(rnd.random() < 0.5)),
            "sns-injection-point": _script(
                rnd, lambda: boolean(rnd.random() < 0.4)),
            "sns-fun": ((None, parse_value(rnd.choice(SNS_FUNS))),),
        }
        for d in devices
    }
    return Scenario(
        devices=devices,
        radius=rnd.choice([1.0, 1.6, 2.5, 4.0]),
        decay=decay,
        paths=paths,
        fires=tuple(sorted(fires.items())),
        sensor_scripts=sensors,
    )


# co-prime time steps: a world mixing them has ticks of 1/210
TIME_STEPS = (Fraction(1, 3), Fraction(1, 7), Fraction("0.1"))


def gen_world(rnd: random.Random) -> Scenario:
    """Up to 30 devices over several cells of the radius grid, negative
    coordinates included, with radius 0, inf or finite. Points lie on a
    lattice of radius / k, so many pairs are exactly the radius apart
    (3-4-5 diagonals too) and straddle a cell border. Devices are static
    (some listing their one point several times), static with an outage,
    static with a single waypoint that jumps between segments, moving, on
    two overlapping segments listed in either order (the first listed
    wins at a shared instant), or without a path. Fire times, segment
    borders and decay mix thirds, sevenths and tenths; fires land on
    segment borders, exactly decay after another fire, and inside a
    static device's outage, by the static device nearest to it."""
    radius = rnd.choice([0.0, math.inf, 0.1, 1.0, 1.5, 2.5])
    unit = radius / rnd.choice([1, 2, 5]) if 0 < radius < math.inf else 0.5

    def point():
        return (rnd.randint(-8, 8) * unit, rnd.randint(-8, 8) * unit)

    def when(lo=0):
        step = rnd.choice(TIME_STEPS)
        return step * rnd.randint(math.ceil(lo / step), int(10 / step))

    devices = tuple(range(1, rnd.randint(1, 30) + 1))
    paths = {}
    for d in devices:
        roll, p = rnd.random(), point()
        a = when()
        b = rnd.choice([a, when(a)])  # a == b abuts, a < b is a gap or overlap
        if roll < 0.3:
            paths[d] = (PathSeg(Fraction(0), Fraction(10), (p,) * rnd.choice([1, 1, 3])),)
        elif roll < 0.45:
            paths[d] = (PathSeg(Fraction(0), a, (p,)), PathSeg(b, Fraction(10), (p,)))
        elif roll < 0.6:
            paths[d] = (PathSeg(Fraction(0), a, (p,)), PathSeg(b, Fraction(10), (point(),)))
        elif roll < 0.8:
            pts = tuple(point() for _ in range(rnd.randint(2, 3)))
            paths[d] = (PathSeg(Fraction(0), a, pts), PathSeg(b, Fraction(10), pts[::-1]))
        elif roll < 0.95:
            segs = [PathSeg(Fraction(0), b, (p,)),
                    PathSeg(a, Fraction(10), tuple(point() for _ in range(rnd.randint(1, 2))))]
            rnd.shuffle(segs)
            paths[d] = tuple(segs)

    def on(d, t):
        return any(s.start <= t <= s.end for s in paths.get(d, ()))

    fires = {}
    for _ in range(rnd.randint(1, 30)):
        t, d = when(), rnd.choice(devices)
        if on(d, t):
            fires.setdefault(t, d)
    for d, segs in paths.items():
        for t in (b for s in segs for b in (s.start, s.end)):
            if rnd.random() < 0.2:
                fires.setdefault(t, d)
    spots = {d: segs[0].waypoints[0] for d, segs in paths.items()
             if len({p for s in segs for p in s.waypoints}) == 1}
    for d, segs in paths.items():
        t = (segs[0].end + segs[-1].start) / 2
        if d in spots and segs[0].end < t < segs[-1].start:
            near = [d2 for d2 in spots if d2 != d and on(d2, t)]
            if near:
                fires.setdefault(t, min(near, key=lambda d2: math.dist(spots[d], spots[d2])))
    decay = rnd.choice([Fraction(0), *TIME_STEPS, Fraction(1), Fraction(3), Fraction(100)])
    for t in list(fires)[:3]:
        d = rnd.choice(devices)
        if on(d, t + decay):
            fires.setdefault(t + decay, d)
    return Scenario(devices=devices, radius=radius, decay=decay, paths=paths,
                    fires=tuple(sorted(fires.items())))


# ---------------------------------------------------------------------------
# event DAGs

SNS_FUN_VALUES = [parse_value(f) for f in SNS_FUNS]


def _readings(rnd, devices) -> SensorState:
    """One event's sensors: every local sensor, and a range to every device."""
    return SensorState(
        local={
            "sns-num": num(rnd.randint(-3, 9)),
            "sns-range": num(rnd.randint(0, 5)),
            "sns-patron": boolean(rnd.random() < 0.5),
            "sns-injection-point": boolean(rnd.random() < 0.4),
            "sns-fun": rnd.choice(SNS_FUN_VALUES),
        },
        ranges={d: float(rnd.randint(0, 8)) for d in devices},
    )


def gen_dag(rnd: random.Random) -> EventDAG:
    """A small valid event DAG of the shapes no geometry produces: links
    one way only, lost messages (events nobody hears), an event that hears
    an older event of a device and not its newer one, a reboot at any event
    (a missing own-device edge, or one from an older event of the device),
    events of two devices at one time, ids out of time order, and edges
    that point backward in time. Device ids include 0 and negatives. Each
    event carries readings of every sensor."""
    devices = rnd.sample(range(-2, 7), rnd.randint(1, 4))
    n = rnd.randint(1, 30)
    ids = rnd.sample(range(3 * n), n)
    order, t = [], Fraction(1)  # the events in the causal order the edges follow
    for k in range(n):
        t += Fraction(rnd.choice([0, 1, 1, 2]), 4)
        back = Fraction(rnd.randint(1, 8), 4) if rnd.random() < 0.1 else 0
        order.append(Event(ids[k], rnd.choice(devices), t - back))
    neigh, consumed = [], set()  # consumed: events that feed one of their own device
    for k, e in enumerate(order):
        past = {}
        for p in order[:k]:
            past.setdefault(p.device, []).append(p)
        for d, evs in past.items():
            roll = rnd.random()
            if d != e.device:
                if roll >= 0.5:
                    continue
                s = rnd.choice(evs)
            else:
                free = [p for p in evs[:-1] if p.id not in consumed]
                if roll < 0.8:
                    s = evs[-1]
                elif roll < 0.9 and free:
                    s = rnd.choice(free)
                else:
                    continue
                consumed.add(s.id)
            neigh.append((s.id, e.id))
    return EventDAG(order, neigh, {e.id: _readings(rnd, devices) for e in order})
