"""Shared fixtures: the four-device example DAG, scenario builders and the
all-pairs reference for the induced DAG.

The DAG mirrors the running example: four devices firing 4 to 6 times,
device 2 rebooting after its second firing (so the self-link into its
third firing is severed), and connectivity between devices 2 and 4
dropping before device 4's fourth firing. Devices 1 and 3 are never in
range of each other. Event 12 (device 3's third firing) plays the role
of the highlighted event: it is aware of devices 2, 3 and 4 only.
"""

from fractions import Fraction as F

from fieldcalc.denot import Event, EventDAG
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
