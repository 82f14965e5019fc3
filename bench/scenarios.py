"""Deterministic scenario generators for the benchmark workloads.

Each generator takes a ``random.Random`` and returns a plain JSON object in
the scenario format ``fieldc`` reads, so the program under test only ever
sees generated files. Nothing here imports ``fieldcalc``: the inputs and the
references that outputs are checked against come from this directory alone.

Times are exact rationals, written as strings such as ``"65/8"``.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from fractions import Fraction


def scenario_bytes(obj) -> bytes:
    """Canonical encoding of a scenario; equal objects give equal bytes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _static_paths(positions, end: Fraction) -> dict:
    return {
        str(d): [{"from": "0", "to": str(end), "waypoints": [list(p)]}]
        for d, p in positions.items()
    }


def unit_disc_edges(positions: dict, radius: float) -> dict:
    """Adjacency of the unit-disc graph: device -> {neighbour: distance}."""
    adj = {d: {} for d in positions}
    for d, p in positions.items():
        for d2, q in positions.items():
            if d2 != d:
                r = math.hypot(p[0] - q[0], p[1] - q[1])
                if r <= radius:
                    adj[d][d2] = r
    return adj


def dijkstra(positions: dict, radius: float, sources) -> tuple[dict, dict]:
    """Shortest path length from the nearest source over the unit-disc
    graph (``math.inf`` where no source reaches), and the fewest hops of a
    shortest path."""
    adj = unit_disc_edges(positions, radius)
    best = {d: (math.inf, math.inf) for d in positions}
    heap = []
    for s in sources:
        best[s] = (0.0, 0)
        heap.append((0.0, 0, s))
    heapq.heapify(heap)
    while heap:
        du, hu, u = heapq.heappop(heap)
        if (du, hu) > best[u]:
            continue
        for v, w in adj[u].items():
            if (du + w, hu + 1) < best[v]:
                best[v] = (du + w, hu + 1)
                heapq.heappush(heap, (du + w, hu + 1, v))
    return {d: b[0] for d, b in best.items()}, {d: b[1] for d, b in best.items()}


# ---------------------------------------------------------------------------
# grid: a static 2-D grid running the gradient

def grid(rnd: random.Random, side: int = 8, rounds: int = 3) -> tuple[dict, dict]:
    """A ``side`` x ``side`` grid with spacing 1 and radius 1.5 (up to 8
    neighbours) and decay 100, so nothing expires. One injection point is
    drawn in each quadrant, off the quadrant's border rows and columns.

    Within each round devices fire in increasing order of their distance
    to the nearest source, ties broken by the seed. ``nbr{d}`` shares the
    rep state a device held before its last fire, so a device h hops from
    its source along a shortest path settles in round h + 1. For side 8
    every device is at most 2 grid steps from its quadrant's source (path
    length at most 2 * sqrt 2 < 3), so its shortest path has at most 2 hops
    and 3 rounds settle every device on its Dijkstra distance. Returns the
    scenario and that distance per device."""
    half = side // 2
    devices = list(range(side * side))
    positions = {d: (float(d % side), float(d // side)) for d in devices}
    radius = 1.5
    sources = sorted(
        (qy * half + 1 + rnd.randrange(half - 2)) * side + qx * half + 1 + rnd.randrange(half - 2)
        for qy in range(2) for qx in range(2)
    )
    dist, hops = dijkstra(positions, radius, sources)
    if max(hops.values()) + 1 > rounds:
        raise ValueError(f"{rounds} rounds cannot settle {max(hops.values())} hops")
    n = len(devices)
    fires = []
    for r in range(rounds):
        order = sorted(devices, key=lambda d: (dist[d], rnd.random()))
        for k, d in enumerate(order):
            fires.append({"t": str(Fraction(r * n + k + 1, n)), "device": d})
    sc = {
        "devices": devices,
        "radius": radius,
        "decay": "100",
        "paths": _static_paths(positions, Fraction(rounds + 1)),
        "fires": fires,
        "sensors": {str(d): {"sns-injection-point": d in sources} for d in devices},
    }
    return sc, dist


# ---------------------------------------------------------------------------
# line: a static line with many rounds, for the denotational side

def line(rnd: random.Random, n: int, rounds: int, with_source: bool = False):
    """``n`` devices at spacing 1 with radius 1.5 (neighbours are the two
    adjacent devices), one fire per device per round in an order drawn
    from the seed, decay 100. With ``with_source``, one end of the line,
    drawn from the seed, is the injection point, so the far end is always
    n - 1 hops away and the gradient's fixpoint work does not depend on the
    seed. Returns the scenario and, with a source, the line distance from
    each device to it."""
    devices = list(range(n))
    positions = {d: (float(d), 0.0) for d in devices}
    sources = [rnd.choice([0, n - 1])] if with_source else []
    fires = []
    for r in range(rounds):
        order = devices[:]
        rnd.shuffle(order)
        for k, d in enumerate(order):
            fires.append({"t": str(Fraction(r * n + k + 1, n)), "device": d})
    sc = {
        "devices": devices,
        "radius": 1.5,
        "decay": "100",
        "paths": _static_paths(positions, Fraction(rounds + 1)),
        "fires": fires,
    }
    if sources:
        sc["sensors"] = {
            str(d): {"sns-injection-point": d in sources} for d in devices
        }
    dist = {d: float(min(abs(d - s) for s in sources)) for d in devices} if sources else {}
    return sc, dist


# ---------------------------------------------------------------------------
# mobile network with outages (modelled on the property suite's generator)

def _waypoints(rnd):
    k = rnd.choice([1, 2, 2, 3])
    return [[rnd.randint(-4, 4) / 2.0, rnd.randint(-4, 4) / 2.0] for _ in range(k)]


def _bool_script(rnd, p_true: float, horizon: int):
    """A constant reading, or (30%) a two-step schedule starting at t=0."""
    if rnd.random() < 0.3:
        return {"steps": [[0, rnd.random() < p_true],
                          [rnd.randint(1, horizon - 1), rnd.random() < p_true]]}
    return rnd.random() < p_true


def mobile(rnd: random.Random, n: int = 8, rounds: int = 12,
           abutting: bool = True) -> tuple[dict, dict]:
    """``n`` devices moving along waypoint paths in a 4 x 4 box, radius
    1.6, decay 3. About 30% of the devices (at least 2) reboot, half of
    them (rounding up) after a gap of one to three rounds and the rest on
    abutting segments (the next segment starts where the previous one
    ends), so every network has both. A fixed count keeps the work per
    network steadier than a coin per device. Borders lie on the fire-slot
    grid, so fires can land on them. With ``abutting`` false every reboot
    comes after a gap.

    Each round offers every device one fire slot in an order drawn from
    the seed; a device that is off at its slot skips it. Returns the
    scenario and, per device, the reboot kind ("gapped", "abutting" or
    None)."""
    devices = list(range(1, n + 1))
    horizon = rounds + 1
    slot = Fraction(1, n)
    n_reboot = max(2, round(0.3 * n))
    rebooting = rnd.sample(devices, n_reboot)
    n_abutting = n_reboot // 2 if abutting else 0
    kinds = ["gapped"] * (n_reboot - n_abutting) + ["abutting"] * n_abutting
    reboots = {d: None for d in devices}
    reboots.update(zip(rebooting, kinds))
    paths = {}
    segments = {}
    for d in devices:
        if reboots[d] is None:
            segs = [(Fraction(0), Fraction(horizon))]
        else:
            down = slot * rnd.randint(2 * n, (horizon - 4) * n)
            up = down + slot * rnd.randint(n, 3 * n) if reboots[d] == "gapped" else down
            segs = [(Fraction(0), down), (up, Fraction(horizon))]
        segments[d] = segs
        paths[str(d)] = [
            {"from": str(a), "to": str(b), "waypoints": _waypoints(rnd)}
            for a, b in segs
        ]
    fires = []
    for r in range(rounds):
        order = devices[:]
        rnd.shuffle(order)
        for k, d in enumerate(order):
            t = Fraction(r * n + k + 1, n)
            if any(a <= t <= b for a, b in segments[d]):
                fires.append({"t": str(t), "device": d})
    sources = set(rnd.sample(devices, max(1, n // 4)))
    sensors = {
        str(d): {
            "sns-injection-point": d in sources,
            "sns-patron": _bool_script(rnd, 0.5, horizon),
        }
        for d in devices
    }
    sc = {
        "devices": devices,
        "radius": 1.6,
        "decay": "3",
        "paths": paths,
        "fires": fires,
        "sensors": sensors,
    }
    return sc, reboots
