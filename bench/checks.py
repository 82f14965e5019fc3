"""Output checks against references the code under test does not produce.

Every check returns a ``Tally``: checks attempted, checks failed, and the
failures that the recorded known defect explains. References come from
``scenarios`` (Dijkstra and line distances, the rep counter's count) or,
for the adequacy workload, from this module's own model of which events
the known abutting-segment defect can reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

TOLERANCE = 1e-9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: int = 0  # failures explained by the recorded known defect
    notes: list = field(default_factory=list)

    @property
    def unexplained(self) -> int:
        return self.failed - self.known

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.notes.extend(other.notes)


def all_failed(n: int, why: str) -> Tally:
    """A command that crashed or exited wrongly fails all of its checks."""
    return Tally(n, n, 0, [why])


def _num(j) -> float:
    """The float in a ``{"num": ...}`` value record; NaN for anything else."""
    if not isinstance(j, dict) or "num" not in j:
        return math.nan
    return float(j["num"])


def _close(got: float, want: float) -> bool:
    if math.isinf(want):
        return got == want
    return abs(got - want) <= TOLERANCE


def _jsonl(data: bytes) -> list:
    return [json.loads(line) for line in data.decode().splitlines() if line]


# ---------------------------------------------------------------------------
# per-command checks

def check_final_estimates(data: bytes, expected: dict) -> Tally:
    """``fieldc run`` trace: each device's last root equals its expected
    distance (Dijkstra over the unit-disc graph)."""
    last = {}
    for rec in _jsonl(data):
        last[rec["device"]] = _num(rec["root"])
    t = Tally(len(expected))
    for d, want in sorted(expected.items()):
        if d not in last or not _close(last[d], want):
            t.failed += 1
            t.notes.append(f"device {d}: estimate {last.get(d)} != {want}")
    return t


def check_counter(data: bytes, n_events: int) -> Tally:
    """``fieldc denot`` of the rep counter: the k-th event of each device
    (in time order) has value k, and every event is reported."""
    recs = sorted(_jsonl(data), key=lambda r: Fraction(r["t"]))
    seen = {}
    t = Tally(n_events)
    for rec in recs:
        k = seen[rec["device"]] = seen.get(rec["device"], 0) + 1
        if _num(rec["value"]) != k:
            t.failed += 1
            t.notes.append(f"event {rec['event']}: {rec['value']} != {k}")
    if len(recs) != n_events:
        t.failed += abs(n_events - len(recs))
        t.notes.append(f"{len(recs)} events reported, {n_events} expected")
    t.failed = min(t.failed, t.attempted)
    return t


def check_last_values(data: bytes, expected: dict) -> Tally:
    """``fieldc denot`` of the gradient on a line: each device's last event
    equals its line distance to the nearest source."""
    recs = sorted(_jsonl(data), key=lambda r: Fraction(r["t"]))
    last = {rec["device"]: _num(rec["value"]) for rec in recs}
    t = Tally(len(expected))
    for d, want in sorted(expected.items()):
        if d not in last or not _close(last[d], want):
            t.failed += 1
            t.notes.append(f"device {d}: last value {last.get(d)} != {want}")
    return t


def check_adequacy_report(data: bytes, n_events: int, tainted: frozenset) -> Tally:
    """``fieldc check-adequacy --format json``: one check per event, using
    the report's verdict. A failed verdict at an event that the known
    defect reaches (``tainted``) is counted as known."""
    report = json.loads(data)
    verdicts = {v["event"]: v["ok"] is True for v in report["events"]}
    t = Tally(n_events)
    for ev in range(n_events):
        if verdicts.get(ev) is True:
            continue
        t.failed += 1
        if ev in verdicts and ev in tainted:
            t.known += 1
        else:
            t.notes.append(f"event {ev}: verdict {verdicts.get(ev)}")
    if len(verdicts) != n_events:
        t.notes.append(f"{len(verdicts)} verdicts, {n_events} events expected")
        t.failed = t.attempted
        t.known = 0
    return t


# ---------------------------------------------------------------------------
# the known defect: abutting segments (simulator vs DAG builder)

def _segments(sc: dict) -> dict:
    return {
        int(d): [
            (Fraction(s["from"]), Fraction(s["to"]),
             [tuple(map(float, p)) for p in s["waypoints"]])
            for s in segs
        ]
        for d, segs in sc.get("paths", {}).items()
    }


def _position(segs, t: Fraction):
    """Piecewise-linear position along the first segment covering t."""
    for start, end, pts in segs:
        if start <= t <= end:
            if len(pts) == 1 or start == end:
                return pts[0]
            pos = (t - start) / (end - start) * (len(pts) - 1)
            i = min(int(pos), len(pts) - 2)
            u = float(pos - i)
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))
    return None


def _covered_by_one(segs, a: Fraction, b: Fraction) -> bool:
    return any(s <= a and b <= e for s, e, _ in segs)


def _covered_by_union(segs, a: Fraction, b: Fraction) -> bool:
    """[a, b] lies inside the union of the closed segments, segments that
    touch at a border counting as one."""
    reach = None
    for s, e, _ in sorted(segs, key=lambda x: x[0]):
        if reach is not None and s <= reach:
            reach = max(reach, e)
        elif s <= a:
            reach = e
        else:
            break
        if reach >= b:
            return True
    return False


def sender_sets(sc: dict) -> list:
    """Per event (in time order), the latest sender event per device under
    the DAG builder's rule and under the simulator's rule, as two dicts
    device -> event id.

    The induced DAG keeps a sender only when one path segment of the
    receiver covers [t_sender, t]; the simulator keeps it when the
    receiver stays on throughout, so abutting segments count as one."""
    segs = _segments(sc)
    radius = float(sc["radius"])
    decay = Fraction(str(sc["decay"]))
    fires = sorted((Fraction(f["t"]), int(f["device"])) for f in sc["fires"])
    pos = [_position(segs.get(d, []), t) for t, d in fires]
    out = []
    for i, (t, d) in enumerate(fires):
        mine = segs.get(d, [])
        dag, sim = {}, {}
        for j in range(i):
            t2, d2 = fires[j]
            if t2 < t - decay:
                continue
            p = _position(mine, t2)
            q = pos[j]
            if p is None or q is None or math.dist(p, q) > radius:
                continue
            if _covered_by_one(mine, t2, t):
                dag[d2] = j
            if _covered_by_union(mine, t2, t):
                sim[d2] = j
        out.append((dag, sim))
    return out


def defect_reach(sc: dict) -> frozenset:
    """Event ids whose value may differ between the two sides because of
    the abutting-segment defect: the events whose sender sets differ under
    the two rules, and every event with a sender (under either rule) that
    is already in the reach."""
    reach = set()
    for i, (dag, sim) in enumerate(sender_sets(sc)):
        if dag != sim or any(j in reach for j in (*dag.values(), *sim.values())):
            reach.add(i)
    return frozenset(reach)
