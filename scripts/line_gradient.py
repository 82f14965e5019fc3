#!/usr/bin/env python3
"""Distance estimates self-stabilizing on a five-device line.

Runs the gradient corpus program (distance-to with the injection point
at device 0) round by round and prints how each device's estimate
approaches its shortest-path distance. Exits 1 when the final round
differs from those distances.
"""

import sys
from fractions import Fraction

from fieldcalc.ast import boolean
from fieldcalc.network import PathSeg, Scenario, as_time, run_scenario
from fieldcalc.stdlib import corpus_entry

N = 5
ROUNDS = 20
SPACING = 1.0


def line_scenario() -> Scenario:
    paths = {
        d: (PathSeg(as_time(0), as_time(ROUNDS + 1), ((d * SPACING, 0.0),)),)
        for d in range(N)
    }
    fires = []
    t = Fraction(0)
    for _ in range(ROUNDS):
        for d in range(N):
            fires.append((t, d))
            t += Fraction(1, N)
    scripts = {
        d: {"sns-injection-point": ((None, boolean(d == 0)),)}
        for d in range(N)
    }
    return Scenario(
        devices=tuple(range(N)),
        radius=1.5,
        decay=as_time(100),
        paths=paths,
        fires=tuple(fires),
        sensor_scripts=scripts,
    )


def main():
    trace = run_scenario(line_scenario(), corpus_entry("gradient").program())
    print("round  " + "".join(f"{f'dev{d}':>6}" for d in range(N)))
    latest = {}
    for i, rec in enumerate(trace.records):
        latest[rec.device] = rec.root.ctor
        if rec.device == N - 1:
            row = "".join(f"{latest[d]:>6.0f}" for d in range(N))
            print(f"{i // N + 1:5d}  {row}")
    print()
    print("shortest-path distances: " + " ".join(str(d) for d in range(N)))
    if [latest[d] for d in range(N)] != [d * SPACING for d in range(N)]:
        print("final round differs from the shortest-path distances", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
