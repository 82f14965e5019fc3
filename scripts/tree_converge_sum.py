#!/usr/bin/env python3
"""Summands accumulating towards the root of a static tree.

Seven devices form a depth-two tree under unit-disc connectivity.  Each
device contributes its device id plus one; converge-sum funnels the
contributions along the hop-count potential until the root holds the
exact total.  The run is then cross-checked against the denotational
interpretation of the same scenario; the script exits 1 when the two
disagree.
"""

import sys
from fractions import Fraction

from fieldcalc.ast import num
from fieldcalc.denot import check_adequacy
from fieldcalc.network import PathSeg, Scenario, as_time, run_scenario
from fieldcalc.parser import parse_program
from fieldcalc.stdlib import corpus_entry

#         5 - 2 - 0 - 1 - 3
#             |       |
#             6       4
POSITIONS = {
    0: (0.0, 0.0),
    1: (1.0, 0.0), 2: (-1.0, 0.0),
    3: (2.0, 0.0), 4: (1.0, 1.0), 5: (-2.0, 0.0), 6: (-1.0, 1.0),
}
DEPTH = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2}
ROUNDS = 10


def program():
    entry = corpus_entry("converge-sum")
    defs = entry.source[: entry.source.rindex("converge-sum")]
    return parse_program(defs + "converge-sum(sns-range(), sns-num())")


def scenario() -> Scenario:
    paths = {
        d: (PathSeg(as_time(0), as_time(ROUNDS + 1), (pos,)),)
        for d, pos in POSITIONS.items()
    }
    fires = [
        (r + Fraction(d, 8), d)
        for r in range(ROUNDS)
        for d in POSITIONS
    ]
    scripts = {
        d: {
            "sns-range": ((None, num(DEPTH[d])),),
            "sns-num": ((None, num(d + 1)),),
        }
        for d in POSITIONS
    }
    return Scenario(
        devices=tuple(POSITIONS),
        radius=1.2,
        decay=as_time(100),
        paths=paths,
        fires=tuple(sorted(fires)),
        sensor_scripts=scripts,
    )


def main():
    sc = scenario()
    trace = run_scenario(sc, program())
    total = sum(d + 1 for d in POSITIONS)
    print(f"summands: {[d + 1 for d in sorted(POSITIONS)]}, total {total}")
    print()
    print("round  root estimate")
    for i, rec in enumerate(trace.records):
        if rec.device == 0:
            print(f"{i // len(POSITIONS) + 1:5d}  {rec.root.ctor:13.0f}")
    print()
    report = check_adequacy(sc, program())
    print(f"denotational cross-check: {report.equal}/{report.events} events equal")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
