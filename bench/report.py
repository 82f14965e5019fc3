#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one row per workload.

    python3 bench/report.py [--seed N] [--seconds S]

Each row names every end-to-end metric with its unit and sample count and
the output checks (attempted, failed, of which the recorded known defect
explains how many, and how many events a pass it may reach). Below the rows come the self-time shares of the traced
runs and the checks that each workload stresses the layer it was chosen
for. Each run is ``run.py`` in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import spans

SIMULATOR = ["network.sim_s", "network.world_s", "network.filter_s",
             "network.fire_s", "device.eval_s"]


def run_workload(name: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (run.WORK / name / f"seed{seed}" / f"results-trace{trace}.json").read_text())
    return result, record


def shares(metrics: dict) -> dict:
    total = sum(metrics[m]["value"] for m in spans.SELF_TIME)
    return {m: metrics[m]["value"] / total for m in spans.SELF_TIME}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ns = ap.parse_args(argv)

    plain, traced = {}, {}
    for name in run.WORKLOADS:
        plain[name] = run_workload(name, ns.seed, ns.seconds, 0)
        traced[name] = run_workload(name, ns.seed, ns.seconds, 1)

    print(f"seed {ns.seed}, {ns.seconds} s per run; medians over passes and set-up samples,"
          " times at the reference speed")
    for name, (result, record) in plain.items():
        cells = []
        for metric, m in result["metrics"].items():
            n = len(record["setup_samples_s"] if metric == "setup_s" else record["pass_s"])
            cells.append(f"{metric}={m['value']:.4g} {m['unit']} (n={n})")
        known = sum(c["known_defect"] for c in record["commands"])
        reach = sum(c["defect_reach_events"] for c in record["commands"])
        cells.append(f"checks={result['attempted']} failed={result['failed']}"
                     f" (known defect {known}, its reach {reach} of"
                     f" {record['events_per_pass']} events a pass) correct={result['correct']}")
        print(f"{name:16s} " + "  ".join(cells))

    print("\nself-time shares of the traced runs")
    for name, (result, record) in traced.items():
        top = sorted(shares(result["metrics"]).items(), key=lambda kv: -kv[1])
        print(f"{name:16s} " + "  ".join(f"{m}={s:.0%}" for m, s in top if s >= 0.01)
              + f"  trace.overhead_ratio={result['metrics']['trace.overhead_ratio']['value']:.3f}")

    print("\nlayer each workload stresses")
    sg = shares(traced["sim-grid"][0]["metrics"])
    print(f"sim-grid: largest self time is {max(sg, key=sg.get)}")
    dl = shares(traced["denot-line"][0]["metrics"])
    counter = traced["denot-line"][1]["commands"][0]["counters"]
    print(f"denot-line: denot.build_dag_s + denot.eval_s = "
          f"{dl['denot.build_dag_s'] + dl['denot.eval_s']:.0%}; counter rep passes "
          f"{counter.get('denot.shift', 0)} for 40 rounds")
    am = shares(traced["adequacy-mobile"][0]["metrics"])
    print(f"adequacy-mobile: largest self time is {max(am, key=am.get)}; "
          f"simulator {sum(am[m] for m in SIMULATOR):.0%}, "
          f"DAG {am['denot.build_dag_s']:.0%}, denotation {am['denot.eval_s']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
