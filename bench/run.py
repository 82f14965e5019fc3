#!/usr/bin/env python3
"""Benchmark of the ``fieldc`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: a batch of ``fieldc`` commands runs
through ``fieldcalc.cli.main`` in-process, each command starting when the
previous one ends, pass after pass for ``--seconds``. Inputs are scenario
files generated from ``--seed``; every output is checked against a
reference from ``checks``/``scenarios``. The package is imported from the
``src`` directory next to this one, never from an installed copy.

Every command and every set-up sample is timed between blocks of a fixed
reference workload (``speed``), and the end-to-end times are scaled to the
reference speed, so that the shared host's changes of speed between and
within runs cancel out. With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics (medians over passes and over
set-up samples); with ``--trace 1`` it holds the per-layer metrics of a
traced run, in which untraced and traced passes alternate. Work files, outputs, spans and a results record (with the
sha256 of each command's output) go to ``.bench_work/`` in the checkout.
See NOTES.md for the workloads, the metrics and what each should show.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import scenarios
import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COUNTER_SRC = "rep(0){(x) => x + 1}\n"
SETUP_SAMPLES = 21
MIN_PASSES = 3


@dataclass
class Command:
    label: str
    argv: list
    out: Path
    program: Path
    scenario: Path
    events: int  # fires in the scenario: events simulated, evaluated or checked
    n_checks: int
    check: Callable[[bytes], checks.Tally]
    ok_codes: tuple = (0,)
    reach: int = 0  # events the known defect may reach (adequacy only)


# ---------------------------------------------------------------------------
# package loading (part of set-up)

PACKAGE_MODULES = ("cli", "parser", "typer", "network", "device", "builtins", "denot", "stdlib")


def load_package() -> dict:
    """Import ``fieldcalc`` afresh from ``src`` and return its modules by
    short name."""
    for name in [m for m in sys.modules if m == "fieldcalc" or m.startswith("fieldcalc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("fieldcalc.cli")
    mods = {m: importlib.import_module(f"fieldcalc.{m}") for m in PACKAGE_MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: fieldcalc imported from {mods['cli'].__file__}, not {SRC}")
    return mods


# ---------------------------------------------------------------------------
# workloads

def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def adequacy(label: str, prog: Path, sc: dict, work: Path, name: str) -> Command:
    inp = _write(work / f"{name}.json", scenarios.scenario_bytes(sc))
    out = work / f"{name}.out.json"
    n, reach = len(sc["fires"]), checks.defect_reach(sc)
    return Command(
        label, ["check-adequacy", str(prog), str(inp), "--format", "json", "--out", str(out)],
        out, prog, inp, n, n,
        lambda data: checks.check_adequacy_report(data, n, reach),
        ok_codes=(0, 1), reach=len(reach),
    )


def probe(rnd, prog: Path, work: Path) -> Command:
    """``check-adequacy`` of the workload's gradient on a static 3-device
    line, 2 rounds: a few milliseconds that call every layer, so that each
    per-layer metric is measured on every workload (a layer never called
    would read exactly 0 on every run)."""
    sc, _ = scenarios.line(rnd, n=3, rounds=2, with_source=True)
    return adequacy("probe: check-adequacy gradient line 3 R=2", prog, sc, work, "probe")


def sim_grid(rnd, work: Path, corpus) -> list:
    """``fieldc run`` of corpus gradient on an 8 x 8 grid, 3 rounds."""
    prog = _write(work / "gradient.hfc", corpus("gradient").encode())
    sc, dist = scenarios.grid(rnd, side=8, rounds=3)
    inp = _write(work / "grid.json", scenarios.scenario_bytes(sc))
    out = work / "grid.out.jsonl"
    return [Command(
        "run gradient grid 8x8 R=3", ["run", str(prog), str(inp), "--out", str(out)],
        out, prog, inp, len(sc["fires"]), len(dist),
        lambda data: checks.check_final_estimates(data, dist),
    ), probe(rnd, prog, work)]


def denot_line(rnd, work: Path, corpus) -> list:
    """``fieldc denot`` on static lines: the rep counter on 5 devices for
    40 rounds, corpus gradient on 10 devices for 20 rounds."""
    counter = _write(work / "counter.hfc", COUNTER_SRC.encode())
    gradient = _write(work / "gradient.hfc", corpus("gradient").encode())
    sc1, _ = scenarios.line(rnd, n=5, rounds=40)
    sc2, dist = scenarios.line(rnd, n=10, rounds=20, with_source=True)
    in1 = _write(work / "line5.json", scenarios.scenario_bytes(sc1))
    in2 = _write(work / "line10.json", scenarios.scenario_bytes(sc2))
    out1, out2 = work / "counter.out.jsonl", work / "gradient.out.jsonl"
    n1 = len(sc1["fires"])
    return [
        Command("denot counter line 5 R=40", ["denot", str(counter), str(in1), "--out", str(out1)],
                out1, counter, in1, n1, n1, lambda data: checks.check_counter(data, n1)),
        Command("denot gradient line 10 R=20", ["denot", str(gradient), str(in2), "--out", str(out2)],
                out2, gradient, in2, len(sc2["fires"]), len(dist),
                lambda data: checks.check_last_values(data, dist)),
        probe(rnd, gradient, work),
    ]


MOBILE_INSTANCES = 12


def adequacy_mobile(rnd, work: Path, corpus) -> list:
    """``fieldc check-adequacy --format json`` of corpus spanning-sum on
    several mobile networks with outages, and on one control network whose
    reboots all come after a gap: the known defect reaches none of its
    events, so every failed verdict there counts against ``correct``."""
    prog = _write(work / "spanning-sum.hfc", corpus("spanning-sum").encode())
    cmds = [
        adequacy(f"check-adequacy spanning-sum mobile#{i} 8 R=12", prog,
                 scenarios.mobile(rnd, n=8, rounds=12)[0], work, f"mobile{i}")
        for i in range(MOBILE_INSTANCES)
    ]
    control = scenarios.mobile(rnd, n=8, rounds=12, abutting=False)[0]
    return cmds + [adequacy("check-adequacy spanning-sum mobile-gapped 8 R=12", prog,
                            control, work, "mobile-gapped")]


WORKLOADS = {
    "sim-grid": sim_grid,
    "denot-line": denot_line,
    "adequacy-mobile": adequacy_mobile,
}


def build_workload(name: str, seed: int, corpus) -> list:
    work = WORK / name / f"seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work, corpus)


# ---------------------------------------------------------------------------
# measuring

def measure_setup(cmds) -> tuple[float, float]:
    """Package import, parse + typecheck of each command's program and
    loading of each command's scenario, as each command pays them: the
    seconds taken, and those seconds at the reference speed."""
    gc.collect()
    before = speed.block()
    t0 = time.perf_counter()
    mods = load_package()
    for c in cmds:
        prog = mods["parser"].parse_program(c.program.read_text(), path=str(c.program))
        mods["typer"].typecheck_program(prog)
        mods["network"].scenario_from_json(json.loads(c.scenario.read_bytes()))
    seconds = time.perf_counter() - t0
    return seconds, speed.at_reference(seconds, [before, speed.block()])


@dataclass
class Outcome:
    code: object  # exit code, or None when main raised
    error: str
    seconds: float
    ref_seconds: float  # seconds at the reference speed


def run_pass(cmds, mods, tracer=None):
    """One pass over the batch; returns its duration, the outcomes (with
    each command's duration), and (when traced) each command's counters.
    A reference block runs before the first command and after each one,
    and, untraced, reference samples are taken while each command runs."""
    for c in cmds:
        c.out.unlink(missing_ok=True)
    gc.collect()
    outcomes, per_cmd = [], []
    total = 0.0
    before = speed.block()
    for c in cmds:
        sink = io.StringIO()
        sampler = speed.Sampler(active=tracer is None)
        t0 = time.perf_counter()
        with sampler:
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = mods["cli"].main(c.argv)
                error = ""
            except Exception as e:  # a crash fails the command's checks
                code, error = None, f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0 - sampler.spent
        after = speed.block()
        total += seconds
        ref = speed.at_reference(seconds, [before, *sampler.samples, after])
        outcomes.append(Outcome(code, error or sink.getvalue()[-500:], seconds, ref))
        before = after
        if tracer is not None:
            per_cmd.append(dict(tracer.counts))
    return total, outcomes, per_cmd


def check_output(c: Command, o: Outcome, data) -> checks.Tally:
    if o.code not in c.ok_codes or data is None:
        return checks.all_failed(c.n_checks, f"exit {o.code}: {o.error.strip()}")
    try:
        return c.check(data)
    except (ValueError, KeyError, TypeError) as e:
        return checks.all_failed(c.n_checks, f"unreadable output: {e!r}")


def check_pass(cmds, outcomes, checked) -> None:
    """Check each command's output the first time it appears: ``checked[i]``
    maps (exit code, sha256 of the output bytes) to the output's tally, so
    the counts of a run depend on its seed alone, not on how many passes
    fit in it; output that differs between passes shows as a second key."""
    for i, (c, o) in enumerate(zip(cmds, outcomes)):
        data = c.out.read_bytes() if c.out.exists() else None
        key = (o.code, hashlib.sha256(data or b"").hexdigest())
        if key not in checked[i]:
            checked[i][key] = check_output(c, o, data)


def tallies(checked) -> list:
    """Each command's tally, summed over its distinct outputs."""
    out = []
    for outputs in checked:
        t = checks.Tally()
        for one in outputs.values():
            t.add(one)
        out.append(t)
    return out


def _diff_counts(snapshots) -> list:
    prev, out = {}, []
    for snap in snapshots:
        out.append({k: v - prev.get(k, 0) for k, v in snap.items() if v != prev.get(k, 0)})
        prev = snap
    return out


def layer_metrics(passes, fire_ms, overhead) -> dict:
    """Per-layer metrics from the traced passes: self times are medians
    over passes, counters come from one pass (they repeat exactly)."""
    m = {}
    for metric, names in spans.SELF_TIME.items():
        m[metric] = (statistics.median(
            sum(p["self_ns"].get(n, 0) for n in names) / 1e9 for p in passes), "s")
    m["network.fire_ms.p50"] = (spans.percentile(fire_ms, 50), "ms")
    m["network.fire_ms.p95"] = (spans.percentile(fire_ms, 95), "ms")
    c = passes[0]["counts"]
    fires = passes[0]["fires"]
    sensor_calls = c.get("network.sensors_at", 0)
    dag_edges = c.get("denot.dag_edges", 0)
    denot_pos = c.get("denot.position_at", 0)
    m["network.position_queries"] = (c.get("network.position_at", 0), "count")
    m["network.sensor_yield"] = (fires / sensor_calls if sensor_calls else 0.0, "ratio")
    m["device.tree_nodes"] = (c.get("device.tree_nodes", 0), "count")
    m["device.env_entries"] = (c.get("device.env_entries", 0), "count")
    m["builtins.calls"] = (c.get("builtins.eval", 0), "count")
    m["denot.position_queries"] = (denot_pos, "count")
    m["denot.dag_edges"] = (dag_edges, "count")
    m["denot.pair_yield"] = (dag_edges / denot_pos if denot_pos else 0.0, "ratio")
    m["denot.rep_passes"] = (c.get("denot.shift", 0), "count")
    m["denot.clusters"] = (c.get("denot.restrict_evolution", 0), "count")
    m["denot.sender_scans"] = (c.get("denot.sender_scan", 0), "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (SRC / "fieldcalc" / "cli.py").is_file():
        print(f"error: no fieldcalc sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the first import writes bytecode, so set-up samples time an import
    # from bytecode, as an installed package has it, whatever the environment
    sys.dont_write_bytecode = False
    mods = load_package()
    cmds = build_workload(ns.workload, ns.seed, lambda n: mods["stdlib"].corpus_entry(n).source)
    events = sum(c.events for c in cmds)

    checked = [{} for _ in cmds]
    cmd_times = [[] for _ in cmds]
    plain, plain_ref, traced, fire_ms, setup = [], [], [], [], []
    for _ in range(3):  # warm the reference workload up
        speed.block()

    def sample_setup(due: float) -> dict:
        """Take set-up samples until ``due`` are taken; returns the modules
        of the fresh import."""
        while len(setup) < due:
            setup.append(measure_setup(cmds))
        return {m: sys.modules[f"fieldcalc.{m}"] for m in PACKAGE_MODULES}

    start = time.perf_counter()
    while (time.perf_counter() - start < ns.seconds
           or len(plain) < MIN_PASSES or (ns.trace and len(traced) < MIN_PASSES)):
        # set-up samples are spread over the run, so that they meet the
        # same changes of host speed as the passes
        share = (time.perf_counter() - start) / ns.seconds if ns.seconds > 0 else 1.0
        mods = sample_setup(SETUP_SAMPLES * min(1.0, share))
        wall, outcomes, _ = run_pass(cmds, mods)
        check_pass(cmds, outcomes, checked)
        plain.append(wall)
        plain_ref.append(sum(o.ref_seconds for o in outcomes))
        for times, o in zip(cmd_times, outcomes):
            times.append(o)
        if not ns.trace:
            continue
        tracer = spans.Tracer()
        try:
            tracer.install(mods)
        except LookupError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        try:
            wall, outcomes, snaps = run_pass(cmds, mods, tracer)
        finally:
            tracer.uninstall()
        check_pass(cmds, outcomes, checked)
        traced.append({
            "wall": wall,
            "tracer": tracer,
            "self_ns": tracer.self_times_ns(),
            "counts": tracer.counts,
            "per_command": _diff_counts(snaps),
            "fires": len(tracer.durations_ns("network.fire")),
        })
        fire_ms += [d / 1e6 for d in tracer.durations_ns("network.fire")]
    sample_setup(SETUP_SAMPLES)
    if traced:
        with open(WORK / ns.workload / f"seed{ns.seed}" / "spans.jsonl", "w") as fh:
            for i, p in enumerate(traced):
                p["tracer"].dump(fh, i)

    tally = tallies(checked)
    total = checks.Tally()
    for t in tally:
        total.add(t)
    digests = [{digest for _, digest in outputs} for outputs in checked]
    deterministic = all(len(outputs) == 1 for outputs in checked)
    counters_repeat = all(p["counts"] == traced[0]["counts"] for p in traced)
    correct = total.unexplained == 0 and deterministic

    if ns.trace:
        overhead = statistics.median(p["wall"] for p in traced) / statistics.median(plain) - 1
        metrics = layer_metrics(traced, fire_ms, overhead)
        samples = len(traced)
    else:
        pass_s = statistics.median(plain_ref)
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setup), "s"),
            "pass_s": (pass_s, "s"),
            "events_per_s": (events / pass_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = len(plain)

    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "python": platform.python_version(),
        "events_per_pass": events,
        "reference_s": speed.REFERENCE_S,
        "setup_samples_s": [raw for raw, _ in setup],
        "setup_samples_ref_s": [ref for _, ref in setup],
        "pass_s": plain,
        "pass_ref_s": plain_ref,
        "traced_pass_s": [p["wall"] for p in traced],
        "commands": [
            {
                "label": c.label,
                "argv": c.argv,
                "events": c.events,
                "median_s": statistics.median(o.seconds for o in cmd_times[i]),
                "median_ref_s": statistics.median(o.ref_seconds for o in cmd_times[i]),
                "sha256": sorted(d),
                "attempted": t.attempted,
                "failed": t.failed,
                "known_defect": t.known,
                "defect_reach_events": c.reach,
                "notes": sorted(set(t.notes))[:20],
                "counters": traced[0]["per_command"][i] if traced else None,
            }
            for i, (c, t, d) in enumerate(zip(cmds, tally, digests))
        ],
        "counters_repeat": counters_repeat,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (WORK / ns.workload / f"seed{ns.seed}" / f"results-trace{ns.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for c, t, d in zip(cmds, tally, digests):
        print(f"# {c.label}: checks {t.attempted - t.failed}/{t.attempted} ok"
              f" on {len(d)} distinct output of {len(plain) + len(traced)} passes"
              f" ({t.known} known defect,"
              f" whose reach is {c.reach} of {c.events} events a pass),"
              f" sha256 {' '.join(sorted(d))[:64]}")
        for note in sorted(set(t.notes))[:5]:
            print(f"#   {note}")
    if not deterministic:
        print("# output bytes differ between passes")
    if ns.trace and not counters_repeat:
        print("# counters differ between traced passes")
    for name, (value, unit) in metrics.items():
        n = len(setup) if name == "setup_s" else samples
        print(f"# {ns.workload:16s} {name:26s} {value:14.6f} {unit:6s} n={n}")
    if not ns.trace:
        print(f"# {ns.workload:16s} {'pass_s, as measured':26s}"
              f" {statistics.median(plain):14.6f} s      n={len(plain)}")
        print(f"# {ns.workload:16s} {'setup_s, as measured':26s}"
              f" {statistics.median(raw for raw, _ in setup):14.6f} s      n={len(setup)}")
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
