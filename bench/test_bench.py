"""Tests of the benchmark itself: deterministic inputs, output checks that
catch a corrupted value, and traced counters that repeat exactly.

    python3 -m pytest bench -q
"""

import json
import random
import signal
import sys
import time

import pytest

import checks
import run
import scenarios
import spans
import speed

sys.path.insert(0, str(run.SRC))

from fieldcalc.stdlib import corpus_entry  # noqa: E402


def corpus(name):
    return corpus_entry(name).source


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# inputs

GENERATORS = {
    "grid": lambda rnd: scenarios.grid(rnd)[0],
    "line": lambda rnd: scenarios.line(rnd, n=10, rounds=20, with_source=True)[0],
    "mobile": lambda rnd: scenarios.mobile(rnd)[0],
}


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_same_seed_gives_identical_scenario_bytes(family):
    gen = GENERATORS[family]
    a = scenarios.scenario_bytes(gen(random.Random("s:7")))
    b = scenarios.scenario_bytes(gen(random.Random("s:7")))
    c = scenarios.scenario_bytes(gen(random.Random("s:8")))
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_files_depend_only_on_the_seed(workload, work_dir):
    def files(seed):
        cmds = run.build_workload(workload, seed, corpus)
        return [(c.program.read_bytes(), c.scenario.read_bytes()) for c in cmds]

    assert files(5) == files(5)
    assert files(5) != files(6)


def test_mobile_draws_gapped_and_abutting_reboots():
    rnd = random.Random(0)
    for _ in range(20):
        sc, reboots = scenarios.mobile(rnd)
        assert sorted(k for k in reboots.values() if k) == ["abutting", "gapped"]
        for d, kind in reboots.items():
            segs = sc["paths"][str(d)]
            if kind == "abutting":
                assert segs[0]["to"] == segs[1]["from"]
            elif kind == "gapped":
                assert scenarios.Fraction(segs[0]["to"]) < scenarios.Fraction(segs[1]["from"])


def test_control_network_reboots_only_after_a_gap():
    rnd = random.Random(0)
    for _ in range(20):
        sc, reboots = scenarios.mobile(rnd, abutting=False)
        assert sorted(k for k in reboots.values() if k) == ["gapped", "gapped"]
        assert checks.defect_reach(sc) == frozenset()


def test_dijkstra_on_a_small_grid():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 0.0)}
    dist, hops = scenarios.dijkstra(positions, 1.5, [0])
    assert dist[1] == 1.0 and dist[2] == pytest.approx(2 ** 0.5)
    assert hops[2] == 1
    assert dist[3] == float("inf")


# ---------------------------------------------------------------------------
# output checks

def _run(tmp_path, argv):
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    code = run.load_package()["cli"].main([*argv, "--out", str(out)])
    return code, out.read_bytes()


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(p)


def _corrupt_last(data: bytes, key: str, device: int) -> bytes:
    lines = data.decode().splitlines()
    for i in reversed(range(len(lines))):
        rec = json.loads(lines[i])
        if rec["device"] == device:
            rec[key] = {"num": rec[key]["num"] + 0.5}
            lines[i] = json.dumps(rec)
            break
    return ("\n".join(lines) + "\n").encode()


def test_final_estimate_check_counts_a_corrupted_value(tmp_path):
    sc, dist = scenarios.grid(random.Random(1), side=6, rounds=3)
    code, data = _run(tmp_path, ["run", _write(tmp_path, "g.hfc", corpus("gradient")),
                                 _write(tmp_path, "g.json", scenarios.scenario_bytes(sc))])
    assert code == 0
    ok = checks.check_final_estimates(data, dist)
    assert (ok.attempted, ok.failed) == (36, 0)
    bad = checks.check_final_estimates(_corrupt_last(data, "root", 5), dist)
    assert (bad.attempted, bad.failed) == (36, 1)


def test_counter_check_counts_a_corrupted_value(tmp_path):
    sc, _ = scenarios.line(random.Random(1), n=3, rounds=4)
    code, data = _run(tmp_path, ["denot", _write(tmp_path, "c.hfc", run.COUNTER_SRC),
                                 _write(tmp_path, "c.json", scenarios.scenario_bytes(sc))])
    assert code == 0
    assert checks.check_counter(data, 12).failed == 0
    assert checks.check_counter(_corrupt_last(data, "value", 1), 12).failed == 1
    assert checks.check_counter(data, 13).failed == 1  # an event missing


def test_line_distance_check_counts_a_corrupted_value(tmp_path):
    sc, dist = scenarios.line(random.Random(1), n=4, rounds=8, with_source=True)
    code, data = _run(tmp_path, ["denot", _write(tmp_path, "g.hfc", corpus("gradient")),
                                 _write(tmp_path, "g.json", scenarios.scenario_bytes(sc))])
    assert code == 0
    assert checks.check_last_values(data, dist).failed == 0
    assert checks.check_last_values(_corrupt_last(data, "value", 2), dist).failed == 1


def test_adequacy_check_counts_a_flipped_verdict(tmp_path):
    sc, _ = scenarios.mobile(random.Random(3), n=5, rounds=6)
    code, data = _run(tmp_path, ["check-adequacy",
                                 _write(tmp_path, "s.hfc", corpus("spanning-sum")),
                                 _write(tmp_path, "s.json", scenarios.scenario_bytes(sc)),
                                 "--format", "json"])
    assert code in (0, 1)
    n = len(sc["fires"])
    report = json.loads(data)
    base = checks.check_adequacy_report(data, n, frozenset())
    assert base.attempted == n
    ev = next(v for v in report["events"] if v["ok"])
    ev["ok"] = False
    flipped = json.dumps(report).encode()
    bad = checks.check_adequacy_report(flipped, n, frozenset())
    assert bad.failed == base.failed + 1 and bad.unexplained == bad.failed
    known = checks.check_adequacy_report(flipped, n, frozenset([ev["event"]]))
    assert known.failed == bad.failed and known.known == 1


def test_defect_reach_covers_the_roadmap_counterexample():
    # one device, segments [0,5] and [5,10], fires at t=4 and t=6: the
    # simulator keeps the first fire's state across the border, the DAG not
    sc = {
        "devices": [1], "radius": 5, "decay": 100,
        "paths": {"1": [{"from": 0, "to": 5, "waypoints": [[0, 0]]},
                        {"from": 5, "to": 10, "waypoints": [[0, 0]]}]},
        "fires": [{"t": 4, "device": 1}, {"t": 6, "device": 1}],
    }
    (dag0, sim0), (dag1, sim1) = checks.sender_sets(sc)
    assert dag0 == sim0 == {}
    assert dag1 == {} and sim1 == {1: 0}
    assert checks.defect_reach(sc) == frozenset([1])


def test_a_failed_command_fails_all_its_checks(tmp_path):
    cmds = run.build_workload("denot-line", 1, corpus)
    cmds[0].argv[1] = str(tmp_path / "missing.hfc")
    mods = run.load_package()
    _, outcomes, _ = run.run_pass(cmds, mods)
    assert outcomes[0].code == 2
    checked = [{} for _ in cmds]
    run.check_pass(cmds, outcomes, checked)
    tally = run.tallies(checked)
    assert tally[0].failed == tally[0].attempted == cmds[0].n_checks
    assert tally[1].failed == 0


def test_checks_count_each_distinct_output_once():
    cmds = run.build_workload("denot-line", 1, corpus)
    mods = run.load_package()
    checked = [{} for _ in cmds]
    for _ in range(2):
        _, outcomes, _ = run.run_pass(cmds, mods)
        run.check_pass(cmds, outcomes, checked)
    assert [len(outputs) for outputs in checked] == [1] * len(cmds)
    assert [t.attempted for t in run.tallies(checked)] == [c.n_checks for c in cmds]
    assert all(o.ref_seconds > 0 for o in outcomes)
    cmds[0].out.write_bytes(b"other output\n")  # a pass whose output differs
    run.check_pass(cmds[:1], outcomes[:1], checked)
    assert len(checked[0]) == 2
    assert run.tallies(checked)[0].failed == cmds[0].n_checks


# ---------------------------------------------------------------------------
# reference speed

def test_at_reference_scales_by_the_mean_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.at_reference(3.0, [ref, ref]) == pytest.approx(3.0)
    assert speed.at_reference(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    assert speed.at_reference(3.0, [ref, ref / 2]) == pytest.approx(4.5)


def test_sampler_samples_during_the_code_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * speed.INTERVAL_S:
            sum(range(1000))
    assert len(sampler.samples) >= 2 and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.Sampler(active=False) as idle:
        time.sleep(2 * speed.INTERVAL_S)
    assert idle.samples == [] and idle.spent == 0.0


# ---------------------------------------------------------------------------
# tracing

COUNTERS = [
    "denot.rep_passes", "denot.dag_edges", "device.tree_nodes", "builtins.calls",
    "network.position_queries", "denot.position_queries", "denot.clusters",
    "denot.sender_scans", "device.env_entries",
]


def _traced_pass(cmds):
    mods = run.load_package()
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        wall, outcomes, snaps = run.run_pass(cmds, mods, tracer)
    finally:
        tracer.uninstall()
    assert all(o.code in c.ok_codes for c, o in zip(cmds, outcomes))
    p = {"wall": wall, "self_ns": tracer.self_times_ns(), "counts": tracer.counts,
         "fires": len(tracer.durations_ns("network.fire"))}
    return run.layer_metrics([p], [], 0.0), run._diff_counts(snaps), mods


def test_uninstall_restores_every_wrapped_name():
    mods = run.load_package()
    before = {m: dict(vars(mod)) for m, mod in mods.items()}
    table_before = dict(vars(mods["builtins"].TABLE))
    tracer = spans.Tracer()
    tracer.install(mods)
    assert mods["network"].env_at is not before["network"]["env_at"]
    assert len(tracer._installed) == len(spans.SPANS) + len(spans.COUNTERS)
    tracer.uninstall()
    assert {m: dict(vars(mod)) for m, mod in mods.items()} == before
    assert dict(vars(mods["builtins"].TABLE)) == table_before


def test_install_fails_on_a_missing_name_and_wraps_nothing(monkeypatch):
    mods = run.load_package()
    monkeypatch.delattr(mods["denot"], "shift")
    env_at = mods["network"].env_at
    with pytest.raises(LookupError, match="denot.shift"):
        spans.Tracer().install(mods)
    assert mods["network"].env_at is env_at


def test_traced_counters_repeat_and_count_rep_passes(tmp_path):
    counter = _write(tmp_path, "c.hfc", run.COUNTER_SRC)
    sc, _ = scenarios.line(random.Random(2), n=3, rounds=6)
    line = _write(tmp_path, "line.json", scenarios.scenario_bytes(sc))
    prog = _write(tmp_path, "s.hfc", corpus("spanning-sum"))
    mob = _write(tmp_path, "m.json", scenarios.scenario_bytes(
        scenarios.mobile(random.Random(2), n=4, rounds=5)[0]))

    def cmd(argv, name):
        out = tmp_path / name
        return run.Command(name, [*argv, "--out", str(out)], out, None, None, 0, 0, None,
                           ok_codes=(0, 1))

    cmds = [cmd(["denot", counter, line], "a"),
            cmd(["run", prog, mob], "b"),
            cmd(["check-adequacy", prog, mob, "--format", "json"], "c")]
    first, per_cmd, _ = _traced_pass(cmds)
    second, _, _ = _traced_pass(cmds)
    for name in COUNTERS:
        assert first[name] == second[name], name
    assert per_cmd[0]["denot.shift"] == 6 + 1  # rounds + 1 fixpoint passes
    assert first["denot.dag_edges"][0] > 0 and first["device.tree_nodes"][0] > 0
    assert first["builtins.calls"][0] > 0 and first["network.position_queries"][0] > 0
    for metric in spans.SELF_TIME:
        assert first[metric][0] >= 0


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def test_untraced_run_reports_every_end_to_end_metric(work_dir, capsys):
    assert run.main(["--workload", "denot-line", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_two_traced_runs_report_identical_counters(work_dir, capsys):
    results = []
    for _ in range(2):
        assert run.main(["--workload", "denot-line", "--seed", "3",
                         "--seconds", "0", "--trace", "1"]) == 0
        results.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    a, b = (r["metrics"] for r in results)
    assert _units(results[0]) == _units(results[1]) == _declared("per_layer")
    for name in COUNTERS:
        assert a[name] == b[name], name
    assert all(r["correct"] and r["failed"] == 0 for r in results)
