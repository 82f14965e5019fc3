"""Tracing from outside the package: spans and counters around the calls
into each module of ``fieldcalc``.

Each wrapper is installed at the name its caller looks up (``denot``
imports its own bindings of ``run_scenario`` and ``position_at``, for
instance), and only for a traced pass; ``Tracer.uninstall`` puts the
originals back. A listed name the package no longer has is an error: a
metric built on it would silently read less, or 0.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

# (module, attribute, span name). "Class.method" wraps a method on the class.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_program", "parser.parse_program"),
    ("cli", "typecheck_program", "typer.typecheck_program"),
    ("cli", "scenario_from_json", "network.scenario_from_json"),
    ("cli", "run_scenario", "network.run_scenario"),
    ("denot", "run_scenario", "network.run_scenario"),
    ("network", "env_at", "network.env_at"),
    ("network", "env_change", "network.env_change"),
    ("network", "filter_old", "network.filter_old"),
    ("network", "fire", "network.fire"),
    ("network", "evaluate_main", "device.evaluate_main"),
    ("cli", "build_dag_from_scenario", "denot.build_dag_from_scenario"),
    ("denot", "build_dag_from_scenario", "denot.build_dag_from_scenario"),
    ("denot", "validate_dag", "denot.validate_dag"),
    ("cli", "denot_program", "denot.denot_program"),
    ("denot", "denot_program", "denot.denot_program"),
    ("cli", "check_adequacy", "denot.check_adequacy"),
    ("network", "FireTrace.jsonl", "cli.emit"),
    ("network", "FireTrace.csv", "cli.emit"),
    ("denot", "AdequacyReport.to_json", "cli.emit"),
]

# (module, attribute, counter name): calls are counted, not timed.
COUNTERS = [
    ("network", "position_at", "network.position_at"),
    ("network", "sensors_at", "network.sensors_at"),
    ("denot", "position_at", "denot.position_at"),
    ("builtins", "TABLE.eval", "builtins.eval"),
    ("denot", "shift", "denot.shift"),
    ("denot", "restrict_evolution", "denot.restrict_evolution"),
    ("denot", "nbr_devices", "denot.sender_scan"),
    ("denot", "latest_event", "denot.sender_scan"),
    ("denot", "prev_event", "denot.sender_scan"),
]

# per-layer self-time metrics: metric -> span names whose self time it sums
SELF_TIME = {
    "parser.parse_s": ["parser.parse_program"],
    "typer.typecheck_s": ["typer.typecheck_program"],
    "network.load_s": ["network.scenario_from_json"],
    "network.sim_s": ["network.run_scenario"],
    "network.world_s": ["network.env_at", "network.env_change"],
    "network.filter_s": ["network.filter_old"],
    "network.fire_s": ["network.fire"],
    "device.eval_s": ["device.evaluate_main"],
    "denot.build_dag_s": ["denot.build_dag_from_scenario"],
    "denot.validate_s": ["denot.validate_dag"],
    "denot.eval_s": ["denot.denot_program"],
    "denot.check_s": ["denot.check_adequacy"],
    "cli.emit_s": ["cli.emit"],
    "cli.self_s": ["cli.main"],
}


def tree_nodes(tree) -> int:
    stack, n = [tree], 0
    while stack:
        t = stack.pop()
        n += 1
        stack.extend(getattr(t, "children", ()))
    return n


def _after_evaluate_main(counts, args, kwargs, result):
    env = args[2] if len(args) > 2 else kwargs.get("env", {})
    counts["device.env_entries"] = counts.get("device.env_entries", 0) + len(env)
    counts["device.tree_nodes"] = counts.get("device.tree_nodes", 0) + tree_nodes(result)


def _after_build_dag(counts, args, kwargs, result):
    counts["denot.dag_edges"] = counts.get("denot.dag_edges", 0) + len(result.neigh)


AFTER = {
    "device.evaluate_main": _after_evaluate_main,
    "denot.build_dag_from_scenario": _after_build_dag,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    A span is (name, start_ns, end_ns, parent index or -1, command id)."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.command = -1
        self._stack = []
        self._installed = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        after = AFTER.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if name == "cli.main":
                self.command += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.command)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every listed name in ``modules`` (short module name ->
        module object). Raises ``LookupError``, wrapping nothing, when a
        listed name is missing."""
        found, missing = [], []
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for mod, attr, name in table:
                owner = modules.get(mod)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    missing.append(f"{mod}.{attr}")
                else:
                    found.append((owner, leaf, fn, make(name, fn)))
        if missing:
            raise LookupError(f"fieldcalc has no {', '.join(missing)} to trace")
        for owner, leaf, fn, wrapper in found:
            self._installed.append((owner, leaf, fn, leaf in vars(owner)))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, fn, own in reversed(self._installed):
            if own:
                setattr(owner, leaf, fn)
            else:
                delattr(owner, leaf)
        self._installed.clear()

    # -- derived numbers ---------------------------------------------------

    def self_times_ns(self) -> dict:
        """Self time per span name: duration minus direct children."""
        out = {}
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (t1 - t0) - child[i]
        return out

    def durations_ns(self, name: str) -> list:
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def dump(self, fh, pass_id: int) -> None:
        for name, t0, t1, parent, cmd in self.spans:
            fh.write(json.dumps([pass_id, cmd, name, t0, t1, parent]) + "\n")


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation; 0 for no
    values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]
