"""End-to-end acceptance battery, one test per headline guarantee.

Each test exercises a whole pipeline rather than a unit: the walkthrough
traces of the simulator, the typing verdicts on the alignment fixtures
and the annotated corpus, the randomized preservation and adequacy
suites on scenarios and on generated event DAGs, the restriction and rep
identities of the denotational evaluator, self-stabilization of the
library algorithms, and the DAG validator. Every test carries a wall-clock budget; the budgets are loose
on purpose and exist to catch pathological slowdowns, not to benchmark.
"""

import functools
import math
import random
import time
from fractions import Fraction as F

import pytest

from fieldcalc.ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    FALSE,
    FieldVal,
    Lambda,
    Program,
    TRUE,
    boolean,
    is_value,
    num,
)
from fieldcalc import denot
from fieldcalc.builtins import SensorState
from fieldcalc.denot import (
    DagError,
    Event,
    EventDAG,
    build_dag_from_scenario,
    check_adequacy,
    denot_program,
    nbr_devices,
    validate_dag,
)
from fieldcalc.device import DEFAULT_FUEL, EvalContext, ValueTree, eval_expr
from fieldcalc.network import as_time, run_scenario
from fieldcalc.parser import parse_expr, parse_program, parse_value
from fieldcalc.stdlib import corpus_entry, load_corpus
from fieldcalc.typer import (
    Arrow,
    Scheme,
    Typer,
    TypecheckError,
    field,
    scheme_instance,
    typecheck_program,
)

from generators import ExprGen, SNS_FUNS, gen_dag, gen_scenario
from helpers import (
    EXAMPLE_EVENTS,
    EXAMPLE_NEIGH,
    BOOL,
    NUM,
    check_restriction,
    denot_eval,
    denotation,
    example_dag,
    is_field,
    leaf,
    line_scenario,
    mkfield,
    reference_denot,
    roots,
    static_scenario,
    tree_to_json,
    typecheck_expr,
    well_formed,
)
from test_stdlib import (
    TREE_DEPTH,
    TREE_POSITIONS,
    converge_program,
    final_roots,
    shortest_paths,
    tree_fires,
)
from test_typer import E1_WRONG, E2_WRONG, E_SAFE, E_WRONG


# ---------------------------------------------------------------------------
# 1. the rep counter counts its own fires

def test_rep_counter_counts_every_fire():
    t0 = time.monotonic()
    sc = static_scenario({1: (0.0, 0.0)}, radius=1.0, decay=100,
                         fires=[(t, 1) for t in range(1, 6)])
    trace = run_scenario(sc, parse_program("rep(0){(x) => x + 1}"))
    assert roots(trace) == [num(i) for i in range(1, 6)]
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. the min-hood walkthrough, down to the exact broadcast tree

def test_min_hood_second_fire_golden_tree():
    t0 = time.monotonic()
    sc = static_scenario(
        {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)},
        radius=2.0,
        decay=100,
        fires=[(1, 1), (2, 2), (3, 3), (4, 2)],
        sensors={d: {"sns-num": num(d)} for d in (1, 2, 3)},
    )
    trace = run_scenario(sc, parse_program("min-hood(nbr{sns-num()})"))
    rec = trace.records[3]
    assert (rec.t, rec.device) == (4, 2)
    assert rec.root == num(1)
    # device 2's second fire sees every tree, so the nbr field is total
    golden = ValueTree(num(1), (
        ValueTree(mkfield({1: num(1), 2: num(2), 3: num(3)}), (
            ValueTree(num(2), (leaf(Builtin("sns-num")),)),
        )),
        leaf(Builtin("min-hood")),
    ))
    assert rec.tree == golden
    assert tree_to_json(rec.tree) == tree_to_json(golden)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. gossiped functions: pick-hood hands device 2 a function sensed two
# hops of gossip away, and applying it aligns only with its origin device

L_ZERO = "() => 0"
L_MIN = "() => min-hood(nbr{sns-num()})"


def test_pick_hood_gossip_applies_remote_function():
    t0 = time.monotonic()
    sensors = {
        1: {"sns-fun": parse_value(L_MIN), "sns-num": num(3)},
        2: {"sns-fun": parse_value(L_ZERO), "sns-num": num(1)},
        3: {"sns-fun": parse_value(L_ZERO), "sns-num": num(2)},
    }
    sc = static_scenario(
        {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.0, 1.0)},
        radius=2.0,
        decay=100,
        fires=[(1, 2), (2, 3), (3, 1), (4, 2)],
        sensors=sensors,
    )
    trace = run_scenario(sc, parse_program("pick-hood(nbr{sns-fun()})()"))
    rec = trace.records[3]
    assert (rec.t, rec.device) == (4, 2)
    assert rec.root == num(1)
    # the applied function is device 1's, and the nbr inside its body
    # aligns with device 1 only: the field holds devices 2 and 1
    assert rec.tree.children[0].root == parse_value(L_MIN)
    assert rec.tree.children[1].children[0].root == mkfield(
        {1: num(3), 2: num(1)}
    )
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 4. typing verdicts: the alignment fixtures fail at the right rules and
# every corpus declaration matches its inferred scheme

def test_alignment_fixtures_and_corpus_annotations():
    t0 = time.monotonic()
    assert typecheck_expr(parse_expr(E_SAFE)) == field(NUM)
    for src, rule in ((E_WRONG, "T-VAL"),
                      (E1_WRONG, "T-A-FUN"),
                      (E2_WRONG, "T-REP")):
        with pytest.raises(TypecheckError) as ei:
            typecheck_expr(parse_expr(src))
        assert ei.value.rule == rule
    entries = load_corpus()
    assert len(entries) == 10
    for entry in entries:
        assert entry.check(), entry.name
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 5. preservation: running a generated expression under a generated
# well-formed tree environment yields a well-formed tree whose root has
# the static type, with field domains bounded by the environment

def value_has_type(v, T):
    if T == NUM:
        return isinstance(v, Data) and isinstance(v.ctor, float) and not v.args
    if T == BOOL:
        return v == TRUE or v == FALSE
    if is_field(T):
        return isinstance(v, FieldVal) and all(
            value_has_type(x, T.args[0]) for _, x in v.entries
        )
    if isinstance(T, Arrow):
        if not (isinstance(v, (Builtin, DefName, Lambda)) and is_value(v)):
            return False
        ty = Typer()
        return scheme_instance(ty.generalize(ty.infer(v, {}, {})),
                               Scheme((), T))
    return False


def sensor_state(rnd, all_devices):
    return SensorState(
        local={
            "sns-num": num(rnd.randint(-3, 9)),
            "sns-range": num(rnd.randint(0, 5)),
            "sns-patron": boolean(rnd.random() < 0.5),
            "sns-injection-point": boolean(rnd.random() < 0.4),
            "sns-fun": parse_value(rnd.choice(SNS_FUNS)),
        },
        ranges={d: float(rnd.randint(0, 8)) for d in all_devices},
    )


def all_field_roots(tree, acc):
    if isinstance(tree.root, FieldVal):
        acc.append(tree.root)
    for c in tree.children:
        all_field_roots(c, acc)


def test_evaluation_preserves_types_and_field_domains():
    t0 = time.monotonic()
    rnd = random.Random(777)
    gen = ExprGen(rnd)
    for _ in range(500):
        T = gen.type()
        e = gen.expr(T, {}, rnd.randint(1, 4))
        typecheck_expr(e)
        devices = rnd.sample(range(1, 7), rnd.randint(1, 4))
        sensors = {d: sensor_state(rnd, range(1, 7)) for d in devices}
        env = {}
        for d in devices[:-1]:
            ctx = EvalContext(device=d, sensors=sensors[d], defs={},
                              fuel=DEFAULT_FUEL, rng=None)
            env[d] = eval_expr(ctx, dict(env), e)
        delta = devices[-1]
        keep = {d: t for d, t in env.items() if rnd.random() < 0.7}
        ctx = EvalContext(device=delta, sensors=sensors[delta], defs={},
                          fuel=DEFAULT_FUEL, rng=None)
        tree = eval_expr(ctx, keep, e)
        dom = frozenset(keep) | {delta}
        subs = []
        all_field_roots(tree, subs)
        assert well_formed(e, tree, {})
        assert value_has_type(tree.root, T)
        if isinstance(tree.root, FieldVal):
            assert frozenset(tree.root.devs) == dom
        assert all(frozenset(f.devs) <= dom for f in subs)
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. adequacy: per-event operational roots equal denotational values over
# randomized mobile scenarios and corpus plus generated programs

SUITE_SEED = 424242


@functools.lru_cache(maxsize=1)
def adequacy_pairs():
    """One hundred (scenario, program) pairs, shared by tests 6 and 7."""
    rnd = random.Random(SUITE_SEED)
    gradient = corpus_entry("gradient").program()
    spanning = corpus_entry("spanning-sum").program()
    counter = parse_program("rep(0){(x) => x + 1}")
    pairs = []
    for _ in range(100):
        sc = gen_scenario(rnd)
        roll = rnd.random()
        if roll < 0.25:
            prog = gradient
        elif roll < 0.45:
            prog = spanning
        elif roll < 0.55:
            prog = counter
        else:
            prog = ExprGen(rnd).program(depth=rnd.randint(1, 4))
            typecheck_program(prog)
        pairs.append((sc, prog))
    return pairs


def test_operational_agrees_with_denotational():
    t0 = time.monotonic()
    events = 0
    for sc, prog in adequacy_pairs():
        report = check_adequacy(sc, prog)
        assert report.ok, report.first_counterexample
        events += report.events
    assert events > 0
    assert time.monotonic() - t0 < 120.0


def test_denotation_matches_the_fixpoint_on_adequacy_pairs():
    for sc, prog in adequacy_pairs():
        g = build_dag_from_scenario(sc)
        want = reference_denot(g, g.events, {}, prog.main, {d.name: d for d in prog.defs})
        assert denotation(g, prog) == want


# ---------------------------------------------------------------------------
# 6b. adequacy and preservation on event structures no geometry produces:
# generated DAGs (one-way links, lost messages, stale senders, reboots at
# any event, backward edges) replayed through both evaluators

DAG_SEED = 20180613

# programs whose clusters and fixpoints reach across the DAG's edges
DAG_PROGRAMS = [
    "rep(0){(x) => x + 1}",
    "rep(0){(v) => fold-hood(+, nbr{v}) + 1}",
    "mux(uid() < 2, (x) => min-hood(nbr{x}), (y) => min-hood(nbr{y + 1}))(rep(0){(r) => r + 1})",
    "rep(0){(v) => mux(v < 3, (a) => a + 1, (b) => min-hood(nbr{b}))(v)}",
    "sum-hood+(nbr{if (uid() < 1) { rep(1){(r) => r * 2} } else { 0 }})",
]


@functools.lru_cache(maxsize=1)
def dag_pairs():
    """Five hundred (DAG, program) pairs: the corpus gradient and
    spanning-sum, the programs above, and generated ones."""
    rnd = random.Random(DAG_SEED)
    fixed = [corpus_entry("gradient").program(), corpus_entry("spanning-sum").program(),
             *map(parse_program, DAG_PROGRAMS)]
    for prog in fixed:
        typecheck_program(prog)
    pairs = []
    for _ in range(500):
        g = gen_dag(rnd)
        if rnd.random() < 0.4:
            prog = rnd.choice(fixed)
        else:
            prog = ExprGen(rnd).program(depth=rnd.randint(1, 4))
            typecheck_program(prog)
        pairs.append((g, prog))
    return pairs


def test_operational_agrees_with_denotational_on_generated_dags():
    t0 = time.monotonic()
    events = 0
    for g, prog in dag_pairs():
        report = check_adequacy(g, prog)
        assert report.ok, (prog.main, report.first_counterexample)
        events += report.events
    assert events == sum(len(g.events) for g, _ in dag_pairs())
    assert time.monotonic() - t0 < 60.0


def test_evaluation_on_generated_dags_preserves_types_and_field_domains():
    """Both evaluators, replaying a generated DAG, give each event a value
    of the expression's static type; each operational tree is well formed,
    with field domains bounded by the event's device and senders."""
    t0 = time.monotonic()
    rnd = random.Random(DAG_SEED + 1)
    for _ in range(500):
        g, gen = gen_dag(rnd), ExprGen(rnd)
        T = gen.type()
        e = gen.expr(T, {}, rnd.randint(1, 4))
        typecheck_expr(e)

        def fired(t, d, tree, fresh):
            dom = frozenset(fresh) | {d}
            subs = []
            all_field_roots(tree, subs)
            assert well_formed(e, tree, {})
            assert value_has_type(tree.root, T)
            if isinstance(tree.root, FieldVal):
                assert frozenset(tree.root.devs) == dom
            assert all(frozenset(f.devs) <= dom for f in subs)

        def denoted(i, t, d, v):
            assert value_has_type(v, T), (e, i)

        run_scenario(g, Program((), e), sink=fired)
        denot_program(g, Program((), e), denoted)
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. alignment domains, cluster isolation, and the rep identity at
# source events

class AlignedFields:
    """A stand-in for the denotation's compile step that wraps the closure
    of every node it compiles: each field value a node instance yields,
    at every event, is checked against the events of its cluster so far.
    The event being denoted is noted by wrapping the step that the
    denotation's walk takes (``walking``), and the events of each cluster
    as they enter its scope, by wrapping the denotation's enter step
    (``entering``)."""

    def __init__(self, compile_):
        self.compile = compile_
        self.g = None  # the DAG being denoted
        self.event = None  # the event being denoted
        self.clusters = {}  # scope -> the events it has taken
        self.fields_checked = 0

    def denote(self, g, prog):
        self.g, self.clusters = g, {}
        denotation(g, prog)

    def walking(self, walk):
        def noted(src, step):
            def stepped(i, *event):
                self.event = self.g.by_id[i]
                return step(i, *event)

            return walk(src, stepped)

        return noted

    def entering(self, enter):
        def noted(den, S):
            self.clusters.setdefault(S, set()).add(self.event)
            return enter(den, S)

        return noted

    def __call__(self, e):
        run = self.compile(e)

        def checked(den, S, X):
            v = run(den, S, X)
            if isinstance(v, FieldVal):
                ev = self.event
                assert frozenset(v.devs) == nbr_devices(self.g, self.clusters[S], ev), (e, ev)
                self.fields_checked += 1
            return v

        return checked


FREE_STEP = "(src) => mux(src, 0, min-hood( +[f,l](nbr{mux(src, 0, infinity)}, 1)))"
OBSTACLE = "mux(uid() = 2, (src) => infinity, " + FREE_STEP + ")"


def test_field_alignment_restriction_and_rep_identity(monkeypatch):
    t0 = time.monotonic()

    # every field-typed denotation in the adequacy suite has the domain
    # of the aligned neighbours at its own evaluation step; the pairs are
    # drawn afresh, past the cache, so every node is compiled under the check
    aligned = AlignedFields(denot._compile)
    monkeypatch.setattr(denot, "_compile", aligned)
    monkeypatch.setattr(denot._Denot, "enter", aligned.entering(denot._Denot.enter))
    monkeypatch.setattr(denot, "walk", aligned.walking(denot.walk))
    for sc, prog in adequacy_pairs.__wrapped__():
        aligned.denote(build_dag_from_scenario(sc), prog)
    monkeypatch.undo()
    assert aligned.fields_checked > 0

    # cluster isolation: devices applying the obstacle branch drop out of
    # the gradient-step cluster, so perturbing the source flag at the
    # obstacle changes nothing inside the free cluster
    typecheck_expr(parse_expr("(" + OBSTACLE + ")(uid() = 1)"))
    sc = line_scenario(4, rounds=4)
    g = build_dag_from_scenario(sc)
    E = frozenset(g.events)
    e0 = parse_expr(OBSTACLE)
    args = (parse_expr("uid() = 1"),)
    args2 = (parse_expr("mux(uid() = 2, True, uid() = 1)"),)
    report = check_restriction(g, E, e0, args, args2, {})
    assert report.ok
    assert len(report.clusters) == 2
    dev = {e.id: e.device for e in g.events}
    obst = next(c for c in report.clusters
                if {dev[i] for i in c.events} == {2})
    free = next(c for c in report.clusters if c is not obst)
    assert {dev[i] for i in free.events} == {0, 1, 3}
    assert not obst.args_agree
    assert free.args_agree and free.results_agree
    # without the split the same perturbation leaks to other devices
    step = parse_expr(FREE_STEP)
    app1 = denot_eval(g, E, {}, Apply(step, args))
    app2 = denot_eval(g, E, {}, Apply(step, args2))
    assert any(app1[ev] != app2[ev] for ev in E if ev.device != 2)

    # rep on a source event reduces to applying the body to the initial
    # value: no prior round and no neighbour to diverge from
    dags = [example_dag(), build_dag_from_scenario(gen_scenario(random.Random(99)))]
    for g in dags:
        E = frozenset(g.events)
        sources = [e for e in g.events if not g.senders(e)]
        assert sources
        pairs = [("0", "(x) => x + 1"),
                 ("uid()", "(x) => min-hood(nbr{x})")]
        if g.sensors:
            pairs.append(("sns-num()", "(x) => min-hood(nbr{x}) + sns-num()"))
        for init, lam in pairs:
            rep_e = parse_expr(f"rep({init}){{{lam}}}")
            app_e = parse_expr(f"({lam})({init})")
            typecheck_expr(rep_e)
            dr = denot_eval(g, E, {}, rep_e)
            da = denot_eval(g, E, {}, app_e)
            for ev in sources:
                assert dr[ev] == da[ev], (init, lam, ev)

    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 8. self-stabilization of the library algorithms

def test_gradient_and_converge_sum_self_stabilize():
    t0 = time.monotonic()
    n = 5
    sensors = {d: {"sns-injection-point": boolean(d == 0)} for d in range(n)}
    sc = line_scenario(n, spacing=1.0, radius=1.5, rounds=20, sensors=sensors)
    finals = final_roots(run_scenario(sc, corpus_entry("gradient").program()))
    oracle = shortest_paths({d: (float(d), 0.0) for d in range(n)}, 1.5, {0})
    for d in range(n):
        assert abs(finals[d].ctor - oracle[d]) <= 1e-9
        assert abs(finals[d].ctor - d) <= 1e-9

    summand = {d: float(d + 1) for d in TREE_POSITIONS}
    sensors = {
        d: {"sns-range": num(TREE_DEPTH[d]), "sns-num": num(summand[d])}
        for d in TREE_POSITIONS
    }
    sc = static_scenario(TREE_POSITIONS, radius=1.2, decay=100,
                         fires=tree_fires(10), sensors=sensors)
    trace = run_scenario(sc, converge_program())
    assert final_roots(trace)[0] == num(sum(summand.values()))
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 9. the DAG validator accepts the reference DAG and catches each
# property violated on its own

def _mutated(extra):
    return EventDAG(
        [Event(i, d, as_time(t)) for i, d, t in EXAMPLE_EVENTS],
        list(EXAMPLE_NEIGH) + extra,
    )


def test_dag_validator_catches_each_mutation():
    """EventDAG's constructor refuses each mutation, naming the one
    violation validate_dag finds and its events."""
    t0 = time.monotonic()
    assert validate_dag(example_dag()) == []
    # a two-cycle between devices that are never in range
    with pytest.raises(DagError, match=r"^neigh violates cycle \(events 4, 13, 4\)$"):
        _mutated([(4, 13), (13, 4)])
    # a second device-2 sender into event 12, listed after event 7's edge
    with pytest.raises(DagError, match=r"^neigh violates duplicate-device \(events 7, 6, 12\)$"):
        _mutated([(6, 12)])
    # event 5 feeding both of device 2's next firings
    with pytest.raises(DagError,
                       match=r"^neigh violates double-consumption \(events 5, 6, 7\)$"):
        _mutated([(5, 7)])
    assert time.monotonic() - t0 < 1.0
