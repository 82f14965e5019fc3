"""Denotational evaluation on event DAGs and the adequacy checker."""

import gc
import json
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcalc import denot, network
from fieldcalc.ast import Apply, Builtin, Lambda, Program, boolean, num
from fieldcalc.builtins import TABLE, EvalError, SensorState
from fieldcalc.denot import (
    DagError,
    DenotError,
    Event,
    EventDAG,
    Verdict,
    _Scope,
    build_dag_from_scenario,
    check_adequacy,
    dag_from_json,
    denot_program,
    latest_event,
    nbr_devices,
    prev_event,
    restrict_evolution,
    shift,
    validate_dag,
    verdict_json,
)
from fieldcalc.device import FuelExhausted, ValueTree
from fieldcalc.network import PathSeg, Scenario
from fieldcalc.parser import parse_expr, parse_program
from fieldcalc.stdlib import corpus_entry
from fieldcalc.typer import field

from generators import ExprGen, gen_dag, gen_scenario
from helpers import (
    BOOL,
    EXAMPLE_EVENTS,
    FOCUS,
    NUM,
    check_restriction,
    cluster,
    dag_to_json,
    denot_eval,
    denotation,
    example_dag,
    line_scenario,
    mkfield,
    reference_dag,
    reference_denot,
    static_scenario,
)


def chain_dag(n, device=1):
    """n events of one device, each aware of the previous."""
    evs = [Event(i, device, F(i)) for i in range(n)]
    return EventDAG(evs, [(i - 1, i) for i in range(1, n)])


def ev_of(g, i):
    return g.by_id[i]


# ---------------------------------------------------------------------------
# DAG structure

def test_example_dag_is_valid():
    assert validate_dag(example_dag()) == []


def test_cycle_is_reported():
    with pytest.raises(DagError, match=r"^neigh violates cycle \(events 1, 2, 1\)$"):
        EventDAG([Event(1, 1, F(0)), Event(2, 2, F(1))], [(1, 2), (2, 1)])


def test_duplicate_device_is_reported():
    # the two senders on device 3 in the order their edges are listed, then the receiver
    with pytest.raises(DagError, match=r"^neigh violates duplicate-device \(events 2, 1, 3\)$"):
        EventDAG([Event(1, 3, F(0)), Event(2, 3, F(1)), Event(3, 1, F(2))], [(2, 3), (1, 3)])


def test_double_consumption_is_reported():
    # built in Python, so no file reader ever sees it
    with pytest.raises(DagError,
                       match=r"^neigh violates double-consumption \(events 1, 2, 3\)$"):
        EventDAG([Event(1, 1, F(0)), Event(2, 1, F(1)), Event(3, 1, F(2))], [(1, 2), (1, 3)])


@pytest.mark.parametrize("neigh", [[(1, 2), (2, 1)], [(1, 3), (2, 3)], [(1, 2), (1, 3)],
                                   [(1, 2), (2, 3), (3, 1), (1, 3)]],
                         ids=["cycle", "duplicate device", "double consumption", "all three"])
def test_a_dag_built_in_python_is_held_to_the_rules_of_a_dag_file(neigh):
    """EventDAG's constructor and dag_from_json refuse the same structures
    with the same text, validate_dag's violations in order."""
    events = [Event(i, 1, F(i)) for i in (1, 2, 3)]
    with pytest.raises(DagError) as made:
        EventDAG(events, neigh)
    with pytest.raises(DagError) as read:
        dag_from_json({"events": [{"id": e.id, "device": e.device, "time": str(e.time)}
                                  for e in events], "neigh": [list(edge) for edge in neigh]})
    assert str(made.value) == str(read.value)
    assert str(made.value).startswith("neigh violates ")


# (the Python event, the file's event, the text both raise): each fault a
# DAG file has been held to, and a DAG built in Python escaped
EVENT_FAULTS = {
    # the time is shown as given: a Fraction too long to print, and '1e-5000'
    "a time of 5,000 digits": (Event(1, 1, F(1, 10 ** 5000)), {"time": "1e-5000"},
                               r"DAG event: timestamp has more than 4300 digits, got "),
    "device 2**60": (Event(1, 2 ** 60, F(1)), {"device": 2 ** 60},
                     r"DAG event device must lie in \[-2\*\*53, 2\*\*53\], where uid\(\) is "
                     r"exact, got 1152921504606846976$"),
    "device True": (Event(1, True, F(1)), {"device": True},
                    r"DAG event device must be an integer, got True$"),
}


@pytest.mark.parametrize("fault", sorted(EVENT_FAULTS))
def test_a_dag_event_built_in_python_is_held_to_the_rules_of_a_dag_file(fault):
    event, changes, text = EVENT_FAULTS[fault]
    with pytest.raises(DagError, match=text):
        EventDAG([event], [])
    with pytest.raises(DagError, match=text):
        dag_from_json(json.loads(json.dumps({"events": [{"id": 1, "device": 1, "time": "1",
                                                          **changes}], "neigh": []})))


def test_a_dag_event_time_is_read_as_a_file_reads_it():
    """A float time is read as as_time reads it, 1.5 as 3/2, and an event
    whose time is already exact is kept as it is, not made again."""
    exact = Event(2, 1, F(2))
    made = EventDAG([Event(1, 1, 1.5), exact], [])
    read = dag_from_json({"events": [{"id": 1, "device": 1, "time": 1.5},
                                     {"id": 2, "device": 1, "time": "2"}], "neigh": []})
    assert made.events == read.events
    assert [str(e.time) for e in made.events] == ["3/2", "2"]
    assert made.events[1] is exact


def test_focus_event_awareness():
    g = example_dag()
    E = frozenset(g.events)
    focus = ev_of(g, FOCUS)
    assert nbr_devices(g, E, focus) == frozenset({2, 3, 4})
    assert latest_event(g, E, focus, 3) is focus
    assert latest_event(g, E, focus, 2) is ev_of(g, 7)
    assert latest_event(g, E, focus, 1) is None


def test_awareness_respects_restriction():
    g = example_dag()
    only3 = frozenset(e for e in g.events if e.device == 3)
    focus = ev_of(g, FOCUS)
    assert nbr_devices(g, only3, focus) == frozenset({3})
    assert latest_event(g, only3, focus, 2) is None


def test_prev_event_and_reboot():
    g = example_dag()
    assert prev_event(g, ev_of(g, 11)) is ev_of(g, 10)
    assert prev_event(g, ev_of(g, 5)) is None
    # device 2's post-reboot firing has no same-device predecessor
    assert prev_event(g, ev_of(g, 7)) is None
    assert prev_event(g, ev_of(g, 8)) is ev_of(g, 7)


def test_shift_on_a_chain():
    g = chain_dag(3)
    E = frozenset(g.events)
    phi = {ev_of(g, i): num(10 + i) for i in range(3)}
    phi0 = {ev_of(g, i): num(0) for i in range(3)}
    out = shift(g, E, phi, phi0)
    assert [out[ev_of(g, i)] for i in range(3)] == [num(0), num(10), num(11)]


def test_dag_json_round_trip():
    g = example_dag()
    j = json.loads(json.dumps(dag_to_json(g)))
    g2 = dag_from_json(j)
    assert g2.neigh == g.neigh
    assert g2.events == g.events


def test_dag_file_is_checked_where_it_is_read():
    """dag_from_json refuses a DAG that breaks the neigh properties, each
    violation named as validate_dag finds it, and a file that also holds
    scenario keys, which it names."""
    events = [{"id": i, "device": 1, "time": str(i)} for i in (1, 2)]
    with pytest.raises(DagError, match=r"^neigh violates cycle \(events 1, 2, 1\)$"):
        dag_from_json({"events": events, "neigh": [[1, 2], [2, 1]]})
    with pytest.raises(DagError, match="^DAG file holds the scenario keys fires, sensors$"):
        dag_from_json({"events": events, "neigh": [], "sensors": {}, "fires": []})


def test_dag_rejects_bad_references():
    with pytest.raises(DagError):
        EventDAG([Event(1, 1, F(0))], [(1, 99)])
    with pytest.raises(DagError):
        EventDAG([Event(1, 1, F(0)), Event(1, 2, F(1))], [])


def test_an_edge_end_is_an_event_id_as_given():
    """An edge end is looked up as it is given, never converted: 1.5 names
    no event, where int() once made it event 1."""
    with pytest.raises(DagError, match=r"^neigh edge \(1\.5, 2\) references unknown events$"):
        EventDAG([Event(1, 1, F(0)), Event(2, 2, F(1))], [(1.5, 2)])


def test_an_edge_end_not_an_integer_is_shown_as_given():
    """A caller's edge end that is not an integer is shown as given, so
    '2' does not read as the event 2 that exists."""
    with pytest.raises(DagError, match=r"^neigh edge \(1, '2'\) references unknown events$"):
        EventDAG([Event(1, 1, F(0)), Event(2, 2, F(1))], [(1, "2")])


@pytest.mark.parametrize("bad", ["a", True, 1.0, None])
def test_an_event_id_is_an_int_as_in_a_dag_file(bad):
    """An event id that is not an int (a bool is not one) is refused by
    name, before the events are sorted, so ids that do not compare never
    reach the sort."""
    with pytest.raises(DagError, match=rf"^DAG event id must be an integer, got {bad!r}$"):
        EventDAG([Event(1, 1, F(1)), Event(bad, 2, F(1))], [])


def test_a_dag_file_names_its_first_fault_in_file_order():
    """The events are checked before the edges, and the edges one at a time
    in file order, as EventDAG reads them."""
    events = [{"id": i, "device": 1, "time": str(i)} for i in (1, 2)]
    with pytest.raises(DagError, match="^duplicate event id 1$"):
        dag_from_json({"events": events + events[:1], "neigh": [[1]]})
    with pytest.raises(DagError, match=r"^neigh edge \(1, 3\) references unknown events$"):
        dag_from_json({"events": events, "neigh": [[1, 3], [1]]})
    with pytest.raises(DagError, match="^neigh edge"):
        dag_from_json({"events": events, "neigh": [[1], [1, 3]]})


def test_an_edge_listed_twice_is_kept_once():
    """The senders hold each edge once, in the order the edges first list
    them, so a repeated edge changes neither the checks nor the replay."""
    events = [Event(1, 1, F(0)), Event(2, 2, F(0)), Event(3, 1, F(1))]
    g = EventDAG(events, [(2, 3), (1, 3), (2, 3), (1, 3)])
    assert g.senders(g.by_id[3]) == (g.by_id[2], g.by_id[1])
    assert g.neigh == {(1, 3), (2, 3)}
    seen = []
    g.replay(lambda i, t, d, fresh, sensors: seen.append((i, dict(fresh))) or i)
    assert seen == [(1, {}), (2, {}), (3, {2: 2, 1: 1})]


# ---------------------------------------------------------------------------
# evaluation rules

def test_values_denote_constant_evolutions():
    g = chain_dag(3)
    E = frozenset(g.events)
    assert denot_eval(g, E, {}, parse_expr("7")) == {e: num(7) for e in E}


def test_uid_is_the_device_of_each_event():
    g = example_dag()
    E = frozenset(g.events)
    out = denot_eval(g, E, {}, parse_expr("uid()"))
    assert all(out[e] == num(e.device) for e in E)


def test_nbr_uid_at_focus_event():
    g = example_dag()
    out = denot_eval(g, frozenset(g.events), {}, parse_expr("nbr{uid()}"))
    assert out[ev_of(g, FOCUS)] == mkfield({2: num(2), 3: num(3), 4: num(4)})


def test_field_results_are_aligned():
    g = example_dag()
    E = frozenset(g.events)
    out = denot_eval(g, E, {}, parse_expr("nbr{uid()}"))
    for e in E:
        assert frozenset(out[e].devs) == nbr_devices(g, E, e)


def test_rep_counter_counts_predecessors():
    g = example_dag()
    E = frozenset(g.events)
    out = denot_eval(g, E, {}, parse_expr("rep(0){(x) => x + 1}"))
    for e in E:
        n, p = 1, prev_event(g, e)
        while p is not None:
            n, p = n + 1, prev_event(g, p)
        assert out[e] == num(n), f"event {e.id}"


def test_variable_restriction_shrinks_fields():
    g = example_dag()
    E = frozenset(g.events)
    phi = denot_eval(g, E, {}, parse_expr("nbr{uid()}"))
    only23 = frozenset(e for e in E if e.device in (2, 3))
    from fieldcalc.ast import Var

    out = denot_eval(g, only23, {"x": phi}, Var("x"))
    for e in only23:
        assert frozenset(out[e].devs) == nbr_devices(g, only23, e)


def test_field_literal_mirrors_the_restriction_rule():
    g = chain_dag(2, device=4)
    E = frozenset(g.events)
    lit = mkfield({4: num(1), 9: num(9)})
    out = denot_eval(g, E, {}, lit)
    assert all(v == mkfield({4: num(1)}) for v in out.values())


def test_apply_lambda_over_whole_dag():
    g = example_dag()
    E = frozenset(g.events)
    a = denot_eval(g, E, {}, parse_expr("((x) => nbr{x})(uid())"))
    b = denot_eval(g, E, {}, parse_expr("nbr{uid()}"))
    assert a == b


def test_lambda_tags_substitute_free_variables():
    g = example_dag()
    E = frozenset(g.events)
    e = parse_expr("((x) => (y) => x)(uid())")
    out = denot_eval(g, E, {}, e)
    focus = ev_of(g, FOCUS)
    assert out[focus] == parse_expr("(y) => 3")


def test_cluster_builtin_and_lambda():
    g = example_dag()
    E = frozenset(g.events)
    focus = ev_of(g, FOCUS)
    assert cluster(g, E, Builtin("+"), {}, focus) == E
    assert cluster(g, E, parse_expr("(x) => x"), {}, focus) == E
    branch = parse_expr("mux(uid() = 2, (x) => x, (y) => y)")
    c = cluster(g, E, branch, {}, focus)
    assert c == frozenset(e for e in E if e.device != 2)
    c2 = cluster(g, E, branch, {}, ev_of(g, 7))
    assert c2 == frozenset(e for e in E if e.device == 2)
    assert c | c2 == E


def test_branching_restricts_nbr_domains():
    # devices that took the other branch disappear from nbr fields
    g = example_dag()
    E = frozenset(g.events)
    e = parse_expr("mux(uid() = 2, (x) => nbr{x}, (y) => nbr{y})(uid())")
    out = denot_eval(g, E, {}, e)
    focus = ev_of(g, FOCUS)
    assert out[focus] == mkfield({3: num(3), 4: num(4)})
    red = ev_of(g, 7)
    assert out[red] == mkfield({2: num(2)})


def test_defined_function_recursion_budget():
    g = chain_dag(1)
    prog = parse_program("def f(x) { f(x) } f(0)")
    with pytest.raises(FuelExhausted):
        denotation(g, prog, fuel=500)


def test_unbound_variable_is_an_error():
    g = chain_dag(1)
    from fieldcalc.ast import Var

    with pytest.raises(DenotError, match="unbound"):
        denot_eval(g, frozenset(g.events), {}, Var("x"))


def test_rep_on_source_invariant():
    g = example_dag()
    E = frozenset(g.events)
    srcs = [e for e in E if not g.senders(e)]
    assert srcs  # the earliest firing has no incoming edges
    for src, body in [
        ("rep(0){(x) => x + 1}", "((x) => x + 1)(0)"),
        ("rep(uid()){(x) => min-hood(nbr{x})}", "((x) => min-hood(nbr{x}))(uid())"),
    ]:
        lhs = denot_eval(g, E, {}, parse_expr(src))
        rhs = denot_eval(g, E, {}, parse_expr(body))
        for e in srcs:
            assert lhs[e] == rhs[e]


def test_rep_locality_for_pure_local_expressions():
    g = example_dag()
    E = frozenset(g.events)
    e = parse_expr("rep(1){(x) => x * 2}")
    out = denot_eval(g, E, {}, e)
    for dev in (1, 2, 3, 4):
        sub = frozenset(ev for ev in E if ev.device == dev)
        local = denot_eval(g, sub, {}, e)
        for ev in sub:
            assert out[ev] == local[ev]


# ---------------------------------------------------------------------------
# causal-order evaluation against the fixpoint specification

def test_an_unknown_builtin_name_fails_at_its_call():
    """An application of a name that is no builtin, which only a program
    built without the parser holds, compiles, and fails as an EvalError
    when it is called: after its argument, so an error there comes
    first."""
    g = build_dag_from_scenario(line_scenario(3, rounds=2))
    call = Apply(Builtin("no-such"), (parse_expr("nbr{uid()}"),))
    with pytest.raises(EvalError, match="^unknown builtin 'no-such'$"):
        denotation(g, Program((), call))
    failing = Apply(Builtin("no-such"), (parse_expr("fst(uid())"),))
    with pytest.raises(EvalError, match="^fst expects a pair"):
        denotation(g, Program((), failing))


def test_a_local_value_where_the_decoration_says_field_fails_on_both_sides():
    """+[f,f] applied to two numbers, in a program that was never
    typechecked: the device's fire fails as a FireError and the
    denotation as an EvalError, each with the decoration's text at the
    first event, and check-adequacy reports the device's."""
    sc = line_scenario(3, rounds=2)
    prog = parse_program("+[f,f](1, 2)")
    text = "+[f,f] expects a neighbouring field value, got Data(ctor=1.0, args=())"
    first = f"t={sc.fires[0][0]} device={sc.fires[0][1]}: {text}"
    with pytest.raises(network.FireError) as dev:
        network.run_scenario(sc, prog)
    assert str(dev.value) == first
    with pytest.raises(EvalError) as den:
        denot_program(sc, prog, lambda *event: pytest.fail("no event is denoted"))
    assert type(den.value) is EvalError and str(den.value) == text
    with pytest.raises(network.FireError) as both:
        check_adequacy(sc, prog)
    assert str(both.value) == first


@pytest.mark.parametrize("rounds", [20, 40, 80])
def test_rep_counter_evaluates_each_event_once(rounds, monkeypatch):
    """The denotation applies + once per event: the fixpoint took rounds +
    1 passes, (rounds + 1) * |E| builtin calls. Every builtin application
    reaches TABLE.eval, on the device side too: one call per fire, and
    two per event when check-adequacy runs both."""
    sc = line_scenario(5, rounds=rounds)
    g = build_dag_from_scenario(sc)
    calls = []
    real = TABLE.eval
    monkeypatch.setattr(TABLE, "eval", lambda *a: calls.append(a[0]) or real(*a))
    prog = parse_program("rep(0){(x) => x + 1}")
    out = denotation(g, prog)
    assert len(calls) == len(g.events) == 5 * rounds
    assert [out[e] for e in g.events] == [num(k // 5 + 1) for k in range(5 * rounds)]
    calls.clear()
    network.run_scenario(sc, prog)
    assert len(calls) == len(sc.fires) == 5 * rounds
    calls.clear()
    report = check_adequacy(sc, prog)
    assert report.ok and len(calls) == 2 * report.events == 2 * 5 * rounds


def test_data_over_a_rep_variable_is_denoted_as_its_value():
    """Pair(x, 1), where x is rep's variable holding a number, is a value
    once x's value is put in its place: the value_of path of the
    denotation's data closure, checked against the fixpoint and the
    simulator."""
    sc = line_scenario(3, rounds=3)
    g = build_dag_from_scenario(sc)
    prog = parse_program("rep(0){(x) => fst(Pair(x, 1)) + 1}")
    out = denot_eval(g, g.events, {}, prog.main)
    assert out == reference_denot(g, g.events, {}, prog.main)
    assert [out[e] for e in g.events] == [num(k // 3 + 1) for k in range(9)]
    report = check_adequacy(sc, prog)
    assert report.ok and report.events == report.equal == 9


def test_denotation_matches_the_fixpoint_on_generated_scenarios():
    """The 300 scenarios of the induced-DAG differential test (abutting
    segments, border fires, decay edges), each under a corpus program or
    a generated one."""
    rnd, prog_rnd = random.Random(20161025), random.Random(7)
    corpus = [corpus_entry(n).program() for n in ("gradient", "spanning-sum")]
    for i in range(300):
        g = build_dag_from_scenario(gen_scenario(rnd))
        prog = (corpus[i % 2] if i % 3 == 0
                else ExprGen(prog_rnd).program(depth=prog_rnd.randint(1, 4)))
        defs = {d.name: d for d in prog.defs}
        want = reference_denot(g, g.events, {}, prog.main, defs)
        assert denotation(g, prog) == want, (i, prog.main)


EXAMPLE_IDS = [i for i, _, _ in EXAMPLE_EVENTS]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ids=st.sets(st.sampled_from(EXAMPLE_IDS)),
       kind=st.sampled_from(["events", "devices", "cluster"]))
def test_denotation_matches_the_fixpoint_on_sub_domains(seed, ids, kind):
    """Any event set: arbitrary subsets, whole devices, and the cluster
    of a branching function value. Assumptions over all events: a number
    u and a field w. Half of the draws apply a function of a field whose
    body may capture u, so that its clusters split by u and restrict the
    field argument."""
    g = example_dag()
    rnd = random.Random(seed)
    gen = ExprGen(rnd, sensors=False)
    if kind == "events":
        E = frozenset(g.by_id[i] for i in ids)
    elif kind == "devices":
        devices = {g.by_id[i].device for i in ids}
        E = frozenset(e for e in g.events if e.device in devices)
    else:
        branch = Apply(Builtin("mux"), (gen.expr(BOOL, {}, 2),
                                        parse_expr("(x) => x"), parse_expr("(y) => y")))
        E = cluster(g, g.events, branch, {}, g.by_id[min(ids, default=FOCUS)])
    X = {"u": {e: num(e.id % 3) for e in g.events},
         "w": reference_denot(g, g.events, {}, parse_expr("nbr{uid()}"))}
    env = {"u": NUM, "w": field(NUM)}
    depth = rnd.randint(1, 4)
    if rnd.random() < 0.5:
        e = gen.expr(rnd.choice([NUM, BOOL]), env, depth)
    else:
        body = gen.expr(NUM, {"u": NUM, "f": field(NUM)}, depth)
        e = Apply(Lambda(("f",), body), (gen.expr(field(NUM), env, 2),))
    assert denot_eval(g, E, X, e) == reference_denot(g, E, X, e), e


# ---------------------------------------------------------------------------
# scenario-induced DAGs

def test_induced_dag_matches_decay_window():
    sc = static_scenario({1: (0, 0), 2: (1, 0)}, radius=5, decay=10,
                         fires=[(0, 1), (10, 2), (21, 1)])
    g = build_dag_from_scenario(sc)
    edges = g.neigh
    assert (0, 1) in edges  # t'=0 is exactly at the decay boundary of t=10
    assert (1, 2) not in edges  # 21 - 10 = 11 > decay
    assert validate_dag(g) == []


def test_induced_dag_uses_positions_at_send_time():
    sc = Scenario(
        devices=(1, 2), radius=2, decay=F(100),
        paths={
            1: (PathSeg(F(0), F(20), ((0.0, 0.0),)),),
            2: (PathSeg(F(0), F(20), ((0.0, 0.0), (10.0, 0.0))),),
        },
        fires=((F(1), 2), (F(2), 1), (F(18), 2), (F(19), 1)),
    )
    g = build_dag_from_scenario(sc)
    # device 2 was at x=0.5 when it fired at t=1: within radius
    assert (0, 1) in g.neigh
    # at t=18 device 2 sits at x=9: out of range of device 1
    assert (2, 3) not in g.neigh


def test_induced_dag_requires_receiver_continuously_on():
    sc = Scenario(
        devices=(1,), radius=1, decay=F(100),
        paths={1: (PathSeg(F(0), F(2), ((0.0, 0.0),)),
                   PathSeg(F(4), F(9), ((0.0, 0.0),)),)},
        fires=((F(1), 1), (F(5), 1), (F(6), 1)),
    )
    g = build_dag_from_scenario(sc)
    assert (0, 1) not in g.neigh  # reboot severs the self-link
    assert (1, 2) in g.neigh
    assert prev_event(g, g.by_id[1]) is None


def test_induced_dag_counts_abutting_segments_as_continuous():
    sc = Scenario(
        devices=(1,), radius=1, decay=F(100),
        paths={1: (PathSeg(F(0), F(5), ((0.0, 0.0),)),
                   PathSeg(F(5), F(10), ((1.0, 0.0),)))},
        fires=((F(4), 1), (F(6), 1)),
    )
    assert build_dag_from_scenario(sc).neigh == {(0, 1)}


def test_induced_dag_matches_the_all_pairs_reference():
    """The sweep gives the reference's events and neigh edges, and the
    same sensor readings wherever an event can use them: every local
    sensor, and the range to the event's own device and its senders."""
    rnd = random.Random(20161025)
    abutting = border = decay_edge = 0
    for _ in range(300):
        sc = gen_scenario(rnd)
        g, ref = build_dag_from_scenario(sc), reference_dag(sc)
        assert g.events == ref.events
        assert g.neigh == ref.neigh
        for e in g.events:
            got, want = g.sensors[e.id], ref.sensors[e.id]
            assert got.local == want.local
            usable = {e.device} | {s.device for s in g.senders(e)}
            assert {d: got.ranges[d] for d in usable} == {d: want.ranges[d] for d in usable}
        abutting += any(a.end == b.start for segs in sc.paths.values()
                        for a, b in zip(segs, segs[1:]))
        border += any(t in (s.start, s.end) for t, d in sc.fires
                      for s in sc.paths[d])
        decay_edge += any(sc.decay > 0 and g.by_id[a].time == g.by_id[b].time - sc.decay
                          for a, b in g.neigh)
    # the generator reaches each corner case, many times over
    assert min(abutting, border, decay_edge) >= 20, (abutting, border, decay_edge)


def test_induced_dag_keeps_only_last_qualifying_firing():
    sc = static_scenario({1: (0, 0), 2: (1, 0)}, radius=5, decay=100,
                         fires=[(0, 1), (1, 1), (2, 2)])
    g = build_dag_from_scenario(sc)
    assert (1, 2) in g.neigh
    assert (0, 2) not in g.neigh


# ---------------------------------------------------------------------------
# adequacy

def test_adequacy_rep_counter():
    sc = static_scenario({1: (0, 0)}, radius=1, decay=100,
                         fires=[(t, 1) for t in range(5)])
    prog = parse_program("rep(0){(x) => x + 1}")
    verdicts = []
    report = check_adequacy(sc, prog, sink=verdicts.append)
    assert report.ok
    assert report.events == report.equal == len(verdicts) == 5
    assert [v.denotational for v in verdicts] == [num(k) for k in range(1, 6)]


def test_adequacy_min_hood_gossip():
    sc = static_scenario(
        {1: (0, 0), 2: (1, 0), 3: (0, 1)}, radius=2, decay=100,
        fires=[(0, 1), (1, 2), (2, 3), (3, 2)],
        sensors={d: {"sns-num": num(d)} for d in (1, 2, 3)},
    )
    prog = parse_program("min-hood(nbr{sns-num()})")
    report = check_adequacy(sc, prog)
    assert report.ok
    assert report.events == report.equal == 4


def test_adequacy_with_functions_and_fields():
    sc = static_scenario(
        {1: (0, 0), 2: (1, 0)}, radius=2, decay=100,
        fires=[(0, 1), (1, 2), (2, 1), (3, 2)],
        sensors={
            1: {"sns-fun": parse_expr("() => min-hood(nbr{uid()})")},
            2: {"sns-fun": parse_expr("() => 0")},
        },
    )
    prog = parse_program("Pair(pick-hood(nbr{sns-fun()})(), nbr{uid()})")
    report = check_adequacy(sc, prog)
    assert report.ok


def test_adequacy_across_a_reboot():
    sc = Scenario(
        devices=(1, 2), radius=2, decay=F(100),
        paths={
            1: (PathSeg(F(0), F(20), ((0.0, 0.0),)),),
            2: (PathSeg(F(0), F(3), ((1.0, 0.0),)),
                PathSeg(F(6), F(20), ((1.0, 0.0),)),),
        },
        fires=((F(1), 1), (F(2), 2), (F(4), 1), (F(7), 2), (F(8), 1)),
    )
    prog = parse_program("rep(0){(x) => min-hood(nbr{x}) + 1}")
    report = check_adequacy(sc, prog)
    assert report.ok


def test_adequacy_report_json():
    sc = static_scenario({1: (0, 0)}, radius=1, decay=10, fires=[(0, 1)])
    prog = parse_program("1 + 2")
    verdicts = []
    report = check_adequacy(sc, prog, sink=verdicts.append)
    j = json.loads(report.to_json([verdict_json(v) for v in verdicts]))
    assert j["ok"] is True
    assert j["first_counterexample"] is None
    assert j["events"][0]["denotational"] == {"num": 3.0}


def test_fold_hood_fuel_does_not_run_out_with_scenario_length():
    """Builtins that call functions spend a budget reset at each event, as
    each fire's is, so a run long enough to spend --fuel many times over
    still checks; so does entering a cluster, which pays from its own
    budget reset at each event."""
    prog = parse_program("fold-hood((a, b) => a + b, nbr{1})")
    sc = line_scenario(10, rounds=20)
    g = build_dag_from_scenario(sc)
    assert list(denotation(g, prog, fuel=100).values())[-1] == num(2)
    values = []
    denot_program(sc, prog, lambda *ev: values.append(ev[3]), fuel=100)
    assert len(values) == 200 and values[-1] == num(2)
    report = check_adequacy(sc, prog, fuel=100)
    assert report.ok and report.events == 200


def test_cluster_fuel_does_not_run_out_with_scenario_length():
    """Each event pays for the body of every cluster it enters from a budget
    reset at each event, so a program whose function value changes at each
    event (the if's thunks read the growing count) checks however long it
    runs, where one budget for the run would run out after 22 events."""
    prog = parse_program("rep(0){(v) => if (v < 1000000) { v + 1 } else { 0 }}")
    sc = line_scenario(1, rounds=2000, until=2001)
    values = []
    denot_program(sc, prog, lambda *ev: values.append(ev[3]), fuel=200)
    assert len(values) == 2000 and values[-1] == num(2000)
    report = check_adequacy(sc, prog, fuel=200)
    assert report.ok and report.events == 2000


class _Record(dict):
    """An event's record, a plain dict, as a type of its own that can be
    counted among the live objects and weakly referenced."""

    __slots__ = ("__weakref__",)


def _own_records(step):
    """step, sending a _Record copy of each record it sends (alone, or
    beside a value-tree), which later events read in its place."""
    def stepped(*event):
        payload = step(*event)
        if type(payload) is dict:
            return _Record(payload)
        if type(payload) is tuple:
            return payload[0], _Record(payload[1])
        return payload

    return stepped


def _most_alive(monkeypatch, kinds, scenarios, check):
    """The most objects of each kind alive as a fire starts, for each of
    scenarios (rounds -> scenario) that check runs, each record counted
    as a _Record."""
    out = {}
    walk = denot.walk
    for rounds, sc in scenarios.items():
        live = []

        def counting(*args, env_at=network.env_at):
            objs = [type(o) for o in gc.get_objects()]
            live.append([objs.count(k) for k in kinds])
            return env_at(*args)

        monkeypatch.setattr(network, "env_at", counting)
        monkeypatch.setattr(denot, "walk", lambda src, step: walk(src, _own_records(step)))
        gc.freeze()  # get_objects then skips what lived before the run
        try:
            check(sc)
        finally:
            gc.unfreeze()
            monkeypatch.undo()
        out[rounds] = [max(c) for c in zip(*live)]
    return out


def test_adequacy_keeps_no_value_tree_past_its_last_reader(monkeypatch):
    """Checking adequacy keeps a fire's value-tree, and both it and the
    denotation of a scenario keep an event's record, only while some
    inbox holds them, and checking without a sink keeps no verdict: the
    most value-trees, records and verdicts alive as a fire starts is the
    same for 4 rounds as for 16. The program runs once before counting, so
    the leaves its compiled nodes share, which live as long as the
    program, are made before the count starts."""
    prog = corpus_entry("gradient").program()
    kinds = (ValueTree, _Record, Verdict)
    scenarios = {rounds: line_scenario(6, rounds=rounds, sensors={
        d: {"sns-injection-point": boolean(d == 0)} for d in range(6)}) for rounds in (4, 16)}

    assert check_adequacy(scenarios[4], prog).ok
    adequacy = _most_alive(monkeypatch, kinds, scenarios,
                           lambda sc: check_adequacy(sc, prog).ok or pytest.fail("not adequate"))
    assert adequacy[4] == adequacy[16]
    trees, records, verdicts = adequacy[16]
    assert trees > 0 and records > 0 and verdicts == 0
    values = []
    denotation = _most_alive(monkeypatch, kinds, scenarios,
                             lambda sc: denot_program(sc, prog, lambda *ev: values.append(ev[3])))
    assert denotation[4] == denotation[16] == [0, records, 0]
    assert len(values) == 6 * (4 + 16)


def test_denotation_keeps_a_cluster_only_while_a_live_record_reads_it(monkeypatch):
    """A cluster lives only while the record of some event that entered it
    lives, so a program that selects a new function value at each round
    (the applied lambda reads the count) keeps as many clusters alive at
    256 rounds as at 16, both when denoting a scenario and when checking
    adequacy without a sink."""
    prog = parse_program("rep(0){(v) => ((y) => y + v)(1)}")
    scenarios = {rounds: line_scenario(6, rounds=rounds, until=rounds + 1) for rounds in (16, 256)}
    counts = []
    denotation = _most_alive(monkeypatch, (_Scope,), scenarios,
                             lambda sc: denot_program(sc, prog, lambda *ev: counts.append(1)))
    assert len(counts) == 6 * (16 + 256)
    adequacy = _most_alive(monkeypatch, (_Scope,), scenarios,
                           lambda sc: check_adequacy(sc, prog).ok or pytest.fail("not adequate"))
    assert denotation[16] == denotation[256] and adequacy[16] == adequacy[256]
    assert denotation[16][0] > 1 and adequacy[16][0] > 1


class _WeakTree(ValueTree):
    __slots__ = ("__weakref__",)


def _watch_payloads(monkeypatch, g: EventDAG) -> list:
    """Make each value-tree a fire returns and each record the denotation
    sends weakly referable, and check, as each event of a replay of g
    starts, that the payloads alive are exactly those of the events
    already run that an event yet to run hears. Returns the ids of the
    events checked, in order."""
    receivers = {e.id: set() for e in g.events}
    for a, b in g.neigh:
        receivers[a].add(b)
    refs, checked = {}, []
    walk, fire = network.walk, network.fire

    def watch(step):
        def watched(i, t, d, fresh, sensors):
            done = set(refs)
            for j, rs in refs.items():
                alive = [r() is not None for r in rs]
                assert alive == [not receivers[j] <= done] * len(rs), (j, i)
            payload = step(i, t, d, fresh, sensors)
            refs[i] = [weakref.ref(p) for p in (payload if type(payload) is tuple else (payload,))]
            checked.append(i)
            return payload

        return watched

    def weak_fire(*args):
        tree = fire(*args)
        return _WeakTree(tree.root, tree.children)

    for mod in (denot, network):
        monkeypatch.setattr(mod, "walk", lambda src, step: walk(src, watch(_own_records(step))))
        monkeypatch.setattr(mod, "fire", weak_fire)
    return checked


def test_replay_keeps_no_message_past_its_last_reader(monkeypatch):
    """Replaying a generated DAG keeps an event's value-tree and record
    only until its last receiver has read them, and none for an event
    nobody hears, under check-adequacy, the denotation and the simulator
    alike; so memory follows the live window on a DAG as on a scenario."""
    rnd, prog = random.Random(5), corpus_entry("gradient").program()
    dags = [g for g in (gen_dag(rnd) for _ in range(40)) if len(g.events) >= 10][:8]
    lost = sum(not any(a == e.id for a, _ in g.neigh) for g in dags for e in g.events)
    shared = sum(sum(a == e.id for a, _ in g.neigh) > 1 for g in dags for e in g.events)
    assert len(dags) == 8 and lost > 0 and shared > 0
    for g in dags:
        runs = [lambda: check_adequacy(g, prog).ok or pytest.fail("not adequate"),
                lambda: denot_program(g, prog, lambda *ev: None),
                lambda: network.run_scenario(g, prog, sink=lambda *fire: None)]
        for run in runs:
            checked = _watch_payloads(monkeypatch, g)
            try:
                run()
            finally:
                monkeypatch.undo()
            assert sorted(checked) == sorted(e.id for e in g.events)


def test_replay_runs_each_event_after_its_senders_least_time_and_id_first():
    """Of the events whose senders have all run, the least in (time, id)
    runs next; fresh maps each sender's device to its payload, and an
    event without readings senses nothing."""
    g = EventDAG([Event(1, 1, F(5)), Event(2, 2, F(1)), Event(3, 1, F(6)), Event(4, 3, F(1))],
                 [(1, 2), (1, 3)])
    seen = []

    def step(i, t, d, fresh, sensors):
        seen.append((i, t, d, dict(fresh), sensors))
        return f"m{i}"

    g.replay(step)
    assert seen == [(4, 1, 3, {}, SensorState()), (1, 5, 1, {}, SensorState()),
                    (2, 1, 2, {1: "m1"}, SensorState()), (3, 6, 1, {1: "m1"}, SensorState())]


def test_replay_refuses_two_senders_on_one_device_and_a_cycle():
    """Neither structure becomes an EventDAG, so no replay ever meets one:
    the constructor refuses both, before any event runs."""
    with pytest.raises(DagError, match=r"^neigh violates duplicate-device \(events 1, 2, 3\)$"):
        EventDAG([Event(1, 1, F(1)), Event(2, 1, F(2)), Event(3, 2, F(3))], [(1, 3), (2, 3)])
    with pytest.raises(DagError, match=r"^neigh violates cycle \(events 1, 2, 1\)$"):
        EventDAG([Event(1, 1, F(0)), Event(2, 2, F(1)), Event(3, 3, F(2))], [(1, 2), (2, 1)])


def test_nbr_range_adequacy():
    sc = static_scenario({1: (0, 0), 2: (3, 4)}, radius=10, decay=100,
                         fires=[(0, 1), (1, 2), (2, 1)])
    prog = parse_program("min-hood+(nbr-range())")
    verdicts = []
    report = check_adequacy(sc, prog, sink=verdicts.append)
    assert report.ok
    assert verdicts[-1].denotational == num(5)


# ---------------------------------------------------------------------------
# restriction

def test_restriction_outside_perturbation_is_invisible():
    g = example_dag()
    E = frozenset(g.events)
    e0 = parse_expr("mux(uid() = 2, (x) => 0, (x) => min-hood(nbr{x}))")
    args = [parse_expr("uid()")]
    args2 = [parse_expr("mux(uid() = 2, 100, uid())")]  # differs only on device 2
    report = check_restriction(g, E, e0, args, args2, {})
    assert report.ok
    by_agreement = {c.args_agree for c in report.clusters}
    assert by_agreement == {True, False}
    for c in report.clusters:
        if c.args_agree:
            assert c.results_agree


def test_restriction_congruence_for_builtins():
    g = example_dag()
    E = frozenset(g.events)
    report = check_restriction(
        g, E, Builtin("+"),
        [parse_expr("1"), parse_expr("2")],
        [parse_expr("1"), parse_expr("1 + 1")],
        {},
    )
    assert report.ok
    assert all(c.args_agree and c.results_agree for c in report.clusters)
