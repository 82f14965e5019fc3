"""Big-step device evaluation: golden trees, alignment, well-formedness."""

import json
import math
import random
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcalc import ast, denot, device
from fieldcalc.ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    FALSE,
    FieldVal,
    Lambda,
    Nbr,
    Program,
    Rep,
    TRUE,
    Var,
    boolean,
    num,
)
from fieldcalc.builtins import TABLE, ArityError, DomainError, EvalError, SensorState
from fieldcalc.denot import (
    AdequacyReport,
    Verdict,
    build_dag_from_scenario,
    check_adequacy,
    denot_program,
    verdict_json,
)
from fieldcalc.device import (
    DEFAULT_FUEL,
    EvalContext,
    FuelExhausted,
    MalformedEnv,
    ValueTree,
    csv_text,
    eval_expr,
    evaluate_main,
    tree_json,
    value_json,
    value_to_text,
)
from fieldcalc.network import PathSeg, Scenario, fire, run_scenario, sweep
from fieldcalc.parser import parse_expr, parse_program
from fieldcalc.stdlib import corpus_entry
from fieldcalc.typer import FieldT
from generators import ExprGen, gen_scenario
from helpers import (
    BOOL,
    NUM,
    align_fun,
    align_i,
    dumps,
    is_local_value,
    leaf,
    mkfield,
    reference_eval_expr,
    report_json,
    run_jsonl,
    static_scenario,
    subtree_fun,
    subtree_i,
    tree_from_json,
    tree_to_json,
    value_from_json,
    value_text,
    value_to_json,
    well_formed,
)


def ev(src, device=1, env=None, sensors=None, fuel=10**6, rng=None):
    prog = parse_program(src)
    return evaluate_main(prog, device, env or {}, sensors, fuel, rng)


def senses(**kv):
    return SensorState(local={k.replace("_", "-"): v for k, v in kv.items()})


# ---------------------------------------------------------------------------
# projections

def test_subtree_i_in_range_and_out():
    t = ValueTree(num(3), (leaf(num(1)), leaf(num(2)), leaf(Builtin("+"))))
    assert subtree_i(t, 1) == leaf(num(1))
    assert subtree_i(t, 3) == leaf(Builtin("+"))
    assert subtree_i(t, 0) is None
    assert subtree_i(t, 4) is None
    assert subtree_i(leaf(num(0)), 1) is None


def test_subtree_fun_requires_matching_penultimate_root():
    l0 = parse_expr("() => 0")
    l1 = parse_expr("() => 1")
    t = ValueTree(num(0), (leaf(l0), leaf(num(0))))
    assert subtree_fun(t, l0) == leaf(num(0))
    assert subtree_fun(t, l1) is None
    assert subtree_fun(leaf(num(0)), l0) is None


def test_align_drops_devices_with_absent_subtree():
    deep = ValueTree(num(9), (leaf(num(7)),))
    env = {1: deep, 2: leaf(num(5))}
    assert align_i(env, 1) == {1: leaf(num(7))}
    assert align_i(env, 2) == {}


def test_align_fun_keeps_only_same_function():
    l0 = parse_expr("() => 0")
    l1 = parse_expr("() => 1")
    env = {
        1: ValueTree(num(0), (leaf(l0), leaf(num(0)))),
        2: ValueTree(num(1), (leaf(l1), leaf(num(1)))),
        3: leaf(num(2)),
    }
    assert align_fun(env, l1) == {2: leaf(num(1))}


# ---------------------------------------------------------------------------
# base rules

def test_values_evaluate_to_leaves():
    assert ev("42") == leaf(num(42))
    assert ev("True") == leaf(boolean(True))
    assert ev("Pair(1, Cons(2, Null))") == leaf(parse_expr("Pair(1, Cons(2, Null))"))
    lam = ev("(x) => x + 1")
    assert lam == leaf(parse_expr("(x) => x + 1"))


def test_lambda_body_is_not_evaluated():
    # would raise if evaluated: unbound sensor
    t = ev("(x) => sns-num()")
    assert not t.children


def test_field_literal_restricts_to_env_domain_plus_self():
    phi = mkfield({1: num(10), 2: num(20), 3: num(30)})
    ctx = EvalContext(device=1)
    t = eval_expr(ctx, {2: leaf(num(0))}, phi)
    assert t == leaf(mkfield({1: num(10), 2: num(20)}))


def test_constructor_with_unevaluated_arguments():
    t = ev("Pair(uid(), 3)", device=7)
    assert t.root == parse_expr("Pair(7, 3)")
    assert t.children == (ValueTree(num(7), (leaf(Builtin("uid")),)), leaf(num(3)))


def test_builtin_application_tree_shape():
    t = ev("1 + 2")
    assert t == ValueTree(num(3), (leaf(num(1)), leaf(num(2)), leaf(Builtin("+"))))


def test_defined_function_application_tree_shape():
    t = ev("def double(x) { x + x } double(5)")
    fn = t.children[1].root
    assert fn == parse_expr("double", defs=["double"])
    assert t.root == num(10)
    assert len(t.children) == 3  # arg, function, body


def test_unbound_variable_is_a_runtime_error():
    from fieldcalc.ast import Var
    from fieldcalc.builtins import EvalError

    with pytest.raises(EvalError, match="unbound"):
        eval_expr(EvalContext(device=1), {}, Var("x"))


def test_applying_a_non_function_fails():
    from fieldcalc.builtins import EvalError

    with pytest.raises(EvalError, match="not a function"):
        ev("3(4)")


# ---------------------------------------------------------------------------
# rep counter walkthrough

def test_rep_counter_first_fire_golden_tree():
    inner = ValueTree(num(1), (leaf(num(0)), leaf(num(1)), leaf(Builtin("+"))))
    t = ev("rep(0){(x) => +(x, 1)}", device=0)
    assert t == ValueTree(num(1), (leaf(num(0)), inner))


def test_rep_counter_successive_roots():
    prog = parse_program("rep(0){(x) => +(x, 1)}")
    env = {}
    roots = []
    for _ in range(5):
        t = evaluate_main(prog, 0, env)
        roots.append(t.root)
        env = {0: t}
    assert roots == [num(k) for k in range(1, 6)]


def test_rep_reads_neighbour_state_only_through_own_tree():
    # a device with no stored tree starts from the initial value even if
    # neighbours are ahead
    prog = parse_program("rep(0){(x) => +(x, 1)}")
    t_b = evaluate_main(prog, 1, {})
    t_b = evaluate_main(prog, 1, {1: t_b})  # root 2
    t_a = evaluate_main(prog, 0, {1: t_b})
    assert t_a.root == num(1)


def test_rep_with_malformed_own_tree():
    prog = parse_program("rep(0){(x) => +(x, 1)}")
    with pytest.raises(MalformedEnv):
        evaluate_main(prog, 0, {0: leaf(num(9))})


# ---------------------------------------------------------------------------
# gossip-of-minimum walkthrough: three devices running
# min-hood(nbr{sns-num()}) with sns-num readings 1, 2, 3

GOSSIP = "min-hood(nbr{sns-num()})"


def gossip_first_fire(d):
    return ev(GOSSIP, device=d, sensors=senses(sns_num=num(d)))


def test_gossip_first_fire_golden_tree():
    sns = ValueTree(num(1), (leaf(Builtin("sns-num")),))
    nbr = ValueTree(mkfield({1: num(1)}), (sns,))
    assert gossip_first_fire(1) == ValueTree(num(1), (nbr, leaf(Builtin("min-hood"))))


def test_gossip_second_fire_sees_all_neighbours():
    env = {d: gossip_first_fire(d) for d in (1, 2, 3)}
    t = ev(GOSSIP, device=2, env=env, sensors=senses(sns_num=num(2)))
    assert t.root == num(1)
    assert t.children[0].root == mkfield({1: num(1), 2: num(2), 3: num(3)})


def test_gossip_field_domain_tracks_env():
    env = {3: gossip_first_fire(3)}
    t = ev(GOSSIP, device=1, env=env, sensors=senses(sns_num=num(1)))
    assert t.children[0].root == mkfield({1: num(1), 3: num(3)})


# ---------------------------------------------------------------------------
# function-gossip walkthrough: pick-hood(nbr{sns-fun()})() where device 1
# senses ()=>min-hood(nbr{sns-num()}) and devices 2, 3 sense ()=>0

FUNGOSSIP = "pick-hood(nbr{sns-fun()})()"
L_MIN = "() => min-hood(nbr{sns-num()})"
L_ZERO = "() => 0"


def fungossip_sensors(d):
    fun = parse_expr(L_MIN if d == 1 else L_ZERO)
    return senses(sns_fun=fun, sns_num=num({1: 3, 2: 1, 3: 2}[d]))


def fungossip_first_fire(d):
    return ev(FUNGOSSIP, device=d, sensors=fungossip_sensors(d))


def test_fungossip_first_fire_shapes():
    t1 = fungossip_first_fire(1)
    assert t1.root == num(3)  # own min-hood over just itself
    assert len(t1.children) == 2  # function tree + body tree
    assert t1.children[0].root == parse_expr(L_MIN)
    t2 = fungossip_first_fire(2)
    assert t2.root == num(0)
    assert t2.children[0].root == parse_expr(L_ZERO)


def test_fungossip_second_fire_aligns_on_selected_function():
    env = {d: fungossip_first_fire(d) for d in (1, 2, 3)}
    t = ev(FUNGOSSIP, device=2, env=env, sensors=fungossip_sensors(2))
    # pick-hood takes the function shared by the least device id, which.
    # is device 1's min-hood lambda; only device 1 aligns with its body
    assert t.children[0].root == parse_expr(L_MIN)
    body = t.children[1]
    assert body.children[0].root == mkfield({1: num(3), 2: num(1)})
    assert t.root == num(1)


def test_fungossip_nonselected_device_keeps_its_own_branch():
    env = {d: fungossip_first_fire(d) for d in (2, 3)}
    t = ev(FUNGOSSIP, device=3, env=env, sensors=fungossip_sensors(3))
    assert t.children[0].root == parse_expr(L_ZERO)
    assert t.root == num(0)


# ---------------------------------------------------------------------------
# nbr and alignment details

def test_nbr_of_local_expression():
    t = ev("nbr{uid()}", device=4)
    assert t.root == mkfield({4: num(4)})
    assert t.children == (ValueTree(num(4), (leaf(Builtin("uid")),)),)


def test_nested_nbr_alignment():
    prog = parse_program("min-hood(nbr{uid()}) + min-hood+(nbr{uid()} *[f,l] 10)")
    ta = evaluate_main(prog, 1, {})
    tb = evaluate_main(prog, 2, {1: ta})
    # second summand only sees device 1 (min-hood+ excludes self)
    assert tb.root == num(1 + 10)


def test_builtin_sees_full_env_domain():
    # the field handed to min-hood must cover every neighbour in the env
    prog = parse_program(GOSSIP)
    env = {d: gossip_first_fire(d) for d in (1, 2, 3)}
    t = evaluate_main(prog, 1, env, senses(sns_num=num(1)))
    assert t.children[0].root.devs == (1, 2, 3)


def test_field_literal_is_restricted_before_builtins_see_it():
    # a stray entry for an unknown device is dropped by the restriction
    # rule, so the builtin's domain precondition is maintained
    phi = mkfield({1: num(1), 9: num(9)})
    ctx = EvalContext(device=1)
    from fieldcalc.ast import Apply

    t = eval_expr(ctx, {}, Apply(Builtin("min-hood"), (phi,)))
    assert t.root == num(1)
    assert t.children[0].root == mkfield({1: num(1)})


def test_apply_function_runs_against_empty_env():
    ctx = EvalContext(device=1)
    f = parse_expr("(x) => x + 1")
    assert ctx.call(f, [num(41)]) == num(42)


def test_map_hood_uses_device_call():
    prog = parse_program("map-hood((x) => x + 1, nbr{uid()})")
    ta = evaluate_main(prog, 1, {})
    tb = evaluate_main(prog, 2, {1: ta})
    assert tb.root == mkfield({1: num(2), 2: num(3)})


def test_def_functions_align_by_name():
    src = "def f() { rep(0){(x) => x + 1} } f()"
    prog = parse_program(src)
    ta = evaluate_main(prog, 1, {})
    ta2 = evaluate_main(prog, 1, {1: ta})
    assert ta2.root == num(2)


def test_substituted_captures_split_alignment():
    # function equality covers substituted captures, so a lambda that
    # closed over uid() aligns with nobody else: a field built in its
    # body keeps the evaluating device only
    src = "((y) => ((x) => +[f,l](nbr{0}, y))(0))(uid())"
    ta = ev(src, device=1)
    tb = ev(src, device=2, env={1: ta})
    assert tb.root == mkfield({2: num(2)})


def test_fuel_exhaustion():
    with pytest.raises(FuelExhausted):
        ev("def loop() { loop() } loop()", fuel=200)


# ---------------------------------------------------------------------------
# well-formedness

WF_CASES = [
    "1 + 2",
    "rep(0){(x) => x + 1}",
    "((x) => x * x)(4)",
    "min-hood(nbr{sns-num()})",
    "Pair(uid(), 3)",
    "if (1 < 2) {3} else {4}",
]


@pytest.mark.parametrize("src", WF_CASES)
def test_produced_trees_are_well_formed(src):
    prog = parse_program(src)
    defs = {d.name: d for d in prog.defs}
    t = evaluate_main(prog, 1, {}, senses(sns_num=num(5)))
    assert well_formed(prog.main, t, defs)


def test_truncated_tree_is_not_well_formed():
    prog = parse_program("1 + 2")
    t = evaluate_main(prog, 1, {})
    bad = ValueTree(t.root, t.children[:2])
    assert not well_formed(prog.main, bad, {})


def test_wrong_shape_is_not_well_formed():
    prog = parse_program("rep(0){(x) => x + 1}")
    assert not well_formed(prog.main, leaf(num(1)), {})


def test_apply_tree_shape_depends_on_function_kind():
    prog = parse_program("((x) => x)(7)")
    t = evaluate_main(prog, 1, {})
    assert well_formed(prog.main, t, {})
    # dropping the body child leaves a builtin-shaped tree with a lambda root
    assert not well_formed(prog.main, ValueTree(t.root, t.children[:2]), {})


# ---------------------------------------------------------------------------
# serialization

ROUND_TRIP_VALUES = [
    "42",
    "-0.5",
    "True",
    "Null",
    "Pair(1, Cons(True, Null))",
    "(x) => x + 1",
    "() => min-hood(nbr{sns-num()})",
    "(min-hood+)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_VALUES)
def test_value_json_round_trip(src):
    v = parse_expr(src)
    assert value_from_json(json.loads(value_json(v))) == v


def test_special_numbers_round_trip():
    for src in ("infinity", "-infinity", "NaN"):
        v = parse_expr(src)
        assert value_from_json(json.loads(value_json(v))) == v


def test_field_value_round_trip():
    v = mkfield({1: num(1), 3: parse_expr("Pair(1, 2)")})
    assert value_from_json(json.loads(value_json(v))) == v


def test_def_name_round_trip_needs_defs():
    from fieldcalc.parser import ParseError

    v = DefName("f")
    j = json.loads(value_json(v))
    assert value_from_json(j, defs=["f"]) == v
    with pytest.raises(ParseError):
        value_from_json(j)


def test_tree_json_round_trip():
    t = ev(GOSSIP, device=1, sensors=senses(sns_num=num(1)))
    assert tree_from_json(json.loads(tree_json(t))) == t


def test_value_to_text():
    assert value_to_text(num(3)) == "3"
    assert value_to_text(num(float("inf"))) == "infinity"
    assert value_to_text(boolean(True)) == "True"
    out = value_to_text(mkfield({1: num(2)}))
    assert json.loads(out) == {"field": [[1, {"num": 2.0}]]}


# the writer's text against json.dumps of the reference's JSON objects

NULL = Data("Null")

# (value, its text): the output contract, written out once
CANONICAL_TEXTS = [
    (num(math.nan), '{"num":"nan"}'),
    (num(math.inf), '{"num":"inf"}'),
    (num(-math.inf), '{"num":"-inf"}'),
    (num(-0.0), '{"num":0.0}'),
    (num(1e300), '{"num":1e+300}'),
    (num(5e-324), '{"num":5e-324}'),
    (TRUE, '{"bool":true}'),
    (FALSE, '{"bool":false}'),
    (NULL, '{"args":[],"data":"Null"}'),
    (Data("Pair", (num(1), Data("Cons", (TRUE, NULL)))),
     '{"args":[{"num":1.0},{"args":[{"bool":true},{"args":[],"data":"Null"}],'
     '"data":"Cons"}],"data":"Pair"}'),
    (FieldVal((-2 ** 53, 2 ** 53), (num(1), NULL)),
     '{"field":[[-9007199254740992,{"num":1.0}],[9007199254740992,'
     '{"args":[],"data":"Null"}]]}'),
    (Lambda(("é",), Var("é")), '{"fun":"(\\u00e9) => \\u00e9"}'),
    (DefName("f"), '{"fun":"f"}'),
    (Builtin("min-hood+"), '{"fun":"(min-hood+)"}'),
    (Builtin("+[f,l]"), '{"fun":"+[f,l]"}'),
]


@pytest.mark.parametrize("v, text", CANONICAL_TEXTS)
def test_value_json_writes_the_canonical_text(v, text):
    assert value_json(v) == text == dumps(value_to_json(v))
    assert tree_json(ValueTree(v)) == '{"root":' + text + "}"
    assert tree_json(ValueTree(v, (ValueTree(v),))) == (
        '{"children":[{"root":' + text + '}],"root":' + text + "}")


NEAR_LIMIT = 2 ** 53
ids = st.one_of(st.integers(-NEAR_LIMIT, NEAR_LIMIT),
                st.integers(NEAR_LIMIT - 3, NEAR_LIMIT),
                st.integers(-NEAR_LIMIT, -NEAR_LIMIT + 3))
names = st.text(min_size=1, max_size=4)  # escapes, quotes, non-ASCII
json_leaves = st.one_of(
    st.builds(num, st.one_of(st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e300, 5e-324, -5e-324, 2.0 ** 53, 1e16, 0.1]))),
    st.sampled_from([TRUE, FALSE, NULL, *(v for v, _ in CANONICAL_TEXTS[-4:])]),
    st.builds(lambda n: Lambda((n,), Var(n)), names),
    st.builds(lambda n: parse_expr(f"(x) => x + min-hood+(nbr{{{n}}})"),
              st.sampled_from(["1", "x", "uid()"])),
    st.builds(DefName, names),
    st.builds(Builtin, st.sampled_from(["+", "mux", "nbr-range", "Pair[l,f]", "<[f,f]"])),
)


def _compound_values(kids):
    return st.one_of(
        st.builds(lambda a, b: Data("Pair", (a, b)), kids, kids),
        st.builds(lambda a, b: Data("Cons", (a, b)), kids, kids),
        st.builds(lambda c, args: Data(c, tuple(args)), names, st.lists(kids, max_size=3)),
        st.dictionaries(ids, kids, max_size=4).map(
            lambda m: FieldVal(tuple(sorted(m)), tuple(m[d] for d in sorted(m)))),
    )


json_values = st.recursive(json_leaves, _compound_values, max_leaves=10)
tree_roots = st.recursive(json_leaves, _compound_values, max_leaves=3)
json_trees = st.recursive(
    st.builds(ValueTree, tree_roots),
    lambda kids: st.builds(ValueTree, tree_roots, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=8)


@settings(max_examples=120, deadline=None)
@given(st.lists(json_values, min_size=1, max_size=3))
def test_value_json_is_the_reference_dumped(vs):
    """Alone, and inside a value that shares its parts."""
    shared = Data("Pair", (vs[0], FieldVal((1, 2), (vs[-1], vs[0]))))
    for v in [*vs, shared]:
        assert value_json(v) == dumps(value_to_json(v))
        assert value_to_text(v) == value_text(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(json_trees, min_size=1, max_size=2))
def test_tree_json_is_the_reference_dumped(ts):
    for t in [*ts, ValueTree(ts[0].root, tuple(ts))]:
        assert tree_json(t) == dumps(tree_to_json(t))


NON_VALUES = [
    Var("x"),
    parse_expr("1 + 2"),
    parse_expr("nbr{1}"),
    parse_expr("rep(0){(x) => x}"),
    Data("Pair", (num(1), Var("y"))),
    FieldVal((1, 2), (num(1), Data("Cons", (Var("z"), NULL)))),
    3,
    None,
]


@pytest.mark.parametrize("v", NON_VALUES, ids=repr)
def test_a_non_value_raises_the_reference_error(v):
    with pytest.raises(ValueError) as want:
        value_to_json(v)
    with pytest.raises(ValueError) as got:
        value_json(v)
    assert str(got.value) == str(want.value)
    t = ValueTree(num(1), (ValueTree(TRUE), ValueTree(v)))
    with pytest.raises(ValueError) as got:
        tree_json(t)
    assert str(got.value) == str(want.value)


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def test_the_writer_recurses_one_frame_per_level():
    """A list 600 deep, and a tree 600 deep, are written within 700 frames
    of the caller's stack: the writer needs no more stack
    than the evaluator that builds them."""
    deep, tree = NULL, ValueTree(NULL)
    for i in range(600):
        deep = Data("Cons", (num(i), deep))
        tree = ValueTree(num(i), (ValueTree(TRUE), tree))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:  # the reference itself takes 2 frames a level, and json.dumps 2 more
        want_value, want_tree = dumps(value_to_json(deep)), dumps(tree_to_json(tree))
    finally:
        sys.setrecursionlimit(limit)
    sys.setrecursionlimit(_frames() + 700)
    try:
        got_value, got_tree = value_json(deep), tree_json(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert got_value == want_value
    assert got_tree == want_tree


def test_the_kept_text_of_constructors_without_arguments_stays_right():
    """The writer keeps the text of each constructor without arguments it
    writes, in a table it empties when full: past the table's size, with
    NaN, the infinities and 0 among the numbers, a field, a tree and a
    list still read as the reference writes them."""
    atoms = [num(x) for x in (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324)]
    atoms += [TRUE, FALSE, Data("Null"), Data("é")]
    atoms += [num(i / 7) for i in range(device.ATOMS_KEPT + 100)]
    for _ in range(2):
        field = FieldVal(tuple(range(len(atoms))), tuple(atoms))
        assert value_json(field) == dumps(value_to_json(field))
        tree = ValueTree(atoms[0], tuple(ValueTree(a, (leaf(a),)) for a in atoms))
        assert tree_json(tree) == dumps(tree_to_json(tree))
        for a in atoms:
            assert value_json(Data("Cons", (a, a))) == dumps(value_to_json(Data("Cons", (a, a))))
        assert len(device._ATOMS) <= device.ATOMS_KEPT


def test_a_shared_constant_leaf_equals_a_fresh_tree():
    """A compiled node makes the leaf of a closed constant or of a
    builtin's name once, and every fire shares it. It keeps its text once
    written, and compares as any tree with its root does: equal to a
    fresh ValueTree with the same root in both directions, before and
    after its text is kept and inside larger trees, and unequal to a tree
    with another root."""
    prog = parse_program("Pair(mux(uid() < 2, 0, 1), (x) => x)")
    first, second = evaluate_main(prog, 1, {}), evaluate_main(prog, 3, {})
    mux_kids = first.children[0].children
    shared = [*mux_kids[1:], first.children[1]]
    assert [type(t) for t in shared] == [device.Leaf] * 4
    assert shared[-1] is second.children[1] and mux_kids[3] is second.children[0].children[3]
    for kept in (False, True):
        if kept:  # writing the tree keeps each shared leaf's text
            assert tree_json(first) == dumps(tree_to_json(first))
        for t in shared:
            fresh = ValueTree(t.root)
            assert t == fresh and fresh == t
            assert not t != fresh and not fresh != t
            assert t != ValueTree(num(7)) and ValueTree(num(7)) != t
            assert t.text == (tree_json(fresh) if kept else None)
    want = reference_eval_expr(EvalContext(1), {}, prog.main)
    assert first == want and want == first
    assert ValueTree(first.root, (*first.children[:1], ValueTree(first.children[1].root))) == first


# what FireTrace.jsonl, FireTrace.csv and AdequacyReport.to_json write, against
# the reference records; fieldc denot's records are checked in test_cli

RECORD_PROGRAMS = [
    corpus_entry("gradient").program(),
    corpus_entry("spanning-sum").program(),
    parse_program("Pair(nbr{uid()}, (é) => é)"),
    parse_program("rep(Null){(l) => Cons(Pair(min-hood(nbr{uid()}), infinity < NaN), l)}"),
    parse_program("map-hood((x) => Pair(x, x < 2), nbr{uid() * 1e300})"),
]


@pytest.mark.parametrize("seed", range(24))
def test_output_records_are_the_reference_records(seed):
    rnd = random.Random(seed)
    prog = RECORD_PROGRAMS[seed % len(RECORD_PROGRAMS)] if seed % 3 else ExprGen(rnd).program()
    sc = gen_scenario(rnd)
    trace = run_scenario(sc, prog)
    assert trace.jsonl() == run_jsonl(trace)
    assert trace.csv() == csv_text(["t", "device", "root"], (
        [str(r.t), r.device, value_text(r.root)] for r in trace.records))
    verdicts = []
    report = check_adequacy(sc, prog, sink=verdicts.append)
    assert report.to_json([verdict_json(v) for v in verdicts]) == report_json(report, verdicts)


def test_a_failing_report_is_the_reference_record():
    verdicts = [
        Verdict(0, F(1, 3), 2 ** 53, num(math.nan), num(math.nan), True),
        Verdict(1, F(2), -2 ** 53, Lambda(("é",), Var("é")), DefName("f"), False),
        Verdict(2, F(5, 2), 7, FieldVal((1,), (TRUE,)), NULL, False),
    ]
    report = AdequacyReport()
    for v in verdicts:
        report.add(v)
    assert (report.events, report.equal, report.first_counterexample) == (3, 1, verdicts[1])
    text = report.to_json([verdict_json(v) for v in verdicts])
    assert text == report_json(report, verdicts)
    assert json.loads(text)["first_counterexample"] == 1
    assert AdequacyReport().to_json([]) == report_json(AdequacyReport(), []) == (
        '{"events":[],"first_counterexample":null,"ok":true}')


# ---------------------------------------------------------------------------
# the environment-passing evaluator against the substitution semantics

def _with_main(name, main):
    """Corpus entry name's definitions with a new main expression."""
    src = corpus_entry(name).source.rstrip()
    return parse_program(src[:src.rindex("\n")] + "\n" + main)


DIFFERENTIAL_PROGRAMS = [
    corpus_entry("gradient").program(),
    corpus_entry("spanning-sum").program(),
    parse_program("rep(0){(x) => x + 1}"),
    # closures over rep's variable, applied directly and by map/fold-hood
    parse_program("rep(0){(v) => ((w) => v + w)(1) + fold-hood((a, b) => a + b + v,"
                  " map-hood((y) => y * 2 + v, nbr{v}))}"),
    # if-thunks (closures), a def applied to a closure, data leaves built
    # from variables (gradcast's Pair(0, v))
    _with_main("deploy", "deploy(sns-range(), sns-injection-point(), sns-fun(), () => 0)"),
    # untyped: a field held by a variable in a data position, so the
    # constructor is not a leaf and its field is restricted per argument
    parse_program("def g(phi) { min-hood(snd(Pair(1, phi))) } g(nbr{uid()})"),
]


# TABLE.eval checks that a builtin's field result is aligned; on another
# program's trees (pick-hood over a field of fields) the check can fail, and
# then both evaluators raise DomainError, an EvalError
FAILURES = EvalError


def _outcome(evaluate, prog, d, env, sensors, fuel):
    """(error class, error text, fuel left, canonical tree JSON) of one
    evaluation, and the tree."""
    ctx = EvalContext(device=d, sensors=sensors, defs={x.name: x for x in prog.defs},
                      fuel=fuel)
    try:
        t = evaluate(ctx, env, prog.main)
    except FAILURES as e:
        return (type(e), str(e), ctx.fuel, None), None
    return (None, None, ctx.fuel, dumps(tree_to_json(t))), t


def test_a_misaligned_builtin_result_is_a_domain_error():
    """On another program's trees pick-hood can pick a neighbour's field,
    whose domain is not the firing device's. Both evaluators raise
    DomainError, an EvalError, and not an assertion, which python -O
    would drop."""
    stored = evaluate_main(parse_program("pick-hood(nbr{nbr{uid()}})"), 1, {}, SensorState())
    prog = parse_program("pick-hood(nbr{uid()})")
    for evaluate in (eval_expr, reference_eval_expr):
        ctx = EvalContext(device=2, sensors=SensorState(), defs={})
        with pytest.raises(DomainError, match="pick-hood produced a misaligned field"):
            evaluate(ctx, {1: stored}, prog.main)


class _Stop(Exception):
    pass


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_environment_passing_matches_substitution(seed):
    """At every fire of a generated scenario, both evaluators give the
    same tree bytes, the same fuel left and the same error class and
    text. The stored trees come from the program itself or, to reach
    misaligned environments (MalformedEnv), from another program; a small
    fuel budget reaches FuelExhausted part way through a fire."""
    rnd = random.Random(seed)
    sc = gen_scenario(rnd)

    def draw():
        if rnd.random() < 0.4:
            return rnd.choice(DIFFERENTIAL_PROGRAMS)
        return ExprGen(rnd).program(depth=rnd.randint(1, 4))

    prog = draw()
    roll = rnd.random()
    feeder = prog if roll < 0.7 else draw() if roll < 0.85 else parse_program("uid()")
    fuel = rnd.choice([10**6, 10**6, rnd.randint(1, 300)])
    compared = []

    def step(t, d, fresh, sensors):
        env = {s: m.payload for s, m in fresh.items()}
        got, tree = _outcome(eval_expr, prog, d, env, sensors, fuel)
        want, _ = _outcome(reference_eval_expr, prog, d, env, sensors, fuel)
        assert got == want, (t, d)
        err = got[0]
        compared.append(err)
        if feeder is not prog:
            ctx = EvalContext(device=d, sensors=sensors,
                              defs={x.name: x for x in feeder.defs})
            try:
                return eval_expr(ctx, env, feeder.main)
            except FAILURES:
                raise _Stop from None
        if err is not None:
            raise _Stop
        return tree

    try:
        sweep(sc, step)
    except _Stop:
        pass
    assert compared


# Three devices firing in turn: 2 moves away from 1 towards 3, and 3 is
# off during (4, 6), so its fire at 7 follows a reboot; a decay of 3 drops
# the trees of devices out of range.
FUEL_SCENARIO = Scenario(
    devices=(1, 2, 3), radius=1.5, decay=F(3),
    paths={1: (PathSeg(F(0), F(12), ((0.0, 0.0),)),),
           2: (PathSeg(F(0), F(12), ((0.0, 0.0), (4.0, 0.0))),),
           3: (PathSeg(F(0), F(4), ((2.0, 0.0),)), PathSeg(F(6), F(12), ((2.0, 0.0),)))},
    fires=tuple((F(k, 2), k % 3 + 1) for k in range(1, 22) if not 8 <= k <= 12 or k % 3 != 2),
    sensor_scripts={d: {"sns-injection-point": ((None, boolean(d == 1)),),
                        "sns-patron": ((None, boolean(d != 2)),),
                        "sns-num": ((None, num(10 * d)),)} for d in (1, 2, 3)},
)

# (program, the program whose tree with no neighbours a fire delivers where
# the first fails, the outcome besides FuelExhausted that some fire must
# reach: an error class, or None for a tree)
FUEL_PROGRAMS = [
    (corpus_entry("gradient").program(), None, None),
    (corpus_entry("spanning-sum").program(), None, None),
    # min-hood+ is infinity at a device that hears no other, so gradcast
    # fails there unless the device is a source
    (_with_main("gradcast", "gradcast(sns-injection-point(), sns-num())"),
     _with_main("gradcast", "gradcast(True, sns-num())"), None),
    # functions that builtins call (EvalContext.call)
    (parse_program("fold-hood((a, b) => a + b, map-hood((y) => y * 2, nbr{uid()}))"), None, None),
    # untyped: a field held by a variable in a data position (_value_tree)
    (parse_program("def g(phi) { min-hood(snd(Pair(1, phi))) } g(nbr{uid()})"), None, None),
    # untyped: an ArityError inside the arguments of two builtins, after
    # the neighbours' minimum is taken
    (parse_program("sum-hood+(nbr{min-hood(nbr{uid()}) + mux(uid() < 3, 1)})"),
     parse_program("sum-hood+(nbr{min-hood(nbr{uid()}) + mux(uid() < 3, 1, 2)})"), ArityError),
    # untyped: pick-hood picks a neighbour's field, a DomainError inside
    # the arguments of min-hood and + wherever the two domains differ
    (parse_program("1 + min-hood(pick-hood(nbr{nbr{uid()}}))"),
     parse_program("1 + min-hood(nbr{uid()})"), DomainError),
    # an application of a name that is no builtin, which only a program
    # built without the parser holds: an EvalError at the call
    (Program((), Apply(Builtin("no-such"), (parse_expr("min-hood(nbr{uid()})"),))),
     parse_program("1"), EvalError),
]


@pytest.mark.parametrize("prog, feeder, reached", FUEL_PROGRAMS, ids=[
    "gradient", "spanning-sum", "gradcast", "hood-calls", "field-in-data", "arity", "domain",
    "unknown"])
def test_fuel_runs_out_at_the_same_tick_as_in_the_reference(prog, feeder, reached):
    """At every fire of a small mobile scenario with a reboot, and for every
    fuel budget from 0 to one more than the fire's full cost, eval_expr
    gives what the reference gives: the error class and text, the fuel
    left and the tree bytes. Charging a tick earlier or later than the
    rules do moves the fuel left at an error, or the budget at which
    FuelExhausted comes."""
    seen = set()

    def step(t, d, fresh, sensors):
        env = {s: m.payload for s, m in fresh.items()}
        full, tree = _outcome(eval_expr, prog, d, env, sensors, DEFAULT_FUEL)
        for fuel in range(DEFAULT_FUEL - full[2] + 2):
            got, _ = _outcome(eval_expr, prog, d, env, sensors, fuel)
            want, _ = _outcome(reference_eval_expr, prog, d, env, sensors, fuel)
            assert got == want, (t, d, fuel)
            seen.add(got[0])
        return tree if tree is not None else evaluate_main(feeder, d, {}, sensors)

    sweep(FUEL_SCENARIO, step)
    assert {FuelExhausted, reached} <= seen, seen


def test_a_fire_substitutes_nothing_and_resolves_each_name_once(monkeypatch):
    """Corpus gradient on a static 4x4 grid, under check-adequacy so both
    evaluators run: no fire substitutes (the program builds no closure),
    and builtin names are resolved only where their applications are
    compiled, so resolving costs the same for 2 rounds as for 8. Each
    round compiles a fresh copy of the program."""
    counts = {"substitute": 0, "entry": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ast, "substitute", counting("substitute", ast.substitute))
    monkeypatch.setattr(TABLE, "entry", counting("entry", TABLE.entry))
    grid = {4 * i + j: (float(i), float(j)) for i in range(4) for j in range(4)}
    seen = {}
    for rounds in (2, 8):
        prog = corpus_entry("gradient").program()
        # forget the derived +[f,f], so each round resolves it anew
        monkeypatch.delitem(TABLE._entries, "+[f,f]", raising=False)
        counts.update(substitute=0, entry=0)
        fires = [(F(r * 16 + d, 16), d) for r in range(rounds) for d in grid]
        sc = static_scenario(grid, radius=1.5, decay=100, fires=fires, sensors={
            d: {"sns-injection-point": boolean(d == 0)} for d in grid})
        report = check_adequacy(sc, prog)
        assert report.ok and report.events == 16 * rounds
        seen[rounds] = dict(counts)
    assert seen[2]["substitute"] == seen[8]["substitute"] == 0
    assert seen[2]["entry"] == seen[8]["entry"] > 0


def test_each_node_is_compiled_once_per_program(monkeypatch):
    """Corpus spanning-sum on a static 4x4 grid, under check-adequacy so
    both evaluators run: each side compiles each node it evaluates once,
    so a fresh copy of the program compiles as many nodes in 2 rounds as
    in 8."""
    counts = {}

    def counting(module):
        compile_ = module._compile

        def wrapper(e):
            counts[module.__name__] += 1
            return compile_(e)
        return wrapper

    monkeypatch.setattr(device, "_compile", counting(device))
    monkeypatch.setattr(denot, "_compile", counting(denot))
    grid = {4 * i + j: (float(i), float(j)) for i in range(4) for j in range(4)}
    seen = {}
    for rounds in (2, 8):
        counts.update({device.__name__: 0, denot.__name__: 0})
        fires = [(F(r * 16 + d, 16), d) for r in range(rounds) for d in grid]
        sc = static_scenario(grid, radius=1.5, decay=100, fires=fires, sensors={
            d: {"sns-injection-point": boolean(d == 0), "sns-patron": boolean(d % 3 == 0)}
            for d in grid})
        report = check_adequacy(sc, corpus_entry("spanning-sum").program())
        assert report.ok and report.events == 16 * rounds
        seen[rounds] = dict(counts)
    assert seen[2] == seen[8]
    assert all(n > 0 for n in seen[2].values())


def test_a_growing_rep_state_is_checked_in_constant_steps_per_fire(monkeypatch):
    """rep(Null){(l) => Cons(1, l)} on one device: the state grows by one
    constructor per fire, and whether a node is a local value is kept on
    it, so a fire checks as many nodes at 200 fires as at 100 (a walk of
    the whole state makes them grow with the fire count)."""
    calls = 0
    check = ast.is_local_value

    def counting(e):
        nonlocal calls
        calls += 1
        return check(e)

    monkeypatch.setattr(ast, "is_local_value", counting)
    monkeypatch.setattr(device, "is_local_value", counting)
    prog = parse_program("rep(Null){(l) => Cons(1, l)}")
    per_fire = {}
    for n in (100, 200):
        calls = 0
        sc = static_scenario({1: (0, 0)}, radius=1, decay=1000,
                             fires=[(t, 1) for t in range(n)], until=n)
        assert len(run_scenario(sc, prog).records) == n
        per_fire[n] = calls / n
    assert 0 < per_fire[200] <= 1.01 * per_fire[100], per_fire


def _fields_in(v):
    """The field values in value v, v included."""
    if isinstance(v, FieldVal):
        yield v
        for x in v.vals:
            yield from _fields_in(x)
    elif isinstance(v, Data):
        for a in v.args:
            yield from _fields_in(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_field_is_built_in_domain_order(seed):
    """On a generated scenario, every field in a fire's value-tree and in
    an event's denotation lists its devices in strictly increasing order,
    and every field either evaluator builds equals the field the sorting
    reference (mkfield) makes of the same pairs: equal, with equal hashes
    and equal JSON bytes."""
    rnd = random.Random(seed)
    sc = gen_scenario(rnd)
    if rnd.random() < 0.4:
        prog = rnd.choice(DIFFERENTIAL_PROGRAMS[:4])
    else:
        T = rnd.choice([FieldT(NUM), FieldT(BOOL), NUM, BOOL])
        prog = Program((), ExprGen(rnd).expr(T, {}, rnd.randint(1, 4)))
    built = []
    init = FieldVal.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(FieldVal, "__init__", recording):
        trace = run_scenario(sc, prog)
        denots = denot_program(build_dag_from_scenario(sc), prog)
    seen = []
    for rec in trace.records:
        stack = [rec.tree]
        while stack:
            t = stack.pop()
            seen.extend(_fields_in(t.root))
            stack.extend(t.children)
    for v in denots.values():
        seen.extend(_fields_in(v))
    for phi in seen:
        assert all(a < b for a, b in zip(phi.devs, phi.devs[1:])), phi
    for phi in built:
        ref = mkfield(zip(phi.devs, phi.vals))
        assert phi == ref and hash(phi) == hash(ref), phi
        assert dumps(value_to_json(phi)) == dumps(value_to_json(ref))


def _float_ctors(v):
    """The float constructors in value v: in its data, its fields and the
    bodies of its closures."""
    if isinstance(v, FieldVal):
        for x in v.vals:
            yield from _float_ctors(x)
        return
    if isinstance(v, Data) and isinstance(v.ctor, float):
        yield v.ctor
    for c, _ in ast.children(v):
        yield from _float_ctors(c)


# programs whose values reach NaN and negative zero
SIGNED_ZERO_AND_NAN = [
    parse_program("Pair(0 * -1, NaN + 1)"),
    parse_program("min-hood+(nbr{1}) - min-hood+(nbr{uid()})"),
    parse_program("rep(-0){(x) => x * -1 + 0 * mux(x < 1, NaN, -1)}"),
]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_numeral_a_run_builds_is_canonical(seed):
    """On a generated scenario, every float constructor in every fire's
    value-tree and every event's denotation is canonical: each NaN is
    ast.NAN, and no zero is negative."""
    rnd = random.Random(seed)
    sc = gen_scenario(rnd)
    if rnd.random() < 0.3:
        prog = rnd.choice(SIGNED_ZERO_AND_NAN)
    else:
        prog = ExprGen(rnd).program(depth=rnd.randint(1, 4))
    values = []
    for rec in run_scenario(sc, prog).records:
        stack = [rec.tree]
        while stack:
            t = stack.pop()
            values.append(t.root)
            stack.extend(t.children)
    values.extend(denot_program(build_dag_from_scenario(sc), prog).values())
    for v in values:
        for c in _float_ctors(v):
            assert c is ast.NAN if c != c else c != 0 or math.copysign(1, c) == 1, v


def _aligned_children(e, t, defs) -> int:
    """Over the whole tree t of e, the children evaluated that are neither
    closed constants nor variables holding a local value."""
    if isinstance(e, Apply):
        kids = [*e.args, e.fn]
        if len(t.children) > len(kids):
            f = t.children[len(e.args)].root
            kids.append(f.body if isinstance(f, Lambda) else defs[f.name].body)
    elif isinstance(e, Data):
        kids = list(e.args)
    elif isinstance(e, Nbr):
        kids = [e.body]
    elif isinstance(e, Rep):
        kids = [e.init, e.body]
    else:
        kids = []
    n = 0
    for c, sub in zip(kids, t.children):
        if is_local_value(c) or isinstance(c, Var) and is_local_value(sub.root):
            continue
        n += 1 + _aligned_children(c, sub, defs)
    return n


def test_constant_children_align_no_environment(monkeypatch):
    """Corpus spanning-sum on a static 4x4 grid: a fire runs a compiled
    node closure, against an aligned environment, once for its main and
    once for each child evaluated that is neither a closed constant nor a
    variable holding a local value, and for none of those, so the count
    per fire is fixed by the program and is the same for 2 rounds as for
    8. Every closure is counted by wrapping what _compile makes, on a
    fresh copy of the program."""
    aligned = [0]

    def counting(compile_):
        def wrapper(e):
            run = compile_(e)

            def counted(ctx, A, X):
                aligned[0] += 1
                return run(ctx, A, X)
            return counted
        return wrapper

    monkeypatch.setattr(device, "_compile", counting(device._compile))
    prog = corpus_entry("spanning-sum").program()
    defs = {d.name: d for d in prog.defs}
    grid = {4 * i + j: (float(i), float(j)) for i in range(4) for j in range(4)}
    seen = {}
    for rounds in (2, 8):
        fires = [(F(r * 16 + d, 16), d) for r in range(rounds) for d in grid]
        sc = static_scenario(grid, radius=1.5, decay=100, fires=fires, sensors={
            d: {"sns-injection-point": boolean(d == 0), "sns-patron": boolean(d % 3 == 0)}
            for d in grid})
        counts = []

        def step(t, d, fresh, sensors):
            aligned[0] = 0
            tree = fire(prog, d, t, {s: m.payload for s, m in fresh.items()}, sensors)
            counts.append((aligned[0], 1 + _aligned_children(prog.main, tree, defs)))
            return tree

        sweep(sc, step)
        assert len(counts) == 16 * rounds
        assert all(a == b for a, b in counts), counts
        seen[rounds] = {a for a, _ in counts}
    assert len(seen[2]) == 1 and seen[2] == seen[8]
