import dataclasses
import gc
import importlib
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcalc.ast import (
    FALSE,
    INF,
    NAN,
    TRUE,
    Apply,
    Builtin,
    Data,
    DefName,
    FieldVal,
    Lambda,
    Nbr,
    Rep,
    Span,
    Var,
    as_bool,
    boolean,
    canon_num,
    desugar_if,
    free_vars,
    is_local_value,
    is_num,
    is_value,
    num,
    substitute,
    subexpressions,
    value_of,
)
from fieldcalc.builtins import value_equal
from fieldcalc.parser import parse_expr
from fieldcalc.typer import FieldT
from generators import ExprGen
import helpers
from helpers import BOOL, NUM, mkfield


def test_num_canonicalisation():
    assert canon_num(-0.0) == 0.0 and math.copysign(1, canon_num(-0.0)) == 1.0
    assert math.isnan(canon_num(float("nan")))
    assert num(3) == num(3.0)
    assert num(float("nan")) == num(float("nan"))  # structural identity for alignment
    assert num(0.0) == num(-0.0)
    assert num(1) != num(2)
    assert hash(num(float("nan"))) == hash(num(float("nan")))


def test_a_numeral_never_equals_another_constructor():
    for c in ("1", "1.0", "True", "False", "nan", "Pair"):
        assert num(1) != Data(c) and Data(c) != num(1)
    assert num(float("nan")) != Data("nan") and num(INF) != Data("inf")
    assert num(1) != TRUE and num(0) != FALSE
    assert Data("Pair", (num(1),)) != Data("Pair", (Data("1"),))


def test_value_equal_stays_ieee_where_data_equality_is_structural():
    nan = num(float("nan"))
    assert nan == num(float("nan"))  # one NaN, for alignment and map keys
    assert not value_equal(nan, num(float("nan")))  # the builtin `=`
    assert not value_equal(Data("Pair", (nan,)), Data("Pair", (nan,)))
    assert value_equal(num(0.0), num(-0.0)) and value_equal(num(INF), num(INF))


def test_spans_do_not_affect_equality():
    a = Var("x", span=Span(1, 1))
    b = Var("x", span=Span(9, 9))
    assert a == b
    assert hash(a) == hash(b)
    d1 = Data("Pair", (num(1), num(2)), span=Span(3, 3))
    d2 = Data("Pair", (num(1), num(2)))
    assert d1 == d2 and hash(d1) == hash(d2)


def test_values_built_by_hand_stay_frozen_and_ignore_spans():
    """Data and FieldVal have hand-written constructors and keep what the
    dataclass gives them: no field can be set or deleted, a span changes
    neither equality, hash nor repr, and keywords name the fields."""
    d = Data("Pair", (num(1), num(-0.0)))
    phi = FieldVal((1, 2), (num(4), TRUE))
    for v in (d, phi):
        for name in (*v.__dataclass_fields__, "span"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(v, name)
    sp = Span(3, 4)
    for v, w in ((d, Data("Pair", d.args, span=sp)),
                 (phi, FieldVal(phi.devs, phi.vals, span=sp)),
                 (num(2), Data(2.0, span=sp))):
        assert w.span is sp and v.span is None
        assert v == w and w == v and hash(v) == hash(w) and repr(v) == repr(w)
    assert Data(ctor="Pair", args=d.args) == d
    assert FieldVal(devs=phi.devs, vals=phi.vals) == phi
    assert dataclasses.replace(d, span=sp) == d


def test_numerals_are_canonical_where_they_are_made():
    """num and the parser's numeral are the only places a float
    constructor is made: every NaN is ast.NAN and no zero is negative."""
    for v in (num(-0.0), num(0), parse_expr("-0"), parse_expr("-0.0e3")):
        assert v.ctor == 0.0 and math.copysign(1, v.ctor) == 1.0
    for v in (num(float("nan")), num(INF - INF), parse_expr("NaN")):
        assert v.ctor is NAN
    assert parse_expr("-infinity").ctor == -INF and parse_expr("3").ctor == 3.0


def test_field_entries_sorted_and_equal():
    f1 = mkfield(((2, num(5)), (1, num(4))))
    f2 = FieldVal((1, 2), (num(4), num(5)))
    assert f1.entries == ((1, num(4)), (2, num(5)))
    assert f1 == f2
    assert f1.devs == (1, 2)


def test_value_predicates():
    assert is_value(num(3))
    assert is_value(TRUE) and as_bool(TRUE) and not as_bool(FALSE)
    assert is_value(Data("Pair", (num(1), FALSE)))
    assert not is_value(Data("Pair", (Var("x"), num(1))))
    assert is_value(Lambda((), num(0)))
    assert not is_value(Lambda((), Var("y")))
    assert is_value(Builtin("min-hood")) and is_value(DefName("f"))
    assert is_value(mkfield({1: num(0)}))
    assert not is_value(Nbr(num(0)))
    assert is_local_value(num(1)) and not is_local_value(mkfield({1: num(0)}))
    assert boolean(True) == TRUE


def test_free_vars():
    e = Lambda(("x",), Apply(Var("x"), (Var("y"),)))
    assert free_vars(e) == {"y"}
    r = Rep(Var("a"), "x", Apply(Builtin("+"), (Var("x"), Var("b"))))
    assert free_vars(r) == {"a", "b"}
    assert free_vars(Nbr(Var("z"))) == {"z"}


def test_substitute_respects_binders():
    body = Apply(Builtin("+"), (Var("x"), Var("y")))
    lam = Lambda(("x",), body)
    out = substitute(lam, {"x": num(1), "y": num(2)})
    assert out == Lambda(("x",), Apply(Builtin("+"), (Var("x"), num(2))))
    r = Rep(Var("x"), "x", Var("x"))
    assert substitute(r, {"x": num(7)}) == Rep(num(7), "x", Var("x"))


LOCAL_VALUES = [num(0), num(-1), TRUE, Builtin("+"), DefName("f"), Lambda(("y",), Var("y")),
                Data("Pair", (num(1), Lambda((), num(2))))]
FIELDS = [mkfield({1: num(0), 2: num(3)}), mkfield({1: TRUE}),
          Data("Pair", (num(1), mkfield({1: num(1)})))]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_of_is_substitution_to_a_local_value(seed):
    """Over each subexpression of a generated program and an X that leaves
    each free variable unbound or binds it to a local value or to a field
    (or data holding one): value_of(e, X) is substitute(e, X) when that is
    a local value by the references' own walk, and None otherwise."""
    rnd = random.Random(seed)
    T = rnd.choice([NUM, NUM, BOOL, FieldT(NUM), FieldT(BOOL)])
    main = ExprGen(rnd).expr(T, {}, rnd.randint(1, 4))
    for e in subexpressions(main):
        if any(isinstance(s, FieldVal) for s in subexpressions(e)):
            continue
        X = {}
        for v in helpers.free_vars(e):
            roll = rnd.random()
            if roll < 0.6:
                X[v] = rnd.choice(LOCAL_VALUES)
            elif roll < 0.85:
                X[v] = rnd.choice(FIELDS)
        want = substitute(e, X)
        got = value_of(e, X)
        if helpers.is_local_value(want):
            assert got == want, (e, X)
        else:
            assert got is None, (e, X, got)


def test_desugar_if_shape():
    e = desugar_if(Var("g"), num(1), num(2))
    # mux(g, ()=>snd(Pair(True,1)), ()=>snd(Pair(False,2)))()
    assert isinstance(e, Apply) and e.args == ()
    call = e.fn
    assert isinstance(call, Apply) and call.fn == Builtin("mux")
    g, thunk_t, thunk_f = call.args
    assert g == Var("g")
    assert thunk_t == Lambda((), Apply(Builtin("snd"), (Data("Pair", (TRUE, num(1))),)))
    assert thunk_f == Lambda((), Apply(Builtin("snd"), (Data("Pair", (FALSE, num(2))),)))
    assert thunk_t != thunk_f  # distinct function values: branches never align


def test_subexpressions_and_uses_builtin():
    e = Apply(Builtin("min-hood"), (Nbr(Apply(Builtin("sns-num"), ())),))
    subs = list(subexpressions(e))
    assert Builtin("sns-num") in subs and Nbr(Apply(Builtin("sns-num"), ())) in subs
    assert not any(isinstance(s, Builtin) and s.name == "uid" for s in subs)


def _fieldcalc_modules():
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "fieldcalc"}


def _import_fresh():
    for name in _fieldcalc_modules():
        del sys.modules[name]
    return importlib.import_module("fieldcalc.ast"), importlib.import_module("fieldcalc.typer")


def test_a_fresh_import_lets_the_old_modules_go():
    # nothing at module level (typing's cache of Unions, for one) may keep
    # a package class, and with it its module, alive after a re-import
    saved = _fieldcalc_modules()
    try:
        ast1, typer1 = _import_fresh()
        refs = [weakref.ref(ast1.Var), weakref.ref(typer1.TVar)]
        del ast1, typer1
        _import_fresh()
        gc.collect()
        assert [r() for r in refs] == [None, None]
    finally:
        for name in _fieldcalc_modules():
            del sys.modules[name]
        sys.modules.update(saved)
