import gc
import importlib
import math
import random
import sys
import weakref
from fractions import Fraction as F

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
    Def,
    DefName,
    FieldVal,
    Lambda,
    Nbr,
    Program,
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
    value_of,
)
from fieldcalc.builtins import BuiltinEntry, SensorState, value_equal
from fieldcalc.denot import AdequacyReport, Denoted, Event, Verdict, Violation
from fieldcalc.device import EvalContext, ValueTree
from fieldcalc.network import FireRecord, FireTrace, PathSeg, Scenario, Stored
from fieldcalc.parser import Token, parse_expr
from fieldcalc.stdlib import CorpusEntry
from fieldcalc.typer import Arrow, Base, FieldT, Scheme, TCon, TVar
from generators import ExprGen
import helpers
from helpers import BOOL, NUM, mkfield, subexpressions


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


def test_data_equality_walks_deep_data_without_recursion():
    """Data's equality means the generated one (same class, constructor
    and arguments) on data 5,000 deep; equal values hash equal; and a pair
    of another class inside, or on the other side, compares by its own ==."""
    def cons_list(xs, end=Data("Null")):
        for x in reversed(xs):
            end = Data("Cons", (x, end))
        return end

    xs = [num(i) for i in range(5000)]
    assert cons_list(xs) == cons_list(xs) and not cons_list(xs) != cons_list(xs)
    assert cons_list(xs) != cons_list(xs[:-1] + [num(-1)])
    assert cons_list(xs) != cons_list(xs[:-1])
    assert cons_list([num(NAN)] * 3) == cons_list([num(NAN)] * 3)
    f, g = Lambda(("x",), Var("x")), Lambda(("x",), Var("x"))
    assert cons_list(xs, f) == cons_list(xs, g) and cons_list(xs, f) != cons_list(xs, TRUE)
    for v, w in ((Data("Pair", (num(1), Var("x"))), Data("Pair", (num(1), Var("x")))),
                 (Data("Cons", (num(NAN), Data("Null"))), Data("Cons", (num(NAN), Data("Null")))),
                 (cons_list(xs[:50]), cons_list(xs[:50]))):
        assert v is not w and v == w and hash(v) == hash(w)
    long = cons_list(xs)
    try:  # pytest takes minutes to print a RecursionError from frames this deep
        hashes = {hash(long), hash(cons_list(xs)), hash(long), hash(("Cons", long.args))}
    except RecursionError:
        hashes = None
    assert hashes is not None and len(hashes) == 1  # equal lists and the field tuple
    mixed = (Data("Pair", (num(1), Var("x"))), Data("Pair", (num(1), num(0))))
    assert mixed[0] != mixed[1] and mixed[1] != mixed[0]
    assert num(1) != 1.0 and 1.0 != num(1) and num(1).__eq__(1.0) is NotImplemented
    assert Data("Pair", (num(1), f)) != f and f != Data("Pair", (num(1), f))


_X = Var("x")
_FIRE = F(1, 2)
_SCHEME = Scheme((), NUM)
# (class, keywords naming every field) of each frozen record, one each
FROZEN_RECORDS = [
    (Span, dict(line=3, col=4)),
    (Var, dict(name="x")),
    (Builtin, dict(name="+")),
    (DefName, dict(name="f")),
    (Data, dict(ctor="Pair", args=(num(1), num(-0.0)))),
    (Lambda, dict(params=("x",), body=_X)),
    (Apply, dict(fn=Builtin("+"), args=(_X, num(1)))),
    (Rep, dict(init=num(0), var="x", body=_X)),
    (Nbr, dict(body=_X)),
    (FieldVal, dict(devs=(1, 2), vals=(num(4), TRUE))),
    (Def, dict(name="f", params=("x",), body=_X)),
    (Program, dict(defs=(), main=num(1))),
    (Base, dict(name="num")),
    (TCon, dict(name="pair", args=(NUM, NUM))),
    (FieldT, dict(inner=NUM)),
    (Arrow, dict(args=(NUM,), res=NUM)),
    (TVar, dict(vid=7)),
    (Scheme, dict(qvars=(), body=NUM)),
    (SensorState, dict(local={}, nbr={})),
    (BuiltinEntry, dict(name="+", scheme=_SCHEME, op=None, least=2, most=2, loop=None)),
    (Token, dict(kind="name", text="x", span=Span(1, 1), value=0.0)),
    (CorpusEntry, dict(name="one", source="1", declared_type=_SCHEME)),
    (PathSeg, dict(start=F(0), end=F(1), waypoints=((0, 0),))),
    (Scenario, dict(devices=(1,), radius=1.0, decay=F(1), paths={}, fires=((_FIRE, 1),),
                    sensor_scripts={})),
    (FireRecord, dict(t=_FIRE, device=1, root=num(1), tree=ValueTree(num(1)), heard=())),
    (Event, dict(id=1, device=2, time=_FIRE)),
    (Violation, dict(kind="cycle", events=(1, 2))),
    (Verdict, dict(event=1, t=_FIRE, device=2, denotational=num(1), operational=num(1),
                   ok=True)),
]
# the records whose constructor takes a span that no comparison sees
SPAN_IGNORED = (Var, Builtin, DefName, Data, Lambda, Apply, Rep, Nbr, FieldVal, Def)
# (class, keywords) of each record that can change: equal by fields, unhashable
MUTABLE_RECORDS = [
    (EvalContext, dict(device=1, sensors=SensorState(), defs={}, fuel=5, rng=None, domain=(1,))),
    (Stored, dict(payload=3, tag=_FIRE, tick=1)),
    (FireTrace, dict(records=[])),
    (AdequacyReport, dict(events=0, equal=0, first_counterexample=None)),
]


def test_values_built_by_hand_stay_frozen_and_ignore_spans():
    """Each frozen record keeps what a frozen dataclass gave it: keywords
    name the fields; setting or deleting any field, or the span, raises
    AttributeError; == and repr see the fields; the hash is the hash of
    the field tuple (an event's is its id's); and a span that is no field
    changes neither ==, hash nor repr."""
    sp = Span(3, 4)
    for cls, kw in FROZEN_RECORDS:
        v, w = cls(**kw), cls(*kw.values())
        assert all(getattr(v, k) == x for k, x in kw.items())
        for name in (*kw, "span"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert all(getattr(v, k) == x for k, x in kw.items())
        assert v == w and not v != w and v != object()
        if cls is FieldVal:
            assert repr(v) == f"FieldVal(entries={v.entries!r})"
        else:
            assert repr(v) == f"{cls.__name__}({', '.join(f'{k}={x!r}' for k, x in kw.items())})"
        if cls is Event:
            assert hash(v) == hash(v.id)
        elif cls not in (SensorState, Scenario, FireRecord):  # a dict or tree field: unhashable
            assert hash(v) == hash(w) == hash(tuple(kw.values()))
        if cls in SPAN_IGNORED:
            s = cls(**kw, span=sp)
            assert s.span is sp and v.span is None
            assert v == s and s == v and hash(v) == hash(s) and repr(v) == repr(s)


def test_mutable_records_compare_by_fields_and_are_unhashable():
    for cls, kw in MUTABLE_RECORDS:
        v, w = cls(**kw), cls(*kw.values())
        assert v == w
        assert repr(v) == f"{cls.__name__}({', '.join(f'{k}={x!r}' for k, x in kw.items())})"
        with pytest.raises(TypeError):
            hash(v)
        first = next(iter(kw))
        setattr(w, first, None)
        assert getattr(w, first) is None and v != w


def test_default_fields_are_new_each_time():
    """A field whose dataclass default was a factory is a new object in
    each record built without it."""
    assert SensorState().local == {} and SensorState().local is not SensorState().local
    assert EvalContext(1).defs is not EvalContext(1).defs
    assert EvalContext(1).sensors == SensorState() and EvalContext(1).domain == ()
    assert FireTrace().records == [] and FireTrace().records is not FireTrace().records
    assert AdequacyReport() == AdequacyReport(0, 0, None)
    assert Denoted(0, 1).scopes == {} and Denoted(0, 1).scopes is not Denoted(0, 1).scopes
    sc = Scenario((1,), 1, 0, {}, ())
    assert sc.sensor_scripts == {} and sc.radius == 1.0 and sc.decay == F(0)
    assert Token("eof", "", Span(1, 1)).value == 0.0
    assert BuiltinEntry("+", _SCHEME, None, 2, 2).loop is None


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
