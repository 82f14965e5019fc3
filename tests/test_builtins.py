"""Operational semantics of the builtin table."""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldcalc.ast import (
    FALSE,
    INF,
    NAN,
    TRUE,
    Builtin,
    Data,
    DefName,
    FieldVal,
    Lambda,
    Var,
    boolean,
    num,
)
from fieldcalc.builtins import (
    MAP_HOOD_MAX_ARITY,
    TABLE,
    ArityError,
    DomainError,
    EvalError,
    SensorError,
    SensorState,
    _order_key,
    ctor_scheme,
    value_equal,
)
from fieldcalc.device import EvalContext
from fieldcalc.typer import parse_scheme, scheme_eq
from helpers import (
    cmp_values,
    mkfield,
    reference_decorated,
    reference_min_value,
    value_to_json,
)

NOSENSE = SensorState()


def fld(m):
    return mkfield({
        d: num(v) if isinstance(v, (int, float)) else v for d, v in m.items()
    })


def ev(name, args, device=1, env_domain=(), sensors=NOSENSE, call=None, rng=None):
    ctx = EvalContext(device=device, sensors=sensors, rng=rng,
                      domain=tuple(sorted({*env_domain, device})))
    if call is not None:
        ctx.call = call
    return TABLE.eval(name, ctx, args)


def table_call(fn, args, device=1, env_domain=()):
    # minimal applier for builtin function values, enough for the hoods
    return ev(fn.name, args, device, env_domain)


# ---------------------------------------------------------------------------
# plain operators

def test_add_mul_sub():
    assert ev("+", [num(1), num(2)]) == num(3)
    assert ev("*", [num(4), num(2.5)]) == num(10)
    assert ev("-", [num(1), num(3)]) == num(-2)


def test_and():
    assert ev("and", [boolean(True), boolean(False)]) == boolean(False)
    assert ev("and", [boolean(True), boolean(True)]) == boolean(True)


def test_mux_picks_a_branch():
    assert ev("mux", [boolean(True), num(1), num(0)]) == num(1)
    assert ev("mux", [boolean(False), num(1), num(0)]) == num(0)


@pytest.mark.parametrize("name, args", [
    ("mux", [num(-1), num(1), num(0)]),
    ("mux", [Builtin("uid"), num(1), num(0)]),
    ("and", [boolean(True), num(0)]),
])
def test_a_non_boolean_condition_is_an_eval_error(name, args):
    # a sensor can feed any value to a boolean position
    with pytest.raises(EvalError, match=f"{name} expects a boolean"):
        ev(name, args)


def test_pair_selectors_and_list_ops():
    p = Data("Pair", (num(1), boolean(True)))
    assert ev("fst", [p]) == num(1)
    assert ev("snd", [p]) == boolean(True)
    lst = Data("Cons", (num(7), Data("Null")))
    assert ev("head", [lst]) == num(7)
    assert ev("tail", [lst]) == Data("Null")
    with pytest.raises(EvalError):
        ev("head", [Data("Null")])
    with pytest.raises(EvalError):
        ev("fst", [num(1)])


def test_lt_is_ieee_on_numbers():
    assert ev("<", [num(1), num(2)]) == boolean(True)
    assert ev("<", [num(NAN), num(2)]) == boolean(False)
    assert ev("<", [num(2), num(NAN)]) == boolean(False)
    assert ev("<", [boolean(False), boolean(True)]) == boolean(True)
    with pytest.raises(EvalError):
        ev("<", [Builtin("+"), Builtin("+")])


# ---------------------------------------------------------------------------
# equality

def test_eq_numbers_follow_ieee():
    assert ev("=", [num(3), num(3.0)]) == boolean(True)
    assert ev("=", [num(NAN), num(NAN)]) == boolean(False)
    assert ev("=", [num(0.0), num(-0.0)]) == boolean(True)


def test_eq_structural_on_data():
    a = Data("Pair", (num(1), Data("Cons", (num(2), Data("Null")))))
    b = Data("Pair", (num(1), Data("Cons", (num(2), Data("Null")))))
    assert ev("=", [a, b]) == boolean(True)
    assert ev("=", [a, Data("Pair", (num(1), Data("Null")))]) == boolean(False)


def test_eq_syntactic_on_functions():
    id1 = Lambda(("x",), Var("x"))
    id2 = Lambda(("x",), Var("x"))
    idy = Lambda(("y",), Var("y"))
    assert value_equal(id1, id2)
    assert not value_equal(id1, idy)  # alpha-variants are different texts
    assert value_equal(Builtin("+"), Builtin("+"))
    assert not value_equal(Builtin("+"), Builtin("-"))


def test_eq_pointwise_on_fields():
    a = fld({1: 1, 2: 2})
    assert ev("=", [a, fld({1: 1, 2: 2})], env_domain={2}) == boolean(True)
    assert ev("=", [a, fld({1: 1, 2: 3})], env_domain={2}) == boolean(False)


# ---------------------------------------------------------------------------
# the value order behind min-hood

def test_order_on_numbers_puts_nan_last():
    assert cmp_values(num(1), num(2)) < 0
    assert cmp_values(num(NAN), num(INF)) > 0
    assert cmp_values(num(NAN), num(NAN)) == 0
    assert cmp_values(num(-INF), num(0)) < 0


def test_order_on_data_is_lexicographic():
    assert cmp_values(boolean(False), boolean(True)) < 0
    assert cmp_values(Data("Null"), Data("Cons", (num(0), Data("Null")))) < 0
    a = Data("Pair", (num(0), num(99)))
    b = Data("Pair", (num(1), num(0)))
    assert cmp_values(a, b) < 0


def test_functions_have_no_order():
    with pytest.raises(EvalError):
        cmp_values(Builtin("+"), Builtin("-"))


def test_order_keys_compare_lazily():
    f, g = Builtin("+"), Builtin("-")
    assert _order_key(Data("Pair", (num(1), f))) < _order_key(Data("Pair", (num(2), g)))
    # the same function object on both sides still refuses to be ordered
    with pytest.raises(EvalError, match="function type"):
        _order_key(Data("Pair", (f, num(1)))) < _order_key(Data("Pair", (f, num(2))))


def counting_list(first: float, n: int) -> Data:
    """Cons(first, Cons(first - 1, ...)), n long."""
    v = Data("Null")
    for x in range(int(first) - n + 1, int(first) + 1):
        v = Data("Cons", (num(x), v))
    return v


def test_long_lists_whose_heads_differ_order_at_their_heads():
    # 5,000 nested Cons each: a key made whole would recurse past Python's limit
    a, b = counting_list(7, 5000), counting_list(3, 5000)
    assert ev("min-hood", [mkfield({1: a, 2: b})], env_domain=(2,)) is b
    assert ev("<", [b, a]) == boolean(True)
    assert ev("<", [a, b]) == boolean(False)
    # a prefix of b comes first, as Null comes before Cons
    assert ev("<", [counting_list(3, 10), b]) == boolean(True)


# the leaves come from one small pool, so the same function or field
# object often meets itself at the same position on both sides
ORDER_LEAVES = [num(0), num(1), num(-1), num(INF), num(-INF), num(NAN), TRUE, FALSE,
                Data("True"), Data("Null"), Builtin("+"), Lambda(("x",), Var("x")),
                DefName("f"), mkfield({1: num(0)}), mkfield({1: num(0), 2: num(1)})]


def ordered_value(rnd: random.Random, depth: int = 3):
    """A leaf, or data nested up to depth deep."""
    if depth and rnd.random() < 0.5:
        return Data(rnd.choice(["Pair", "Cons"]),
                    (ordered_value(rnd, depth - 1), ordered_value(rnd, depth - 1)))
    return rnd.choice(ORDER_LEAVES)


def outcome(thunk):
    """thunk's value, or the type and text of the error it raises."""
    try:
        return "value", thunk()
    except Exception as e:
        return type(e), str(e)


def _sign(c: int) -> int:
    return (c > 0) - (c < 0)


def _key_sign(a, b) -> int:
    ka, kb = _order_key(a), _order_key(b)
    return (ka > kb) - (ka < kb)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_order_key_is_the_value_order(seed):
    """Over 2,000 pairs: the key order has cmp_values's sign and error
    text, < on non-numbers follows it, and min-hood returns the first
    least value or raises as the pairwise reference does."""
    rnd = random.Random(seed)
    pairs = [(ordered_value(rnd), ordered_value(rnd)) for _ in range(10)]
    for a, b in pairs:
        assert outcome(lambda: _key_sign(a, b)) == outcome(lambda: _sign(cmp_values(a, b)))
        if FieldVal not in (type(a), type(b)) and not (
                type(a) is Data and isinstance(a.ctor, float)
                and type(b) is Data and isinstance(b.ctor, float)):
            # < on two numbers is IEEE; a field argument is checked for its domain
            assert outcome(lambda: ev("<", [a, b])) == \
                outcome(lambda: boolean(cmp_values(a, b) < 0))
    for vals in [*pairs, [v for p in pairs for v in p]]:
        phi = FieldVal(tuple(range(1, len(vals) + 1)), tuple(vals))
        got = outcome(lambda: ev("min-hood", [phi], env_domain=phi.devs))
        want = outcome(lambda: reference_min_value(vals))
        assert got[0] == want[0]
        assert got[1] is want[1] if got[0] == "value" else got == want


# ---------------------------------------------------------------------------
# hood aggregators

def test_min_hood_singleton():
    assert ev("min-hood", [fld({1: 1})]) == num(1)


def test_min_hood_includes_self_and_orders_pairs_lexicographically():
    phi = fld({1: Data("Pair", (num(1), num(9))), 2: Data("Pair", (num(0), num(99)))})
    assert ev("min-hood", [phi], env_domain={2}) == Data("Pair", (num(0), num(99)))


def test_min_hood_of_functions_is_an_error():
    with pytest.raises(EvalError):
        ev("min-hood", [mkfield({1: Builtin("+"), 2: Builtin("-")})], env_domain={2})


def test_min_hood_plus_excludes_self():
    phi = fld({1: 0, 2: 5, 3: 7})
    assert ev("min-hood+", [phi], env_domain={2, 3}) == num(5)
    # isolated device: neutral element of min
    assert ev("min-hood+", [fld({1: 0})]) == num(INF)


def test_sum_hood_plus_excludes_self():
    phi = fld({1: 100, 2: 5, 3: 7})
    assert ev("sum-hood+", [phi], env_domain={2, 3}) == num(12)
    assert ev("sum-hood+", [fld({1: 100})]) == num(0)


def test_pick_hood_defaults_to_least_device():
    phi = fld({3: 30, 5: 50})
    assert ev("pick-hood", [phi], device=3, env_domain={5}) == num(30)


def test_pick_hood_with_a_seed_is_reproducible():
    phi = fld({3: 30, 5: 50})
    a = ev("pick-hood", [phi], device=3, env_domain={5}, rng=random.Random(7))
    b = ev("pick-hood", [phi], device=3, env_domain={5}, rng=random.Random(7))
    assert a == b
    assert a in (num(30), num(50))


def test_fold_hood_folds_in_ascending_device_order():
    phi = fld({1: 10, 2: 3, 3: 2})
    out = ev("fold-hood", [Builtin("-"), phi], env_domain={2, 3}, call=table_call)
    assert out == num(5)  # (10 - 3) - 2


def test_map_hood_applies_pointwise():
    phi = fld({1: Data("Pair", (num(1), num(2))), 2: Data("Pair", (num(3), num(4)))})
    out = ev("map-hood", [Builtin("fst"), phi], env_domain={2}, call=table_call)
    assert out == fld({1: 1, 2: 3})


def test_map_hood_binary_matches_decorated_add():
    a, b = fld({1: 2, 2: 3}), fld({1: 10, 2: 20})
    via_map = ev("map-hood", [Builtin("+"), a, b], env_domain={2}, call=table_call)
    via_deco = ev("+[f,f]", [a, b], env_domain={2})
    assert via_map == via_deco == fld({1: 12, 2: 23})


# ---------------------------------------------------------------------------
# decorated operators

def test_pointwise_add():
    out = ev("+[f,f]", [fld({1: 2, 2: 3}), fld({1: 10, 2: 20})], env_domain={2})
    assert out == fld({1: 12, 2: 23})
    assert out.devs == (1, 2)


def test_pointwise_lt_broadcasts_the_local_side():
    out = ev("<[f,l]", [fld({1: 5, 2: 0}), num(3)], env_domain={2})
    assert out == mkfield({1: boolean(False), 2: boolean(True)})


def test_pointwise_mux_broadcasts_the_local_side():
    guard = mkfield({1: boolean(True), 2: boolean(False)})
    out = ev("mux[f,f,l]", [guard, fld({1: 7, 2: 8}), num(0)], env_domain={2})
    assert out == fld({1: 7, 2: 0})


def test_pointwise_eq_never_matches_nan_markers():
    # the no-parent marker: NaN entries compare unequal to every id
    phi = fld({1: NAN, 2: 2})
    out = ev("=[f,l]", [phi, num(2)], env_domain={2})
    assert out == mkfield({1: boolean(False), 2: boolean(True)})


def test_pointwise_pair_with_local_first():
    out = ev("Pair[l,f]", [num(9), fld({1: 1, 2: 2})], env_domain={2})
    assert out == mkfield({
        1: Data("Pair", (num(9), num(1))),
        2: Data("Pair", (num(9), num(2))),
    })


# each decoratable base, with the kind of value it expects at each
# argument (None: any kind)
DECORATABLE = {
    "+": ("num", "num"), "-": ("num", "num"), "*": ("num", "num"),
    "<": ("num", "num"), "=": ("num", "num"), "and": ("bool", "bool"),
    "mux": ("bool", None, None), "fst": ("pair",), "snd": ("pair",),
    "head": ("list",), "tail": ("list",), "Pair": (None, None), "Cons": (None, "list"),
}
DECORATED = [
    (f"{base}[{','.join(flags)}]", flags, kinds)
    for base, kinds in DECORATABLE.items()
    for flags in itertools.product("fl", repeat=len(kinds))
    if "f" in flags
]
KIND_VALUES = {
    "num": st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, INF, -INF, NAN]), st.floats()).map(num),
    "bool": st.sampled_from([TRUE, FALSE, Data("True"), Data("False")]),
    "pair": st.builds(lambda a, b: Data("Pair", (a, b)),
                      st.sampled_from([0.0, NAN, INF]).map(num), st.sampled_from([TRUE, FALSE])),
    "list": st.sampled_from([Data("Null"), Data("Cons", (num(1), Data("Null")))]),
    "fun": st.sampled_from([Builtin("+"), Lambda(("x",), Var("x")), DefName("f")]),
}
any_value = st.one_of(*KIND_VALUES.values())


def test_exactly_the_listed_bases_are_decoratable():
    names = [*TABLE._entries, *TABLE._ctor_entries]
    for name in names:
        decoratable = any(TABLE.entry(f"{name}[{','.join(flags)}]") is not None
                          for n in range(1, 4) for flags in itertools.product("fl", repeat=n)
                          if "f" in flags)
        assert decoratable == (name in DECORATABLE), name
    assert all(TABLE.entry(name) is not None for name, _, _ in DECORATED)


@st.composite
def decorated_calls(draw):
    """A decorated name and its arguments over 0 to 12 devices: each
    column mostly of the kind the base expects there, else of a random
    kind, and sometimes one point of a random kind at a random position."""
    name, flags, kinds = draw(st.sampled_from(DECORATED))
    devs = tuple(sorted(draw(st.sets(st.integers(-20, 20), max_size=12))))
    cols = []
    for flag, kind in zip(flags, kinds):
        if kind is None or draw(st.integers(0, 3)) == 0:
            kind = draw(st.sampled_from(sorted(KIND_VALUES)))
        values = KIND_VALUES[kind]
        cols.append(draw(st.lists(values, min_size=len(devs), max_size=len(devs)))
                    if flag == "f" else draw(values))
    if devs and draw(st.integers(0, 3)) == 0:
        i = draw(st.sampled_from([i for i, flag in enumerate(flags) if flag == "f"]))
        cols[i][draw(st.integers(0, len(devs) - 1))] = draw(any_value)
    args = [FieldVal(devs, tuple(c)) if flag == "f" else c for c, flag in zip(cols, flags)]
    return name, devs, args


@settings(max_examples=300, deadline=None)
@given(decorated_calls())
# -1 * 0 is -0.0, and inf - inf and inf + -inf are fresh NaNs: num makes
# them 0.0 and NAN
@example(("*[f,l]", (1,), [fld({1: -1}), num(0)]))
@example(("-[f,f]", (1,), [fld({1: INF}), fld({1: INF})]))
@example(("+[f,f]", (1, 2), [fld({1: INF, 2: 1}), fld({1: -INF, 2: NAN})]))
def test_decorated_kernels_match_the_pointwise_lifting(call):
    """Each decorated operator's kernel gives what the base op at each
    point gives, with canonical numbers (one NaN, no -0.0) and the same
    JSON, or raises the base op's error at the same point."""
    name, devs, args = call
    ctx = EvalContext(device=devs[0] if devs else 0, domain=devs)
    got = outcome(lambda: TABLE.eval(name, ctx, list(args)))
    want = outcome(lambda: reference_decorated(name, ctx, args))
    assert got == want
    if got[0] == "value":
        assert json.dumps(value_to_json(got[1])) == json.dumps(value_to_json(want[1]))


# ---------------------------------------------------------------------------
# derived schemes match the listed ones

DECORATED_SCHEMES = {
    "+[f,f]": "(field(num), field(num)) -> field(num)",
    "Pair[f,f]": "forall s1, s2. (field(s1), field(s2)) -> field(pair(s1, s2))",
    "Pair[l,f]": "forall s1, s2. (s1, field(s2)) -> field(pair(s1, s2))",
    "<[f,l]": "forall s1. (field(s1), s1) -> field(bool)",
    "=[f,l]": "forall s1. (field(s1), s1) -> field(bool)",
    "mux[f,f,l]": "forall s1. (field(bool), field(s1), s1) -> field(s1)",
}


@pytest.mark.parametrize("name", sorted(DECORATED_SCHEMES))
def test_decorated_scheme(name):
    assert scheme_eq(TABLE.scheme(name), parse_scheme(DECORATED_SCHEMES[name]))


def test_invalid_decorations_are_rejected():
    assert TABLE.entry("min-hood[f]") is None  # hoods are not decoratable
    assert TABLE.entry("+[f]") is None  # wrong arity
    assert TABLE.entry("+[l,l]") is None  # needs at least one f
    assert TABLE.entry("uid[f]") is None


def test_map_hood_arity_family():
    for n in range(1, MAP_HOOD_MAX_ARITY + 1):
        sch = TABLE.scheme("map-hood", arity=n + 1)
        assert sch is not None
        assert len(sch.body.args) == n + 1
    assert TABLE.scheme("map-hood", arity=MAP_HOOD_MAX_ARITY + 2) is None


# ---------------------------------------------------------------------------
# alignment, arity and sensor errors

def test_field_arguments_must_cover_the_whole_domain():
    with pytest.raises(DomainError):
        ev("min-hood", [fld({1: 0})], env_domain={2})
    with pytest.raises(DomainError):
        ev("+[f,f]", [fld({1: 1, 2: 2}), fld({1: 1, 3: 3})], env_domain={2})


def test_arity_errors():
    with pytest.raises(ArityError):
        ev("+", [num(1)])
    with pytest.raises(ArityError):
        ev("uid", [num(1)])
    too_many = [Builtin("+")] + [fld({1: 0})] * (MAP_HOOD_MAX_ARITY + 1)
    with pytest.raises(ArityError):
        ev("map-hood", too_many, call=table_call)


def test_sensors():
    sensors = SensorState(local={"sns-range": num(10), "sns-injection-point": boolean(True)})
    assert ev("sns-range", [], sensors=sensors) == num(10)
    assert ev("sns-injection-point", [], sensors=sensors) == boolean(True)
    with pytest.raises(SensorError):
        ev("sns-range", [])
    assert ev("uid", [], device=42) == num(42)


def test_nbr_range_covers_the_neighbourhood():
    sensors = SensorState(nbr={"nbr-range": {1: 0.0, 2: 1.5}})
    out = ev("nbr-range", [], env_domain={2}, sensors=sensors)
    assert out == fld({1: 0, 2: 1.5})
    with pytest.raises(SensorError):
        ev("nbr-range", [], env_domain={2, 3}, sensors=sensors)
    with pytest.raises(SensorError):
        ev("nbr-range", [])


# ---------------------------------------------------------------------------
# constructor schemes and purity

def test_ctor_schemes():
    assert scheme_eq(ctor_scheme(3.0, 0), parse_scheme("() -> num"))
    assert ctor_scheme(3.0, 1) is None
    assert scheme_eq(ctor_scheme("True", 0), parse_scheme("() -> bool"))
    assert scheme_eq(
        ctor_scheme("Pair", 2), parse_scheme("forall s1, s2. (s1, s2) -> pair(s1, s2)")
    )
    assert ctor_scheme("Pair", 1) is None
    assert ctor_scheme("Zog", 0) is None

