import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcalc.ast import (
    INF,
    NAN,
    Apply,
    Builtin,
    Data,
    DefName,
    Lambda,
    Nbr,
    Rep,
    Var,
    num,
)
from fieldcalc.parser import ParseError, lex, parse_expr, parse_program, pretty
from helpers import pretty_program


def toks(src):
    return [(t.kind, t.text) for t in lex(src)][:-1]  # drop eof


# ---------------------------------------------------------------------------
# lexer quirks


def test_hyphenated_identifiers():
    assert toks("distance-to") == [("name", "distance-to")]
    assert toks("a-b") == [("name", "a-b")]
    assert toks("a - b") == [("name", "a"), ("op", "-"), ("name", "b")]
    assert toks("a -b") == [("name", "a"), ("op", "-"), ("name", "b")]


def test_hood_plus_glue():
    assert toks("min-hood+(x)")[0] == ("name", "min-hood+")
    assert toks("f(min-hood+)") == [
        ("name", "f"), ("punct", "("), ("name", "min-hood+"), ("punct", ")"),
    ]
    # with a space the + is an operator again
    assert ("op", "+") in toks("min-hood + (x)")


def test_decorations_glue():
    assert toks("+[f,f]") == [("op", "+[f,f]")]
    assert toks("mux[f,f,l]") == [("name", "mux[f,f,l]")]
    assert toks("Pair[l,f](a, b)")[0] == ("name", "Pair[l,f]")
    assert toks("=[f,l]") == [("op", "=[f,l]")]
    assert toks("x =[f,l] y")[1] == ("op", "=[f,l]")


def test_negative_numerals():
    assert toks("-3") == [("num", "-3")]
    assert toks("(-3)")[1] == ("num", "-3")
    assert toks("a - 3")[1] == ("op", "-")
    assert toks("f(-1, 2)")[2] == ("num", "-1")
    t = lex("-infinity")[0]
    assert t.kind == "num" and t.value == -INF
    assert toks("0 and -infinity")[2] == ("num", "-infinity")
    assert toks("0 and -1")[2] == ("num", "-1")


def test_special_numerals():
    vals = [t.value for t in lex("infinity NaN 1.5 2e3")[:-1]]
    assert vals[0] == INF
    assert vals[1] != vals[1]  # NaN
    assert vals[2:] == [1.5, 2000.0]


def test_comments():
    assert toks("1 // vanish\n2") == [("num", "1"), ("num", "2")]


def test_arrow_token():
    assert ("punct", "=>") in toks("(x) => x")


def test_spans_count_lines_and_columns():
    spans = [(t.text, t.span.line, t.span.col) for t in lex("f(\n  // c\r\n\t-1, - -infinity)")]
    assert spans == [("f", 1, 1), ("(", 1, 2),
                     ("-1", 3, 2), (",", 3, 4), ("-", 3, 6), ("-infinity", 3, 8),
                     (")", 3, 17), ("", 3, 18)]


def test_names_start_with_a_letter_or_underscore():
    assert toks("é_ß x² _1 a-٣") == [("name", "é_ß"), ("name", "x²"), ("name", "_1"), ("name", "a-٣")]
    # '²', '½' and 'Ⅻ' are alphanumeric to Python but no letter
    for c in "²½Ⅻ":
        with pytest.raises(ParseError, match=f"1:3: error: unexpected character '{c}'"):
            lex(f"1 {c}x")


def test_numerals_are_decimal_digits():
    assert [(t.text, t.value) for t in lex("٣, -٣.5")[:-1]] == [
        ("٣", 3.0), (",", 0.0), ("-٣.5", -3.5)]
    # '²' is a digit to str.isdigit but no decimal one: float() fails on it
    for src, col in (("2²", 2), ("1e²", 3), ("-1E+²", 5), ("2.²", 2)):
        with pytest.raises(ParseError, match=f"1:{col}: error: unexpected character"):
            lex(src)


def test_other_whitespace_is_an_unexpected_character():
    with pytest.raises(ParseError, match=r"1:2: error: unexpected character '\\xa0'"):
        lex("1\xa02")


TEXT_PIECES = ["def", "rep", "nbr", "if", "else", "and", "infinity", "NaN", "-infinity",
               "min-hood+", "sum-hood+", "[f,l]", "[f]", "=>", "//", "\n", "(", ")", "{",
               "}", ",", "-", "+", "*", "<", "=", "1", "2.5e-3", "x", "uid", "Pair", "²"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TEXT_PIECES), st.characters()), max_size=30).map(" ".join)
       | st.text())
def test_any_text_parses_or_is_a_parse_error(src):
    # (nesting deeper than Python's stack is a RecursionError, which fieldc
    # reports as a diagnostic: tests/test_cli.py)
    try:
        parse_program(src)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# grammar


def test_trivial_program():
    p = parse_program("42")
    assert p.defs == () and p.main == num(42)


def test_precedence():
    e = parse_expr("1 + 2 * 3")
    assert e == Apply(Builtin("+"), (num(1), Apply(Builtin("*"), (num(2), num(3)))))
    e = parse_expr("1 * 2 < 3 and True")
    lt = Apply(Builtin("<"), (Apply(Builtin("*"), (num(1), num(2))), num(3)))
    assert e == Apply(Builtin("and"), (lt, Data("True")))
    # left associativity
    e = parse_expr("1 - 2 - 3")
    assert e == Apply(Builtin("-"), (Apply(Builtin("-"), (num(1), num(2))), num(3)))


def test_prefix_operator_calls():
    assert parse_expr("-(1, 2)") == Apply(Builtin("-"), (num(1), num(2)))
    assert parse_expr("*(3, 4)") == Apply(Builtin("*"), (num(3), num(4)))
    assert parse_expr("and(True, False)") == Apply(Builtin("and"), (Data("True"), Data("False")))


def test_constructors():
    assert parse_expr("Pair(1, True)") == Data("Pair", (num(1), Data("True")))
    assert parse_expr("Cons(1, Null)") == Data("Cons", (num(1), Data("Null")))
    with pytest.raises(ParseError):
        parse_expr("Pair")  # non-0-ary constructors must be applied
    with pytest.raises(ParseError):
        parse_expr("Pair(1)")
    # decorated constructor names are builtins, not Data
    e = parse_expr("Pair[f,f](nbr{1}, nbr{2})")
    assert isinstance(e, Apply) and e.fn == Builtin("Pair[f,f]")


def test_lambdas():
    assert parse_expr("() => 0") == Lambda((), num(0))
    assert parse_expr("(x) => x") == Lambda(("x",), Var("x"))
    assert parse_expr("(x, y) => x") == Lambda(("x", "y"), Var("x"))
    e = parse_expr("((x) => x)(3)")
    assert e == Apply(Lambda(("x",), Var("x")), (num(3),))


def test_rep_and_nbr():
    e = parse_expr("rep(0){(x) => x + 1}")
    assert e == Rep(num(0), "x", Apply(Builtin("+"), (Var("x"), num(1))))
    assert parse_expr("nbr{0}") == Nbr(num(0))


def test_rep_never_takes_a_call_suffix():
    # the call suffix binds to the lambda around the rep, not to the rep
    e = parse_expr("(x) => rep(x){(t) => t}(0)")
    assert isinstance(e, Apply)
    assert e.args == (num(0),)
    assert isinstance(e.fn, Lambda)
    assert isinstance(e.fn.body, Rep)
    # redundant parens around the lambda read the same way
    assert parse_expr("((x) => rep(x){(t) => t})(0)") == e
    # an explicitly parenthesised rep can be applied
    e3 = parse_expr("(rep(0){(t) => t})(3)")
    assert e3 == Apply(Rep(num(0), "t", Var("t")), (num(3),))
    # but a bare rep followed by '(' does not form a call
    with pytest.raises(ParseError, match="trailing"):
        parse_expr("rep(0){(t) => t}(3)")


def test_gradcast_shape():
    e = parse_expr("snd(((x) => rep(x){(t) => t}(Pair(infinity, 0))))")
    inner = e.args[0]
    assert isinstance(inner, Apply)  # the lambda applied to Pair(...)
    assert isinstance(inner.fn, Lambda)
    assert inner.args == (Data("Pair", (num(INF), num(0))),)
    assert isinstance(inner.fn.body, Rep)


def test_if_desugars_and_takes_call_suffix():
    e = parse_expr("if(True){() => 1}else{() => 2}()")
    # desugar gives mux(...)(); the source () applies the selected thunk
    assert isinstance(e, Apply) and e.args == ()
    assert isinstance(e.fn, Apply) and e.fn.args == ()
    mux_call = e.fn.fn
    assert isinstance(mux_call, Apply) and mux_call.fn == Builtin("mux")


def test_definitions_and_name_resolution():
    p = parse_program("def f(x){x} f(3)")
    assert p.defs[0].name == "f"
    assert p.main == Apply(DefName("f"), (num(3),))
    # recursion resolves to DefName
    p = parse_program("def g(x){g(x)} g")
    assert p.defs[0].body == Apply(DefName("g"), (Var("x"),))
    # later defs see earlier ones
    p = parse_program("def a(){0} def b(){a()} b()")
    assert p.defs[1].body == Apply(DefName("a"), ())


def test_name_errors():
    with pytest.raises(ParseError, match="unknown name"):
        parse_expr("zog")
    with pytest.raises(ParseError, match="unknown name"):
        parse_program("def f(x){y} 0")
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("def f(){0} def f(){1} 0")
    with pytest.raises(ParseError, match="shadows"):
        parse_program("def uid(){0} 0")
    with pytest.raises(ParseError, match="unknown operator"):
        parse_expr("+[f]")  # wrong decoration arity
    with pytest.raises(ParseError):
        parse_expr("min-hood[f](nbr{0})")  # hoods are not decoratable


def test_parse_error_rendering():
    try:
        parse_expr("1 +", path="prog.hfc")
    except ParseError as e:
        assert str(e).startswith("prog.hfc:1:")
        assert "error:" in str(e)
    else:
        raise AssertionError("expected a parse error")


def test_sensors_resolve():
    e = parse_expr("min-hood(nbr{sns-num()})")
    assert e.args[0] == Nbr(Apply(Builtin("sns-num"), ()))


# ---------------------------------------------------------------------------
# pretty printing round-trip


names = st.sampled_from(["x", "y", "z", "w"])
builtin_names = st.sampled_from(
    ["+", "-", "*", "and", "<", "=", "min-hood", "min-hood+", "pick-hood",
     "mux", "fst", "snd", "uid", "nbr-range", "sns-num", "+[f,f]", "mux[f,f,l]",
     "Pair[l,f]", "=[f,l]", "<[f,l]"]
)
numerals = st.one_of(
    st.integers(-100, 100).map(float),
    st.sampled_from([INF, -INF, NAN, 0.5, 2.25]),
)


def exprs(depth, scope):
    leaves = [numerals.map(num), st.sampled_from([Data("True"), Data("False"), Data("Null")]),
              builtin_names.map(Builtin)]
    if scope:
        leaves.append(st.sampled_from(sorted(scope)).map(Var))
    leaf = st.one_of(*leaves)
    if depth == 0:
        return leaf
    sub = exprs(depth - 1, scope)

    def with_var(v):
        return exprs(depth - 1, scope | {v})

    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: Data("Pair", t)),
        st.tuples(sub, sub).map(lambda t: Data("Cons", t)),
        st.tuples(sub, st.lists(sub, max_size=2)).map(lambda t: Apply(t[0], tuple(t[1]))),
        names.flatmap(lambda v: with_var(v).map(lambda b: Lambda((v,), b))),
        sub.map(Nbr),
        names.flatmap(lambda v: st.tuples(sub, with_var(v)).map(lambda t: Rep(t[0], v, t[1]))),
    )


@settings(max_examples=300, deadline=None)
@given(exprs(3, frozenset()))
def test_pretty_parse_round_trip(e):
    assert parse_expr(pretty(e)) == e


def test_pretty_program_round_trip():
    src = "def f(x){rep(x){(t) => t + 1}} f(0)"
    p = parse_program(src)
    assert parse_program(pretty_program(p)) == p


def test_pretty_canonical_numbers():
    assert pretty(num(3.0)) == "3"
    assert pretty(num(INF)) == "infinity"
    assert pretty(num(-INF)) == "-infinity"
    assert pretty(num(NAN)) == "NaN"
    assert pretty(num(0.5)) == "0.5"


def test_pretty_parenthesises_applied_rep():
    e = Apply(Rep(num(0), "x", Var("x")), ())
    s = pretty(e)
    assert s == "(rep(0){(x) => x})()"
    assert parse_expr(s) == e
