import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcalc import parser
from fieldcalc.ast import (
    INF,
    NAN,
    Apply,
    Builtin,
    Data,
    Def,
    DefName,
    Expr,
    Lambda,
    Nbr,
    Program,
    Rep,
    Span,
    Var,
    children,
    num,
)
from fieldcalc.parser import ParseError, Token, lex, parse_expr, parse_program, pretty
from fieldcalc.stdlib import load_corpus
from helpers import pretty_program, subexpressions


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


def test_scope_is_the_nearest_binder_then_the_defs_so_far_then_the_builtins():
    # a lambda parameter shadows a def and a builtin in the lambda's body
    p = parse_program("def f(x) {x} ((f, uid) => f(uid))(f, uid)")
    assert p.main.fn == Lambda(("f", "uid"), Apply(Var("f"), (Var("uid"),)))
    assert p.main.args == (DefName("f"), Builtin("uid"))
    # a def's parameter shadows a builtin in the def's body only
    p = parse_program("def g(uid) {uid} g(uid())")
    assert p.defs[0].body == Var("uid")
    assert p.main == Apply(DefName("g"), (Apply(Builtin("uid"), ()),))
    # a rep variable is in scope in the rep's body, not in its own init
    with pytest.raises(ParseError, match=r"^<string>:1:5: error: unknown name 'x'$"):
        parse_expr("rep(x){(x) => x}")
    assert parse_expr("(x) => rep(x){(x) => x}") == Lambda(("x",), Rep(Var("x"), "x", Var("x")))
    # a binder's scope ends with its body
    with pytest.raises(ParseError, match=r"^<string>:1:16: error: unknown name 'y'$"):
        parse_expr("Pair((y) => y, y)")
    # a def sees itself and the defs before it, not those after it
    with pytest.raises(ParseError, match=r"^<string>:1:10: error: unknown name 'b'$"):
        parse_program("def a() {b()} def b() {a()} a()")
    # a constructor name is data in every scope
    assert parse_expr("(Pair) => Pair(1, 2)") == Lambda(("Pair",), Data("Pair", (num(1), num(2))))


def test_the_first_error_met_is_reported():
    """The text is read once, left to right, names resolved as they are
    read: a name error before a syntax error is the one reported."""
    with pytest.raises(ParseError, match=r"^<string>:1:12: error: unknown name 'zog'$"):
        parse_program("def f(x) { zog } f(1")
    with pytest.raises(ParseError, match=r"^<string>:1:3: error: unknown operator '\+\[f,f,f\]'$"):
        parse_program("1 +[f,f,f] 2)")
    with pytest.raises(ParseError, match=r"^<string>:1:13: error: duplicate definition of 'f'$"):
        parse_program("def f() {0} def f() {1 0")
    with pytest.raises(ParseError, match=r"^<string>:1:1: error: definition shadows builtin 'uid'$"):
        parse_program("def uid() {0} uid(")
    # a syntax error before a name error is the one reported
    with pytest.raises(ParseError, match=r"^<string>:1:3: error: trailing input after main"):
        parse_program("1 ) zog")


@pytest.mark.parametrize("src, col, keyword, what", [
    ("(x, and) => 1", 5, "and", "parameter"),
    ("(x, rep) => 1", 5, "rep", "parameter"),
    ("(rep) => 1", 2, "rep", "parameter"),
    ("def f(rep) {1} 0", 7, "rep", "parameter"),
    ("def f(x, if) {1} 0", 10, "if", "parameter"),
    ("rep(0){(nbr) => 1}", 9, "nbr", "rep variable"),
])
def test_no_keyword_is_bound(src, col, keyword, what):
    """A keyword is refused as every binder, a lambda or def parameter or a
    rep variable, at its own span: no expression could name it, since it
    always reads as the keyword or, for and, the builtin."""
    with pytest.raises(ParseError, match=rf"^<string>:1:{col}: error: keyword '{keyword}' "
                                         rf"cannot be a {what} name$"):
        parse_program(src)


@pytest.mark.parametrize("src, col, msg", [
    ("((x, x) => x)(1, 2)", 6, "duplicate parameter 'x'"),
    ("def f(x, y, x) { x } f(1, 2, True)", 13, "duplicate parameter 'x'"),
    ("(x[f]) => x[f]", 2, "decorated name 'x[f]' cannot be a parameter name"),
    ("rep(0){(v[f]) => v[f]}", 9, "decorated name 'v[f]' cannot be a rep variable name"),
    ("def g[l](x) { x } g[l](1)", 5, "decorated name 'g[l]' cannot be a function name"),
])
def test_a_binder_is_a_plain_distinct_name(src, col, msg):
    """A decoration forms a builtin name, so no binder carries one, and
    the names of one parameter list are distinct."""
    with pytest.raises(ParseError, match=rf"^<string>:1:{col}: error: {re.escape(msg)}$"):
        parse_program(src)


def test_a_decorated_and_is_infix_as_and_is():
    e = parse_expr("and[f,f](nbr{True}, nbr{False})")
    assert pretty(e) == "(nbr{True} and[f,f] nbr{False})"
    assert parse_expr(pretty(e)) == e
    # it binds loosest and to the left, and a '-' after it signs a numeral
    e = parse_expr("True and False and[l,f] nbr{-1 < 2}")
    conj = Apply(Builtin("and"), (Data("True"), Data("False")))
    assert e == Apply(Builtin("and[l,f]"), (conj, Nbr(Apply(Builtin("<"), (num(-1), num(2))))))
    e = parse_expr("nbr{True} and[f,l] -1 < 2")
    assert e == Apply(Builtin("and[f,l]"), (Nbr(Data("True")),
                                            Apply(Builtin("<"), (num(-1), num(2)))))


DEEP = {  # each shape at a depth its parser must read under pytest's own stack
    "nested parentheses": (300, lambda n: "(" * n + "1" + ")" * n),
    "nested applied lambdas": (150, lambda n: "((x) => " * n + "1" + ")(1)" * n),
    "nested ifs": (150, lambda n: "if (1 < 2) { " * n + "1" + " } else { 0 }" * n),
    "nested Pair": (150, lambda n: "Pair(1, " * n + "1" + ")" * n),
    "rep in rep": (150, lambda n: "rep(" * n + "0" + "){(v) => v}" * n),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_a_bracket_costs_a_few_frames(shape):
    """A bracketed expression costs the parser two or three frames, so
    hundreds of levels parse at the default recursion limit."""
    n, build = DEEP[shape]
    assert isinstance(parse_program(build(n)), Program)


def test_a_keyword_builtin_in_parentheses_is_still_an_operand():
    assert parse_expr("(and)(True, False)") == Apply(Builtin("and"), (Data("True"), Data("False")))


def test_a_long_flat_sum_parses():
    e = parse_expr(" + ".join(["1"] * 3000))
    depth = 0
    while isinstance(e, Apply):
        e, depth = e.args[0], depth + 1
    assert depth == 2999 and e == num(1)


def test_each_name_node_carries_the_span_of_its_name():
    """Every variable, function name and builtin of a corpus program sits
    at the token of its name; only if's desugaring adds names (mux and
    snd twice), which have no span."""
    for entry in load_corpus():
        toks = lex(entry.source)
        at = {(t.span.line, t.span.col): t.text for t in toks}
        prog = parse_program(entry.source)
        names = [e for top in [*[d.body for d in prog.defs], prog.main]
                 for e in subexpressions(top) if isinstance(e, (Var, DefName, Builtin))]
        for e in names:
            if e.span is not None:
                assert at[(e.span.line, e.span.col)] == e.name, (entry.name, e)
        spanless = [e.name for e in names if e.span is None]
        ifs = sum(t.text == "if" for t in toks)
        assert sorted(spanless) == sorted(["mux", "snd", "snd"] * ifs), entry.name


RECORDS = (Span, Token, Var, Builtin, DefName, Data, Lambda, Apply, Rep, Nbr, Def, Program)
ONE_OF_EACH = """// every kind of node, and whitespace and comments to skip
def f(x, y) {
  if (x < -1) { Pair(x, y) } else { f(x - 1, nbr{rep(y){(z) => z}}) }   // recursion
}
((g) => g(3, True))(f) + +(1, 2)
"""


def test_one_pass_builds_no_record_it_drops(monkeypatch):
    """Every span, token and node made while a text is lexed and parsed is
    reachable from the program or its tokens: none is built to be dropped,
    as a skipped space's span or a tree rebuilt by a second pass would be."""
    built = []
    for cls in RECORDS:
        def init(self, *args, _init=cls.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    toks = []
    real_lex = parser.lex
    monkeypatch.setattr(parser, "lex", lambda src, path: toks.extend(real_lex(src, path)) or toks)
    for src in [ONE_OF_EACH] + [entry.source for entry in load_corpus()]:
        built.clear()
        toks.clear()
        prog = parse_program(src)
        kept, todo = {}, [prog, *toks]
        while todo:
            r = todo.pop()
            if r is None or id(r) in kept:
                continue
            kept[id(r)] = r
            if isinstance(r, Program):
                todo += [*r.defs, r.main]
            elif isinstance(r, Def):
                todo += [r.span, r.body]
            elif isinstance(r, Token):
                todo.append(r.span)
            elif isinstance(r, Expr):
                todo += [r.span, *[c for c, _ in children(r)]]
        assert built and [r for r in built if id(r) not in kept] == []


# ---------------------------------------------------------------------------
# pretty printing round-trip


names = st.sampled_from(["x", "y", "z", "w"])
builtin_names = st.sampled_from(
    ["+", "-", "*", "and", "<", "=", "min-hood", "min-hood+", "pick-hood",
     "mux", "fst", "snd", "uid", "nbr-range", "sns-num", "+[f,f]", "mux[f,f,l]",
     "Pair[l,f]", "=[f,l]", "<[f,l]", "and[f,f]", "and[l,f]", "-[f,l]", "*[f,f]"]
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
