"""Sorted unification and type inference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldcalc import builtins, typer
from fieldcalc.parser import parse_expr, parse_program
from fieldcalc.stdlib import corpus_entry
from fieldcalc.typer import (
    Arrow,
    FieldT,
    Scheme,
    Sort,
    TCon,
    TVar,
    Typer,
    TypecheckError,
    canonical,
    map_vars,
    parse_scheme,
    scheme_eq,
    scheme_instance,
    show_scheme,
    show_type,
    sort_leq,
    sort_meet,
    typecheck_program,
)
from helpers import BOOL, NUM, typecheck_expr

# ---------------------------------------------------------------------------
# the sort lattice against its intended denotation
#
# Sorts stand for sets of concrete types.  The membership table below is
# written out by hand from the sort grammar: S covers base types, pairs,
# lists and arrows built only from S; R adds field types; L adds arrows
# that mention fields; T covers everything well-formed.  The lattice
# operations must agree with subset order and intersection on any such
# universe, so we check all sixteen sort pairs against this one.

_S_TYPES = frozenset({
    "num",
    "bool",
    "pair(num,bool)",
    "list(num)",
    "(num)->num",
    "(num)->(num)->num",
})
_R_ONLY = frozenset({"field(num)", "field((num)->num)"})
_L_ONLY = frozenset({"()->field(num)", "(field(num))->num"})

MEMBERS = {
    Sort.S: _S_TYPES,
    Sort.R: _S_TYPES | _R_ONLY,
    Sort.L: _S_TYPES | _L_ONLY,
    Sort.T: _S_TYPES | _R_ONLY | _L_ONLY,
}

ALL_SORTS = [Sort.T, Sort.L, Sort.R, Sort.S]


@pytest.mark.parametrize("a", ALL_SORTS)
@pytest.mark.parametrize("b", ALL_SORTS)
def test_sort_leq_is_subset_order(a, b):
    assert sort_leq(a, b) == (MEMBERS[a] <= MEMBERS[b])


@pytest.mark.parametrize("a", ALL_SORTS)
@pytest.mark.parametrize("b", ALL_SORTS)
def test_sort_meet_is_intersection(a, b):
    assert MEMBERS[sort_meet(a, b)] == (MEMBERS[a] & MEMBERS[b])


def test_sort_meet_l_r_is_s():
    assert sort_meet(Sort.L, Sort.R) == Sort.S
    assert sort_meet(Sort.R, Sort.L) == Sort.S


# ---------------------------------------------------------------------------
# unification

def test_unify_l_var_with_r_var_meets_at_s():
    ty = Typer()
    a = ty.fresh(Sort.L)
    b = ty.fresh(Sort.R)
    ty.unify(a, b, "test")
    ra = ty.resolve(a)
    assert ra == ty.resolve(b)
    assert isinstance(ra, TVar)
    assert ty.sorts[ra.vid] == Sort.S


def test_unify_num_num_is_a_noop():
    ty = Typer()
    ty.unify(NUM, NUM, "test")
    assert ty.subst == {}


def test_unify_l_var_with_field_is_a_sort_error():
    ty = Typer()
    a = ty.fresh(Sort.L)
    with pytest.raises(TypecheckError):
        ty.unify(a, FieldT(NUM), "test")


def test_unify_l_var_with_t_var_narrows_to_l():
    ty = Typer()
    a = ty.fresh(Sort.L)
    t = ty.fresh(Sort.T)
    ty.unify(t, a, "test")
    r = ty.resolve(t)
    assert r == ty.resolve(a)
    assert ty.sorts[r.vid] == Sort.L


def test_unify_structure_mismatch():
    ty = Typer()
    with pytest.raises(TypecheckError):
        ty.unify(FieldT(NUM), Arrow((), NUM), "test")


def test_unify_occurs_check():
    ty = Typer()
    a = ty.fresh(Sort.T)
    with pytest.raises(TypecheckError, match="occurs|infinite"):
        ty.unify(a, Arrow((a,), NUM), "test")


def test_s_vars_never_resolve_to_field_types():
    # sort soundness: run a program that exercises every rule, then
    # inspect the final substitution
    _, _, ty = typecheck_program(parse_program(LIBRARY))

    def s_clean(t):
        t = ty.resolve(t)
        if isinstance(t, FieldT):
            return False
        if isinstance(t, TVar):
            return sort_leq(ty.sorts[t.vid], Sort.S) or ty.sorts[t.vid] == Sort.S
        if isinstance(t, TCon):
            return all(s_clean(a) for a in t.args)
        if isinstance(t, Arrow):
            return all(s_clean(a) for a in t.args) and s_clean(t.res)
        return True

    for vid, bound in ty.subst.items():
        if ty.sorts.get(vid) == Sort.S:
            assert s_clean(bound), f"S-var {vid} bound to a field-bearing type"


# ---------------------------------------------------------------------------
# instantiation

def test_instantiate_min_hood_scheme():
    sch = parse_scheme("forall s1. (field(s1)) -> s1")
    ty = Typer()
    t = ty.instantiate(sch, "test")
    assert isinstance(t, Arrow) and len(t.args) == 1
    assert isinstance(t.args[0], FieldT)
    assert t.args[0].inner == t.res
    assert isinstance(t.res, TVar)
    assert ty.sorts[t.res.vid] == Sort.S
    # fresh variables on every instantiation
    assert ty.instantiate(sch, "test").res != t.res


def test_instantiate_monomorphic_scheme():
    sch = parse_scheme("(num, num) -> num")
    t = Typer().instantiate(sch, "test")
    assert t == Arrow((NUM, NUM), NUM)


def test_instantiate_pair_scheme():
    sch = parse_scheme("forall s1, s2. (s1, s2) -> pair(s1, s2)")
    ty = Typer()
    t = ty.instantiate(sch, "test")
    a, b = t.args
    assert a != b
    assert t.res == TCon("pair", (a, b))
    assert ty.sorts[a.vid] == Sort.S and ty.sorts[b.vid] == Sort.S


# ---------------------------------------------------------------------------
# expression inference

def expr_type(src):
    return typecheck_expr(parse_expr(src))


def test_basic_expressions():
    assert expr_type("3") == NUM
    assert expr_type("True") == BOOL
    assert expr_type("nbr{0}") == FieldT(NUM)
    assert expr_type("uid()") == NUM
    assert expr_type("nbr-range()") == FieldT(NUM)
    assert expr_type("rep(0){(x) => x + 1}") == NUM
    assert expr_type("mux(True, 1, 0)") == NUM
    assert expr_type("min-hood(nbr{0})") == NUM
    assert expr_type("nbr{0} +[f,f] nbr{1}") == FieldT(NUM)
    assert expr_type("Pair(uid(), 0)") == TCon("pair", (NUM, NUM))
    assert expr_type("Cons(1, Null)") == TCon("list", (NUM,))


def test_nbr_of_nbr_is_rejected():
    with pytest.raises(TypecheckError) as ei:
        expr_type("nbr{nbr{0}}")
    assert ei.value.rule == "T-NBR"


def test_mux_is_local_only():
    # the field variant is spelled mux[f,f,l]; plain mux takes locals
    with pytest.raises(TypecheckError):
        expr_type("mux(True, nbr{0}, nbr{1})")
    t = expr_type("mux[f,f,l](nbr{True}, nbr{1}, 0)")
    assert t == FieldT(NUM)


def test_identity_lambda_applied():
    t = expr_type("((x) => x)(3)")
    assert t == NUM


# the four classic alignment fixtures: one accepted, three rejected, each
# at a specific rule

E_SAFE = "((x) => x)(nbr{0}) +[f,f] nbr{uid()}"
E_WRONG = (
    "(if (uid() = 1) {(x) => x} else {(x) => x +[f,f] nbr{uid()}})"
    "(nbr{0}) +[f,f] nbr{uid()}"
)
E1_WRONG = "((x) => pick-hood(nbr{() => min-hood(x +[f,f] nbr{0})}))(nbr{0})()"
E2_WRONG = "min-hood(rep(nbr{0}){(x) => x +[f,f] nbr{uid()}})"


def test_e_safe_accepted_at_field_num():
    t = expr_type(E_SAFE)
    assert t == FieldT(NUM)


def test_e_wrong_rejected_at_t_val():
    with pytest.raises(TypecheckError) as ei:
        expr_type(E_WRONG)
    assert ei.value.rule == "T-VAL"


def test_e1_wrong_rejected_at_t_a_fun():
    # the inner closure captures a field-typed free variable
    with pytest.raises(TypecheckError) as ei:
        expr_type(E1_WRONG)
    assert ei.value.rule == "T-A-FUN"


def test_e2_wrong_rejected_at_t_rep():
    # rep's init, var and body must share a local return type
    with pytest.raises(TypecheckError) as ei:
        expr_type(E2_WRONG)
    assert ei.value.rule == "T-REP"


# ---------------------------------------------------------------------------
# program-level checking

def test_id_program():
    p = parse_program("def id(x){x} id(3)")
    t, schemes, ty = typecheck_program(p)
    assert t == NUM
    assert show_scheme(schemes["id"]) == "forall r1. (r1) -> r1"


def test_main_must_be_local():
    with pytest.raises(TypecheckError) as ei:
        typecheck_program(parse_program("nbr{0}"))
    assert ei.value.rule == "T-PROGRAM"


def test_recursion_is_monomorphic_within_its_own_body():
    # under the empty-quantifier self assumption the two uses clash ...
    with pytest.raises(TypecheckError):
        typecheck_program(parse_program("def f(x){Pair(f(3), f(True))} 0"))
    # ... but after generalization the same two uses are fine
    t, _, _ = typecheck_program(
        parse_program("def g(x){x} def h(y){Pair(g(3), g(True))} 0")
    )
    assert t == NUM


def test_defs_accumulate_in_order():
    t, _, _ = typecheck_program(parse_program("def a(){0} def b(){a() + 1} b()"))
    assert t == NUM


# ---------------------------------------------------------------------------
# the distributed-service corpus, checked as one program

LIBRARY = """
def distance-to(source) {
  rep(infinity) { (d) => mux(source, 0, min-hood+( +[f,f](nbr{d}, nbr-range()))) }
}
def gradcast(source, v) {
  snd( (x) =>
         rep(x) {
           (t) => mux(source, Pair(0, v),
                      min-hood+(Pair[f,f](+[f,f]( nbr-range(), nbr{fst(t)}), nbr{snd(t)})))
         }
       (Pair(infinity, v)))
}
def deploy(range, source, g, no-op) {
  if (distance-to(source) < range) {gradcast(source, g)} else {no-op} ()
}
def virtual-machine() {
  deploy( sns-range(), sns-injection-point(), sns-injected-fun(), () => 0)
}
def parent(potential) {
  snd( min-hood( Pair[l,f]( potential,
                  mux[f,f,l]( nbr{potential} <[f,l] potential, nbr{uid()}, NaN))))
}
def converge-sum(potential, summand) {
  rep(summand) {
    (v) => summand +
           sum-hood+( mux[f,f,l]( nbr{parent(potential)} =[f,l] uid(), nbr{v}, 0))
  }
}
def low-pass(alpha, value) {
  rep(value) { (filtered) => *(value, alpha) + *(filtered, -(1, alpha)) }
}
virtual-machine()
"""

INJECTION = (
    "() => low-pass(0.5, converge-sum("
    " distance-to(sns-injection-point()), mux(sns-patron(), 1, 0)))"
)

PRINCIPAL = {
    "distance-to": "(bool) -> num",
    "gradcast": "forall s1. (bool, s1) -> s1",
    "deploy": "forall s1. (num, bool, () -> s1, () -> s1) -> s1",
    "virtual-machine": "() -> num",
    "parent": "forall s1. (s1) -> num",
    "converge-sum": "forall s1. (s1, num) -> num",
    "low-pass": "(num, num) -> num",
}


@pytest.fixture(scope="module")
def library_schemes():
    t, schemes, ty = typecheck_program(parse_program(LIBRARY))
    return t, schemes, ty


def test_library_main_type(library_schemes):
    t, _, _ = library_schemes
    assert t == NUM


@pytest.mark.parametrize("name", sorted(PRINCIPAL))
def test_library_principal_scheme(library_schemes, name):
    _, schemes, _ = library_schemes
    assert show_scheme(schemes[name]) == PRINCIPAL[name]


def test_library_declared_types_are_supported(library_schemes):
    _, schemes, _ = library_schemes
    # gradcast and deploy are conventionally declared over local types;
    # the inferred schemes coincide up to variable sorts
    assert scheme_eq(
        schemes["gradcast"], parse_scheme("forall l1. (bool, l1) -> l1"),
        ignore_sorts=True,
    )
    assert scheme_eq(
        schemes["deploy"],
        parse_scheme("forall l1. (num, bool, () -> l1, () -> l1) -> l1"),
        ignore_sorts=True,
    )
    # parent and converge-sum are declared at num instances of the
    # inferred schemes
    assert scheme_instance(schemes["parent"], parse_scheme("(num) -> num"))
    assert scheme_instance(
        schemes["converge-sum"], parse_scheme("(num, num) -> num")
    )
    # the reverse direction must not hold
    assert not scheme_instance(parse_scheme("(num) -> num"), schemes["parent"])


def test_typecheck_parses_no_scheme_text(monkeypatch):
    # numerals take the scheme "() -> num" and map-hood one per arity: the
    # builtin table parses each once, not at every use
    calls = []

    def counting(text):
        calls.append(text)
        return parse_scheme(text)

    monkeypatch.setattr(builtins, "parse_scheme", counting)
    monkeypatch.setattr(typer, "parse_scheme", counting)
    typecheck_program(parse_program(corpus_entry("spanning-sum").source))
    typecheck_program(parse_program("min-hood(map-hood((x) => x + 1, nbr{1}))"))
    assert calls == []


def test_library_instances(library_schemes):
    _, schemes, _ = library_schemes
    assert scheme_instance(schemes["gradcast"], parse_scheme("(bool, num) -> num"))
    assert scheme_instance(
        schemes["gradcast"],
        parse_scheme("(bool, pair(num, bool)) -> pair(num, bool)"),
    )
    # field types are not local return types, so they are not instances
    assert not scheme_instance(
        schemes["gradcast"], parse_scheme("(bool, field(num)) -> field(num)")
    )


def test_injection_expression_type():
    _, schemes, ty = typecheck_program(parse_program(LIBRARY))
    e = parse_program(LIBRARY.rsplit("virtual-machine()", 1)[0] + INJECTION).main
    t = ty.deep_resolve(ty.infer(e, {}, schemes))
    assert show_type(t, sorts=ty.sorts) == "() -> num"


# ---------------------------------------------------------------------------
# type syntax round trips

@pytest.mark.parametrize("s", [
    "num",
    "bool",
    "field(num)",
    "pair(num, bool)",
    "list(num)",
    "(num) -> num",
    "() -> field(num)",
    "(num, num) -> num",
    "forall s1. (field(s1)) -> s1",
    "forall s1, s2. (s1, s2) -> pair(s1, s2)",
    "forall t1. (t1, t1) -> bool",
    "forall s1. (num, bool, () -> s1, () -> s1) -> s1",
])
def test_scheme_text_round_trip(s):
    assert show_scheme(parse_scheme(s)) == s


def test_parse_type_plain():
    assert parse_scheme("field(num)") == Scheme((), FieldT(NUM))
    assert parse_scheme("(num) -> bool") == Scheme((), Arrow((NUM,), BOOL))


def test_scheme_eq_modulo_renaming():
    a = parse_scheme("forall s1, s2. (s1, s2) -> pair(s1, s2)")
    b = parse_scheme("forall s2, s1. (s2, s1) -> pair(s2, s1)")
    assert scheme_eq(a, b)
    c = parse_scheme("forall s1, s2. (s1, s2) -> pair(s2, s1)")
    assert not scheme_eq(a, c)
    d = parse_scheme("forall l1, l2. (l1, l2) -> pair(l1, l2)")
    assert not scheme_eq(a, d)
    assert scheme_eq(a, d, ignore_sorts=True)


def test_a_forall_lists_the_body_variables_in_order():
    # a scheme is canonical where it is made, so a forall that lists other
    # variables, or the same ones in another order, is rejected
    for text in ["forall s1. num", "forall s1. (s1, s2) -> s1",
                 "forall s2, s1. (s1, s2) -> s1", "forall s1, s1. s1"]:
        with pytest.raises(ValueError, match="forall lists"):
            parse_scheme(text)
    assert parse_scheme("forall s2, s1. (s2, s1) -> s1") == parse_scheme("(s1, s2) -> s2")


# ---------------------------------------------------------------------------
# generated schemes: every sort, nested arrows, pair, list and field

TYPES = st.recursive(
    st.one_of(st.just(NUM), st.just(BOOL), st.integers(0, 4).map(TVar)),
    lambda inner: st.one_of(
        st.builds(lambda a, b: TCon("pair", (a, b)), inner, inner),
        inner.map(lambda a: TCon("list", (a,))),
        inner.map(FieldT),
        st.builds(lambda a, r: Arrow(tuple(a), r), st.lists(inner, max_size=3), inner),
    ),
    max_leaves=10,
)
SORTINGS = st.lists(st.sampled_from(ALL_SORTS), min_size=10, max_size=10).map(
    lambda sorts: dict(enumerate(sorts)))
SCHEMES = st.builds(canonical, TYPES, SORTINGS)
# ids a renaming may use, some at or above 10,000
IDS = [0, 1, 2, 3, 5, 8, 9_999, 10_000, 10_001, 10_002, 10_005, 20_000]


@settings(max_examples=300, deadline=None)
@given(SCHEMES)
def test_scheme_text_round_trips(sch):
    text = show_scheme(sch)
    back = parse_scheme(text)
    assert show_scheme(back) == text
    assert scheme_eq(back, sch)
    assert back == sch  # both canonical


def renamed(data, sch):
    """sch with its variables renamed apart and its quantifier list shuffled."""
    ids = data.draw(st.lists(st.sampled_from(IDS), min_size=len(sch.qvars),
                             max_size=len(sch.qvars), unique=True))
    ren = {v: TVar(i) for (v, _), i in zip(sch.qvars, ids)}
    qvars = data.draw(st.permutations([(ren[v].vid, s) for v, s in sch.qvars]))
    return Scheme(tuple(qvars), map_vars(sch.body, lambda v: ren[v.vid]))


@settings(max_examples=300, deadline=None)
@given(SCHEMES, SCHEMES, st.data())
def test_renaming_changes_no_answer(a, b, data):
    if data.draw(st.booleans()):
        # b an instance of a: some of a's variables replaced by types whose
        # variables (ids 5 to 9) are new to a
        sub = data.draw(st.dictionaries(st.integers(0, 4), TYPES.map(
            lambda t: map_vars(t, lambda v: TVar(v.vid + 5)))))
        sorts = {**data.draw(SORTINGS), **dict(a.qvars)}
        b = canonical(map_vars(a.body, lambda v: sub.get(v.vid, v)),
                      {v: sorts[v] for v in range(10)})
    ra, rb = renamed(data, a), renamed(data, b)
    for ignore in (False, True):
        assert scheme_eq(ra, rb, ignore_sorts=ignore) == scheme_eq(a, b, ignore_sorts=ignore)
        assert scheme_eq(ra, a, ignore_sorts=ignore)
    assert scheme_instance(ra, rb) == scheme_instance(a, b)
    assert scheme_instance(rb, ra) == scheme_instance(b, a)
    assert scheme_instance(ra, a)
