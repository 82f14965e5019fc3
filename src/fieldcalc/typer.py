"""Sorted Hindley-Milner type inference for the field calculus.

A type is a variable, a named constructor applied to types, or an arrow:
TVar | TCon | Arrow. The constructors are _ARITY's: num, bool, pair, list
and field, the neighbouring-field type made by `field`.

Types come in four sorts forming a small lattice:

    T  any type
    L  local types: everything except neighbouring-field types
    R  return types: locals without arrows, plus neighbouring-field types
    S  local return types: the intersection of L and R

with T above L and R, and meet(L, R) = S. Concretely: field(t) lives in
R but not L; an arrow lives in L, and additionally in S when both its
arguments and result are in S; every other constructed type is in S, as
field's is the only sort rule tied to a constructor's name. The unifier
tracks one sort per variable and demotes on the fly, so unifying an
L-variable with an R-variable re-sorts both to S, and binding an
L-variable to field(num) is a sort error.

Every demotion records which syntax rule caused it, so a later sort
clash can say which construct is to blame ([T-A-FUN] for a field-typed
free variable of a lambda, [T-REP] for a field-typed rep, and so on).

Schemes are canonical where they are made: a scheme's quantified variables
are numbered 0..n-1 in order of first appearance in its body. So one
printer, one equality and one instance check serve every scheme.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Optional

from .ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    Expr,
    Frozen,
    Lambda,
    Nbr,
    Program,
    Rep,
    Span,
    Var,
    plan,
    slot_stores,
)


class Sort(Enum):
    T = "t"
    L = "l"
    R = "r"
    S = "s"


_ABOVE = {Sort.T: set(), Sort.L: {Sort.T}, Sort.R: {Sort.T}, Sort.S: {Sort.T, Sort.L, Sort.R}}


def sort_leq(a: Sort, b: Sort) -> bool:
    """a is at or below b in the lattice (a more specific)."""
    return a == b or b in _ABOVE[a]


def sort_meet(a: Sort, b: Sort) -> Sort:
    # the only incomparable pair is {L, R}
    return a if sort_leq(a, b) else b if sort_leq(b, a) else Sort.S


# ---------------------------------------------------------------------------
# type syntax

class TCon(Frozen):
    __slots__ = _fields = ("name", "args")  # a name of _ARITY, argument types

    def __init__(self, name: str, args: tuple):
        _tcon_name(self, name)
        _tcon_args(self, args)


_tcon_name, _tcon_args = slot_stores(TCon, "name", "args")


class Arrow(Frozen):
    __slots__ = _fields = ("args", "res")

    def __init__(self, args: tuple, res: "Type"):
        _arrow_args(self, args)
        _arrow_res(self, res)


_arrow_args, _arrow_res = slot_stores(Arrow, "args", "res")


class TVar(Frozen):
    __slots__ = _fields = ("vid",)

    def __init__(self, vid: int):
        _tvar_vid(self, vid)


_tvar_vid, = slot_stores(TVar, "vid")


Type = (TCon, Arrow, TVar)  # a tuple: see ast.Expr
_ARITY = {"num": 0, "bool": 0, "pair": 2, "list": 1, "field": 1}  # each TCon name: its arity


def field(t: Type) -> TCon:
    """The neighbouring-field type of t."""
    return TCon("field", (t,))


def map_vars(t: Type, f) -> Type:
    """t with each type variable v replaced by f(v), visiting the
    variables left to right (arguments before results)."""
    k = type(t)
    if k is TVar:
        return f(t)
    if k is TCon:
        return TCon(t.name, tuple([map_vars(x, f) for x in t.args])) if t.args else t
    if k is Arrow:
        return Arrow(tuple([map_vars(x, f) for x in t.args]), map_vars(t.res, f))
    raise TypeError(f"not a type: {t!r}")


def var_ids(t: Type) -> list:
    """The ids of t's type variables, in order of first appearance."""
    seen: dict = {}
    map_vars(t, lambda v: seen.setdefault(v.vid, v))
    return list(seen)


class Scheme(Frozen):
    """Quantified type; qvars pairs (vid, sort) listing body's free vars.
    Every scheme the typer makes is canonical (see `canonical`)."""

    __slots__ = _fields = ("qvars", "body")  # ((vid, Sort), ...), a Type


class TypecheckError(Exception):
    def __init__(self, msg: str, rule: str = "", span: Optional[Span] = None):
        self.msg, self.rule, self.span = msg, rule, span
        super().__init__(str(self))

    def __str__(self):
        tag = f"[{self.rule}] " if self.rule else ""
        loc = f"{self.span.line}:{self.span.col}: " if self.span else ""
        return f"{loc}{tag}{self.msg}"


# ---------------------------------------------------------------------------
# the inference engine

class Typer:
    def __init__(self):
        self.subst: dict = {}
        self.sorts: dict = {}
        self.origin: dict = {}
        self.span: Optional[Span] = None  # innermost span, for errors
        from .builtins import TABLE, ctor_scheme  # not at import: builtins imports this module
        self.builtins, self.ctor_scheme = TABLE, ctor_scheme

    def fresh(self, sort: Sort, origin: str = "") -> TVar:
        v = TVar(len(self.sorts))  # every variable is made here and sorted
        self.sorts[v.vid] = sort
        if origin:
            self.origin[v.vid] = origin
        return v

    def resolve(self, t: Type) -> Type:
        while isinstance(t, TVar) and t.vid in self.subst:
            t = self.subst[t.vid]
        return t

    def deep_resolve(self, t: Type) -> Type:
        return map_vars(
            t, lambda v: self.deep_resolve(self.subst[v.vid]) if v.vid in self.subst else v)

    def err(self, msg: str, rule: str) -> TypecheckError:
        return TypecheckError(msg, rule=rule, span=self.span)

    # ---- sorts -------------------------------------------------------

    def demote(self, t: Type, want: Sort, rule: str, blame: str = ""):
        """Force t to inhabit sort `want`, re-sorting variables as needed.

        `blame` is the rule reported on failure; it defaults to `rule`,
        but callers binding a variable pass that variable's recorded
        origin so the error points at the construct that introduced the
        sort constraint rather than the unification site.
        """
        blame = blame or rule
        t = self.resolve(t)
        match t:
            case TCon(name=name, args=args):
                if name == "field" and want in (Sort.L, Sort.S):
                    raise self.err(
                        f"{self.show(t)} is a neighbouring-field type, not a local type", blame
                    )
                for a in args:
                    self.demote(a, Sort.S, rule, blame)
            case Arrow(args=args, res=res):
                if want in (Sort.R, Sort.S):
                    # only arrows between local return types are return types
                    for a in (*args, res):
                        self.demote(a, Sort.S, rule, blame)
            case TVar(vid=vid):
                cur = self.sorts[vid]
                new = sort_meet(cur, want)
                if new != cur:
                    self.sorts[vid] = new
                    self.origin[vid] = rule
            case _:
                raise TypeError(f"not a type: {t!r}")

    def bind(self, v: TVar, t: Type, rule: str):
        if v.vid in var_ids(self.deep_resolve(t)):
            raise self.err(f"occurs check: cannot build infinite type {self.show(TVar(v.vid))} = {self.show(t)}", rule)
        self.demote(t, self.sorts[v.vid], rule, blame=self.origin.get(v.vid, rule))
        self.subst[v.vid] = t

    def unify(self, t1: Type, t2: Type, rule: str):
        a, b = self.resolve(t1), self.resolve(t2)
        if isinstance(a, TVar) and isinstance(b, TVar):
            if a.vid == b.vid:
                return
            sa, sb = self.sorts[a.vid], self.sorts[b.vid]
            m = sort_meet(sa, sb)
            if sa == m:
                self.subst[b.vid] = a
            elif sb == m:
                self.subst[a.vid] = b
            else:
                c = self.fresh(m, origin=rule)
                self.subst[a.vid] = c
                self.subst[b.vid] = c
            return
        if isinstance(a, TVar):
            self.bind(a, b, rule)
            return
        if isinstance(b, TVar):
            self.bind(b, a, rule)
            return
        match (a, b):  # the pairs of parts to unify, left to right
            case (TCon(name=n1, args=a1), TCon(name=n2, args=a2)) if n1 == n2 and len(a1) == len(a2):
                pairs = zip(a1, a2)
            case (Arrow(args=a1, res=r1), Arrow(args=a2, res=r2)) if len(a1) == len(a2):
                pairs = (*zip(a1, a2), (r1, r2))
            case _:
                raise self.err(f"cannot unify {self.show(a)} with {self.show(b)}", rule)
        for x, y in pairs:
            self.unify(x, y, rule)

    # ---- schemes -----------------------------------------------------

    def instantiate(self, sch: Scheme, rule: str) -> Type:
        if not sch.qvars:
            return sch.body
        mapping = {vid: self.fresh(sort, origin=rule) for vid, sort in sch.qvars}
        return map_vars(sch.body, lambda v: mapping.get(v.vid, v))

    def generalize(self, t: Type) -> Scheme:
        return canonical(self.deep_resolve(t), self.sorts)

    def builtin_type(self, name: str, arity: Optional[int] = None) -> Type:
        sch = self.builtins.scheme(name, arity=arity)
        if sch is None:
            raise self.err(f"unknown builtin {name!r}", "T-N-FUN")
        return self.instantiate(sch, "T-N-FUN")

    # ---- inference ---------------------------------------------------

    def infer(self, e: Expr, env: dict, schemes: dict) -> Type:
        prev = self.span
        if getattr(e, "span", None) is not None:
            self.span = e.span
        try:
            match e:
                case Var(name=n):
                    if n not in env:
                        raise self.err(f"unbound variable {n!r}", "T-VAR")
                    return env[n]
                case Builtin(name=n):
                    return self.builtin_type(n)
                case DefName(name=n):
                    if n not in schemes:
                        raise self.err(f"unknown function {n!r}", "T-N-FUN")
                    return self.instantiate(schemes[n], "T-N-FUN")
                case Data(ctor=c, args=args):
                    sch = self.ctor_scheme(c, len(args))
                    if sch is None:
                        raise self.err(f"unknown constructor {c!r} of arity {len(args)}", "T-VAL")
                    ct = self.instantiate(sch, "T-VAL")  # an arrow, () -> T for a constant
                    for a, want in zip(args, ct.args):
                        self.unify(self.infer(a, env, schemes), want, "T-VAL")
                    return ct.res
                case Lambda(params=ps, body=b):
                    for y in plan(e).fv:
                        self.demote(env[y], Sort.L, "T-A-FUN")
                    pvars = {x: self.fresh(Sort.T) for x in ps}
                    tb = self.infer(b, {**env, **pvars}, schemes)
                    self.demote(tb, Sort.R, "T-A-FUN")
                    return Arrow(tuple(pvars[x] for x in ps), tb)
                case Apply(fn=f, args=args):
                    tf = (self.builtin_type(f.name, arity=len(args)) if isinstance(f, Builtin)
                          else self.infer(f, env, schemes))
                    targs = []  # a plain loop, so one frame per level of nesting
                    for a in args:
                        targs.append(self.infer(a, env, schemes))
                    res = self.fresh(Sort.R, origin="T-APP")
                    self.unify(tf, Arrow(tuple(targs), res), "T-APP")
                    return res
                case Rep(init=i, var=x, body=b):
                    alpha = self.fresh(Sort.S, origin="T-REP")
                    self.unify(self.infer(i, env, schemes), alpha, "T-REP")
                    self.unify(self.infer(b, {**env, x: alpha}, schemes), alpha, "T-REP")
                    return alpha
                case Nbr(body=b):
                    t = self.infer(b, env, schemes)
                    self.demote(t, Sort.S, "T-NBR")
                    return field(t)
        finally:
            self.span = prev
        raise TypeError(f"not an expression: {e!r}")

    # ---- rendering ---------------------------------------------------

    def show(self, t: Type) -> str:
        return show_type(self.deep_resolve(t), sorts=self.sorts)


# ---------------------------------------------------------------------------
# program-level checking

def typecheck_program(p: Program):
    """Infer schemes for every declaration and the main expression's type.

    Returns (main type, {name: Scheme}, typer). [T-PROGRAM] requires the
    main expression's type to be local.
    """
    ty = Typer()
    schemes: dict = {}
    for d in p.defs:
        pvars = {x: ty.fresh(Sort.T) for x in d.params}
        res = ty.fresh(Sort.R)
        self_assumption = Arrow(tuple(pvars[x] for x in d.params), res)
        schemes[d.name] = Scheme((), self_assumption)
        tb = ty.infer(d.body, pvars, schemes)
        ty.span = d.span
        ty.unify(tb, res, "T-FUNCTION")
        schemes[d.name] = ty.generalize(self_assumption)
    t = ty.infer(p.main, {}, schemes)
    ty.span = None
    ty.demote(t, Sort.L, "T-PROGRAM")
    return ty.deep_resolve(t), schemes, ty


def principal_scheme(p: Program, main_type: Type, schemes: dict) -> Scheme:
    """What a program's type is reported as: the generalized scheme of the
    def its main names, else the main type itself."""
    if isinstance(p.main, DefName) and p.main.name in schemes:
        return schemes[p.main.name]
    return Scheme((), main_type)


# ---------------------------------------------------------------------------
# type syntax: parsing and printing
#
# Concrete syntax: num, bool, pair(T,T), list(T), field(T), (T,...) -> T,
# variables t1/l2/r3/s4 (sort from the leading letter), schemes
# "forall s1, s2. body". A forall lists the body's variables in order of
# first appearance; without one, every variable of the body is quantified.
# Schemes are canonical where they are made (see `canonical`), so one
# printer, one equality and one instance check serve them all.

_TYPE_TOKEN = re.compile(r"->|[(),.]|[A-Za-z][A-Za-z0-9+-]*|\S")
_TYPE_VAR = re.compile(r"[tlrs][0-9]*")


def canonical(body: Type, sorts: dict) -> Scheme:
    """The scheme quantifying every variable of body, renumbered 0..n-1 in
    order of first appearance (the order map_vars visits them), each with
    its sort in `sorts`. A variable `sorts` lacks gets None: scheme_eq
    compares variables no scheme quantifies that way."""
    new: dict = {}
    body = map_vars(body, lambda v: new.setdefault(v.vid, TVar(len(new))))
    return Scheme(tuple((n.vid, sorts.get(v)) for v, n in new.items()), body)


def _expect(toks: list, i: int, want: str) -> int:
    if toks[i] != want:
        raise ValueError(f"expected {want!r} in type, found {toks[i]!r}")
    return i + 1


def _read_types(toks: list, i: int, names: dict) -> tuple:
    """One or more comma-separated types from toks[i], and the index after them."""
    t, i = _read_type(toks, i, names)
    out = [t]
    while toks[i] == ",":
        t, i = _read_type(toks, i + 1, names)
        out.append(t)
    return out, i


def _read_type(toks: list, i: int, names: dict) -> tuple:
    """The type at toks[i], and the index after it; `names` maps each
    variable name read so far to its TVar, numbered as first read."""
    tok = toks[i]
    i += 1
    if tok == "(":
        args, i = ([], i) if toks[i] == ")" else _read_types(toks, i, names)
        i = _expect(toks, i, ")")
        if toks[i] == "->":
            res, i = _read_type(toks, i + 1, names)
            return Arrow(tuple(args), res), i
        if len(args) == 1:
            return args[0], i
        raise ValueError("tuple types do not exist; use pair(...)")
    want = _ARITY.get(tok)
    if want is not None:
        args = ()
        if want:
            args, i = _read_types(toks, _expect(toks, i, "("), names)
            i = _expect(toks, i, ")")
            if len(args) != want:
                raise ValueError("field takes one argument" if tok == "field"
                                 else f"{tok} takes {want} argument(s)")
        return TCon(tok, tuple(args)), i
    if _TYPE_VAR.fullmatch(tok):
        return names.setdefault(tok, TVar(len(names))), i
    raise ValueError(f"unknown type {tok!r}")


def parse_scheme(text: str) -> Scheme:
    """Read a type, or a scheme "forall v1, ... . type", as a canonical scheme."""
    toks = _TYPE_TOKEN.findall(text)
    toks.append("")  # the end, read as an empty token
    declared, i = [], 0
    if toks[0] == "forall":
        while not declared or toks[i] == ",":
            if not _TYPE_VAR.fullmatch(toks[i + 1]):
                raise ValueError(f"bad type variable {toks[i + 1]!r}")
            declared.append(toks[i + 1])
            i += 2
        i = _expect(toks, i, ".")
    names: dict = {}
    body, i = _read_type(toks, i, names)
    if i != len(toks) - 1:
        raise ValueError(f"trailing type tokens: {toks[i:-1]}")
    if declared and declared != list(names):
        raise ValueError(f"forall lists {', '.join(declared)}, but the body's variables "
                         f"in order of first appearance are {', '.join(names) or 'none'}")
    return canonical(body, {v.vid: Sort(name[0]) for name, v in names.items()})


def _var_names(t: Type, sorts: dict) -> dict:
    """Each variable of t named by the letter of its sort in `sorts` (T when
    absent), numbered per sort in order of first appearance."""
    counts = dict.fromkeys(Sort, 0)
    names: dict = {}
    for v in var_ids(t):
        sort = sorts.get(v, Sort.T)
        counts[sort] += 1
        names[v] = f"{sort.value}{counts[sort]}"
    return names


def show_type(t: Type, sorts: dict) -> str:
    """Render a (resolved) type, naming its variables by _var_names."""
    names = _var_names(t, sorts)

    def walk(t: Type) -> str:
        match t:
            case TCon(name=n, args=a):
                return f"{n}({', '.join(walk(x) for x in a)})" if a else n
            case Arrow(args=a, res=r):
                return f"({', '.join(walk(x) for x in a)}) -> {walk(r)}"
            case TVar(vid=v):
                return names[v]
        raise TypeError(f"not a type: {t!r}")

    return walk(t)


def show_scheme(sch: Scheme) -> str:
    """The quantifier list, then the body. sch is canonical, so the list
    names its variables as the body does."""
    sorts = dict(sch.qvars)
    body = show_type(sch.body, sorts)
    names = _var_names(sch.body, sorts)
    return f"forall {', '.join(names[v] for v, _ in sch.qvars)}. {body}" if sch.qvars else body


def scheme_eq(a: Scheme, b: Scheme, ignore_sorts: bool = False) -> bool:
    """Alpha-equivalence of schemes: equal canonical forms. Sorts of
    variables must match unless ignore_sorts is set (used when comparing
    against looser annotations); a variable neither scheme quantifies, as in
    principal_scheme's unquantified main type, has no sort."""
    sa, sb = ({}, {}) if ignore_sorts else (dict(a.qvars), dict(b.qvars))
    return canonical(a.body, sa) == canonical(b.body, sb)


def scheme_instance(general: Scheme, specific: Scheme) -> bool:
    """Whether `specific` is a sort-respecting instance of `general`.

    Each variable of specific becomes a fresh rigid variable: it only
    matches itself, and its sort may not be narrowed. Each variable of
    general becomes a fresh flexible one. A variable its scheme does not
    quantify takes sort T.
    """
    ty = Typer()

    def fresh_copy(sch: Scheme) -> tuple:
        sorts = dict(sch.qvars)
        fresh = {v: ty.fresh(sorts.get(v, Sort.T)) for v in var_ids(sch.body)}
        return map_vars(sch.body, lambda v: fresh[v.vid]), fresh.values()

    inst, _ = fresh_copy(general)
    target, rigid = fresh_copy(specific)
    sorts = [ty.sorts[v.vid] for v in rigid]
    try:
        ty.unify(inst, target, "instance-check")
    except TypecheckError:
        return False
    # every rigid variable must still denote itself: resolve to a variable,
    # distinct from the other rigids' resolutions, with its sort intact
    ends = [ty.resolve(v) for v in rigid]
    return (all(isinstance(e, TVar) and ty.sorts[e.vid] == s for e, s in zip(ends, sorts))
            and len({e.vid for e in ends}) == len(ends))
