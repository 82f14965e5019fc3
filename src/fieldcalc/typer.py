"""Sorted Hindley-Milner type inference for the field calculus.

Types come in four sorts forming a small lattice:

    T  any type
    L  local types: everything except neighbouring-field types
    R  return types: locals without arrows, plus neighbouring-field types
    S  local return types: the intersection of L and R

with T above L and R, and meet(L, R) = S. Concretely: field(t) lives in
R but not L; an arrow lives in L, and additionally in S when both its
arguments and result are in S; base types and constructor types are in
S. The unifier tracks one sort per variable and demotes on the fly, so
unifying an L-variable with an R-variable re-sorts both to S, and
binding an L-variable to field(num) is a sort error.

Every demotion records which syntax rule caused it, so a later sort
clash can say which construct is to blame ([T-A-FUN] for a field-typed
free variable of a lambda, [T-REP] for a field-typed rep, and so on).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .ast import (
    Apply,
    Builtin,
    Data,
    DefName,
    Expr,
    FieldVal,
    Lambda,
    Nbr,
    Program,
    Rep,
    Span,
    Var,
    free_vars,
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
    if sort_leq(a, b):
        return a
    if sort_leq(b, a):
        return b
    return Sort.S  # the only incomparable pair is {L, R}


# ---------------------------------------------------------------------------
# type syntax

@dataclass(frozen=True)
class Base:
    name: str  # 'num' | 'bool'


@dataclass(frozen=True)
class TCon:
    name: str  # 'pair' | 'list'
    args: tuple


@dataclass(frozen=True)
class FieldT:
    inner: "Type"


@dataclass(frozen=True)
class Arrow:
    args: tuple
    res: "Type"


@dataclass(frozen=True)
class TVar:
    vid: int


Type = (Base, TCon, FieldT, Arrow, TVar)  # a tuple: see ast.Expr

NUM = Base("num")
BOOL = Base("bool")


def map_vars(t: Type, f) -> Type:
    """t with each type variable v replaced by f(v), visiting the
    variables left to right (arguments before results)."""
    match t:
        case TVar():
            return f(t)
        case Base():
            return t
        case TCon(name=n, args=a):
            return TCon(n, tuple(map_vars(x, f) for x in a))
        case FieldT(inner=i):
            return FieldT(map_vars(i, f))
        case Arrow(args=a, res=r):
            return Arrow(tuple(map_vars(x, f) for x in a), map_vars(r, f))
    raise TypeError(f"not a type: {t!r}")


def var_ids(t: Type) -> list:
    """The ids of t's type variables, in order of first appearance."""
    seen: dict = {}
    map_vars(t, lambda v: seen.setdefault(v.vid, v))
    return list(seen)


@dataclass(frozen=True)
class Scheme:
    """Quantified type; qvars pairs (vid, sort) listing body's free vars."""

    qvars: tuple  # ((vid, Sort), ...)
    body: Type


class TypecheckError(Exception):
    def __init__(self, msg: str, rule: str = "", span: Optional[Span] = None):
        self.msg = msg
        self.rule = rule
        self.span = span
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
        self._next = 0
        self.span: Optional[Span] = None  # innermost span, for errors

    def fresh(self, sort: Sort, origin: str = "") -> TVar:
        v = TVar(self._next)
        self._next += 1
        self.sorts[v.vid] = sort
        if origin:
            self.origin[v.vid] = origin
        return v

    def adopt(self, vid: int, sort: Sort):
        """Register an externally numbered variable (from a parsed scheme)."""
        self.sorts.setdefault(vid, sort)
        self._next = max(self._next, vid + 1)

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
            case Base():
                return
            case TCon(args=args):
                for a in args:
                    self.demote(a, Sort.S, rule, blame)
            case FieldT(inner=inner):
                if want in (Sort.L, Sort.S):
                    raise self.err(
                        f"{self.show(t)} is a neighbouring-field type, not a local type", blame
                    )
                self.demote(inner, Sort.S, rule, blame)
            case Arrow(args=args, res=res):
                if want in (Sort.R, Sort.S):
                    # only arrows between local return types are return types
                    for a in args:
                        self.demote(a, Sort.S, rule, blame)
                    self.demote(res, Sort.S, rule, blame)
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
        match (a, b):
            case (Base(name=n1), Base(name=n2)) if n1 == n2:
                return
            case (TCon(name=n1, args=a1), TCon(name=n2, args=a2)) if n1 == n2 and len(a1) == len(a2):
                for x, y in zip(a1, a2):
                    self.unify(x, y, rule)
                return
            case (FieldT(inner=i1), FieldT(inner=i2)):
                self.unify(i1, i2, rule)
                return
            case (Arrow(args=a1, res=r1), Arrow(args=a2, res=r2)) if len(a1) == len(a2):
                for x, y in zip(a1, a2):
                    self.unify(x, y, rule)
                self.unify(r1, r2, rule)
                return
        raise self.err(f"cannot unify {self.show(a)} with {self.show(b)}", rule)

    # ---- schemes -----------------------------------------------------

    def instantiate(self, sch: Scheme, rule: str) -> Type:
        if not sch.qvars:
            return sch.body
        mapping = {vid: self.fresh(sort, origin=rule) for vid, sort in sch.qvars}
        return map_vars(sch.body, lambda v: mapping.get(v.vid, v))

    def generalize(self, t: Type) -> Scheme:
        body = self.deep_resolve(t)
        qv = tuple((v, self.sorts[v]) for v in var_ids(body))
        return Scheme(qv, body)

    # ---- inference ---------------------------------------------------

    def infer(self, e: Expr, env: dict, schemes: dict) -> Type:
        prev = self.span
        if getattr(e, "span", None) is not None:
            self.span = e.span
        try:
            return self._infer(e, env, schemes)
        finally:
            self.span = prev

    def _infer(self, e: Expr, env: dict, schemes: dict) -> Type:
        # imported here: builtins imports this module for its schemes
        from .builtins import TABLE, ctor_scheme

        match e:
            case Var(name=n):
                if n not in env:
                    raise self.err(f"unbound variable {n!r}", "T-VAR")
                return env[n]
            case Builtin(name=n):
                sch = TABLE.scheme(n)
                if sch is None:
                    raise self.err(f"unknown builtin {n!r}", "T-N-FUN")
                return self.instantiate(sch, "T-N-FUN")
            case DefName(name=n):
                if n not in schemes:
                    raise self.err(f"unknown function {n!r}", "T-N-FUN")
                return self.instantiate(schemes[n], "T-N-FUN")
            case Data(ctor=c, args=args):
                sch = ctor_scheme(c, len(args))
                if sch is None:
                    raise self.err(f"unknown constructor {c!r} of arity {len(args)}", "T-VAL")
                ct = self.instantiate(sch, "T-VAL")  # an arrow, () -> T for a constant
                for a, want in zip(args, ct.args):
                    got = self.infer(a, env, schemes)
                    self.unify(got, want, "T-VAL")
                return ct.res
            case Lambda(params=ps, body=b):
                for y in sorted(free_vars(e)):
                    self.demote(env[y], Sort.L, "T-A-FUN")
                pvars = {x: self.fresh(Sort.T) for x in ps}
                tb = self.infer(b, {**env, **pvars}, schemes)
                self.demote(tb, Sort.R, "T-A-FUN")
                return Arrow(tuple(pvars[x] for x in ps), tb)
            case Apply(fn=f, args=args):
                if isinstance(f, Builtin):
                    sch = TABLE.scheme(f.name, arity=len(args))
                    if sch is None:
                        raise self.err(f"unknown builtin {f.name!r}", "T-N-FUN")
                    tf = self.instantiate(sch, "T-N-FUN")
                else:
                    tf = self.infer(f, env, schemes)
                targs = tuple(self.infer(a, env, schemes) for a in args)
                res = self.fresh(Sort.R, origin="T-APP")
                self.unify(tf, Arrow(targs, res), "T-APP")
                return res
            case Rep(init=i, var=x, body=b):
                alpha = self.fresh(Sort.S, origin="T-REP")
                t0 = self.infer(i, env, schemes)
                self.unify(t0, alpha, "T-REP")
                t1 = self.infer(b, {**env, x: alpha}, schemes)
                self.unify(t1, alpha, "T-REP")
                return alpha
            case Nbr(body=b):
                t = self.infer(b, env, schemes)
                self.demote(t, Sort.S, "T-NBR")
                return FieldT(t)
            case FieldVal(entries=ent):
                # runtime-only; typed for value-tree checking
                s = self.fresh(Sort.S, origin="T-FLD")
                for _, v in ent:
                    self.unify(self.infer(v, env, schemes), s, "T-FLD")
                return FieldT(s)
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


def typecheck_expr(e: Expr) -> Type:
    """Type a bare expression with no declarations in scope."""
    ty = Typer()
    t = ty.infer(e, {}, {})
    return ty.deep_resolve(t)


# ---------------------------------------------------------------------------
# type syntax: parsing and printing
#
# Concrete syntax: num, bool, pair(T,T), list(T), field(T), (T,...) -> T,
# variables t1/l2/r3/s4 (sort from the leading letter), schemes
# "forall s1, s2. body".

_TYPE_TOKEN = re.compile(r"->|[(),.]|[A-Za-z][A-Za-z0-9+-]*|\S")


def _sort_of_varname(name: str) -> Optional[Sort]:
    if re.fullmatch(r"[tlrs][0-9]*", name):
        return Sort(name[0])
    return None


class _TypeParser:
    def __init__(self, text: str):
        self.toks = _TYPE_TOKEN.findall(text)
        self.pos = 0
        self.vars: dict = {}
        self.next_vid = 0

    def peek(self) -> str:
        return self.toks[self.pos] if self.pos < len(self.toks) else ""

    def take(self) -> str:
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, t: str):
        got = self.take()
        if got != t:
            raise ValueError(f"expected {t!r} in type, found {got!r}")

    def var(self, name: str) -> TVar:
        if name not in self.vars:
            self.vars[name] = TVar(self.next_vid)
            self.next_vid += 1
        return self.vars[name]

    def scheme(self) -> Scheme:
        declared: list = []
        if self.peek() == "forall":
            self.take()
            while True:
                name = self.take()
                sort = _sort_of_varname(name)
                if sort is None:
                    raise ValueError(f"bad type variable {name!r}")
                declared.append((self.var(name).vid, sort))
                if self.peek() == ",":
                    self.take()
                    continue
                break
            self.expect(".")
        body = self.type()
        if self.pos != len(self.toks):
            raise ValueError(f"trailing type tokens: {self.toks[self.pos:]}")
        return Scheme(tuple(declared), body)

    def type(self) -> Type:
        if self.peek() == "(":
            self.take()
            args: list = []
            if self.peek() != ")":
                args.append(self.type())
                while self.peek() == ",":
                    self.take()
                    args.append(self.type())
            self.expect(")")
            if self.peek() == "->":
                self.take()
                return Arrow(tuple(args), self.type())
            if len(args) == 1:
                return args[0]
            raise ValueError("tuple types do not exist; use pair(...)")
        name = self.take()
        if name in ("num", "bool"):
            return Base(name)
        if name in ("pair", "list", "field"):
            self.expect("(")
            args = [self.type()]
            while self.peek() == ",":
                self.take()
                args.append(self.type())
            self.expect(")")
            if name == "field":
                if len(args) != 1:
                    raise ValueError("field takes one argument")
                return FieldT(args[0])
            want = 2 if name == "pair" else 1
            if len(args) != want:
                raise ValueError(f"{name} takes {want} argument(s)")
            return TCon(name, tuple(args))
        sort = _sort_of_varname(name)
        if sort is not None:
            return self.var(name)
        raise ValueError(f"unknown type {name!r}")


def parse_scheme(text: str) -> Scheme:
    p = _TypeParser(text)
    sch = p.scheme()
    if sch.qvars:
        return sch
    # undeclared variables quantify implicitly, sorted by first appearance
    declared = []
    for name, tv in p.vars.items():
        declared.append((tv.vid, _sort_of_varname(name)))
    return Scheme(tuple(declared), sch.body)


def parse_type(text: str) -> Type:
    sch = parse_scheme(text)
    if sch.qvars:
        raise ValueError(f"type contains variables: {text!r}")
    return sch.body


def show_type(t: Type, sorts: Optional[dict] = None, names: Optional[dict] = None) -> str:
    """Render a (resolved) type; variables get canonical sort-letter names."""
    if names is None:
        names = {}
    counters: dict = {}

    def name_of(vid: int) -> str:
        if vid in names:
            return names[vid]
        sort = sorts.get(vid, Sort.T) if sorts else Sort.T
        counters[sort] = counters.get(sort, 0) + 1
        names[vid] = f"{sort.value}{counters[sort]}"
        return names[vid]

    # seed counters from pre-assigned names
    for n in names.values():
        s = _sort_of_varname(n)
        if s is not None and n[1:].isdigit():
            counters[s] = max(counters.get(s, 0), int(n[1:] or 0))

    def walk(t: Type) -> str:
        match t:
            case Base(name=n):
                return n
            case TCon(name=n, args=a):
                return f"{n}({', '.join(walk(x) for x in a)})"
            case FieldT(inner=i):
                return f"field({walk(i)})"
            case Arrow(args=a, res=r):
                return f"({', '.join(walk(x) for x in a)}) -> {walk(r)}"
            case TVar(vid=v):
                return name_of(v)
        raise TypeError(f"not a type: {t!r}")

    return walk(t)


def show_scheme(sch: Scheme) -> str:
    names: dict = {}
    counters: dict = {}
    for vid, sort in sch.qvars:
        counters[sort] = counters.get(sort, 0) + 1
        names[vid] = f"{sort.value}{counters[sort]}"
    body = show_type(sch.body, sorts=dict(sch.qvars), names=names)
    if not sch.qvars:
        return body
    return f"forall {', '.join(names[vid] for vid, _ in sch.qvars)}. {body}"


def _canonical(sch: Scheme, with_sorts: bool):
    """Rename quantified vars in order of first appearance in the body."""
    order = var_ids(sch.body)
    ren = {v: TVar(i) for i, v in enumerate(order)}
    sorts = dict(sch.qvars) if with_sorts else {}
    return map_vars(sch.body, lambda v: ren[v.vid]), tuple(sorts.get(v) for v in order)


def scheme_eq(a: Scheme, b: Scheme, ignore_sorts: bool = False) -> bool:
    """Alpha-equivalence of schemes; sorts of variables must match unless
    ignore_sorts is set (used when comparing against looser annotations)."""
    return _canonical(a, not ignore_sorts) == _canonical(b, not ignore_sorts)


def scheme_instance(general: Scheme, specific: Scheme) -> bool:
    """Whether `specific` is a sort-respecting instance of `general`.

    The specific scheme's own variables are rigid: they only match
    themselves, and their sorts may not be narrowed.
    """
    ty = Typer()
    rigid = set()
    for vid, sort in specific.qvars:
        ty.adopt(vid + 10_000, sort)
        rigid.add(vid + 10_000)

    target = map_vars(specific.body, lambda v: TVar(v.vid + 10_000))
    inst = ty.instantiate(Scheme(general.qvars, general.body), "instance-check")
    original_sort = {v: ty.sorts[v] for v in rigid}
    try:
        ty.unify(inst, target, "instance-check")
    except TypecheckError:
        return False
    # every rigid variable must still denote itself: resolve to a variable,
    # distinct from the other rigids' resolutions, with its sort intact
    seen = set()
    for v in rigid:
        rt = ty.resolve(TVar(v))
        if not isinstance(rt, TVar) or rt.vid in seen:
            return False
        if ty.sorts[rt.vid] != original_sort[v]:
            return False
        seen.add(rt.vid)
    return True
