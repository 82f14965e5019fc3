"""Expression and value syntax for the higher-order field calculus.

Expressions and values share one tree representation: values are the closed
expressions built from constructors, builtin names, function names and closed
lambdas, plus neighbouring-field literals (which can only arise at runtime).
All nodes are frozen, hashable, and compare structurally ignoring source spans,
so alignment keys and map keys can use nodes directly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Union

# numeric constructors are canonicalised floats: -0.0 folds into 0.0 and all
# NaNs are the one object NAN, which tuple comparison finds equal to itself,
# so Data's equality is a real equivalence with a consistent hash
NAN = float("nan")
INF = float("inf")


def canon_num(x: float) -> float:
    x = float(x)
    if x != x:
        return NAN
    return x if x else 0.0  # -0.0 is false


@dataclass(frozen=True)
class Span:
    line: int
    col: int


def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Builtin:
    """A builtin operator name, possibly decorated (e.g. '+[f,f]')."""

    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class DefName:
    """Reference to a declared function; a value by itself."""

    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, init=False)
class Data:
    """Constructor expression c(e1, ..., en).

    ctor is a string ('True', 'Pair', ...) or a float for numerals, never
    a bool (True == 1.0). Numerals are canonical, so equality and the
    generated hash are structural. A Data node is a value exactly when
    all arguments are local values.

    The evaluators build one of these for nearly every value they make,
    so the constructor is written by hand: it stores its arguments as
    given, and a numeral is canonicalised where it is made (num, the
    parser's numeral).
    """

    ctor: Union[str, float]
    args: tuple = ()
    span: Optional[Span] = _span_field()

    def __init__(self, ctor, args=(), span=None):
        # writing the instance dict passes by the frozen __setattr__,
        # which still refuses every later assignment
        d = self.__dict__
        d["ctor"] = ctor
        d["args"] = args
        d["span"] = span

    def __eq__(self, other):
        # the generated equality (same constructor and arguments, spans
        # ignored) with the pending pairs on a list, so that a list
        # thousands long compares without recursion; the tuples keep the
        # one NAN equal to itself, and the dataclass still makes __hash__
        if other.__class__ is not Data:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not Data or b.__class__ is not Data:
                if not a == b:  # any other class compares by its own ==
                    return False
            elif (a.ctor, len(a.args)) != (b.ctor, len(b.args)):
                return False
            else:
                todo += zip(a.args, b.args)
        return True


@dataclass(frozen=True)
class Lambda:
    params: tuple
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Apply:
    fn: "Expr"
    args: tuple
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Rep:
    init: "Expr"
    var: str
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Nbr:
    body: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True, init=False, repr=False)
class FieldVal:
    """Neighbouring field value phi: a finite map from device ids to local
    values, kept as its devices in strictly increasing order and the value
    at each of them. Runtime-only; the parser rejects it in source programs.

    The constructor, written by hand as Data's is, trusts the order: every
    field is built over a domain that is already sorted, so it is never
    sorted again."""

    devs: tuple  # device ids, strictly increasing
    vals: tuple  # vals[i] is the value at devs[i]
    span: Optional[Span] = _span_field()

    def __init__(self, devs, vals, span=None):
        d = self.__dict__
        d["devs"] = devs
        d["vals"] = vals
        d["span"] = span

    @property
    def entries(self) -> tuple:
        """((device id, local value), ...) in device order."""
        return tuple(zip(self.devs, self.vals))

    def __repr__(self):  # the printed form diagnostics have always shown
        return f"FieldVal(entries={self.entries!r})"


# a tuple, not a typing.Union: typing's cache would pin re-imported classes
Expr = (Var, Builtin, DefName, Data, Lambda, Apply, Rep, Nbr, FieldVal)


@dataclass(frozen=True)
class Def:
    name: str
    params: tuple
    body: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Program:
    defs: tuple
    main: Expr


# ---------------------------------------------------------------------------
# constructors and small helpers

TRUE = Data("True")
FALSE = Data("False")


def num(x: float) -> Data:
    return Data(canon_num(x))


def boolean(b: bool) -> Data:
    return TRUE if b else FALSE


def is_num(v) -> bool:
    return isinstance(v, Data) and isinstance(v.ctor, float)


def is_bool(v) -> bool:
    return isinstance(v, Data) and v.ctor in ("True", "False")


def as_bool(v) -> bool:
    if not is_bool(v):
        raise ValueError(f"not a boolean value: {v!r}")
    return v.ctor == "True"


# ---------------------------------------------------------------------------
# the one traversal: direct subexpressions and their binders

def children(e: Expr) -> tuple:
    """Each direct subexpression of e paired with the names e binds around
    it (a lambda's parameters, rep's variable in its body), fn before args
    and init before body. Every walk calls this at every node, so it tests
    the node kinds directly, the most frequent first."""
    if isinstance(e, Apply):
        return ((e.fn, ()), *[(a, ()) for a in e.args])
    if isinstance(e, (Var, Builtin, DefName, FieldVal)):
        return ()
    if isinstance(e, Data):
        return tuple([(a, ()) for a in e.args])
    if isinstance(e, Lambda):
        return ((e.body, e.params),)
    if isinstance(e, Rep):
        return ((e.init, ()), (e.body, (e.var,)))
    if isinstance(e, Nbr):
        return ((e.body, ()),)
    raise TypeError(f"not an expression: {e!r}")


def rebuild(e: Expr, kids) -> Expr:
    """e with its direct subexpressions replaced by kids (children's order)."""
    match e:
        case Data():
            return Data(e.ctor, tuple(kids), span=e.span)
        case Lambda():
            return Lambda(e.params, kids[0], span=e.span)
        case Apply():
            return Apply(kids[0], tuple(kids[1:]), span=e.span)
        case Rep():
            return Rep(kids[0], e.var, kids[1], span=e.span)
        case Nbr():
            return Nbr(kids[0], span=e.span)
    return e


# ---------------------------------------------------------------------------
# the per-node plan both evaluators dispatch on

# What evaluating a node needs to know of the node alone: its free
# variables (sorted), its number of nodes, and leaf_vars. leaf_vars is None
# unless the node is value-shaped: a variable, a builtin or function name, a
# lambda, or data built from these. It then lists the variables in data
# positions: once every free variable holds a value, the node is a value
# exactly when these hold local values. The node's class is its kind tag.
Plan = namedtuple("Plan", "fv leaf_vars size")


def plan(e: Expr) -> Plan:
    """e's plan, computed from its children's on the first call and kept
    on the node (nodes are immutable, so it never goes stale)."""
    try:
        return e._plan
    except AttributeError:
        pass
    fv, leaf, size, shaped = set(), set(), 1, isinstance(e, Data)
    for c, bound in children(e):
        p = plan(c)
        size += p.size
        fv.update(v for v in p.fv if v not in bound)
        shaped = shaped and p.leaf_vars is not None
        leaf.update(p.leaf_vars or ())
    if isinstance(e, Var):
        fv.add(e.name)
        leaf.add(e.name)
    elif not isinstance(e, Data):
        leaf.clear()
    shaped = shaped or isinstance(e, (Var, Builtin, DefName, Lambda))
    p = Plan(tuple(sorted(fv)), tuple(sorted(leaf)) if shaped else None, size)
    object.__setattr__(e, "_plan", p)
    return p


# ---------------------------------------------------------------------------
# value predicates and substitution

def is_local_value(e: Expr) -> bool:
    """ell ::= b | d | closed lambda | c(ell...)

    The answer for data with arguments is kept on the node, so a value
    that grows by one constructor per fire costs one step, not its depth."""
    t = type(e)
    if t is Data:
        if not e.args:
            return True
        try:
            return e._local
        except AttributeError:
            local = e.__dict__["_local"] = all(map(is_local_value, e.args))
            return local
    if t is Lambda:
        return not plan(e).fv
    return t is Builtin or t is DefName


def is_value(e: Expr) -> bool:
    """v ::= ell | phi"""
    if isinstance(e, FieldVal):
        return all(is_local_value(v) for v in e.vals)
    return is_local_value(e)


def free_vars(e: Expr) -> frozenset:
    return frozenset(plan(e).fv)


def substitute(e: Expr, subst: dict) -> Expr:
    """Substitute closed values for variables.

    Only closed values are ever substituted (call-by-value), so no capture
    avoidance is needed beyond respecting binders. A node the substitution
    leaves unchanged is returned as it is.
    """
    if not subst:
        return e
    if isinstance(e, Var):
        return subst.get(e.name, e)
    kids = children(e)
    if not kids:
        return e
    new, same = [], True
    for c, b in kids:
        n = substitute(c, {k: v for k, v in subst.items() if k not in b} if b else subst)
        same = same and n is c
        new.append(n)
    return e if same else rebuild(e, new)


def value_of(e: Expr, X) -> Optional[Expr]:
    """e with X's values in place of its free variables, when that is a
    local value; None otherwise, and when a free variable is unbound. The
    one rule both evaluators use for "e is already a value": a closed
    value-shaped node is itself, a variable its local value, and a
    closure or data leaf is built by substitute."""
    try:
        fv, leaf_vars, _ = e._plan  # plan(e), read without a call when kept
    except AttributeError:
        fv, leaf_vars, _ = plan(e)
    if leaf_vars is None:
        return None
    if not fv:
        return e
    for v in fv:
        if v not in X:
            return None
    for v in leaf_vars:
        if not is_local_value(X[v]):
            return None
    return X[e.name] if type(e) is Var else substitute(e, {v: X[v] for v in fv})


def restrict_value(v: Expr, devs) -> Expr:
    """v restricted to the devices devs if it is a neighbouring field; a
    field that keeps every device is returned as it is."""
    if not isinstance(v, FieldVal):
        return v
    keep = [i for i, d in enumerate(v.devs) if d in devs]
    if len(keep) == len(v.devs):
        return v
    return FieldVal(tuple([v.devs[i] for i in keep]), tuple([v.vals[i] for i in keep]))


# ---------------------------------------------------------------------------
# if-sugar

def desugar_if(guard: Expr, then: Expr, els: Expr, span: Optional[Span] = None) -> Apply:
    """if(e0){e1}else{e2} becomes
    mux(e0, ()=>snd(Pair(True,e1)), ()=>snd(Pair(False,e2)))().

    The True/False tags make the two thunks distinct function values, so the
    branches never align with each other across devices.
    """
    def thunk(tag: Data, branch: Expr) -> Lambda:
        return Lambda((), Apply(Builtin("snd"), (Data("Pair", (tag, branch)),)))

    call = Apply(Builtin("mux"), (guard, thunk(TRUE, then), thunk(FALSE, els)), span=span)
    return Apply(call, (), span=span)
