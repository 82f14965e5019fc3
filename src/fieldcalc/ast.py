"""Expression and value syntax for the higher-order field calculus.

Expressions and values share one tree representation: values are the closed
expressions built from constructors, builtin names, function names and closed
lambdas, plus neighbouring-field literals (which can only arise at runtime).
All nodes are frozen, hashable, and compare structurally ignoring source spans,
so alignment keys and map keys can use nodes directly.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter
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


# ---------------------------------------------------------------------------
# records

set_field = object.__setattr__  # how a frozen record stores a field by name


def slot_stores(cls, *names) -> tuple:
    """The store of each named slot of cls: the __set__ of the slot's own
    descriptor, which a frozen record's refusing __setattr__ does not
    reach and which finds the slot without a lookup by name."""
    return tuple([getattr(cls, n).__set__ for n in names])


class Record:
    """A record: the fields a class names in _fields, in order, give its
    == (true only between records of one class) and its repr; a node's
    source span is never among them. A record that can change is
    unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:
            get = attrgetter(*cls._fields)
            cls._key = get if len(cls._fields) > 1 else (lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self.__class__._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record that refuses every assignment or deletion once made. Its
    hash is the hash of the tuple of its fields. This constructor takes
    the fields by position or keyword, those in _defaults optional.

    Every field is a slot, and a record stores its fields through the
    slots' own descriptors (slot_stores), found once per class: this
    constructor through _stores, and a record built in bulk (a span, a
    token, a type, an expression node, data, a field, sensor readings)
    through its own constructor, which names each store and is two to
    three times as fast. Assignment and deletion still go through the
    refusing __setattr__ and __delattr__."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" in cls.__dict__:
            cls._stores = slot_stores(cls, *cls._fields)

    def __init__(self, *args, **kwargs):
        stores = self._stores
        if kwargs or len(args) != len(stores):
            args = self._bind(args, kwargs)
        for store, v in zip(stores, args):
            store(self, v)

    @classmethod
    def _bind(cls, args, kwargs):
        """args and kwargs as one value per field, defaults filled in."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        out = list(args)
        for p in fields[len(args):]:
            if p in kwargs:
                out.append(kwargs.pop(p))
            elif p in cls._defaults:
                out.append(cls._defaults[p])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {p!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return out

    def __hash__(self):
        return hash(self.__class__._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Span(Frozen):
    __slots__ = _fields = ("line", "col")

    def __init__(self, line: int, col: int):
        _span_line(self, line)
        _span_col(self, col)


_span_line, _span_col = slot_stores(Span, "line", "col")


class Node(Frozen):
    """An expression node: its source span, if it has one, and what the
    evaluators keep on it once worked out: its plan (_plan) and the
    operational and denotational closures (_dev, _den)."""

    __slots__ = ("span", "_plan", "_dev", "_den")


_node_span, = slot_stores(Node, "span")


class Name(Node):
    """What a variable, a builtin and a function name share: one name."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str, span: Optional[Span] = None):
        _name_name(self, name)
        _node_span(self, span)


_name_name, = slot_stores(Name, "name")


class Var(Name):
    __slots__ = ()


class Builtin(Name):
    """A builtin operator name, possibly decorated (e.g. '+[f,f]')."""

    __slots__ = ()


class DefName(Name):
    """Reference to a declared function; a value by itself."""

    __slots__ = ()


class Data(Node):
    """Constructor expression c(e1, ..., en).

    ctor is a string ('True', 'Pair', ...) or a float for numerals, never
    a bool (True == 1.0). Numerals are canonical, so equality and hash are
    structural. A Data node is a value exactly when all arguments are
    local values (kept in _local once asked); its hash is kept in _hash.

    The evaluators build one of these for nearly every value they make:
    the constructor stores its arguments as given, and a numeral is
    canonicalised where it is made (num, the parser's numeral).
    """

    __slots__ = ("ctor", "args", "_local", "_hash")
    _fields = ("ctor", "args")

    def __init__(self, ctor: Union[str, float], args: tuple = (), span: Optional[Span] = None):
        _data_ctor(self, ctor)
        _data_args(self, args)
        _node_span(self, span)

    def __eq__(self, other):
        # the equality of (ctor, args), spans ignored, with the pending
        # pairs on a list, so that a list thousands long compares without
        # recursion; the tuples keep the one NAN equal to itself
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

    def __hash__(self):
        # the hash of (ctor, args), kept on the node. The data below it
        # that has none yet is hashed first, from a list, deepest first,
        # so each tuple's hash finds its data arguments' hashes kept and a
        # list thousands long hashes without recursion
        try:
            return self._hash
        except AttributeError:
            pass
        todo = [self]
        while todo:
            d = todo[-1]
            if hasattr(d, "_hash"):  # reached twice through shared data
                todo.pop()
                continue
            deeper = [a for a in d.args if a.__class__ is Data and not hasattr(a, "_hash")]
            if deeper:
                todo += deeper
            else:
                todo.pop()
                set_field(d, "_hash", hash((d.ctor, d.args)))
        return self._hash


_data_ctor, _data_args = slot_stores(Data, "ctor", "args")


class Lambda(Node):
    __slots__ = _fields = ("params", "body")

    def __init__(self, params: tuple, body: "Expr", span: Optional[Span] = None):
        _lambda_params(self, params)
        _lambda_body(self, body)
        _node_span(self, span)


_lambda_params, _lambda_body = slot_stores(Lambda, "params", "body")


class Apply(Node):
    __slots__ = _fields = ("fn", "args")

    def __init__(self, fn: "Expr", args: tuple, span: Optional[Span] = None):
        _apply_fn(self, fn)
        _apply_args(self, args)
        _node_span(self, span)


_apply_fn, _apply_args = slot_stores(Apply, "fn", "args")


class Rep(Node):
    __slots__ = _fields = ("init", "var", "body")

    def __init__(self, init: "Expr", var: str, body: "Expr", span: Optional[Span] = None):
        _rep_init(self, init)
        _rep_var(self, var)
        _rep_body(self, body)
        _node_span(self, span)


_rep_init, _rep_var, _rep_body = slot_stores(Rep, "init", "var", "body")


class Nbr(Node):
    __slots__ = _fields = ("body",)

    def __init__(self, body: "Expr", span: Optional[Span] = None):
        _nbr_body(self, body)
        _node_span(self, span)


_nbr_body, = slot_stores(Nbr, "body")


class FieldVal(Node):
    """Neighbouring field value phi: a finite map from device ids to local
    values, kept as its devices in strictly increasing order and the value
    at each of them. Runtime-only; the parser rejects it in source programs.

    The constructor, written as Data's is, trusts the order: every field
    is built over a domain that is already sorted, so it is never sorted
    again."""

    # devs: device ids, strictly increasing; vals[i]: the value at devs[i]
    __slots__ = _fields = ("devs", "vals")

    def __init__(self, devs: tuple, vals: tuple, span: Optional[Span] = None):
        _field_devs(self, devs)
        _field_vals(self, vals)
        _node_span(self, span)

    @property
    def entries(self) -> tuple:
        """((device id, local value), ...) in device order."""
        return tuple(zip(self.devs, self.vals))

    def __repr__(self):  # the printed form diagnostics have always shown
        return f"FieldVal(entries={self.entries!r})"


_field_devs, _field_vals = slot_stores(FieldVal, "devs", "vals")


# a tuple, not a typing.Union: typing's cache would pin re-imported classes
Expr = (Var, Builtin, DefName, Data, Lambda, Apply, Rep, Nbr, FieldVal)


class Def(Frozen):
    __slots__ = ("name", "params", "body", "span")
    _fields = ("name", "params", "body")

    def __init__(self, name: str, params: tuple, body: Expr, span: Optional[Span] = None):
        _def_name(self, name)
        _def_params(self, params)
        _def_body(self, body)
        _def_span(self, span)


_def_name, _def_params, _def_body, _def_span = slot_stores(
    Def, "name", "params", "body", "span")


class Program(Frozen):
    __slots__ = _fields = ("defs", "main")


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
    set_field(e, "_plan", p)
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
            local = all(map(is_local_value, e.args))
            set_field(e, "_local", local)
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
