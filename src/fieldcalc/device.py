"""Per-device big-step evaluation producing value-trees.

A firing evaluates the program's main expression against the value-tree
environment collecting the most recent trees received from neighbours
(self included). The result is a value-tree mirroring the expression
structure; neighbours evaluate their own subexpressions against the
matching subtrees, which is what aligns nbr/rep state across devices.

Every rule charges one unit of fuel, so non-terminating recursion
surfaces as FuelExhausted instead of hanging the simulator. Builtins run
in the evaluator's own EvalContext.

Each node is compiled once, at its first evaluation, into a Python
closure built from its children's closures and specialised to its kind
and to what each child is (Feeley and Lapalme, "Using Closures for Code
Generation", 1987): a closed constant child is a leaf built once, a
child that is never a value skips the value test, a variable child reads
the variables in scope, and an application of a builtin name calls it by
the name it already knows. The closure is kept on the node, and there is
no other evaluator.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_left
from types import MappingProxyType
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
    Record,
    Rep,
    Var,
    is_local_value,
    plan,
    restrict_value,
    set_field,
    value_of,
)
from .builtins import TABLE, EvalError, SensorState
from .parser import pretty, show_num


class FuelExhausted(EvalError):
    pass


class MalformedEnv(EvalError):
    """A stored tree's shape contradicts the expression being evaluated."""


DEFAULT_FUEL = 10**6


# ---------------------------------------------------------------------------
# value-trees

class ValueTree:
    """A runtime value and the trees of the subexpressions evaluated for it."""

    __slots__ = ("root", "children")

    def __init__(self, root: Expr, children: tuple = ()):
        self.root = root
        self.children = children

    def __eq__(self, other):
        if other.__class__ is not ValueTree:
            return NotImplemented
        return (self.root, self.children) == (other.root, other.children)

    def __repr__(self):
        if not self.children:
            return f"«{self.root!r}»"
        return f"«{self.root!r}»({', '.join(repr(c) for c in self.children)})"


def subtree_fun(t: ValueTree, f: Expr) -> Optional[ValueTree]:
    """Last child, provided the second-to-last child's root equals the
    function value f; None otherwise."""
    if len(t.children) >= 2 and t.children[-2].root == f:
        return t.children[-1]
    return None


# value-tree environments are plain dicts device id -> ValueTree; the
# evaluator keeps their keys in increasing order, and aligning keeps it

def align_i(env: dict, i: int) -> dict:
    """The i-th subtree (1-based) of each tree that has one."""
    return {d: t.children[i - 1] for d, t in env.items() if len(t.children) >= i}


def align_fun(env: dict, f: Expr) -> dict:
    out = {}
    for d, t in env.items():
        sub = subtree_fun(t, f)
        if sub is not None:
            out[d] = sub
    return out


# ---------------------------------------------------------------------------
# evaluation

class EvalContext(Record):
    """What evaluation at a device reads; builtins run in it, with domain
    (the aligned neighbours plus the device) set by the caller of
    TABLE.eval, once the arguments are evaluated. The functions builtins
    call (map-hood, fold-hood) spend its fuel.

    defs maps a name to its Def; rng is a random.Random for seeded
    pick-hood, else None for the least id; domain holds device ids in
    increasing order. It keeps an instance dict, so a test can put its
    own call on one context."""

    _fields = ("device", "sensors", "defs", "fuel", "rng", "domain")

    def __init__(self, device: int, sensors: Optional[SensorState] = None,
                 defs: Optional[dict] = None, fuel: int = DEFAULT_FUEL, rng: object = None,
                 domain: tuple = ()):
        self.device = device
        self.sensors = SensorState() if sensors is None else sensors
        self.defs = {} if defs is None else defs
        self.fuel = fuel
        self.rng = rng
        self.domain = domain

    def tick(self):
        if self.fuel <= 0:
            raise FuelExhausted(f"evaluation fuel exhausted at device {self.device}")
        self.fuel -= 1

    def call(self, f: Expr, args) -> Expr:
        """f applied to the values args against the empty environment
        (map-hood, fold-hood): the ticks and errors of evaluating the
        application of f to args, with no tree kept."""
        self.tick()
        args = [_value(self, a) for a in args]
        f = _value(self, f)
        if isinstance(f, Builtin):
            self.domain = (self.device,)
            return TABLE.eval(f.name, self, args)
        params, body = fun_parts(self.defs, f, len(args))
        return _body_tree(self, {}, body, f, dict(zip(params, args))).root


def fun_parts(defs: dict, f: Expr, nargs: int):
    """The parameters and body of function value f applied to nargs
    arguments; both evaluators resolve function values here."""
    if isinstance(f, Lambda):
        params, body = f.params, f.body
    elif isinstance(f, DefName):
        d = defs.get(f.name)
        if d is None:
            raise MalformedEnv(f"unknown function name {f.name!r}")
        params, body = d.params, d.body
    else:
        raise EvalError(f"not a function value: {f!r}")
    if len(params) != nargs:
        raise EvalError(f"function {f!r} takes {len(params)} argument(s), got {nargs}")
    return params, body


NO_VARS = MappingProxyType({})


def eval_expr(ctx: EvalContext, env: dict, e: Expr, X=NO_VARS) -> ValueTree:
    """The value-tree of e against the aligned trees env, where X holds the
    values of the variables in scope. This is the substitution semantics
    evaluated without substituting: e under X yields the tree, the fuel
    ticks and the errors of e with X's values put in its place. env may
    list its devices in any order; it is put in order when e is no value."""
    v = value_of(e, X)
    if v is None:
        return _compiled(e)(ctx, dict(sorted(env.items())), X)
    ctx.tick()
    return ValueTree(v)


def _domain(env: dict, device: int) -> tuple:
    """env's devices plus device, in increasing order (env's keys are)."""
    devs = tuple(env)
    if device in env:
        return devs
    i = bisect_left(devs, device)
    return (*devs[:i], device, *devs[i:])


# A node's closure run(ctx, env, X) is the tree of the node, which is no
# local value under X, against env, the trees aligned to the node (keys in
# increasing order); it spends the node's fuel unit first. A child runs
# through a closure made for its place (_child). The body of an applied
# function is known only at run time, so it is reached through _body_tree.

def _compiled(e: Expr):
    """e's closure, compiled on the first call and kept on the node."""
    try:
        return e._dev
    except AttributeError:
        run = _compile(e)
        set_field(e, "_dev", run)
        return run


def _child(c: Expr, i: int):
    """tree(ctx, env, X): the tree of c, the i-th child (1-based) of a node
    evaluated against env; for one tick a leaf when c under X is a local
    value, which reads no aligned environment, else c run against
    align_i(env, i)."""
    fv, leaf_vars, _ = plan(c)
    if leaf_vars is None:
        run = _compiled(c)
        return lambda ctx, env, X: run(ctx, align_i(env, i), X)
    if not fv:
        lf = ValueTree(c)

        def tree(ctx, env, X):
            ctx.tick()
            return lf

        return tree
    run = _compiled(c)
    if type(c) is Var:
        name = c.name

        def tree(ctx, env, X):
            v = X.get(name)
            if v is None or not is_local_value(v):
                return run(ctx, align_i(env, i), X)
            ctx.tick()
            return ValueTree(v)

        return tree

    def tree(ctx, env, X):
        v = value_of(c, X)
        if v is None:
            return run(ctx, align_i(env, i), X)
        ctx.tick()
        return ValueTree(v)

    return tree


def _body_tree(ctx: EvalContext, env: dict, body: Expr, f: Expr, X) -> ValueTree:
    """The tree of body, the body of function value f applied with its
    parameters' values in X, at a node evaluated against env: for one
    tick a leaf when body under X is a local value, else body run against
    align_fun(env, f)."""
    v = value_of(body, X)
    if v is None:
        return _compiled(body)(ctx, align_fun(env, f), X)
    ctx.tick()
    return ValueTree(v)


def _value(ctx: EvalContext, v: Expr) -> Expr:
    """The value of v, a value evaluated against the empty environment:
    a local value for one tick, a field restricted to the device."""
    ctx.tick()
    return v if is_local_value(v) else _value_tree(ctx, {}, v).root


def _value_tree(ctx: EvalContext, env: dict, v: Expr) -> ValueTree:
    """The tree of v against env, once its tick is spent, where v is a
    field, data holding one, or a node no rule evaluates: a field is
    restricted to env's devices and the device, and a variable holding a
    field (or data holding one) is evaluated as the value it holds."""
    k = type(v)
    if k is FieldVal:
        return ValueTree(restrict_value(v, _domain(env, ctx.device)))
    if k is Data:
        kids = []
        for i, a in enumerate(v.args, 1):
            ctx.tick()
            kids.append(ValueTree(a) if is_local_value(a)
                        else _value_tree(ctx, align_i(env, i), a))
        return ValueTree(Data(v.ctor, tuple([k.root for k in kids])), tuple(kids))
    raise EvalError(f"cannot evaluate {v!r}")


def _compile(e: Expr):
    """The closure run(ctx, env, X) of e, from its children's."""
    k = type(e)
    if k is Apply:
        args, n = e.args, len(e.args)
        kid_trees = [_child(a, i) for i, a in enumerate(args, 1)]
        fn_tree = _child(e.fn, n + 1)
        if type(e.fn) is Builtin:
            name = e.fn.name

            def run(ctx, env, X):
                ctx.tick()
                kids = [t(ctx, env, X) for t in kid_trees]
                ft = fn_tree(ctx, env, X)
                ctx.domain = _domain(env, ctx.device)
                v = TABLE.eval(name, ctx, [t.root for t in kids])
                return ValueTree(v, (*kids, ft))

            return run

        def run(ctx, env, X):
            ctx.tick()
            kids = [t(ctx, env, X) for t in kid_trees]
            ft = fn_tree(ctx, env, X)
            f = ft.root
            if isinstance(f, Builtin):
                ctx.domain = _domain(env, ctx.device)
                v = TABLE.eval(f.name, ctx, [t.root for t in kids])
                return ValueTree(v, (*kids, ft))
            params, body = fun_parts(ctx.defs, f, n)
            bt = _body_tree(ctx, env, body, f, dict(zip(params, [t.root for t in kids])))
            return ValueTree(bt.root, (*kids, ft, bt))

        return run
    if k is Var:
        name = e.name

        def run(ctx, env, X):
            # a variable holding a field (or data holding one) is evaluated
            # as the value it holds
            ctx.tick()
            if name not in X:
                raise EvalError(f"unbound variable {name!r} at runtime")
            return _value_tree(ctx, env, X[name])

        return run
    if k is Data:
        # constructor over unevaluated arguments: evaluate each against
        # its aligned environment, collect a tree per argument
        ctor = e.ctor
        kid_trees = [_child(a, i) for i, a in enumerate(e.args, 1)]

        def run(ctx, env, X):
            ctx.tick()
            kids = tuple([t(ctx, env, X) for t in kid_trees])
            return ValueTree(Data(ctor, tuple([t.root for t in kids])), kids)

        return run
    if k is Nbr:
        body_tree = _child(e.body, 1)

        def run(ctx, env, X):
            ctx.tick()
            bt = body_tree(ctx, env, X)
            # the neighbours' stored values of the body, in device order,
            # with the device's own new value in its place
            d = ctx.device
            devs, vals = [], []
            for d2, t in env.items():
                if t.children and d2 != d:
                    devs.append(d2)
                    vals.append(t.children[0].root)
            i = bisect_left(devs, d)
            devs.insert(i, d)
            vals.insert(i, bt.root)
            return ValueTree(FieldVal(tuple(devs), tuple(vals)), (bt,))

        return run
    if k is Rep:
        init_tree, var, body_tree = _child(e.init, 1), e.var, _child(e.body, 2)

        def run(ctx, env, X):
            ctx.tick()
            t1 = init_tree(ctx, env, X)
            # the state the device's own tree stored, or init after a reboot
            own = env.get(ctx.device)
            if own is None:
                l0 = t1.root
            elif len(own.children) >= 2:
                l0 = own.children[1].root
            else:
                raise MalformedEnv(f"device {ctx.device} has no stored rep state in its own tree")
            t2 = body_tree(ctx, env, {**X, var: l0})
            return ValueTree(t2.root, (t1, t2))

        return run

    # a field literal; a lambda with an unbound free variable, or no
    # expression at all, cannot be evaluated
    def run(ctx, env, X):
        ctx.tick()
        return _value_tree(ctx, env, e)

    return run


def evaluate_main(program: Program, device: int, env: dict,
                  sensors: SensorState = None, fuel: int = DEFAULT_FUEL,
                  rng=None) -> ValueTree:
    ctx = EvalContext(
        device=device,
        sensors=sensors or SensorState(),
        defs={d.name: d for d in program.defs},
        fuel=fuel,
        rng=rng,
    )
    return eval_expr(ctx, env, program.main)


# ---------------------------------------------------------------------------
# serialization: values and trees as canonical JSON text, rows as JSONL or CSV
#
# The text is what json.dumps(obj, sort_keys=True, separators=(",", ":"))
# makes of each JSON object (README, "Output format"), written directly:
# keys in sorted order by construction, numbers and strings by the functions
# json.dumps calls. A value or a tree is written as parts into one list that
# is joined once, so no level of nesting copies the text below it, and the
# writer recurses one frame per level, no deeper than the evaluator that
# built the value. The emitters (FireTrace.jsonl, AdequacyReport.to_json,
# fieldc denot) build their records with record_json and the helpers below.

str_json = json.encoder.encode_basestring_ascii


def _value_parts(v: Expr, w) -> None:
    """Write v's text through w, a list's append. A constructor's last
    argument is written by the same loop, and the constructor's closing
    text is kept for the end, so a right-nested list spends no frame per
    element."""
    ends = []  # the closing text of each constructor whose last argument v is
    while True:
        k = v.__class__
        if k is Data:
            c = v.ctor
            if c.__class__ is float:
                s = float.__repr__(c)
                w('{"num":' + s + "}" if math.isfinite(c) else '{"num":"' + s + '"}')
            elif c == "True":
                w('{"bool":true}')
            elif c == "False":
                w('{"bool":false}')
            else:
                w('{"args":[')
                end = '],"data":' + str_json(c) + "}"
                args = v.args
                if args:
                    for a in args[:-1]:
                        _value_parts(a, w)
                        w(",")
                    ends.append(end)
                    v = args[-1]
                    continue
                w(end)
        elif k is FieldVal:
            w('{"field":[')
            sep = "["
            for d, x in zip(v.devs, v.vals):
                w(sep + int.__repr__(d) + ",")
                _value_parts(x, w)
                sep = "],["
            w("]]}" if v.devs else "]}")
        elif k is Lambda or k is Builtin or k is DefName:
            w('{"fun":' + str_json(pretty(v)) + "}")
        else:
            raise ValueError(f"not a serializable value: {v!r}")
        break
    if ends:
        w("".join(reversed(ends)))


def _tree_parts(t: ValueTree, w) -> None:
    kids = t.children
    if kids:
        w('{"children":[')
        for i, c in enumerate(kids):
            if i:
                w(",")
            _tree_parts(c, w)
        w('],"root":')
    else:
        w('{"root":')
    _value_parts(t.root, w)
    w("}")


def value_json(v: Expr) -> str:
    """v's canonical JSON text."""
    out = []
    _value_parts(v, out.append)
    return "".join(out)


def tree_json(t: ValueTree) -> str:
    """t's canonical JSON text: {"children":[...],"root":...}, with no
    children key for a leaf."""
    out = []
    _tree_parts(t, out.append)
    return "".join(out)


def scalar_json(x) -> str:
    """JSON text of None, a boolean, an int or a string."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    return int.__repr__(x) if x.__class__ is int else str_json(x)


def list_json(texts) -> str:
    """A JSON array of texts that are JSON already."""
    return "[" + ",".join(texts) + "]"


def record_json(*members) -> str:
    """A JSON object of (key, text) members, given in sorted key order;
    each key is a plain name and each text is JSON already."""
    return "{" + ",".join([f'"{k}":{s}' for k, s in members]) + "}"


def value_to_text(v: Expr) -> str:
    """Compact single-token rendering for traces and CSV cells: a number
    or a constant by its source text, any other value as its JSON."""
    if v.__class__ is Data and not v.args:
        c = v.ctor
        return show_num(c) if c.__class__ is float else c
    return value_json(v)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()
