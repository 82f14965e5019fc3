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
the variables in scope, and an application of a builtin name is bound to
the builtin's table entry. The closure is kept on the node, and there is
no other evaluator.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from types import MappingProxyType, SimpleNamespace
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
        if not isinstance(other, ValueTree):
            return NotImplemented
        return (self.root, self.children) == (other.root, other.children)

    def __repr__(self):
        if not self.children:
            return f"«{self.root!r}»"
        return f"«{self.root!r}»({', '.join(repr(c) for c in self.children)})"


class Leaf(ValueTree):
    """A tree without children that a compiled node makes once and shares
    across fires: the tree of a closed constant, or of a builtin's name.
    It keeps its JSON text once written; it equals any tree with the same
    root and no children, and any such tree equals it."""

    __slots__ = ("text",)

    def __init__(self, root: Expr):
        self.root = root
        self.children = ()
        self.text = None

    def json(self) -> str:
        """{"root":...}, made at the first call."""
        text = self.text
        if text is None:
            text = self.text = '{"root":' + value_json(self.root) + "}"
        return text


# ---------------------------------------------------------------------------
# evaluation

class EvalContext(Record):
    """What evaluation at a device reads; builtins run in it. domain is
    the domain of the builtin being applied, the aligned neighbours plus
    the device in increasing order: each application of a builtin sets it
    once its arguments are evaluated, to the domain its aligned
    environment carries (in the denotation, the cluster's devices at the
    event). A function that a builtin calls (map-hood, fold-hood) runs
    against the empty environment, whose domain is the device alone, and
    spends this context's fuel.

    defs maps a name to its Def; rng is a random.Random for seeded
    pick-hood, else None for the least id. It keeps an instance dict, so a
    test can put its own call on one context."""

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
        """Spend one unit of fuel. The evaluators charge fuel inline, with
        `if ctx.fuel <= 0: ctx.tick()` before `ctx.fuel -= 1`, and so call
        this only to raise FuelExhausted."""
        if self.fuel <= 0:
            raise FuelExhausted(f"evaluation fuel exhausted at device {self.device}")
        self.fuel -= 1

    def call(self, f: Expr, args) -> Expr:
        """f applied to the values args against the empty environment
        (map-hood, fold-hood): the ticks and errors of evaluating the
        application of f to args, with no tree kept."""
        if self.fuel <= 0:
            self.tick()
        self.fuel -= 1
        args = [_value(self, a) for a in args]
        f = _value(self, f)
        A = _empty(self)
        if isinstance(f, Builtin):
            self.domain = A[2]
            return TABLE.eval(f.name, self, args)
        params, body = fun_parts(self.defs, f, len(args))
        return _body_tree(self, A, body, f, dict(zip(params, args))).root


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
    """The value-tree of e against the aligned trees env (device id ->
    tree), where X holds the values of the variables in scope. This is
    the substitution semantics evaluated without substituting: e under X
    yields the tree, the fuel ticks and the errors of e with X's values
    put in its place. env may list its devices in any order."""
    v = value_of(e, X)
    if v is None:
        devs = tuple(sorted(env))
        return _compiled(e)(ctx, (devs, [env[d] for d in devs], _domain(devs, ctx.device)), X)
    if ctx.fuel <= 0:
        ctx.tick()
    ctx.fuel -= 1
    return ValueTree(v)


# The aligned environment A of a node is a triple (devs, trees, dom):
# devs holds the aligned neighbours' ids in increasing order (the device's
# own among them when its own tree is aligned), trees their trees at the
# same positions, and dom the domain of a builtin applied at the node, devs
# plus the device, worked out once per fire. Aligning to the i-th child
# (0-based) lists the i-th child of every tree and keeps devs and dom.
# Only where a tree has no such child, or a function body is aligned to
# trees of another function value, are the devices filtered and the
# domain worked out anew.

def _domain(devs: tuple, device: int) -> tuple:
    """devs plus device, in increasing order (devs are); devs itself when
    it holds device."""
    i = bisect_left(devs, device)
    if i < len(devs) and devs[i] == device:
        return devs
    return (*devs[:i], device, *devs[i:])


def _empty(ctx: EvalContext) -> tuple:
    """The empty aligned environment, whose domain is the device alone."""
    return (), [], (ctx.device,)


def _align(A: tuple, i: int, device: int) -> tuple:
    """A aligned to the i-th child (0-based): the trees without one drop out."""
    devs, trees, dom = A
    try:
        return devs, [t.children[i] for t in trees], dom
    except IndexError:
        pass
    keep = [j for j, t in enumerate(trees) if len(t.children) > i]
    devs = tuple([devs[j] for j in keep])
    return devs, [trees[j].children[i] for j in keep], _domain(devs, device)


def _align_fun(A: tuple, f: Expr, device: int) -> tuple:
    """A aligned to the body of function value f: the last child of each
    tree whose second-to-last child's root is f; the others drop out."""
    devs, trees, dom = A
    keep = [j for j, t in enumerate(trees)
            if len(t.children) >= 2 and t.children[-2].root == f]
    if len(keep) == len(trees):
        return devs, [t.children[-1] for t in trees], dom
    devs = tuple([devs[j] for j in keep])
    return devs, [trees[j].children[-1] for j in keep], _domain(devs, device)


# A node's closure run(ctx, A, X) is the tree of the node, which is no
# local value under X, against A, its aligned environment; it spends the
# node's fuel unit first. A child runs through a closure made for its
# place (_child). The body of an applied function is known only at run
# time, so it is compiled at its first application.

def _compiled(e: Expr):
    """e's closure, compiled on the first call and kept on the node."""
    try:
        return e._dev
    except AttributeError:
        run = _compile(e)
        set_field(e, "_dev", run)
        return run


def _child(c: Expr, i: Optional[int]):
    """tree(ctx, A, X): the tree of c, the i-th child (0-based) of a node
    evaluated against A; for one tick a leaf when c under X is a local
    value, which reads no aligned environment, else c run against A
    aligned to its i-th child, or against A itself when i is None."""
    fv, leaf_vars, _ = plan(c)
    if leaf_vars is None:
        run = _compiled(c)
        if i is None:
            return run

        def tree(ctx, A, X):
            try:
                kids = [t.children[i] for t in A[1]]
            except IndexError:
                return run(ctx, _align(A, i, ctx.device), X)
            return run(ctx, (A[0], kids, A[2]), X)

        return tree
    if not fv:
        lf = Leaf(c)

        def tree(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            return lf

        return tree
    run = _compiled(c)
    if type(c) is Var:
        name = c.name

        def tree(ctx, A, X):
            v = X.get(name)
            if v is None or not is_local_value(v):
                return run(ctx, A if i is None else _align(A, i, ctx.device), X)
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            return ValueTree(v)

        return tree

    def tree(ctx, A, X):
        v = value_of(c, X)
        if v is None:
            return run(ctx, A if i is None else _align(A, i, ctx.device), X)
        if ctx.fuel <= 0:
            ctx.tick()
        ctx.fuel -= 1
        return ValueTree(v)

    return tree


def _body_tree(ctx: EvalContext, A: tuple, body: Expr, f: Expr, X) -> ValueTree:
    """The tree of body, the body of function value f applied with its
    parameters' values in X, at a node evaluated against A: for one tick
    a leaf when body under X is a local value, else body run against A
    aligned to f."""
    v = value_of(body, X)
    if v is None:
        return _compiled(body)(ctx, _align_fun(A, f, ctx.device), X)
    if ctx.fuel <= 0:
        ctx.tick()
    ctx.fuel -= 1
    return ValueTree(v)


def _value(ctx: EvalContext, v: Expr) -> Expr:
    """The value of v, a value evaluated against the empty environment:
    a local value for one tick, a field restricted to the device."""
    if ctx.fuel <= 0:
        ctx.tick()
    ctx.fuel -= 1
    return v if is_local_value(v) else _value_tree(ctx, _empty(ctx), v).root


def _value_tree(ctx: EvalContext, A: tuple, v: Expr) -> ValueTree:
    """The tree of v against A, once its tick is spent, where v is a
    field, data holding one, or a node no rule evaluates: a field is
    restricted to A's domain, and a variable holding a field (or data
    holding one) is evaluated as the value it holds."""
    k = type(v)
    if k is FieldVal:
        return ValueTree(restrict_value(v, A[2]))
    if k is Data:
        kids = []
        for i, a in enumerate(v.args):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            kids.append(ValueTree(a) if is_local_value(a)
                        else _value_tree(ctx, _align(A, i, ctx.device), a))
        return ValueTree(Data(v.ctor, tuple([k.root for k in kids])), tuple(kids))
    raise EvalError(f"cannot evaluate {v!r}")


def _apply_builtin(b, lf: ValueTree, kid_trees: list):
    """The closure of an application of a builtin name: b is what
    TABLE.bind gives for the name, and lf the leaf tree of the name, whose
    tick comes after the arguments'. One closure per argument count from 1
    to 3 calls its argument closures without a comprehension."""
    n = len(kid_trees)
    if n == 1:
        t0, = kid_trees

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            k0 = t0(ctx, A, X)
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            ctx.domain = A[2]
            return ValueTree(TABLE.eval(b, ctx, [k0.root]), (k0, lf))
    elif n == 2:
        t0, t1 = kid_trees

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            k0 = t0(ctx, A, X)
            k1 = t1(ctx, A, X)
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            ctx.domain = A[2]
            return ValueTree(TABLE.eval(b, ctx, [k0.root, k1.root]), (k0, k1, lf))
    elif n == 3:
        t0, t1, t2 = kid_trees

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            k0 = t0(ctx, A, X)
            k1 = t1(ctx, A, X)
            k2 = t2(ctx, A, X)
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            ctx.domain = A[2]
            return ValueTree(TABLE.eval(b, ctx, [k0.root, k1.root, k2.root]), (k0, k1, k2, lf))
    else:
        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            kids = [t(ctx, A, X) for t in kid_trees] if kid_trees else []
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            ctx.domain = A[2]
            return ValueTree(TABLE.eval(b, ctx, [t.root for t in kids]), (*kids, lf))
    return run


def _compile(e: Expr):
    """The closure run(ctx, A, X) of e, from its children's."""
    k = type(e)
    if k is Apply:
        fn, n = e.fn, len(e.args)
        kid_trees = [_child(a, i) for i, a in enumerate(e.args)]
        if type(fn) is Builtin:
            return _apply_builtin(TABLE.bind(fn.name), Leaf(fn), kid_trees)
        fn_tree = _child(fn, n)

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            kids = [t(ctx, A, X) for t in kid_trees] if kid_trees else []
            ft = fn_tree(ctx, A, X)
            f = ft.root
            if isinstance(f, Builtin):
                ctx.domain = A[2]
                v = TABLE.eval(f.name, ctx, [t.root for t in kids])
                return ValueTree(v, (*kids, ft))
            params, body = fun_parts(ctx.defs, f, n)
            # _body_tree, written out here to spare a frame per call level
            Xb = dict(zip(params, [t.root for t in kids]))
            v = value_of(body, Xb)
            if v is None:
                bt = _compiled(body)(ctx, _align_fun(A, f, ctx.device), Xb)
            else:
                if ctx.fuel <= 0:
                    ctx.tick()
                ctx.fuel -= 1
                bt = ValueTree(v)
            return ValueTree(bt.root, (*kids, ft, bt))

        return run
    if k is Var:
        name = e.name

        def run(ctx, A, X):
            # a variable holding a field (or data holding one) is evaluated
            # as the value it holds
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            if name not in X:
                raise EvalError(f"unbound variable {name!r} at runtime")
            return _value_tree(ctx, A, X[name])

        return run
    if k is Data:
        # constructor over unevaluated arguments: evaluate each against
        # its aligned environment, collect a tree per argument
        ctor = e.ctor
        kid_trees = [_child(a, i) for i, a in enumerate(e.args)]
        if len(kid_trees) == 2:  # Pair and Cons, without a comprehension
            t0, t1 = kid_trees

            def run(ctx, A, X):
                if ctx.fuel <= 0:
                    ctx.tick()
                ctx.fuel -= 1
                k0 = t0(ctx, A, X)
                k1 = t1(ctx, A, X)
                return ValueTree(Data(ctor, (k0.root, k1.root)), (k0, k1))

            return run

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            kids = tuple([t(ctx, A, X) for t in kid_trees])
            return ValueTree(Data(ctor, tuple([t.root for t in kids])), kids)

        return run
    if k is Nbr:
        body_tree = _child(e.body, None)

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            d = ctx.device
            devs, trees, dom = A = _align(A, 0, d)
            bt = body_tree(ctx, A, X)
            # the neighbours' stored values of the body over the domain,
            # with the device's own new value in its place
            vals = [t.root for t in trees]
            i = bisect_left(devs, d)
            if len(devs) == len(dom):
                vals[i] = bt.root
            else:
                vals.insert(i, bt.root)
            return ValueTree(FieldVal(dom, tuple(vals)), (bt,))

        return run
    if k is Rep:
        init_tree, var, body_tree = _child(e.init, 0), e.var, _child(e.body, 1)

        def run(ctx, A, X):
            if ctx.fuel <= 0:
                ctx.tick()
            ctx.fuel -= 1
            t1 = init_tree(ctx, A, X)
            # the state the device's own tree stored, or init after a reboot
            devs, trees, dom = A
            if len(devs) < len(dom):
                l0 = t1.root
            else:
                own = trees[bisect_left(devs, ctx.device)].children
                if len(own) < 2:
                    raise MalformedEnv(
                        f"device {ctx.device} has no stored rep state in its own tree")
                l0 = own[1].root
            t2 = body_tree(ctx, A, {**X, var: l0})
            return ValueTree(t2.root, (t1, t2))

        return run

    # a field literal; a lambda with an unbound free variable, or no
    # expression at all, cannot be evaluated
    def run(ctx, A, X):
        if ctx.fuel <= 0:
            ctx.tick()
        ctx.fuel -= 1
        return _value_tree(ctx, A, e)

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
# built the value. A constructor without arguments (a number, a boolean,
# Null), alone, as a field's entry or as a tree's root, and a tree without
# children are each written in one piece, with no call of their own. The
# emitters (fieldc run's records, AdequacyReport.to_json, fieldc denot)
# build their records with record_json and the helpers below.

str_json = json.encoder.encode_basestring_ascii

# The text of each constructor without arguments written lately, by its
# constructor: numerals are canonical (one NaN, no -0.0), so equal keys have
# equal text. A number is written again and again, in its own tree, as a
# neighbour's field entry and as a root, and float's repr is the slowest
# part of writing it. The table is emptied when it fills, so it stays small.
_ATOMS = {}
ATOMS_KEPT = 4096


def _atom_json(c) -> str:
    """The text of c() and keep it in _ATOMS; c is a float or a string."""
    if c.__class__ is float:
        s = float.__repr__(c)
        text = '{"num":' + s + "}" if math.isfinite(c) else '{"num":"' + s + '"}'
    elif c == "True":
        text = '{"bool":true}'
    elif c == "False":
        text = '{"bool":false}'
    else:
        text = '{"args":[],"data":' + str_json(c) + "}"
    if len(_ATOMS) >= ATOMS_KEPT:
        _ATOMS.clear()
    _ATOMS[c] = text
    return text


def _value_parts(v: Expr, w) -> None:
    """Write v's text through w, a list's append. A constructor's last
    argument is written by the same loop, and the constructor's closing
    text is kept for the end, so a right-nested list spends no frame per
    element."""
    ends = []  # the closing text of each constructor whose last argument v is
    while True:
        k = v.__class__
        if k is Data:
            args = v.args
            if not args:
                w(_ATOMS.get(v.ctor) or _atom_json(v.ctor))
                break
            w('{"args":[')
            for a in args[:-1]:
                _value_parts(a, w)
                w(",")
            ends.append('],"data":' + str_json(v.ctor) + "}")
            v = args[-1]
            continue
        if k is FieldVal:
            entries = []
            for d, x in zip(v.devs, v.vals):
                if x.__class__ is Data and not x.args:
                    entries.append(f"[{d},{_ATOMS.get(x.ctor) or _atom_json(x.ctor)}]")
                else:
                    entries.append(f"[{d},{value_json(x)}]")
            w('{"field":[' + ",".join(entries) + "]}")
        elif k is Lambda or k is Builtin or k is DefName:
            w('{"fun":' + str_json(pretty(v)) + "}")
        else:
            raise ValueError(f"not a serializable value: {v!r}")
        break
    if ends:
        w("".join(reversed(ends)))


def _tree_parts(t: ValueTree, w, root: Optional[str] = None, head: str = "") -> None:
    """Write head, then t's text, through w; root is the text of t's root
    when it is made already. A Leaf child is written by the text it keeps,
    and a root that is a constructor without arguments by its kept text."""
    kids = t.children
    if kids:
        w(head + '{"children":[')
        sep = ""
        for c in kids:
            if c.__class__ is Leaf:
                w(sep + (c.text or c.json()))
            else:
                _tree_parts(c, w, None, sep)
            sep = ","
        head = '],"root":'
    else:
        head += '{"root":'
    if root is None:
        x = t.root
        if x.__class__ is not Data or x.args:
            w(head)
            _value_parts(x, w)
            w("}")
            return
        root = _ATOMS.get(x.ctor) or _atom_json(x.ctor)
    w(head + root + "}")


def value_json(v: Expr) -> str:
    """v's canonical JSON text."""
    if v.__class__ is Data and not v.args:
        return _ATOMS.get(v.ctor) or _atom_json(v.ctor)
    out = []
    _value_parts(v, out.append)
    return "".join(out)


def tree_json(t: ValueTree, root: Optional[str] = None) -> str:
    """t's canonical JSON text: {"children":[...],"root":...}, with no
    children key for a leaf. root is value_json(t.root) when the caller
    has made it already."""
    out = []
    _tree_parts(t, out.append, root)
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


def csv_writer(lines: list):
    """A csv writer that appends each row's text to lines."""
    return csv.writer(SimpleNamespace(write=lines.append))


def text_sink(fmt: str, lines: list, header, line, row):
    """A sink that appends the finished text of each item it takes to
    lines: the JSON line line(*item) (fmt "json"), or the CSV row
    row(*item) after the header."""
    if fmt == "json":
        return lambda *item: lines.append(line(*item))
    write = csv_writer(lines).writerow
    write(header)
    return lambda *item: write(row(*item))


def csv_text(header, rows) -> str:
    lines = []
    w = csv_writer(lines)
    w.writerow(header)
    w.writerows(rows)
    return "".join(lines)
