"""Per-device big-step evaluation producing value-trees.

A firing evaluates the program's main expression against the value-tree
environment collecting the most recent trees received from neighbours
(self included). The result is a value-tree mirroring the expression
structure; neighbours evaluate their own subexpressions against the
matching subtrees, which is what aligns nbr/rep state across devices.

Every rule charges one unit of fuel, so non-terminating recursion
surfaces as FuelExhausted instead of hanging the simulator.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field
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
    Var,
    boolean,
    is_value,
    mkfield,
    num,
    restrict_value,
    substitute,
)
from .builtins import TABLE, EvalError, OpContext, SensorState
from .parser import parse_expr, pretty, show_num


class FuelExhausted(EvalError):
    pass


class MalformedEnv(EvalError):
    """A stored tree's shape contradicts the expression being evaluated."""


DEFAULT_FUEL = 10**6


# ---------------------------------------------------------------------------
# value-trees

@dataclass(frozen=True)
class ValueTree:
    root: Expr  # a runtime value
    children: tuple = ()

    def __repr__(self):
        if not self.children:
            return f"«{self.root!r}»"
        return f"«{self.root!r}»({', '.join(repr(c) for c in self.children)})"


def leaf(v: Expr) -> ValueTree:
    return ValueTree(v)


def subtree_i(t: ValueTree, i: int) -> Optional[ValueTree]:
    """i-th child, 1-based; None when absent."""
    if 1 <= i <= len(t.children):
        return t.children[i - 1]
    return None


def subtree_fun(t: ValueTree, f: Expr) -> Optional[ValueTree]:
    """Last child, provided the second-to-last child's root equals the
    function value f; None otherwise."""
    if len(t.children) >= 2 and t.children[-2].root == f:
        return t.children[-1]
    return None


# value-tree environments are plain dicts DeviceId -> ValueTree

def align_i(env: dict, i: int) -> dict:
    out = {}
    for d, t in env.items():
        sub = subtree_i(t, i)
        if sub is not None:
            out[d] = sub
    return out


def align_fun(env: dict, f: Expr) -> dict:
    out = {}
    for d, t in env.items():
        sub = subtree_fun(t, f)
        if sub is not None:
            out[d] = sub
    return out


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EvalContext:
    device: int
    sensors: SensorState = dc_field(default_factory=SensorState)
    defs: dict = dc_field(default_factory=dict)  # name -> Def
    fuel: int = DEFAULT_FUEL
    rng: object = None

    def tick(self):
        if self.fuel <= 0:
            raise FuelExhausted(f"evaluation fuel exhausted at device {self.device}")
        self.fuel -= 1


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


def eval_expr(ctx: EvalContext, env: dict, e: Expr) -> ValueTree:
    ctx.tick()
    match e:
        case FieldVal():
            return leaf(restrict_value(e, env.keys() | {ctx.device}))
        case Data(args=args) if not is_value(e):
            # constructor over unevaluated arguments: evaluate each against
            # its aligned environment, collect a tree per argument
            kids = tuple(
                eval_expr(ctx, align_i(env, i), a) for i, a in enumerate(args, 1)
            )
            return ValueTree(Data(e.ctor, tuple(k.root for k in kids)), kids)
        case _ if is_value(e):
            return leaf(e)
        case Var(name=n):
            raise EvalError(f"unbound variable {n!r} at runtime")
        case Apply(fn=fe, args=args):
            kids = [eval_expr(ctx, align_i(env, i), a) for i, a in enumerate(args, 1)]
            ft = eval_expr(ctx, align_i(env, len(args) + 1), fe)
            f = ft.root
            if isinstance(f, Builtin):
                v = call_builtin(ctx, f.name, frozenset(env), [k.root for k in kids])
                return ValueTree(v, (*kids, ft))
            params, body = fun_parts(ctx.defs, f, len(kids))
            inst = substitute(body, dict(zip(params, (k.root for k in kids))))
            bt = eval_expr(ctx, align_fun(env, f), inst)
            return ValueTree(bt.root, (*kids, ft, bt))
        case Nbr(body=b):
            nbr_env = align_i(env, 1)
            bt = eval_expr(ctx, nbr_env, b)
            phi = {d: t.root for d, t in nbr_env.items()}
            phi[ctx.device] = bt.root
            return ValueTree(mkfield(phi), (bt,))
        case Rep(init=e1, var=x, body=e2):
            t1 = eval_expr(ctx, align_i(env, 1), e1)
            prev_env = align_i(env, 2)
            if ctx.device in env:
                if ctx.device not in prev_env:
                    raise MalformedEnv(
                        f"device {ctx.device} has no stored rep state in its own tree"
                    )
                l0 = prev_env[ctx.device].root
            else:
                l0 = t1.root
            t2 = eval_expr(ctx, prev_env, substitute(e2, {x: l0}))
            return ValueTree(t2.root, (t1, t2))
    raise EvalError(f"cannot evaluate {e!r}")


def call_builtin(ctx: EvalContext, name: str, env_domain: frozenset, args) -> Expr:
    """Apply builtin name at ctx's device, whose aligned neighbours are
    env_domain; the functions it calls (map-hood, fold-hood) spend ctx's
    fuel. Both evaluators call builtins here."""
    opctx = OpContext(
        device=ctx.device,
        env_domain=env_domain,
        sensors=ctx.sensors,
        call=lambda g, vs: apply_function(ctx, g, vs),
        rng=ctx.rng,
    )
    return TABLE.eval(name, opctx, args)


def apply_function(ctx: EvalContext, f: Expr, args) -> Expr:
    """Apply a function value to argument values w.r.t. the empty
    environment (the map-hood/fold-hood convention)."""
    t = eval_expr(ctx, {}, Apply(f, tuple(args)))
    return t.root


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
# serialization: values and trees as canonical JSON, rows as JSONL or CSV

def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no spaces."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def jsonl_text(rows) -> str:
    """One canonical JSON object per line."""
    return "".join(dumps(r) + "\n" for r in rows)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def value_to_json(v: Expr):
    match v:
        case Data(ctor=c, args=args):
            if isinstance(c, float):
                # JSON has no NaN or infinities: "nan", "inf", "-inf"
                return {"num": c if math.isfinite(c) else repr(c)}
            if c == "True" or c == "False":
                return {"bool": c == "True"}
            return {"data": c, "args": [value_to_json(a) for a in args]}
        case FieldVal(entries=ent):
            return {"field": [[d, value_to_json(x)] for d, x in ent]}
        case Lambda() | Builtin() | DefName():
            return {"fun": pretty(v)}
    raise ValueError(f"not a serializable value: {v!r}")


def value_from_json(j, defs=()) -> Expr:
    if "num" in j:
        return num(float(j["num"]))
    if "bool" in j:
        return boolean(bool(j["bool"]))
    if "data" in j:
        return Data(j["data"], tuple(value_from_json(a, defs) for a in j["args"]))
    if "field" in j:
        return mkfield([(int(d), value_from_json(x, defs)) for d, x in j["field"]])
    if "fun" in j:
        return parse_expr(j["fun"], defs=defs)
    raise ValueError(f"not a value record: {j!r}")


def tree_to_json(t: ValueTree):
    out = {"root": value_to_json(t.root)}
    if t.children:
        out["children"] = [tree_to_json(c) for c in t.children]
    return out


def tree_from_json(j, defs=()) -> ValueTree:
    return ValueTree(
        value_from_json(j["root"], defs),
        tuple(tree_from_json(c, defs) for c in j.get("children", ())),
    )


def value_to_text(v: Expr) -> str:
    """Compact single-token rendering for traces and CSV cells."""
    match v:
        case Data(ctor=c, args=()) if isinstance(c, float):
            return show_num(c)
        case Data(ctor=c, args=()):
            return c
        case _:
            return dumps(value_to_json(v))
