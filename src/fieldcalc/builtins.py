"""Built-in operators: type schemes, operational semantics, decoration.

The table makes three families of names available:

  - constructors (True, False, numerals, Pair, Null, Cons) handled by
    the typer and evaluator directly, with schemes looked up here;
  - pure operators and the *-hood aggregators;
  - sensors (sns-*, nbr-range, uid), whose results come from the
    SensorState of the evaluator's context (device.EvalContext), in
    which every operator runs.

Decorated names like +[f,f] or mux[f,f,l] are derived mechanically:
arguments flagged f and the result are promoted to neighbouring-field
types, remaining type variables are re-sorted to local return types,
and evaluation applies the base operator pointwise over the domain,
broadcasting the l-flagged arguments. The derived schemes coincide with
the listed ones for +[f,f], Pair[f,f], Pair[l,f], <[f,l], mux[f,f,l].
Each decoratable operator has a field kernel, one loop over the field:
+ - * < = compute a point of two numbers inline and mux one with a
boolean condition, Pair and Cons build their data in the loop, and any
other point goes to the base operator, which computes it or raises its
error there; the hoods are single loops too. min-hood, min-hood+ and <
on non-numbers order values by one walk over both (_compare): numbers
first with NaN greatest, then data by constructor and arguments left to
right, stopping at the first difference; functions and fields have no
order.

Every field-valued argument of any builtin must have domain equal to
the current environment's devices plus self; this is the side condition
that makes domain alignment errors (mixing fields from differently
aligned subcomputations) detectable at the point of combination. The
evaluator passes that domain as ctx.domain, a tuple of device ids in
increasing order, and a field keeps its devices in the same order, so the
condition is one tuple comparison per field, and a field operator builds
its result position by position over ctx.domain without sorting.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Callable, Optional

from .ast import (
    FALSE,
    INF,
    NAN,
    TRUE,
    Builtin,
    Data,
    DefName,
    Expr,
    FieldVal,
    Frozen,
    Lambda,
    as_bool,
    boolean,
    is_num,
    num,
    set_field,
)
from .typer import Arrow, FieldT, Scheme, Sort, canonical, parse_scheme


class EvalError(Exception):
    """Semantic failure during evaluation (the stuck states of the calculus)."""


class DomainError(EvalError):
    pass


class ArityError(EvalError):
    pass


class SensorError(EvalError):
    pass


# ---------------------------------------------------------------------------
# value equality and ordering

_FUNCTIONS = (Lambda, Builtin, DefName)


def value_equal(a: Expr, b: Expr) -> bool:
    """The builtin `=`: IEEE on numbers (NaN is not equal to itself),
    structural on data, syntactic identity on functions, pointwise on
    neighbouring fields. The walk keeps its pending pairs on a list, so
    deep data compares without recursion."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a.__class__ is Data and b.__class__ is Data:
            x, y = a.ctor, b.ctor
            if x.__class__ is float or y.__class__ is float:
                if x != y:  # IEEE: NaN != NaN, and a number is no other data
                    return False
            elif x != y or len(a.args) != len(b.args):
                return False
            else:
                todo += zip(a.args, b.args)
        elif a.__class__ is FieldVal and b.__class__ is FieldVal:
            # same devices, both in increasing order: values pair up by position
            if a.devs != b.devs:
                return False
            todo += zip(a.vals, b.vals)
        elif not (a.__class__ in _FUNCTIONS and b.__class__ in _FUNCTIONS and a == b):
            return False  # functions: syntactic identity, spans ignored
    return True


_CTOR_RANK = {"False": 0, "True": 1, "Null": 0, "Cons": 1}


def _compare(a: Expr, b: Expr) -> int:
    """-1, 0 or 1 as value a is below, equal to or above value b in the
    order of min-hood and <. Numbers come first, ordered as usual with NaN
    greatest (so NaN markers lose against real values); other data follow
    by constructor (True and Cons after the rest, so False < True and
    Null < Cons, and otherwise by name) and then by arguments, left to
    right, the shorter list first. Functions and fields have no order.
    The walk keeps its pending argument pairs on a list and stops at the
    first difference, so Pair(1, f) orders before Pair(2, g) and two
    lists thousands long compare without recursion."""
    todo = None  # made at the first arguments, which most pairs of numbers lack
    while True:
        if a.__class__ is not Data or b.__class__ is not Data:
            if a.__class__ in _FUNCTIONS or b.__class__ in _FUNCTIONS:
                raise EvalError("values of function type cannot be ordered")
            raise EvalError("neighbouring field values cannot be ordered")
        x, y = a.ctor, b.ctor
        if x.__class__ is float:
            if y.__class__ is not float:
                return -1
            if x < y:
                return -1
            if y < x:
                return 1
            if (x == x) is not (y == y):  # one is NaN, the greatest number
                return 1 if y == y else -1
        elif y.__class__ is float:
            return 1
        elif x != y:
            rx, ry = _CTOR_RANK.get(x, 0), _CTOR_RANK.get(y, 0)
            return -1 if (rx, x) < (ry, y) else 1
        elif a.args or b.args:
            if todo is None:
                todo = []
            n, m = len(a.args), len(b.args)
            if n != m:  # reached once the shared arguments are equal
                todo.append(-1 if n < m else 1)
            todo += zip(reversed(a.args[:m]), reversed(b.args[:n]))
        if not todo:
            return 0
        pair = todo.pop()
        if pair.__class__ is int:
            return pair
        a, b = pair


def _min_value(values):
    """The first least value in device order; a lone value is not compared."""
    it = iter(values)
    best = next(it, None)
    for v in it:
        if _compare(v, best) < 0:
            best = v
    return best


# ---------------------------------------------------------------------------
# sensor state

class SensorState(Frozen):
    """Per-device sensor readings for one firing instant.

    local maps sensor name to a local value; nbr maps relational sensor
    name to a per-neighbour map (nbr-range distances, in particular).
    Each is a new empty dict when not given.
    """

    __slots__ = _fields = ("local", "nbr")

    def __init__(self, local: Optional[dict] = None, nbr: Optional[dict] = None):
        set_field(self, "local", {} if local is None else local)
        set_field(self, "nbr", {} if nbr is None else nbr)


def _need_num(v: Expr, who: str) -> float:
    if not is_num(v):
        raise EvalError(f"{who} expects numbers, got {v!r}")
    return v.ctor


def _need_bool(v: Expr, who: str) -> bool:
    try:
        return as_bool(v)
    except ValueError:
        raise EvalError(f"{who} expects a boolean, got {v!r}") from None


def _need_field(v: Expr, who: str) -> FieldVal:
    if not isinstance(v, FieldVal):
        raise EvalError(f"{who} expects a neighbouring field value, got {v!r}")
    return v


def _need_fun(v: Expr, who: str) -> Expr:
    if not isinstance(v, _FUNCTIONS):
        raise EvalError(f"{who} expects a function value, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# operator implementations
#
# op(ctx, args): a builtin reached through ctx.call sets ctx.domain anew, so
# every op reads ctx.domain before it calls a function. TABLE.eval checked
# each field argument's devices are ctx.domain: value i is at the i-th device.

def _num_op(name: str, f: Callable):
    def op(ctx, args):
        return num(f(_need_num(args[0], name), _need_num(args[1], name)))

    return op


def op_and(ctx, args):
    return boolean(_need_bool(args[0], "and") and _need_bool(args[1], "and"))


def op_eq(ctx, args):
    return boolean(value_equal(args[0], args[1]))


def op_lt(ctx, args):
    a, b = args
    if is_num(a) and is_num(b):
        return boolean(a.ctor < b.ctor)  # IEEE: NaN comparisons are false
    return boolean(_compare(a, b) < 0)


def op_mux(ctx, args):
    return args[1] if _need_bool(args[0], "mux") else args[2]


def _part_op(ctor: str, i: int, failure: str):
    """The i-th argument of a ctor value; any other value v fails with
    failure.format(v)."""
    def op(ctx, args):
        v = args[0]
        if isinstance(v, Data) and v.ctor == ctor:
            return v.args[i]
        raise EvalError(failure.format(v))

    return op


def op_min_hood(ctx, args):
    phi = _need_field(args[0], "min-hood")
    return _min_value(phi.vals)


def op_min_hood_plus(ctx, args):
    phi = _need_field(args[0], "min-hood+")
    rest = [v for d, v in zip(phi.devs, phi.vals) if d != ctx.device]
    if not rest:
        # isolated device: neutral element of min over num
        return num(INF)
    return _min_value(rest)


def op_sum_hood_plus(ctx, args):
    phi = _need_field(args[0], "sum-hood+")
    me, total = ctx.device, 0.0
    for d, v in zip(phi.devs, phi.vals):
        if d != me:
            if v.__class__ is Data and v.ctor.__class__ is float:
                total += v.ctor
            else:
                _need_num(v, "sum-hood+")  # raises
    return num(total)


def op_pick_hood(ctx, args):
    phi = _need_field(args[0], "pick-hood")
    if not phi.vals:
        raise EvalError("pick-hood on an empty field")
    if ctx.rng is not None:
        return ctx.rng.choice(phi.vals)
    return phi.vals[0]  # devices in increasing order; least id wins


def op_map_hood(ctx, args):
    f = _need_fun(args[0], "map-hood")
    fields = [_need_field(a, "map-hood") for a in args[1:]]
    dom = ctx.domain
    return FieldVal(dom, tuple([ctx.call(f, point)
                                for point in zip(*[phi.vals for phi in fields])]))


def op_fold_hood(ctx, args):
    f = _need_fun(args[0], "fold-hood")
    phi = _need_field(args[1], "fold-hood")
    vals = phi.vals  # ascending device id
    acc = vals[0]
    for v in vals[1:]:
        acc = ctx.call(f, [acc, v])
    return acc


def op_uid(ctx, args):
    return num(ctx.device)


def op_nbr_range(ctx, args):
    ranges = ctx.sensors.nbr.get("nbr-range")
    if ranges is None:
        raise SensorError(f"nbr-range not available at device {ctx.device}")
    dom = ctx.domain
    try:
        return FieldVal(dom, tuple([num(ranges[d]) for d in dom]))
    except KeyError as e:
        raise SensorError(f"nbr-range has no reading for neighbour {e.args[0]} "
                          f"at device {ctx.device}") from None


def _make_sns(name: str):
    def op(ctx, args):
        try:
            return ctx.sensors.local[name]
        except KeyError:
            raise SensorError(f"sensor {name} not available at device {ctx.device}") from None

    return op


# ---------------------------------------------------------------------------
# field kernels
#
# loop(ctx, *columns) is a decoratable operator applied at every device: a
# tuple whose i-th value is the operator on the i-th value of each column.
# A point of the kind the operator expects is computed inline; any other
# point goes to the base op, which raises its error there or computes it.

def _num_loop(f: Callable, base: Callable, test: bool):
    """The loop of a base op that on two numbers x and y is f(x, y): a
    truth value if test, else a number, canonical as num makes it."""
    def loop(ctx, xs, ys):
        out = []
        for a, b in zip(xs, ys):
            if (a.__class__ is Data and b.__class__ is Data
                    and a.ctor.__class__ is float and b.ctor.__class__ is float):
                r = f(a.ctor, b.ctor)
                if test:
                    out.append(TRUE if r else FALSE)
                else:
                    out.append(Data((r if r else 0.0) if r == r else NAN))  # num(r)
            else:
                out.append(base(ctx, (a, b)))
        return tuple(out)

    return loop


def _mux_loop(ctx, cs, xs, ys):
    out = []
    for c, x, y in zip(cs, xs, ys):
        t = c.ctor if c.__class__ is Data else None
        if t == "True":
            out.append(x)
        elif t == "False":
            out.append(y)
        else:
            out.append(op_mux(ctx, (c, x, y)))
    return tuple(out)


def _point_loop(base: Callable):
    """The loop of a base op with no inline path: the op at every point."""
    def loop(ctx, *cols):
        return tuple([base(ctx, point) for point in zip(*cols)])

    return loop


def _ctor_loop(name: str):
    def loop(ctx, xs, ys):
        return tuple([Data(name, point) for point in zip(xs, ys)])

    return loop


_VALS = operator.attrgetter("vals")


def _decorated_op(loop: Callable, flags: tuple):
    """The op of a decorated name: loop over the columns of its arguments,
    where a field argument gives its value at each device and a local one
    repeats. One op per arity (every decoratable base takes 1 to 3
    arguments) spares a comprehension frame per call: about 6% more
    events per second on adequacy-mobile in 10 alternating bench pairs
    (Python 3.11, 2 vCPUs)."""
    columns = [_VALS if flag == "f" else repeat for flag in flags]
    if len(columns) == 1:
        c0, = columns

        def op(ctx, args):
            return FieldVal(ctx.domain, loop(ctx, c0(args[0])))
    elif len(columns) == 2:
        c0, c1 = columns

        def op(ctx, args):
            return FieldVal(ctx.domain, loop(ctx, c0(args[0]), c1(args[1])))
    else:
        c0, c1, c2 = columns

        def op(ctx, args):
            return FieldVal(ctx.domain, loop(ctx, c0(args[0]), c1(args[1]), c2(args[2])))
    return op


# ---------------------------------------------------------------------------
# the table

class BuiltinEntry(Frozen):
    # op is None for a constructor: the evaluators build data; least and
    # most bound the argument counts op accepts; loop is the field kernel
    # of a decoratable op
    __slots__ = _fields = ("name", "scheme", "op", "least", "most", "loop")
    _defaults = {"loop": None}


def _entry(name: str, scheme: Scheme, op: Optional[Callable], most: Optional[int] = None,
           loop: Optional[Callable] = None) -> BuiltinEntry:
    n = len(scheme.body.args) if isinstance(scheme.body, Arrow) else 0
    return BuiltinEntry(name, scheme, op, n, n if most is None else most, loop)


def _map_hood_scheme(n: int) -> Scheme:
    args = ", ".join(f"s{i}" for i in range(1, n + 1))
    fields = ", ".join(f"field(s{i})" for i in range(1, n + 1))
    return parse_scheme(f"forall {args}, s0. (({args}) -> s0, {fields}) -> field(s0)")


MAP_HOOD_MAX_ARITY = 4
# the schemes the typer asks for at every use, parsed once here
_MAP_HOOD_SCHEMES = {n: _map_hood_scheme(n) for n in range(1, MAP_HOOD_MAX_ARITY + 1)}
_NUMERAL_SCHEME = parse_scheme("() -> num")


class BuiltinTable:
    def __init__(self):
        # name -> entry; a decorated name is derived on its first lookup and
        # kept, None when it names no builtin
        self._entries: dict = {}
        self._ctor_entries: dict = {}

    def add(self, name: str, scheme_text: str, op: Callable, most: Optional[int] = None,
            loop: Optional[Callable] = None):
        self._entries[name] = _entry(name, parse_scheme(scheme_text), op, most, loop)

    def add_ctor(self, name: str, scheme_text: str):
        self._ctor_entries[name] = _entry(name, parse_scheme(scheme_text), None,
                                          loop=_ctor_loop(name))

    def entry(self, name: str) -> Optional[BuiltinEntry]:
        e = self._entries.get(name)
        if e is None and "[" in name and name not in self._entries:
            e = self._entries[name] = self._derive_decorated(name)
        return e

    def is_builtin_name(self, name: str) -> bool:
        return self.entry(name) is not None

    def ctor_arity(self, name: str) -> Optional[int]:
        """The arity of data constructor name; None for any other name."""
        e = self._ctor_entries.get(name)
        return None if e is None else len(e.scheme.body.args)

    def scheme(self, name: str, arity: Optional[int] = None) -> Optional[Scheme]:
        if name == "map-hood":
            return _MAP_HOOD_SCHEMES.get(1 if arity is None else arity - 1)
        e = self.entry(name)
        return e.scheme if e else None

    def _derive_decorated(self, name: str) -> Optional[BuiltinEntry]:
        base_name, _, deco = name.partition("[")
        if not deco.endswith("]"):
            return None
        flags = deco[:-1].split(",")
        if not all(f in ("f", "l") for f in flags) or "f" not in flags:
            return None
        base = self._entries.get(base_name) or self._ctor_entries.get(base_name)
        if base is None or base.loop is None:
            return None
        body = base.scheme.body
        if not isinstance(body, Arrow) or len(body.args) != len(flags):
            return None
        if any(isinstance(t, FieldT) for t in (*body.args, body.res)):
            return None
        new_args = tuple(
            FieldT(t) if flag == "f" else t for t, flag in zip(body.args, flags)
        )
        scheme = canonical(Arrow(new_args, FieldT(body.res)),
                           {vid: Sort.S for vid, _ in base.scheme.qvars})
        return _entry(name, scheme, _decorated_op(base.loop, flags))

    def eval(self, name: str, ctx, args: list) -> Expr:
        """Apply builtin name to args, a list that no op mutates."""
        e = self._entries.get(name) or self.entry(name)  # entry() derives a decoration
        if e is None:
            raise EvalError(f"unknown builtin {name!r}")
        if not e.least <= len(args) <= e.most:
            lo, hi = e.least, e.most
            raise ArityError(f"{name} takes {lo} argument(s), got {len(args)}" if lo == hi
                             else f"{name} takes {lo} to {hi} arguments, got {len(args)}")
        expected = ctx.domain
        for a in args:
            if a.__class__ is FieldVal and a.devs != expected:
                raise DomainError(
                    f"field argument of {name} has domain {list(a.devs)}, "
                    f"expected {list(expected)} at device {ctx.device}"
                )
        result = e.op(ctx, args)
        if result.__class__ is FieldVal and result.devs != expected:
            raise DomainError(f"{name} produced a misaligned field at device {ctx.device}")
        return result


def _build_table() -> BuiltinTable:
    t = BuiltinTable()
    t.add_ctor("True", "() -> bool")
    t.add_ctor("False", "() -> bool")
    t.add_ctor("Null", "forall s1. () -> list(s1)")
    t.add_ctor("Pair", "forall s1, s2. (s1, s2) -> pair(s1, s2)")
    t.add_ctor("Cons", "forall s1. (s1, list(s1)) -> list(s1)")

    for name, scheme, ctor, i, failure in (
        ("fst", "forall s1, s2. (pair(s1, s2)) -> s1", "Pair", 0, "fst expects a pair, got {!r}"),
        ("snd", "forall s1, s2. (pair(s1, s2)) -> s2", "Pair", 1, "snd expects a pair, got {!r}"),
        ("head", "forall s1. (list(s1)) -> s1", "Cons", 0, "head of an empty or non-list value"),
        ("tail", "forall s1. (list(s1)) -> list(s1)", "Cons", 1,
         "tail of an empty or non-list value"),
    ):
        op = _part_op(ctor, i, failure)
        t.add(name, scheme, op, loop=_point_loop(op))
    t.add("min-hood", "forall s1. (field(s1)) -> s1", op_min_hood)
    t.add("min-hood+", "forall s1. (field(s1)) -> s1", op_min_hood_plus)
    t.add("sum-hood+", "(field(num)) -> num", op_sum_hood_plus)
    t.add("pick-hood", "forall s1. (field(s1)) -> s1", op_pick_hood)
    t.add("map-hood", "forall s1, s0. ((s1) -> s0, field(s1)) -> field(s0)", op_map_hood,
          most=MAP_HOOD_MAX_ARITY + 1)
    t.add("fold-hood", "forall s1. ((s1, s1) -> s1, field(s1)) -> s1", op_fold_hood)
    t.add("mux", "forall s1. (bool, s1, s1) -> s1", op_mux, loop=_mux_loop)
    t.add("and", "(bool, bool) -> bool", op_and, loop=_point_loop(op_and))
    for name, f in (("*", operator.mul), ("-", operator.sub), ("+", operator.add)):
        op = _num_op(name, f)
        t.add(name, "(num, num) -> num", op, loop=_num_loop(f, op, test=False))
    t.add("=", "forall t1. (t1, t1) -> bool", op_eq, loop=_num_loop(operator.eq, op_eq, test=True))
    t.add("<", "forall s1. (s1, s1) -> bool", op_lt, loop=_num_loop(operator.lt, op_lt, test=True))

    t.add("uid", "() -> num", op_uid)
    t.add("nbr-range", "() -> field(num)", op_nbr_range)
    for name, ty in [
        ("sns-range", "() -> num"),
        ("sns-injection-point", "() -> bool"),
        ("sns-injected-fun", "() -> (() -> num)"),
        ("sns-num", "() -> num"),
        ("sns-fun", "() -> (() -> num)"),
        ("sns-patron", "() -> bool"),
    ]:
        t.add(name, ty, _make_sns(name))
    return t


TABLE = _build_table()


def ctor_scheme(ctor, arity: int) -> Optional[Scheme]:
    """Scheme of a data constructor, or None if unknown/wrong arity."""
    if isinstance(ctor, float):
        return _NUMERAL_SCHEME if arity == 0 else None
    if TABLE.ctor_arity(ctor) != arity:
        return None
    return TABLE._ctor_entries[ctor].scheme

