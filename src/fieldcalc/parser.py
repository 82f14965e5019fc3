"""Lexer, parser and pretty printer for field calculus source.

Surface syntax:

    program  :=  def* expr
    def      :=  'def' NAME '(' names? ')' '{' expr '}'
    expr     :=  infix chains over 'and' < comparisons (= <) < + - < *
    postfix  :=  primary ( '(' args ')' )*
    primary  :=  numeral | True | False | Null | infinity | NaN
              |  NAME | NAME '(' args ')'         (builtin, def, ctor, var)
              |  '(' names ')' '=>' expr          (lambda)
              |  'rep' '(' expr ')' '{' '(' NAME ')' '=>' expr '}'
              |  'nbr' '{' expr '}'
              |  'if' '(' expr ')' '{' expr '}' 'else' '{' expr '}'
              |  '(' expr ')'
              |  OP | OP '(' args ')'             (prefix operator call)

Tokens are read by one regular expression, _TOKEN, with one alternative
per token class. Whitespace is space, tab, CR and LF; '//' comments run
to the end of the line. A numeral is decimal digits with an optional
fraction and exponent ('infinity' and 'NaN' are numerals too). A name
starts with a letter (str.isalpha) or '_' and goes on with letters,
digits or '_'. Any other character is a ParseError at its line and
column. Lexical quirks, all needed by the standard library sources:

  - identifiers may contain hyphens (distance-to), so subtraction needs
    spaces around '-' or the prefix form '-(a, b)';
  - a trailing '+' sticks to an identifier only when followed by one of
    '(' '[' ',' ')' (min-hood+, sum-hood+);
  - '[f,l]'-style decorations glue onto the preceding name or operator,
    forming atomic builtin names: +[f,f], mux[f,f,l], =[f,l], Pair[l,f];
  - '-' directly followed by a digit or 'infinity' is a negative numeral
    unless the token before it ends an operand (a name other than a
    keyword, a numeral, ')' or '}'), the one rule the lexer keeps in code;
  - a call suffix never attaches to rep(..){..}; parenthesise to apply a
    rep result. This is what lets a lambda of the form
    (x) => rep(x){...} (e) denote the lambda applied to e.

'if' desugars at parse time; neighbouring-field literals have no surface
syntax and are rejected here by construction.

Each name is resolved where the parser reads it, so each node is built
once. A constructor name is data in every scope. Any other name is the
variable of the nearest lambda or rep around it (a rep's variable is not
in scope in its init; a def's parameters are in its body), else a def
declared so far (a def sees itself), else a builtin; an operator must be
a builtin. The text is read once, left to right, so of several errors
the first one met is reported.
"""

from __future__ import annotations

import math
import re
from typing import Optional

from .ast import (
    Apply,
    Builtin,
    Data,
    Def,
    DefName,
    Expr,
    FieldVal,
    Frozen,
    Lambda,
    Nbr,
    Program,
    Rep,
    Span,
    Var,
    canon_num,
    desugar_if,
    is_value,
    slot_stores,
)
from .builtins import TABLE

KEYWORDS = {"def", "rep", "nbr", "if", "else", "and"}

# binary levels, loosest first; each entry is the set of operator names
INFIX_LEVELS = [{"and"}, {"=", "<"}, {"+", "-"}, {"*"}]
INFIX_OPS = set().union(*INFIX_LEVELS)


class ParseError(Exception):
    def __init__(self, msg: str, span: Optional[Span] = None, path: str = "<string>"):
        self.msg, self.span, self.path = msg, span, path
        where = path if span is None else f"{path}:{span.line}:{span.col}"
        super().__init__(f"{where}: error: {msg}")


class Token(Frozen):
    # kind: 'num' | 'name' | 'op' | 'punct' | 'eof'; a token's span is one
    # of its fields
    __slots__ = _fields = ("kind", "text", "span", "value")

    def __init__(self, kind: str, text: str, span: Span, value: float = 0.0):
        _token_kind(self, kind)
        _token_text(self, text)
        _token_span(self, span)
        _token_value(self, value)


_token_kind, _token_text, _token_span, _token_value = slot_stores(
    Token, "kind", "text", "span", "value")


_DECO = r"(?:\[[fl](?:,[fl])*\])?"
# one alternative per token class, tried in order. \w is exactly the
# characters str.isalnum() accepts, plus '_'; exp catches a numeral whose
# exponent would start with a non-decimal digit, as in 1e²
_TOKEN = re.compile(rf"""
    (?P<skip>[ \t\r\n]+|//[^\n]*)
  | (?P<num>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+|(?=[eE][+-]?(?P<exp>\w)))?|-infinity(?!\w))
  | (?P<name>[^\W\d]\w*(?:-\w+)*(?:\+(?=[(\[,)]))?{_DECO})
  | (?P<punct>=>|[(){{}},])
  | (?P<op>[-+*<=]{_DECO})
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _ends_operand(t: Token) -> bool:
    if t.kind == "name":
        return t.text not in KEYWORDS  # after infix 'and' comes an operand
    return t.kind == "num" or t.text in (")", "}")


def lex(src: str, path: str = "<string>") -> list[Token]:
    toks: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
            pos = m.end()
            continue
        if kind == "num" and (m.group("exp") or "").isdigit():
            pos = m.start("exp")  # isdigit() holds for '²', float() fails on it
            kind = "bad"
        sp = Span(line, pos - line_start + 1)
        if kind == "num" and text[0] == "-" and toks and _ends_operand(toks[-1]):
            # a sign only where no operand ends: after one, '-' subtracts
            toks.append(Token("op", "-", sp))
            pos += 1
            continue
        elif kind == "num" or text in ("infinity", "NaN"):
            toks.append(Token("num", text, sp, float(text)))
        elif kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            # a name starts with a letter or '_', and \w holds '²' and '½' too
            raise ParseError(f"unexpected character {src[pos]!r}", sp, path)
        else:
            toks.append(Token(kind, text, sp))
        pos = m.end()
    toks.append(Token("eof", "", Span(line, pos - line_start + 1)))
    return toks


class _Parser:
    """Recursive descent over the tokens, resolving each name where it is
    read: bound holds the variables in scope, defs the function names
    declared so far (the def being read among them)."""

    def __init__(self, toks: list[Token], path: str, defs=()):
        self.toks = toks
        self.pos = 0
        self.path = path
        self.bound = frozenset()
        self.defs = set(defs)

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def err(self, msg: str, span: Optional[Span] = None) -> ParseError:
        return ParseError(msg, span or self.peek().span, self.path)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise self.err(f"expected {text!r}, found {t.text!r}" if t.kind != "eof" else f"expected {text!r}, found end of input")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    # ---- program -----------------------------------------------------

    def program(self) -> Program:
        defs = []
        while self.at("def"):
            defs.append(self.definition())
        main = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise self.err(f"trailing input after main expression: {t.text!r}")
        return Program(tuple(defs), main)

    def definition(self) -> Def:
        sp = self.expect("def").span
        name_tok = self.next()
        name = name_tok.text
        if name_tok.kind != "name" or name in KEYWORDS:
            raise self.err("expected function name after 'def'", name_tok.span)
        if name in self.defs:
            raise self.err(f"duplicate definition of {name!r}", sp)
        if TABLE.is_builtin_name(name):
            raise self.err(f"definition shadows builtin {name!r}", sp)
        self.defs.add(name)
        self.expect("(")
        params = self.name_list()
        self.expect(")")
        return Def(name, params, self.enclosed("{", "}", params), span=sp)

    def name_list(self) -> tuple:
        names = []
        if self.peek().kind == "name" and not self.at(")"):
            names.append(self.next().text)
            while self.at(","):
                self.next()
                t = self.next()
                if t.kind != "name":
                    raise self.err("expected parameter name", t.span)
                names.append(t.text)
        return tuple(names)

    # ---- names -------------------------------------------------------

    def scoped(self, names: tuple) -> Expr:  # an expression names bind in
        outer = self.bound
        self.bound = outer.union(names)
        e = self.expr()
        self.bound = outer
        return e

    def enclosed(self, start: str, end: str, names: tuple = ()) -> Expr:
        self.expect(start)
        e = self.scoped(names)
        self.expect(end)
        return e

    def name(self, t: Token) -> Expr:
        if t.text in self.bound:
            return Var(t.text, span=t.span)
        if t.text in self.defs:
            return DefName(t.text, span=t.span)
        if TABLE.is_builtin_name(t.text):
            return Builtin(t.text, span=t.span)
        raise self.err(f"unknown name {t.text!r}", t.span)

    def operator(self, t: Token) -> Builtin:
        if not TABLE.is_builtin_name(t.text):
            raise self.err(f"unknown operator {t.text!r}", t.span)
        return Builtin(t.text, span=t.span)

    # ---- expressions -------------------------------------------------

    def expr(self) -> Expr:
        return self.infix(0)

    def infix(self, level: int) -> Expr:
        if level >= len(INFIX_LEVELS):
            return self.postfix()
        ops = INFIX_LEVELS[level]
        left = self.infix(level + 1)
        while True:
            t = self.peek()
            base = t.text.split("[", 1)[0]
            if (t.kind == "op" or (t.kind == "name" and t.text == "and")) and base in ops:
                left = Apply(self.operator(self.next()), (left, self.infix(level + 1)), span=t.span)
            else:
                return left

    def postfix(self) -> Expr:
        # a bare rep(..){..} never takes a call suffix (parenthesise it to
        # apply its result); anything else, including a parenthesised rep,
        # can be called
        if self.at("rep"):
            return self.rep()
        e = self.primary()
        while self.at("("):
            sp = self.peek().span
            e = Apply(e, self.args(), span=sp)
        return e

    def args(self) -> tuple:  # '(' expr, ... ')'
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.expr())
            while self.at(","):
                self.next()
                args.append(self.expr())
        self.expect(")")
        return tuple(args)

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Data(canon_num(t.value), span=t.span)
        if t.kind == "op" or t.text == "and":
            return self.operator(self.next())  # applied or passed as a value
        if t.kind == "name":
            if t.text == "nbr":
                return self.nbr()
            if t.text == "if":
                return self.ifexpr()
            if t.text in KEYWORDS:
                raise self.err(f"unexpected keyword {t.text!r}", t.span)
            self.next()
            # a constructor name is its constructor in every scope
            arity = TABLE.ctor_arity(t.text)
            if arity is None:
                return self.name(t)
            if arity == 0:
                return Data(t.text, span=t.span)
            if not self.at("("):
                raise self.err(f"constructor {t.text} must be applied", t.span)
            sp = self.peek().span
            args = self.args()
            if len(args) != arity:
                raise self.err(f"constructor {t.text} takes {arity} arguments, got {len(args)}", sp)
            return Data(t.text, args, span=sp)
        if t.text == "(":
            return self.parens_or_lambda()
        raise self.err(f"unexpected token {t.text!r}" if t.kind != "eof" else "unexpected end of input", t.span)

    def parens_or_lambda(self) -> Expr:
        start = self.expect("(").span
        # lambda when '(' names ')' '=>' ahead
        if self.lambda_ahead():
            params = self.name_list()
            self.expect(")")
            self.expect("=>")
            return Lambda(params, self.scoped(params), span=start)
        e = self.expr()
        self.expect(")")
        return e

    def lambda_ahead(self) -> bool:
        # after the '(' read: names ')' '=>', the first name no keyword
        k = 0
        if self.peek().text != ")":
            if self.peek().text in KEYWORDS:
                return False
            while self.peek(k).kind == "name" and self.peek(k + 1).text == ",":
                k += 2
            if self.peek(k).kind != "name":
                return False
            k += 1
        return self.peek(k).text == ")" and self.peek(k + 1).text == "=>"

    def rep(self) -> Rep:
        sp = self.expect("rep").span
        init = self.enclosed("(", ")")
        self.expect("{")
        self.expect("(")
        var_tok = self.next()
        if var_tok.kind != "name":
            raise self.err("expected rep variable name", var_tok.span)
        self.expect(")")
        return Rep(init, var_tok.text, self.enclosed("=>", "}", (var_tok.text,)), span=sp)

    def nbr(self) -> Nbr:
        sp = self.expect("nbr").span
        return Nbr(self.enclosed("{", "}"), span=sp)

    def ifexpr(self) -> Expr:
        sp = self.expect("if").span
        guard = self.enclosed("(", ")")
        then = self.enclosed("{", "}")
        self.expect("else")
        return desugar_if(guard, then, self.enclosed("{", "}"), span=sp)


def parse_program(src: str, path: str = "<string>") -> Program:
    return _Parser(lex(src, path), path).program()


def parse_expr(src: str, path: str = "<string>", defs=()) -> Expr:
    """Parse a bare expression; defs lists declared function names in scope."""
    p = _Parser(lex(src, path), path, defs)
    e = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input: {t.text!r}", t.span, path)
    return e


def parse_value(src: str, path: str = "<string>") -> Expr:
    e = parse_expr(src, path)
    if not is_value(e):
        raise ParseError("expression is not a closed value", None, path)
    return e


# ---------------------------------------------------------------------------
# pretty printing

def show_num(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "infinity" if x > 0 else "-infinity"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def pretty(e: Expr) -> str:
    match e:
        case Var(name=n) | DefName(name=n):
            return n
        case Builtin(name=n):
            # a trailing '+' only lexes as part of the name before ( [ , )
            return f"({n})" if n.endswith("+") else n
        case Data(ctor=c, args=args):
            if isinstance(c, float):
                return show_num(c)
            if not args:
                return c
            return f"{c}({', '.join(pretty(a) for a in args)})"
        case Lambda(params=ps, body=b):
            return f"({', '.join(ps)}) => {pretty(b)}"
        case Apply(fn=f, args=args):
            if isinstance(f, Builtin) and f.name.split("[", 1)[0] in INFIX_OPS and len(args) == 2:
                sides = [
                    f"({pretty(a)})" if isinstance(a, Lambda) else pretty(a)
                    for a in args
                ]
                return f"({sides[0]} {f.name} {sides[1]})"
            fs = f.name if isinstance(f, Builtin) else pretty(f)
            if isinstance(f, (Lambda, Rep)):
                fs = f"({fs})"
            return f"{fs}({', '.join(pretty(a) for a in args)})"
        case Rep(init=i, var=x, body=b):
            return f"rep({pretty(i)}){{({x}) => {pretty(b)}}}"
        case Nbr(body=b):
            return f"nbr{{{pretty(b)}}}"
        case FieldVal(entries=ent):
            inner = ", ".join(f"{d} -> {pretty(v)}" for d, v in ent)
            raise ValueError(f"neighbouring field values have no source syntax: ({inner})")
    raise TypeError(f"not an expression: {e!r}")
