"""Checked-in program corpus with typed signatures.

Each ``corpus/*.hfc`` file carries a ``// type:`` header declaring the
type of its main expression.  Entries whose main is a bare function name
declare the function's (possibly polymorphic) scheme; composed scenario
mains declare a plain type.
"""

from __future__ import annotations

from importlib import resources

from .ast import Frozen, Program
from .parser import parse_program
from .typer import (
    Scheme,
    parse_scheme,
    principal_scheme,
    scheme_eq,
    scheme_instance,
    typecheck_program,
)


class CorpusError(ValueError):
    """A corpus file is malformed or fails its type annotation."""


class CorpusEntry(Frozen):
    __slots__ = _fields = ("name", "source", "declared_type")

    def program(self) -> Program:
        return parse_program(self.source, path=f"corpus/{self.name}.hfc")

    def principal_type(self) -> Scheme:
        """Infer the scheme of this entry's main expression.

        A main that is just the name of one of the entry's own defs
        reports that def's generalized scheme, so that polymorphic
        annotations have something to be checked against.
        """
        prog = self.program()
        main_type, schemes, _ = typecheck_program(prog)
        return principal_scheme(prog, main_type, schemes)

    def check(self) -> bool:
        """Whether the inferred type agrees with the declared one.

        Agreement means equality up to sort annotations, or the declared
        type being an instance of the inferred scheme (an annotation may
        commit to num where inference keeps a variable).
        """
        principal = self.principal_type()
        if scheme_eq(principal, self.declared_type, ignore_sorts=True):
            return True
        return scheme_instance(principal, self.declared_type)


def _declared_type(source: str, name: str) -> Scheme:
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("//") and stripped[2:].strip().startswith("type:"):
            text = stripped[2:].strip()[len("type:"):].strip()
            return parse_scheme(text)
    raise CorpusError(f"{name}: missing '// type:' header")


def load_corpus() -> tuple[CorpusEntry, ...]:
    """Load every shipped corpus file, sorted by name."""
    root = resources.files("fieldcalc") / "corpus"
    entries = []
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".hfc"):
            continue
        name = item.name[: -len(".hfc")]
        source = item.read_text()
        entries.append(CorpusEntry(name, source, _declared_type(source, name)))
    if not entries:
        raise CorpusError("no corpus files found")
    return tuple(entries)


def corpus_entry(name: str) -> CorpusEntry:
    """Look up a single corpus entry by name."""
    for entry in load_corpus():
        if entry.name == name:
            return entry
    raise CorpusError(f"no corpus entry named {name!r}")
