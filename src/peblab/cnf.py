"""Clauses and CNF formulas as immutable sets.

A literal is a (variable name, polarity) pair; a clause is a frozenset
of literals (`Clause` subclasses frozenset) and is nontrivial by
construction (no variable occurs with both polarities).  Formulas are
frozensets of clauses, so duplicate clauses collapse and clause identity
is purely structural.  A clause compares as its set does, `<=` being
subsumption, so clauses are sorted only by `Clause.sort_key`.
"""

from __future__ import annotations

import sys
from typing import Iterable

from .errors import TraceError, TrivialClause

Lit = tuple[str, bool]
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)  # none before 3.10.7


def neg(literal: Lit) -> Lit:
    name, positive = literal
    return (name, not positive)


def _lit_key(literal: Lit):
    name, positive = literal
    return (name, not positive)  # positive sorts before negative per variable


def format_lit(literal: Lit) -> str:
    name, positive = literal
    return name if positive else "-" + name


def is_decimal(token: str) -> bool:
    """Whether `token` is a non-empty run of the ASCII digits 0-9 that `int`
    reads: the one number test of the text parsers, since `str.isdigit`
    also accepts '²', which `int` rejects, `int` also accepts '+1', '1_0'
    and the digits of other scripts, and `int` refuses more digits than
    `sys.get_int_max_str_digits()` (4,300 by default; 0 is no limit)."""
    return token.isascii() and token.isdecimal() and len(token) <= (_max_str_digits() or len(token))


def records(text: str):
    """(line number, line, fields) of each line of a trace that is neither
    blank nor a whole-line `#` comment (vertex names are opaque, and
    substituted variable names contain '#'): both trace formats' reader."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield lineno, line, fields


def indices(tokens: list[str], lineno: int, what: str) -> tuple[int, ...]:
    """The indices `tokens` name, each a decimal integer of at least 1 with
    no more digits than `int` reads; else a TraceError `bad <what> <token>`
    naming the first token that is not."""
    digits = "".join(tokens)
    try:
        ids = tuple(map(int, tokens)) if digits.isascii() and digits.isdecimal() else (0,)
    except ValueError:  # more digits than `int` reads
        ids = (0,)
    if 0 in ids:
        bad = next(tok for tok in tokens if not (is_decimal(tok) and int(tok) >= 1))
        raise TraceError(f"bad {what} {bad!r}", line=lineno)
    return ids


def parse_lit(token: str) -> Lit:
    if token.startswith(("-", "~")):
        return (token[1:], False)
    return (token, True)


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields in `_fields`, in constructor order, keeps
    them in `__slots__` and sets them only in `__init__`.  Two values are
    equal iff they are of exactly the same class with equal fields, the
    hash agrees, and the repr is `Name(field=...)`.  No subclass overrides
    `__eq__` or `__hash__`.  `Clause` is the one exception to the rule: it
    is a frozenset, its equality and hash are its set's, and its repr is
    its text.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Clause(frozenset, Value):
    """A nontrivial clause: the frozenset of its literals, equal to a plain
    frozenset of the same literals; `<=` is subsumption and `<` a proper
    subset, so clauses are ordered only by `sort_key`."""

    __slots__ = ()
    _fields = ()

    def __new__(cls, literals: Iterable[Lit] = frozenset()):
        self = frozenset.__new__(cls, literals)
        if len({name for name, _ in self}) != len(self):
            raise TrivialClause("variable occurs with both polarities in "
                                f"({' '.join(map(format_lit, sorted(self)))})")
        return self

    @property
    def width(self) -> int:
        return len(self)

    def variables(self) -> frozenset[str]:
        return frozenset(name for name, _ in self)

    def is_empty(self) -> bool:
        return not self

    def sorted_literals(self) -> tuple[Lit, ...]:
        """The literals by variable name: a clause names each variable once."""
        return tuple(sorted(self))

    def subsumes(self, other: "Clause") -> bool:
        return self <= other

    def without(self, literal: Lit) -> "Clause":
        return Clause(self - {literal})

    def sort_key(self):
        return (len(self), tuple(_lit_key(l) for l in self.sorted_literals()))

    def __str__(self) -> str:
        if not self:
            return "<empty>"
        return " ".join(map(format_lit, sorted(self)))

    __repr__ = __str__


EMPTY_CLAUSE = Clause()


def clause(spec: str) -> Clause:
    """Build a clause from 'x -y z' shorthand."""
    return Clause(parse_lit(tok) for tok in spec.split())


class CnfFormula(Value):
    __slots__ = _fields = ("clauses",)

    def __init__(self, clauses: frozenset[Clause] = frozenset()):
        self.clauses = clauses

    @property
    def width(self) -> int:
        return max((c.width for c in self.clauses), default=0)

    def variables(self) -> tuple[str, ...]:
        """Canonical variable order: lexicographic by name."""
        return tuple(sorted({name for c in self.clauses for name, _ in c}))

    def sorted_clauses(self) -> tuple[Clause, ...]:
        return tuple(sorted(self.clauses, key=Clause.sort_key))

    def __len__(self) -> int:
        return len(self.clauses)

    def __contains__(self, c: Clause) -> bool:
        return c in self.clauses

    def without_clause(self, c: Clause) -> "CnfFormula":
        return CnfFormula(self.clauses - {c})


def minimized(clauses: Iterable[Clause]) -> frozenset[Clause]:
    """The clauses that no other clause of the collection subsumes."""
    out: set[Clause] = set()
    for c in sorted(clauses, key=Clause.sort_key):
        if not any(o.subsumes(c) for o in out):
            out -= {o for o in out if c.subsumes(o)}
            out.add(c)
    return frozenset(out)


def formula(specs: Iterable[str | Clause]) -> CnfFormula:
    out = []
    for s in specs:
        out.append(s if isinstance(s, Clause) else clause(s))
    return CnfFormula(frozenset(out))
