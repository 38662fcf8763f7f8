"""Clauses and CNF formulas as immutable sets.

A literal is a (variable name, polarity) pair; a clause is a frozenset
of literals and is nontrivial by construction (no variable occurs with
both polarities).  Formulas are frozensets of clauses, so duplicate
clauses collapse and clause identity is purely structural.
"""

from __future__ import annotations

from typing import Iterable

from .errors import TrivialClause

Lit = tuple[str, bool]


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
    """Whether `token` is a non-empty run of the ASCII digits 0-9: the one
    number test of the text parsers, since `str.isdigit` also accepts
    '²', which `int` rejects, and `int` also accepts '+1', '1_0' and the
    digits of other scripts."""
    return token.isascii() and token.isdecimal()


def parse_lit(token: str) -> Lit:
    if token.startswith(("-", "~")):
        return (token[1:], False)
    return (token, True)


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields in `_fields`, in constructor order, keeps
    them in `__slots__` and sets them only in `__init__`.  Two values are
    equal iff they are of exactly the same class with equal fields, the
    hash agrees, and the repr is `Name(field=...)`.  Types hashed in inner
    loops override `__eq__` and `__hash__` with direct field reads.
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


class Clause(Value):
    __slots__ = _fields = ("literals",)

    def __init__(self, literals: frozenset[Lit] = frozenset()):
        if len({name for name, _ in literals}) != len(literals):
            raise TrivialClause(f"variable occurs with both polarities in {sorted(literals)}")
        self.literals = literals

    def __eq__(self, other):
        if other.__class__ is not Clause:
            return NotImplemented
        return self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    @property
    def width(self) -> int:
        return len(self.literals)

    def variables(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.literals)

    def is_empty(self) -> bool:
        return not self.literals

    def sorted_literals(self) -> tuple[Lit, ...]:
        """The literals by variable name: a clause names each variable once."""
        return tuple(sorted(self.literals))

    def subsumes(self, other: "Clause") -> bool:
        return self.literals <= other.literals

    def without(self, literal: Lit) -> "Clause":
        return Clause(self.literals - {literal})

    def __contains__(self, literal: Lit) -> bool:
        return literal in self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def sort_key(self):
        return (len(self.literals), tuple(_lit_key(l) for l in self.sorted_literals()))

    def __str__(self) -> str:
        if not self.literals:
            return "<empty>"
        return " ".join(map(format_lit, sorted(self.literals)))

    __repr__ = __str__


EMPTY_CLAUSE = Clause()


def clause(spec: str) -> Clause:
    """Build a clause from 'x -y z' shorthand."""
    return Clause(frozenset(parse_lit(tok) for tok in spec.split()))


class CnfFormula(Value):
    __slots__ = _fields = ("clauses",)

    def __init__(self, clauses: frozenset[Clause] = frozenset()):
        self.clauses = clauses

    @property
    def width(self) -> int:
        return max((c.width for c in self.clauses), default=0)

    def variables(self) -> tuple[str, ...]:
        """Canonical variable order: lexicographic by name."""
        return tuple(sorted({name for c in self.clauses for name, _ in c.literals}))

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
