"""Pebbling contradictions, substitution formulas and DIMACS I/O.  The
SAT oracle lives in `sat`, which no CLI stage runs (see `cli`).

Substituted variables are named x#1..x#d so the mapping back to base
variables is collision-free and reversible.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

from .cnf import Clause, CnfFormula, Lit, is_decimal
from .errors import DimacsError, PeblabError, TrivialClause
from .lazy import lazy_names

if TYPE_CHECKING:
    from .boolfunc import BooleanFunction
    from .dag import Dag

SUBST_SEP = "#"

_LAZY = {"sat": ("brute_force_sat",)}  # `perfbench/` reads it here until it imports it from `sat`
__getattr__ = lazy_names(globals(), _LAZY)


def pebbling_axiom(g: Dag, v: str) -> Clause:
    """The clause ~u1 v ... v ~ul v v over v's predecessors u1..ul; a
    source's is its unit clause."""
    return Clause({(u, False) for u in g.predecessors(v)} | {(v, True)})


def pebbling_contradiction(g: Dag) -> CnfFormula:
    """Sources true, truth propagates along edges, sink false.

    One variable per vertex, n+1 clauses over n variables.
    """
    clauses = [pebbling_axiom(g, v) for v in g.topological_order()]
    clauses.append(Clause({(g.sink, False)}))
    return CnfFormula(frozenset(clauses))


# -- substitution --------------------------------------------------------


def block_vars(name: str, arity: int) -> tuple[str, ...]:
    return tuple(f"{name}{SUBST_SEP}{i}" for i in range(1, arity + 1))


def split_substituted(name: str) -> tuple[str, int]:
    base, sep, idx = name.rpartition(SUBST_SEP)
    if not sep or not is_decimal(idx):
        raise PeblabError(f"{name!r} is not a substituted variable name")
    return base, int(idx)


@functools.lru_cache(maxsize=None)
def _generic_canonical(f: BooleanFunction, positive: bool) -> frozenset[Clause]:
    from .boolfunc import canonical_clauses
    names = tuple(str(i) for i in range(1, f.arity + 1))
    return canonical_clauses(f, names, "positive" if positive else "negative")


def _literal_image(literal: Lit, f: BooleanFunction) -> list[Clause]:
    name, positive = literal
    return [Clause((f"{name}{SUBST_SEP}{gname}", pol) for gname, pol in c)
            for c in _generic_canonical(f, positive)]


def substitute_clause(c: Clause, f: BooleanFunction) -> frozenset[Clause]:
    """All cross-disjunctions of the per-literal canonical clause sets."""
    parts = [_literal_image(lit, f) for lit in c]
    out = set()
    for combo in itertools.product(*parts):
        out.add(Clause(frozenset().union(*combo)))
    return frozenset(out)


def substitute(f_formula: CnfFormula, f: BooleanFunction) -> CnfFormula:
    for v in f_formula.variables():
        if SUBST_SEP in v:
            raise PeblabError(f"variable {v!r} already carries a substitution index")
    clauses = set()
    for c in f_formula.clauses:
        clauses |= substitute_clause(c, f)
    return CnfFormula(frozenset(clauses))


def substitution_images(f_formula: CnfFormula, f: BooleanFunction) -> dict[Clause, frozenset[Clause]]:
    """Per-clause image map; images of distinct clauses are disjoint."""
    return {c: substitute_clause(c, f) for c in f_formula.clauses}


def base_of_substituted(sub_formula: CnfFormula, f: BooleanFunction) -> tuple[CnfFormula, dict[Clause, Clause]]:
    """Invert substitution: recover the base formula and the axiom map.

    Raises if the formula is not exactly the image of some base formula
    under f-substitution.
    """
    table = {c: positive for positive in (True, False) for c in _generic_canonical(f, positive)}

    mapping: dict[Clause, Clause] = {}
    for d in sub_formula.clauses:
        by_base: dict[str, set[Lit]] = {}
        for name, polarity in d:
            base, idx = split_substituted(name)
            by_base.setdefault(base, set()).add((str(idx), polarity))
        lits = set()
        for base, component in by_base.items():
            key = frozenset(component)
            if key not in table:
                raise PeblabError(
                    f"clause ({d}) is not an f-substitution image: block {base!r} "
                    "matches no canonical clause"
                )
            lits.add((base, table[key]))
        mapping[d] = Clause(lits)

    base_formula = CnfFormula(frozenset(mapping.values()))
    if substitute(base_formula, f) != sub_formula:
        raise PeblabError("formula is not a full substitution image (incomplete clause blocks)")
    return base_formula, mapping


# -- DIMACS --------------------------------------------------------------


def to_dimacs(f_formula: CnfFormula) -> str:
    """Standard DIMACS with the variable-name map in comment lines."""
    names = f_formula.variables()
    index = {v: i + 1 for i, v in enumerate(names)}
    lines = [f"c var {i + 1} {v}" for i, v in enumerate(names)]
    lines.append(f"p cnf {len(names)} {len(f_formula.clauses)}")
    for c in f_formula.sorted_clauses():
        nums = sorted((index[n] if p else -index[n] for n, p in c), key=abs)
        lines.append(" ".join(str(x) for x in nums + [0]))
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CnfFormula:
    names: dict[int, str] = {}
    named_on: dict[str, int] = {}  # explicit name -> line of its `c var`
    nvars = nclauses = header_line = None
    clause_tokens: list[tuple[int, int]] = []  # (value, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split()
            if len(fields) == 4 and fields[1] == "var":
                if not is_decimal(fields[2]):
                    raise DimacsError(f"bad variable index {fields[2]!r}", line=lineno)
                index, name = int(fields[2]), fields[3]
                if name in named_on:
                    raise DimacsError(
                        f"variable name {name!r} already given on line {named_on[name]}",
                        line=lineno,
                    )
                if index in names:
                    raise DimacsError(
                        f"variable {index} already named {names[index]!r} on line "
                        f"{named_on[names[index]]}",
                        line=lineno,
                    )
                if name[0] in "-~":
                    raise DimacsError(f"variable name {name!r} reads as a negative literal",
                                      line=lineno)
                names[index] = name
                named_on[name] = lineno
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf" or not all(map(is_decimal, fields[2:])):
                raise DimacsError(f"bad problem line {raw!r}", line=lineno)
            if nvars is not None:
                raise DimacsError("duplicate problem line", line=lineno)
            nvars, nclauses, header_line = int(fields[2]), int(fields[3]), lineno
            continue
        if nvars is None:
            raise DimacsError("clause before problem line", line=lineno)
        for tok in line.split():
            if not is_decimal(tok.removeprefix("-")):
                raise DimacsError(f"bad literal {tok!r}", line=lineno)
            clause_tokens.append((int(tok), lineno))

    if nvars is None:
        raise DimacsError("missing problem line")
    for name, lineno in named_on.items():
        i = int(name[1:]) if is_decimal(name[1:]) else 0
        if name == f"x{i}" and 0 < i <= nvars and i not in names:
            raise DimacsError(f"variable name {name!r} is the default name of variable {i}",
                              line=lineno)

    def name_of(i: int) -> str:
        return names.get(i, f"x{i}")

    clauses = []
    current: list[int] = []
    last_line = None
    for value, lineno in clause_tokens:
        last_line = lineno
        if value == 0:
            try:
                clauses.append(Clause((name_of(abs(v)), v > 0) for v in current))
            except TrivialClause as e:
                raise DimacsError(str(e), line=lineno) from None
            current = []
            continue
        if abs(value) > nvars:
            raise DimacsError(f"literal {value} out of range (header says {nvars} vars)", line=lineno)
        current.append(value)
    if current:
        raise DimacsError("unterminated clause at end of file", line=last_line)
    if len(clauses) != nclauses:
        raise DimacsError(f"header promises {nclauses} clauses, found {len(clauses)}",
                          line=header_line)
    return CnfFormula(frozenset(clauses))
