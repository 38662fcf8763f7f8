"""Pebbling contradictions, substitution formulas, the clause-learning
SAT oracle, and DIMACS I/O.

Substituted variables are named x#1..x#d so the mapping back to base
variables is collision-free and reversible.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

from .cnf import Clause, CnfFormula, Lit, is_decimal
from .errors import BudgetExceeded, DimacsError, PeblabError, TrivialClause, search_budget

if TYPE_CHECKING:
    from .boolfunc import BooleanFunction
    from .dag import Dag

SUBST_SEP = "#"


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


# -- SAT oracle ----------------------------------------------------------


def brute_force_sat(f_formula: CnfFormula, budget=None) -> dict[str, bool] | None:
    """First satisfying assignment in canonical variable order, or None.

    Conflict-driven clause learning (GRASP: Marques-Silva and Sakallah,
    1999): two watched literals per clause, first-UIP learning, and a
    backjump that asserts the learned clause.  Each decision sets the
    lowest unassigned variable in canonical (lexicographic) order False;
    there are no restarts, no activity heuristic, no clause deletion.

    The model is the lexicographically first one, m*, the one plain
    enumeration with False before True returns.  Let y be the first
    variable where the returned model differs from m*.  False at y would
    make the returned model the smaller one.  True at y is no decision,
    so it is implied by the formula and the decisions before it, all on
    variables below y, where the two models agree; so m*(y) is True too.

    The budget counts variable assignments, decided or propagated, each
    one again after a backjump; learned clauses are at most as many.
    """
    names = f_formula.variables()
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    # literal 2*i is variable i True and 2*i + 1 is variable i False
    clauses = [
        [2 * index[name] + (not polarity) for name, polarity in c.sorted_literals()]
        for c in f_formula.sorted_clauses()
    ]
    if any(not c for c in clauses):
        return None

    value = [0] * (2 * n)  # per literal: 1 true, -1 false, 0 unassigned
    level = [0] * n
    reason: list[int | None] = [None] * n  # the clause that implied the variable, as its c[0]
    watches: list[list[int]] = [[] for _ in range(2 * n)]  # clauses to visit when the literal falls
    trail: list[int] = []
    decisions: list[int] = []  # trail length at each decision, one per level
    limit = search_budget(budget)
    assigned = 0

    def assign(lit: int, why: int | None) -> None:
        nonlocal assigned
        assigned += 1
        if assigned > limit:
            raise BudgetExceeded(assigned, limit, "SAT oracle", unit="assignments")
        value[lit], value[lit ^ 1] = 1, -1
        level[lit >> 1] = len(decisions)
        reason[lit >> 1] = why
        trail.append(lit)

    def propagate(head: int) -> int | None:
        """Propagate trail[head:]; the index of a falsified clause, or None."""
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            visit, watches[false_lit] = watches[false_lit], []
            for k, ci in enumerate(visit):
                c = clauses[ci]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                if value[c[0]] != 1:
                    free = next((j for j in range(2, len(c)) if value[c[j]] != -1), 0)
                    if free:
                        c[1], c[free] = c[free], false_lit
                        watches[c[1]].append(ci)
                        continue
                    if value[c[0]] == -1:
                        watches[false_lit] += visit[k:]
                        return ci
                    assign(c[0], ci)
                watches[false_lit].append(ci)
        return None

    for ci, c in enumerate(clauses):
        if len(c) > 1:
            watches[c[0]].append(ci)
            watches[c[1]].append(ci)
        elif value[c[0]] == -1:
            return None
        elif not value[c[0]]:
            assign(c[0], ci)

    head = cursor = 0
    while True:
        conflict = propagate(head)
        if conflict is None:
            while cursor < n and value[2 * cursor]:
                cursor += 1
            if cursor == n:
                return {names[i]: value[2 * i] == 1 for i in range(n)}
            head = len(trail)
            decisions.append(head)
            assign(2 * cursor + 1, None)
            continue
        if not decisions:
            return None
        # first UIP: resolve the conflict clause with the reasons of the
        # current level's literals, latest first, until one is left
        seen = [False] * n
        learned = [0]
        pending, k, ci = 0, len(trail), conflict
        while True:
            for lit in clauses[ci]:
                v = lit >> 1
                if not seen[v] and level[v]:
                    seen[v] = True
                    if level[v] == len(decisions):
                        pending += 1
                    else:
                        learned.append(lit)
            k -= 1
            while not seen[trail[k] >> 1]:
                k -= 1
            pending -= 1
            if not pending:
                break
            ci = reason[trail[k] >> 1]
        learned[0] = trail[k] ^ 1
        learned[1:] = sorted(learned[1:], key=lambda lit: -level[lit >> 1])
        back = level[learned[1] >> 1] if len(learned) > 1 else 0
        for lit in learned[:2]:  # a learned unit is set at level 0 and never falls
            watches[lit].append(len(clauses))
        head = decisions[back]
        cursor = trail[head] >> 1
        for lit in trail[head:]:
            value[lit] = value[lit ^ 1] = 0
        del trail[head:], decisions[back:]
        clauses.append(learned)
        assign(learned[0], len(clauses) - 1)


def is_minimally_unsat(f_formula: CnfFormula, budget=None) -> bool:
    """UNSAT, and deleting any single clause makes it satisfiable."""
    if brute_force_sat(f_formula, budget) is not None:
        return False
    for c in f_formula.clauses:
        if brute_force_sat(f_formula.without_clause(c), budget) is None:
            return False
    return True


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
