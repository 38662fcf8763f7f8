"""The clause-learning SAT oracle, `brute_force_sat`, and the minimal
unsatisfiability test built on it.  No CLI subcommand runs them, so no
subcommand compiles this module (see `formulas._LAZY`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import BudgetExceeded, search_budget

if TYPE_CHECKING:
    from .cnf import CnfFormula


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
