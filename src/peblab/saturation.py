"""Bounded saturation and the oracles built on it: `min_width`, the
minimal refutation width, and `min_clause_space`, the exact minimal clause
space.  It imports no proof module, so `minwidth` and `minspace` compile
no proof code they do not run (see `cli`).
"""

from __future__ import annotations

import heapq

from .cnf import Clause, CnfFormula
from .errors import BudgetExceeded, search_budget

_Mask = tuple[int, int]  # (positive variables, negative variables) as bit sets
_EMPTY: _Mask = (0, 0)


class _Codec:
    """The variables of a clause set, interned in sorted-name order, so a
    clause over them is a pair of bit sets (pos, neg)."""

    def __init__(self, clauses: list[Clause]):
        names = sorted({n for c in clauses for n, _ in c})
        self._bit = {n: 1 << i for i, n in enumerate(names)}

    def encode(self, c: Clause) -> _Mask:
        """The mask of c's literals; literals of other variables are dropped."""
        pos_bits = neg_bits = 0
        for name, positive in c:
            if positive:
                pos_bits |= self._bit.get(name, 0)
            else:
                neg_bits |= self._bit.get(name, 0)
        return pos_bits, neg_bits


def saturate(premises, width_cap: int, budget=None):
    """DISCOUNT given-clause resolution closure (Denzinger, Kronenburg
    and Schulz, 1997).

    Tautologies, repeats and clauses wider than `width_cap` are dropped;
    a new resolvent only joins the queue.  The given clause is the
    lightest queued one, ties in arrival order: it is skipped if an
    active clause subsumes it, else it deletes the active clauses it
    subsumes, is resolved against the rest in given order and becomes
    active.  A subsumer is strictly narrower, so it is given first.
    Returns (codec, active, width): the `_Codec` of the premises, the
    active clauses as masks, and the widest given clause.  Once the
    empty clause is generated, active is just it and width is the
    minimal refutation width; if the queue runs out, active is the
    subsumption-minimal part of the closure.  The width and space
    oracles call it; no proof builder does.

    Pivots are the set bits of `p1 & n2 | p2 & n1`, lowest first, which
    is sorted-name order; a resolvent is a tautology iff `rp & rn`; c
    subsumes d iff both `cp & ~dp` and `cn & ~dn` are zero.
    """
    limit = search_budget(budget)
    prems = [c for c in premises if c.width <= width_cap]
    codec = _Codec(prems)
    # every clause ever generated; it only grows, so its size orders arrivals
    seen = dict.fromkeys(codec.encode(c) for c in sorted(prems, key=Clause.sort_key))
    queue = [((p | n).bit_count(), i, (p, n)) for i, (p, n) in enumerate(seen)]  # sorted so a heap
    active: dict[_Mask, None] = {}
    work = width = 0
    while queue:
        given_width, _, (gp, gn) = heapq.heappop(queue)
        not_gp, not_gn = ~gp, ~gn
        for ap, an in active:
            if not (ap & not_gp or an & not_gn):
                break  # subsumed by an active clause
        else:
            for o in [o for o in active if not (gp & ~o[0] or gn & ~o[1])]:
                del active[o]
            width = max(width, given_width)  # a wide given can yield a narrow resolvent
            for op, on in active:
                pivots = gp & on | op & gn
                union_p, union_n = gp | op, gn | on
                while pivots:
                    pivot = pivots & -pivots
                    pivots ^= pivot
                    work += 1
                    if work > limit:
                        raise BudgetExceeded(work, limit, "saturation", unit="resolvents tried")
                    rp = union_p & ~pivot
                    rn = union_n & ~pivot
                    r_width = (rp | rn).bit_count()
                    if rp & rn or r_width > width_cap or (rp, rn) in seen:
                        continue
                    if not r_width:
                        return codec, {_EMPTY: None}, width
                    seen[rp, rn] = None
                    heapq.heappush(queue, (r_width, len(seen), (rp, rn)))
            active[gp, gn] = None
    return codec, active, width


def min_width(f_formula: CnfFormula, cap: int) -> int | None:
    """Smallest w <= cap such that width-w resolution refutes the formula,
    else None (reported as >cap): one lightest-first `saturate` pass."""
    _, alive, width = saturate(f_formula.clauses, cap)
    return width if _EMPTY in alive else None


def min_clause_space(f_formula: CnfFormula, cap: int, budget=None) -> int | None:
    """Exact minimal clause space over all refutations of <= cap clauses
    per configuration, else None: `space_bounded_search` over sets of the
    saturation codec's masks, where erasures shrink a set and downloads
    and resolvents grow it.  Satisfiable input answers None at once."""
    from .search import space_bounded_search
    # a width cap of the variable count drops no clause
    codec, alive, _ = saturate(f_formula.clauses, len(f_formula.variables()), budget)
    if _EMPTY not in alive:
        return None  # satisfiable: no refutation at any cap
    axioms = [codec.encode(c) for c in f_formula.sorted_clauses()]

    def erasures(state):
        return (state - {c} for c in state)

    def derivations(state):
        yield from (state | {a} for a in axioms if a not in state)
        for fp, fn in state:
            for sp, sn in state:
                pivots = fp & sn
                while pivots:
                    pivot = pivots & -pivots
                    pivots ^= pivot
                    rp, rn = (fp | sp) & ~pivot, (fn | sn) & ~pivot
                    if not rp & rn and (rp, rn) not in state:
                        yield state | {(rp, rn)}

    path, s = space_bounded_search(frozenset(), erasures, derivations, len,
                                   lambda state: _EMPTY in state, budget,
                                   "clause space search", cap)
    return None if path is None else s
