"""Lifting a resolution refutation of F to one of F[f]: a lift replays
one fixed template per function for each resolution step, so no builder
searches.  Only `lift`, and `compile` or `report` with a function, run
it (see `cli`).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import TYPE_CHECKING

from .cnf import Clause, CnfFormula, Lit
from .errors import BudgetExceeded, search_budget
from .formulas import SUBST_SEP, _generic_canonical, substitute, substitute_clause
from .resolution import Download, Erase, Infer, ProofBuilder, _replay, resolve

if TYPE_CHECKING:
    from .boolfunc import BooleanFunction
    from .resolution import Refutation, Term


@functools.lru_cache(maxsize=None)
def _template(f: BooleanFunction) -> Refutation:
    """A refutation of canonical(f) | canonical(not f) on the generic
    block `1..d`, read off the decision tree that queries the inputs in
    order.

    A node's clause is falsified by the node's partial assignment: it is
    the first axiom so falsified, or else the resolvent of its children's
    clauses on the queried input, or a child's clause that does not
    mention that input.  The root's clause is empty.  Lines are emitted
    in post-order, one per distinct clause, with no erasure, so step i
    is line i.
    """
    axioms = sorted(_generic_canonical(f, True) | _generic_canonical(f, False),
                    key=Clause.sort_key)

    def node(assignment: dict[str, bool]):
        """(clause, derivation), the derivation None or (left, right, pivot)."""
        for a in axioms:
            if all(assignment.get(n) == (not positive) for n, positive in a):
                return a, None
        y = str(len(assignment) + 1)
        left = node({**assignment, y: False})
        if (y, True) not in left[0]:
            return left
        right = node({**assignment, y: True})
        if (y, False) not in right[0]:
            return right
        return resolve(left[0], right[0], y), (left, right, y)

    b = ProofBuilder(CnfFormula(frozenset(axioms)))

    def emit(line: Clause, derivation) -> None:
        if b.has(line):
            return
        if derivation is None:
            b.download(line)
            return
        left, right, y = derivation
        emit(*left)
        emit(*right)
        b.infer_resolve(left[0], right[0], y)

    emit(*node({}))
    return b.build()


def lift_refutation(
    r: Refutation,
    f: BooleanFunction,
    budget=None,
) -> Refutation:
    """Lift a resolution refutation of F to one of F[f], step by step.

    A download maps to downloads of the clause's whole image under
    substitution, a weakening to weakenings of the image's clauses, and
    an erasure erases the image.  A resolution step c = resolve(a, b, x)
    derives each clause t of c's image by replaying `_template(f)` on x's
    block: its lines from f's axioms carry P', the literals of t on the
    blocks of a's other variables; its lines from not-f's axioms carry
    Q', those on the blocks of b's; so its axioms are clauses of a's and
    b's images and its root is t.  Intermediates are erased after their
    last use.  A line has at most |t| + d literals, so the width stays
    within d*(w+1) for a base width of w.

    Before building anything, `r` is checked by the checker's replay,
    and the lifted length is bounded from the image sizes of its steps;
    a bound above `search_budget(budget)` raises BudgetExceeded in
    lifted lines.
    """
    if r.system != "res":
        raise ValueError("only resolution refutations can be lifted")
    replay = list(_replay(r, False))  # an illegal proof fails here, before any lifting
    template = _template(f)
    f_axioms = _generic_canonical(f, True)
    image_sizes = {True: len(f_axioms), False: len(template.target) - len(f_axioms)}
    replay_length = sum(isinstance(s, Infer) for s in template.steps)
    bound = sum(
        math.prod(image_sizes[positive] for _, positive in c)
        * (replay_length if isinstance(s, Infer) and s.rule == "pivot" else 1)
        for s, c, _, _ in replay if not isinstance(s, Erase)
    )
    limit = search_budget(budget)
    if bound > limit:
        raise BudgetExceeded(bound, limit, "lift", unit="lifted lines")

    sides: list[int] = []  # per template line: 1 from f's axioms, 2 from not-f's, 3 both
    inferences: list[tuple[int, int, int]] = []  # (line, premise line, premise line)
    last_use: dict[int, int] = {}
    for k, s in enumerate(template.steps):
        if isinstance(s, Download):
            sides.append(1 if s.line in f_axioms else 2)
        else:
            i, j = s.premises[0] - 1, s.premises[1] - 1
            sides.append(sides[i] | sides[j])
            inferences.append((k, i, j))
            last_use[i] = last_use[j] = k

    def base(lit: Lit) -> str:
        return lit[0].rpartition(SUBST_SEP)[0]

    @functools.lru_cache(maxsize=None)
    def block(x: str) -> tuple[list[Term], list[str | None]]:
        """The template's lines and pivots on x's block, built once per pivot."""
        return ([frozenset((f"{x}{SUBST_SEP}{n}", positive) for n, positive in s.line)
                 for s in template.steps],
                [f"{x}{SUBST_SEP}{s.pivot}" if isinstance(s, Infer) else None for s in template.steps])

    def derivations(step, c: Clause, premises: list):
        """Yield each clause t of c's image, sorted, with what derives it:
        None for a download, the premise image's clause that t extends for
        a weakening, and the template's lines on the pivot's block with
        t's literals attached for a resolution."""
        targets = sorted(substitute_clause(c, f), key=Clause.sort_key)
        if isinstance(step, Download):
            yield from ((t, None) for t in targets)
        elif step.rule == "weaken":
            kept = premises[0].variables()
            for t in targets:
                yield t, Clause(l for l in t if base(l) in kept)
        else:
            x = step.pivot
            on_block = block(x)[0]
            left = premises[0].variables() - {x}
            right = premises[1].variables() - {x}
            for t in targets:
                attached = {1: frozenset(l for l in t if base(l) in left),
                            2: frozenset(l for l in t if base(l) in right),
                            3: t}  # by sides: P', Q', both
                yield t, [Clause(line | attached[side]) for line, side in zip(on_block, sides)]

    # A step's derivations depend only on (c, premise lines, pivot): keep
    # them for each such key that occurs twice or more, and build the
    # others one image clause at a time.
    keys = [None if isinstance(step, Erase) else (c, *premises, step.pivot) if isinstance(step, Infer) else c
            for step, c, premises, _ in replay]
    repeated = {key for key, n in Counter(keys).items() if n > 1}
    plans: dict = {}

    b = ProofBuilder(substitute(r.target, f))
    images: dict[Clause, list[Clause]] = {}  # present base clause -> its image, sorted
    for (step, c, premises, _), key in zip(replay, keys):
        if isinstance(step, Erase):
            for d in images.pop(c):
                b.erase(d)
            continue
        if c in images:
            continue
        plan = plans.get(key)
        if plan is None:
            plan = derivations(step, c, premises)
            if key in repeated:
                plan = plans[key] = list(plan)
        image = images[c] = []
        for t, derivation in plan:
            image.append(t)
            if isinstance(step, Download):
                b.download(t)
            elif step.rule == "weaken":
                b.weaken(derivation, t)
            else:
                pivots = block(step.pivot)[1]
                derived: set[int] = set()
                for k, i, j in inferences:
                    if not b.has(derivation[k]):
                        b.infer_resolve(derivation[i], derivation[j], pivots[k])
                        derived.add(k)
                    for premise in (i, j):
                        if last_use[premise] == k and premise in derived:
                            b.erase(derivation[premise])
    return b.build()
