"""k-DNF resolution: the k-DNF line, its rules and the truth-table test
that cross-checks an inference.  No CLI producer emits a k-DNF proof, so
`resolution` imports this module only for a `system kdnf` trace or
refutation, a semantic check or a cut term to write (see `cli`).
"""

from __future__ import annotations

from .cnf import Clause, Lit, Value, format_lit, neg, parse_lit
from .errors import IllegalStep

Term = frozenset[Lit]


def term(spec: str) -> Term:
    return frozenset(parse_lit(tok) for tok in spec.replace("&", " ").split())


def _term_lits(t: Term) -> tuple[str, ...]:
    """A term's formatted literals, sorted: its sort key and its text."""
    return tuple(sorted(map(format_lit, t)))


def _format_term(lits: tuple[str, ...]) -> str:
    return "(" + "&".join(lits) + ")"


class KDnfLine(Value):
    """Disjunction of terms; each term a nontrivial conjunction of literals."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: frozenset[Term] = frozenset()):
        for t in terms:
            if not t:
                raise ValueError("empty term (constant true) not allowed in a line")
            names = [n for n, _ in t]
            if len(names) != len(set(names)):
                raise ValueError(f"trivial term {_format_term(_term_lits(t))}")
        self.terms = terms

    @classmethod
    def from_clause(cls, c: Clause) -> "KDnfLine":
        return cls(frozenset(frozenset({lit}) for lit in c))

    def variables(self) -> frozenset[str]:
        return frozenset(n for t in self.terms for n, _ in t)

    def literal_count(self) -> int:
        return sum(len(t) for t in self.terms)

    def max_term_width(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    def is_empty(self) -> bool:
        return not self.terms

    def sort_key(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(map(_term_lits, self.terms)))

    def __str__(self) -> str:
        return " ".join(lits[0] if len(lits) == 1 else _format_term(lits)
                        for lits in self.sort_key()) or "<empty>"


EMPTY_LINE = KDnfLine()


# -- semantic evaluation (truth-table cross-checks) ---------------------------

_SEMANTIC_VAR_CAP = 20


def _lines_imply(premises, conclusion) -> bool | None:
    """Truth-table implication check; None if too many variables."""
    names = sorted(set().union(*(p.variables() for p in premises), conclusion.variables()))
    if len(names) > _SEMANTIC_VAR_CAP:
        return None
    pos = {n: i for i, n in enumerate(names)}

    def holds(line, assignment) -> bool:
        if isinstance(line, Clause):
            return any(((assignment >> pos[n]) & 1) == int(p) for n, p in line)
        return any(
            all(((assignment >> pos[n]) & 1) == int(p) for n, p in t) for t in line.terms
        )

    for assignment in range(1 << len(names)):
        if all(holds(p, assignment) for p in premises) and not holds(conclusion, assignment):
            return False
    return True


def _check_kdnf_rule(step, premises: list, k: int, idx: int) -> None:
    line = step.line
    if not isinstance(line, KDnfLine):
        raise IllegalStep(idx, "k-DNF step must infer a k-DNF line")
    if line.max_term_width() > k:
        raise IllegalStep(idx, f"term wider than k={k} in conclusion")
    if step.rule == "weaken":
        if len(premises) != 1:
            raise IllegalStep(idx, "weakening takes one premise")
        if not premises[0].terms <= line.terms:
            raise IllegalStep(idx, "weakening must extend the premise")
        return
    if step.rule == "cut":
        if len(premises) != 2 or step.cut_term is None:
            raise IllegalStep(idx, "cut takes two premises and a cut term")
        t = step.cut_term
        p1, p2 = premises
        if len(t) > k:
            raise IllegalStep(idx, f"cut term wider than k={k}")
        if t not in p1.terms:
            raise IllegalStep(idx, "cut term missing from first premise")
        negs = {frozenset({neg(l)}) for l in t}
        if not negs <= p2.terms:
            raise IllegalStep(idx, "negated cut literals missing from second premise")
        g = p1.terms - {t}
        rest = p2.terms - negs
        if not (g | rest) <= line.terms or not line.terms <= (g | p2.terms):
            raise IllegalStep(idx, "cut conclusion does not match premises")
        return
    if step.rule == "andi":
        if len(premises) != 2:
            raise IllegalStep(idx, "and-introduction takes two premises")
        p1, p2 = premises
        for t1 in p1.terms:
            for t2 in p2.terms:
                if p1.terms - {t1} != p2.terms - {t2}:
                    continue
                union = t1 | t2
                if len(union) > k:
                    continue
                names = [n for n, _ in union]
                if len(names) != len(set(names)):
                    continue
                if line.terms == (p1.terms - {t1}) | {union}:
                    return
        raise IllegalStep(idx, "no valid and-introduction matches the conclusion")
    if step.rule == "ande":
        if len(premises) != 1:
            raise IllegalStep(idx, "and-elimination takes one premise")
        (p,) = premises
        for t in p.terms:
            for sub in line.terms:
                if sub < t and line.terms == (p.terms - {t}) | {sub}:
                    return
        raise IllegalStep(idx, "no valid and-elimination matches the conclusion")
    raise IllegalStep(idx, f"unknown k-DNF rule {step.rule!r}")
