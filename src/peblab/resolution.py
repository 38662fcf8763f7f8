"""Configuration-style resolution and k-DNF resolution: the proof values,
the resolution rule, the checker, the proof builder, the compilers and
the trace format, which every proof stage runs.

Proof objects are sequences of axiom download / inference / erasure
steps over clause (or k-DNF line) configurations.  One checked replay,
`_replay`, verifies each step against the system's rules and yields the
configuration after it; the checker reads exact length/width/space
measures off it, and lift and projection read their input through it,
so they accept exactly the proofs the checker accepts.  Builders emit
the constant-space refutation and compile pebblings into refutations;
both write their steps directly, and a compiled refutation of Peb_G[f]
is the lift of the compiled refutation of Peb_G.  The replay, the trace
writer and lift read a proof's steps once, front to back.  Within one
call, lift, the builder, the replay and the trace reader and writer keep
per-proof tables, so a line or inference that recurs (a pebbling
re-pebbles, so its refutation re-derives) is built, judged, read or
written once; each table dies with the call.  The replay judges each
distinct resolution inference once, but tests every step's premises and
erasures against the live configuration.  No table keeps text for a line
that does not recur: the writer keeps a line's text from its second
sighting on, and the reader's tables hold literals and lines, not token
sequences or text.  Lift and saturation, with the width and clause-space
oracles, live in `lift` and `saturation`, so `check` compiles neither
(see `cli`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cnf import (
    Clause, CnfFormula, EMPTY_CLAUSE, Lit, Value, format_lit, indices, is_decimal, neg, parse_lit, records,
)
from .errors import (
    IllegalStep,
    IncompletePebbling,
    MissingBottom,
    PivotAbsent,
    TraceError,
    TrivialClause,
    TrivialResolvent,
    WrongEndpoints,
)
from .formulas import pebbling_axiom, pebbling_contradiction
from .lazy import lazy_names

if TYPE_CHECKING:
    from .boolfunc import BooleanFunction
    from .dag import Dag

Term = frozenset[Lit]

# `perfbench/` reads these names here; the table goes once it imports them from their homes
_LAZY = {"lift": ("lift_refutation",), "saturation": ("saturate", "min_width", "min_clause_space")}
__getattr__ = lazy_names(globals(), _LAZY)


def term(spec: str) -> Term:
    return frozenset(parse_lit(tok) for tok in spec.replace("&", " ").split())


def _term_lits(t: Term) -> tuple[str, ...]:
    """A term's formatted literals, sorted: its sort key and its text."""
    return tuple(sorted(map(format_lit, t)))


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

# step kinds ---------------------------------------------------------------


class Download(Value):
    __slots__ = _fields = ("line",)

    def __init__(self, line):
        self.line = line  # Clause | KDnfLine


class Infer(Value):
    __slots__ = _fields = ("line", "premises", "rule", "pivot", "cut_term")

    def __init__(self, line, premises: tuple[int, ...], rule: str,
                 pivot: str | None = None, cut_term: Term | None = None):
        self.line = line
        self.premises = premises
        self.rule = rule  # pivot | weaken | cut | andi | ande
        self.pivot = pivot
        self.cut_term = cut_term


class Erase(Value):
    __slots__ = _fields = ("target",)

    def __init__(self, target: int):
        self.target = target


class Refutation(Value):
    __slots__ = _fields = ("target", "steps", "system", "k")

    def __init__(self, target: CnfFormula, steps: tuple = (), system: str = "res", k: int = 1):
        self.target = target
        self.steps = steps
        self.system = system  # res | kdnf
        self.k = k


class Measures(Value):
    __slots__ = _fields = ("length", "width", "clause_space", "variable_space", "total_space",
                           "formula_space")

    def __init__(self, length: int, width: int, clause_space: int, variable_space: int,
                 total_space: int, formula_space: int):
        self.length = length
        self.width = width
        self.clause_space = clause_space
        self.variable_space = variable_space
        self.total_space = total_space
        self.formula_space = formula_space

    def __str__(self) -> str:
        return (
            f"length={self.length} width={self.width} clause_space={self.clause_space} "
            f"variable_space={self.variable_space} total_space={self.total_space} "
            f"formula_space={self.formula_space}"
        )


# -- the resolution rule ----------------------------------------------------


def resolve(c1: Clause, c2: Clause, pivot: str) -> Clause:
    """Resolution on `pivot`: pivot positive in c1, negative in c2."""
    if (pivot, True) not in c1:
        raise PivotAbsent(f"{pivot} not positive in ({c1})")
    if (pivot, False) not in c2:
        raise PivotAbsent(f"{pivot} not negative in ({c2})")
    try:
        return Clause((c1 - {(pivot, True)}) | (c2 - {(pivot, False)}))
    except TrivialClause:
        raise TrivialResolvent(f"resolving ({c1}) and ({c2}) on {pivot}") from None


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


# -- the checker --------------------------------------------------------------


def _check_kdnf_rule(step: Infer, premises: list, k: int, idx: int) -> None:
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


def _check_res_rule(step: Infer, premises: list, idx: int) -> None:
    if not isinstance(step.line, Clause):
        raise IllegalStep(idx, "resolution step must infer a clause")
    if step.rule == "pivot":
        if len(premises) != 2 or step.pivot is None:
            raise IllegalStep(idx, "resolution takes two premises and a pivot")
        a, b = premises
        positive, negative = (step.pivot, True), (step.pivot, False)
        if positive in a and negative in b and step.line == (a - {positive}) | (b - {negative}):
            return
        try:  # `resolve` words the rejection
            expected = resolve(premises[0], premises[1], step.pivot)
        except (PivotAbsent, TrivialResolvent) as e:
            raise IllegalStep(idx, str(e)) from None
        raise IllegalStep(idx, f"resolvent is ({expected}), not ({step.line})")
    elif step.rule == "weaken":
        if len(premises) != 1:
            raise IllegalStep(idx, "weakening takes one premise")
        if not premises[0].subsumes(step.line):
            raise IllegalStep(idx, "weakening must extend the premise")
    else:
        raise IllegalStep(idx, f"unknown resolution rule {step.rule!r}")


def _replay(r: Refutation, semantic_check: bool):
    """Check `r` step by step, yielding (step, line, premises, config)
    once each step is legal: the line it adds (for an erasure, the line
    it erases), its premise lines, and the live configuration after it,
    a set to read before the next step.  Raises IllegalStep at the first
    illegal step and MissingBottom after the last if the empty line is
    absent.  The one reading of a proof: check, lift and projection all
    replay through it.  It reads `r.steps` once, front to back."""
    if r.system not in ("res", "kdnf"):
        raise ValueError(f"unknown proof system {r.system!r}")
    kdnf = r.system == "kdnf"
    if kdnf:
        line_type, bottom = KDnfLine, EMPTY_LINE
        axioms = {KDnfLine.from_clause(c) for c in r.target.clauses}
    else:
        line_type, bottom, axioms = Clause, EMPTY_CLAUSE, r.target.clauses
    lines_by_id: dict[int, object] = {}
    config: set = set()
    # the resolution inferences judged legal, as (line class, line, *premise
    # lines, rule, pivot): a plain frozenset equals a Clause, so the class
    # is in the key
    checked: set[tuple] = set()
    for idx, step in enumerate(r.steps, start=1):
        premises = []
        if isinstance(step, Erase):
            if step.target not in lines_by_id:
                raise IllegalStep(idx, f"erase target {step.target} does not name a line")
            line = lines_by_id[step.target]
            if line not in config:
                raise IllegalStep(idx, f"erasing ({line}) which is not present")
            config.remove(line)
        else:
            if isinstance(step, Download):
                # a plain frozenset equals the clause of its literals, so check the type
                if step.line.__class__ is not line_type or step.line not in axioms:
                    raise IllegalStep(idx, f"({step.line}) is not an axiom of the target formula")
            elif isinstance(step, Infer):
                for pid in step.premises:
                    if pid not in lines_by_id:
                        raise IllegalStep(idx, f"premise {pid} does not name an earlier line")
                    value = lines_by_id[pid]
                    if value not in config:
                        raise IllegalStep(idx, f"premise ({value}) not in the current configuration")
                    premises.append(value)
                if kdnf:
                    _check_kdnf_rule(step, premises, r.k, idx)
                else:
                    key = (step.line.__class__, step.line, *premises, step.rule, step.pivot)
                    if key not in checked:
                        _check_res_rule(step, premises, idx)
                        checked.add(key)
                if semantic_check and _lines_imply(premises, step.line) is False:
                    raise IllegalStep(idx, "inference is not semantically sound")
            else:
                raise IllegalStep(idx, f"unknown step {step!r}")
            line = lines_by_id[idx] = step.line
            config.add(line)
        yield step, line, premises, config
    if bottom not in config:
        raise MissingBottom("final configuration does not contain the empty clause")


def check_refutation(r: Refutation, semantic_check: bool = False) -> Measures:
    """Replay a refutation; accept iff every step is legal and the final
    configuration contains the empty clause.  Returns exact measures.

    Each k-DNF inference is additionally cross-checked semantically by
    truth table when its premises span at most 20 variables;
    semantic_check=True cross-checks resolution inferences too.

    The measures are kept incrementally: a per-variable occurrence count
    over the present lines and a running literal total change only when
    a line enters or leaves the configuration, so each step costs
    O(step width), not O(configuration).  A clause's variables are read
    straight off its literals, which name each variable once, so no step
    builds a set.
    """
    kdnf = r.system == "kdnf"
    occurrences: dict[str, int] = {}  # variable -> number of present lines mentioning it
    literals = 0  # literals over the present lines
    length = 0
    width = 0
    clause_space = 0
    variable_space = 0
    total_space = 0
    size = 0  # lines present before the step
    for step, line, _, config in _replay(r, kdnf or semantic_check):
        if kdnf:  # one (variable, _) pair per variable: terms may share one
            line_width, pairs = line.literal_count(), [(v, None) for v in line.variables()]
        else:
            line_width, pairs = len(line), line
        if isinstance(step, Erase):
            for v, _ in pairs:
                if occurrences[v] == 1:
                    del occurrences[v]
                else:
                    occurrences[v] -= 1
            literals -= line_width
        else:
            length += 1
            if len(config) > size:  # the line entered; a re-derived one is already counted
                for v, _ in pairs:
                    occurrences[v] = occurrences.get(v, 0) + 1
                literals += line_width
                # only a line that enters can raise a maximum
                if line_width > width:
                    width = line_width
                if len(config) > clause_space:
                    clause_space = len(config)
                if len(occurrences) > variable_space:
                    variable_space = len(occurrences)
                if literals > total_space:
                    total_space = literals
        size = len(config)
    return Measures(
        length=length,
        width=width,
        clause_space=clause_space,
        variable_space=variable_space,
        total_space=total_space,
        formula_space=clause_space,
    )


# -- proof builder ------------------------------------------------------------


class ProofBuilder:
    """Accumulates steps; tracks which line ids are currently present.
    Each method but `erase` returns the line its step adds.  Equal lines
    are one object across the steps, and each resolvent is computed once
    per (premise, premise, pivot)."""

    def __init__(self, target: CnfFormula, system: str = "res", k: int = 1):
        self.target = target
        self.system = system
        self.k = k
        self.steps: list = []
        self._ids: dict[object, int] = {}  # present line value -> latest step id
        self._lines: dict = {}  # line value -> the one object that stands for it
        self._resolvents: dict[tuple[Clause, Clause, str], Clause] = {}

    def _add(self, kind, line, *args, **kwargs):
        """Append a `kind` step that adds `line` and return the line."""
        line = self._lines.setdefault(line, line)
        self.steps.append(kind(line, *args, **kwargs))
        self._ids[line] = len(self.steps)
        return line

    def has(self, line) -> bool:
        return line in self._ids

    def download(self, line):
        return self._add(Download, line)

    def infer_resolve(self, c1: Clause, c2: Clause, pivot: str) -> Clause:
        known = self._resolvents.get((c1, c2, pivot))
        line = self._add(Infer, resolve(c1, c2, pivot) if known is None else known,
                         (self._ids[c1], self._ids[c2]), "pivot", pivot=pivot)
        if known is None:  # keyed by the shared premises, so it keeps no copy alive
            self._resolvents[self._lines[c1], self._lines[c2], pivot] = line
        return line

    def weaken(self, source: Clause, result: Clause) -> Clause:
        return self._add(Infer, result, (self._ids[source],), "weaken")

    def cut(self, p1: KDnfLine, p2: KDnfLine, cut_term: Term, result: KDnfLine) -> KDnfLine:
        return self._add(Infer, result, (self._ids[p1], self._ids[p2]), "cut", cut_term=cut_term)

    def andi(self, p1: KDnfLine, p2: KDnfLine, result: KDnfLine) -> KDnfLine:
        return self._add(Infer, result, (self._ids[p1], self._ids[p2]), "andi")

    def ande(self, p: KDnfLine, result: KDnfLine) -> KDnfLine:
        return self._add(Infer, result, (self._ids[p],), "ande")

    def erase(self, line) -> None:
        self.steps.append(Erase(self._ids.pop(line)))

    def build(self) -> Refutation:
        return Refutation(target=self.target, steps=tuple(self.steps),
                          system=self.system, k=self.k)


# -- constructive refutations ---------------------------------------------------


def constant_space_refutation(g: Dag) -> Refutation:
    """Refute Peb_G in clause space <= 3 and length O(|V| + |E|).

    Starting from the sink axiom, repeatedly resolve the all-negative
    clause with the pebbling axiom of its topologically-latest vertex;
    each vertex is expanded at most once.
    """
    b = ProofBuilder(pebbling_contradiction(g))
    cur = b.download(Clause({(g.sink, False)}))
    while not cur.is_empty():
        v = max(cur.variables(), key=g.topo_position)
        axiom = b.download(pebbling_axiom(g, v))
        nxt = b.infer_resolve(axiom, cur, v)
        b.erase(cur)
        b.erase(axiom)
        cur = nxt
    return b.build()


def pebbling_to_refutation(
    g: Dag,
    p,
    f: BooleanFunction | None = None,
    budget=None,
) -> Refutation:
    """Compile a complete black pebbling into a refutation of Peb_G[f].

    The refutation of Peb_G holds the unit clause v while v holds a
    pebble: a placement on v downloads v's pebbling axiom and resolves
    it against its predecessors' units one by one, erasing each
    intermediate; a removal erases the unit.  At the end the sink's unit
    meets the sink axiom.  With `f`, the result is that refutation's
    `lift_refutation` under the same budget.
    """
    from .pebbling import validate_bw  # here, not at the top: check and lift never load pebbling
    try:
        validate_bw(p, black_only=True)
    except WrongEndpoints as e:
        raise IncompletePebbling(str(e)) from None

    def unit(v: str, positive: bool = True) -> Clause:
        return Clause({(v, positive)})

    b = ProofBuilder(pebbling_contradiction(g))
    for op, v in p.moves:
        if op == "B+":
            line = b.download(pebbling_axiom(g, v))
            for u in g.predecessors(v):
                resolvent = b.infer_resolve(unit(u), line, u)
                b.erase(line)
                line = resolvent
        else:
            b.erase(unit(v))
    b.download(unit(g.sink, False))
    b.infer_resolve(unit(g.sink), unit(g.sink, False), g.sink)
    r = b.build()
    if f is None:
        return r
    from .lift import lift_refutation  # only a compile with a function loads lift
    return lift_refutation(r, f, budget)


class SimulationConstants(Value):
    __slots__ = _fields = ("length_factor", "space_factor")

    def __init__(self, length_factor: int, space_factor: int):
        self.length_factor = length_factor
        self.space_factor = space_factor


_PINNED_CONSTANTS = {
    # function literal -> factors for fan-in <= 2; regression-pinned from
    # measured corpus runs (paths <= 8, binary trees h <= 3, pyramids h <= 3):
    # worst observed ratios 3.0/3.0 (identity), 5.0/5.0 (or:2), 7.0/7.0 (xor:2).
    "none": SimulationConstants(4, 4),
    "or:2": SimulationConstants(6, 6),
    "xor:2": SimulationConstants(9, 12),
}


def pinned_simulation_constants(fn_literal: str, max_indegree: int) -> SimulationConstants:
    """Per-function constants K_f with
    length(refutation) <= K_f * time(pebbling) and
    clause_space(refutation) <= K_f * space(pebbling) on the corpus."""
    if max_indegree > 2 or fn_literal not in _PINNED_CONSTANTS:
        raise KeyError(f"no pinned constants for {fn_literal!r} at fan-in {max_indegree}")
    return _PINNED_CONSTANTS[fn_literal]


# -- proof trace format ---------------------------------------------------------
#
# Header `system res` or `system kdnf <k>`; then one step per line:
#   d <line>                        axiom download
#   r <line> <- i j pivot <var>     resolution
#   r <line> <- i j cut <term>      k-cut
#   r <line> <- i j andi            and-introduction
#   r <line> <- i ande              and-elimination
#   w <line> <- i                   weakening
#   e <i>                           erase the line created at step i
# Clauses are space-separated signed names; k-DNF terms use (a&b).


def _format_line(line) -> str:
    """A line as a trace writes it: its text, or nothing for the empty line."""
    return "" if line.is_empty() else str(line)


def _format_term(lits: tuple[str, ...]) -> str:
    return "(" + "&".join(lits) + ")"


def serialize_refutation(r: Refutation) -> str:
    """The trace of `r`.  A line's text is kept once the line recurs: its
    first sighting stores None, its second the text, so a proof whose
    lines never recur keeps no text beyond its output."""
    lines = [f"system {r.system}" if r.system == "res" else f"system kdnf {r.k}"]
    texts: dict = {}  # line -> None once seen, its text once seen twice
    for step in r.steps:
        kind = step.__class__
        if kind is Erase:
            lines.append(f"e {step.target}")
            continue
        if kind is not Download and (kind is not Infer
                                     or step.rule not in ("pivot", "cut", "andi", "ande", "weaken")):
            raise ValueError(f"cannot serialize step {step!r}")
        line = step.line
        text = texts.get(line, False)
        if text is False:
            text = _format_line(line)
            texts[line] = None
        elif text is None:
            text = texts[line] = _format_line(line)
        if kind is Download:
            lines.append(f"d {text}".rstrip())
            continue
        rule = step.rule
        words = ["w" if rule == "weaken" else "r", text, "<-", *map(str, step.premises)]
        if rule == "pivot":
            words += ("pivot", step.pivot)
        elif rule == "cut":
            words += ("cut", _format_term(_term_lits(step.cut_term)))
        elif rule != "weaken":
            words.append(rule)
        lines.append(" ".join(filter(None, words)))  # an empty line is no word
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _parse_line_tokens(tokens: list[str], kdnf: bool, lineno: int, tables=None):
    """The line `tokens` write.  `tables` is (literal or term by token,
    line by literal or term set) for one parse, so each distinct token
    is read once and each distinct line is checked and built once."""
    atoms, lines = ({}, {}) if tables is None else tables
    try:  # C-level when every token was read before
        key = frozenset(map(atoms.__getitem__, tokens))
    except KeyError:
        for tok in tokens:
            if tok in atoms:
                continue
            if not kdnf:
                atoms[tok] = parse_lit(tok)
            elif tok.startswith("(") and tok.endswith(")"):
                atoms[tok] = term(tok[1:-1])
            else:
                atoms[tok] = frozenset({parse_lit(tok)})
        key = frozenset(map(atoms.__getitem__, tokens))
    line = lines.get(key)
    if line is None:
        lits = frozenset().union(*key) if kdnf else key
        if any(not name for name, _ in lits):
            raise TraceError("a literal has an empty variable name", line=lineno)
        try:
            line = KDnfLine(key) if kdnf else Clause(key)
        except (TrivialClause, ValueError) as e:
            raise TraceError(str(e), line=lineno) from None
        lines[key if kdnf else line] = line  # a clause is its own key
    return line


def parse_refutation_trace(text: str, target: CnfFormula) -> Refutation:
    """The refutation a trace writes.  Its records come from `records`, its
    lines are read through one parse's `_parse_line_tokens` tables, and its
    step references by `indices`."""
    steps: list = []
    tables = ({}, {})  # see `_parse_line_tokens`
    rows = records(text)
    lineno, raw, fields = next(rows, (None, None, None))  # the header is the first record
    if fields is None:
        raise TraceError("empty trace: missing 'system' header")
    if fields[0] != "system":
        raise TraceError("first directive must be 'system res' or 'system kdnf <k>'", line=lineno)
    if fields[1:] == ["res"]:
        system, kdnf, k = "res", False, 1
    elif len(fields) == 3 and fields[1] == "kdnf" and is_decimal(fields[2]) and int(fields[2]) >= 1:
        system, kdnf, k = "kdnf", True, int(fields[2])
    else:
        raise TraceError(f"bad system line {raw!r}", line=lineno)
    for lineno, raw, fields in rows:
        op = fields[0]
        if op == "e":
            if len(fields) != 2:
                raise TraceError(f"bad erase {raw!r}", line=lineno)
            steps.append(Erase(*indices(fields[1:], lineno, "step reference")))
            continue
        if op == "d":
            tokens = fields[1:]
        elif op in ("r", "w"):
            if "<-" not in fields:
                raise TraceError(f"missing '<-' in {raw!r}", line=lineno)
            arrow = fields.index("<-")
            tokens, rest = fields[1:arrow], fields[arrow + 1:]
        else:
            raise TraceError(f"unknown step {op!r}", line=lineno)
        line = _parse_line_tokens(tokens, kdnf, lineno, tables)
        if op == "d":
            steps.append(Download(line))
            continue
        pivot = cut_term = None
        if op == "w":
            if len(rest) != 1:
                raise TraceError(f"weakening takes one premise id: {raw!r}", line=lineno)
            rule, refs = "weaken", rest
        elif len(rest) == 4 and rest[2] == "pivot":
            rule, refs, pivot = "pivot", rest[:2], rest[3]
        elif len(rest) == 4 and rest[2] == "cut":
            tok = rest[3]
            if not (tok.startswith("(") and tok.endswith(")")):
                raise TraceError(f"cut term must be parenthesised: {raw!r}", line=lineno)
            (cut_term,) = _parse_line_tokens([tok], True, lineno).terms
            rule, refs = "cut", rest[:2]
        elif len(rest) == 3 and rest[2] == "andi":
            rule, refs = "andi", rest[:2]
        elif len(rest) == 2 and rest[1] == "ande":
            rule, refs = "ande", rest[:1]
        else:
            raise TraceError(f"bad inference {raw!r}", line=lineno)
        steps.append(Infer(line, indices(refs, lineno, "step reference"), rule, pivot, cut_term))
    return Refutation(target=target, steps=tuple(steps), system=system, k=k)
