import time
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from peblab import boolfunc, dag, formulas, sat
from peblab.cnf import Clause, CnfFormula, clause, formula
from peblab.errors import BudgetExceeded, DagError, DimacsError, PeblabError, TraceError, TrivialClause

OR2 = boolfunc.or_fn(2)
XOR2 = boolfunc.xor_fn(2)


def test_pebbling_contradiction_pyramid2_is_figure_exact():
    F = formulas.pebbling_contradiction(dag.build_pyramid(2))
    assert F.clauses == formula(
        ["u", "v", "w", "-u -v x", "-v -w y", "-x -y z", "-z"]
    ).clauses


def test_pebbling_contradiction_degenerate_and_path():
    single = formulas.pebbling_contradiction(dag.build_path(1))
    assert single.clauses == formula(["v1", "-v1"]).clauses
    p3 = formulas.pebbling_contradiction(dag.build_path(3))
    assert p3.clauses == formula(["v1", "-v1 v2", "-v2 v3", "-v3"]).clauses


def test_pebbling_contradiction_counts():
    for g in (dag.build_pyramid(3), dag.build_binary_tree(2), dag.build_path(6)):
        F = formulas.pebbling_contradiction(g)
        assert len(F.clauses) == len(g.vertices) + 1
        assert len(F.variables()) == len(g.vertices)
        assert F.width <= 1 + g.max_indegree


def test_substitute_example_clause_xor():
    # x v -y under xor2 gives the four width-4 clauses
    image = formulas.substitute_clause(clause("x -y"), XOR2)
    assert image == formula([
        "x#1 x#2 y#1 -y#2",
        "x#1 x#2 -y#1 y#2",
        "-x#1 -x#2 y#1 -y#2",
        "-x#1 -x#2 -y#1 y#2",
    ]).clauses


def test_substitute_counts_and_unsat():
    F = formulas.pebbling_contradiction(dag.build_pyramid(2))
    For = formulas.substitute(F, OR2)
    Fxor = formulas.substitute(F, XOR2)
    assert len(For.clauses) == 17
    assert len(Fxor.clauses) == 32
    assert len(For.variables()) == 2 * len(F.variables())
    assert sat.brute_force_sat(For) is None
    assert sat.brute_force_sat(Fxor) is None


def test_substitute_clause_bound():
    for f in (OR2, XOR2):
        for g in (dag.build_path(4), dag.build_pyramid(2)):
            F = formulas.pebbling_contradiction(g)
            sub = formulas.substitute(F, f)
            assert len(sub.clauses) < len(F.clauses) * 2 ** (f.arity * F.width)


def test_substitute_rejects_indexed_variables():
    with pytest.raises(PeblabError):
        formulas.substitute(formula(["a#1"]), OR2)


def test_substitution_images_disjoint():
    F = formulas.pebbling_contradiction(dag.build_pyramid(2))
    images = formulas.substitution_images(F, XOR2)
    seen = set()
    for img in images.values():
        assert not (seen & img)
        seen |= img


def test_base_of_substituted_roundtrip():
    F = formulas.pebbling_contradiction(dag.build_pyramid(2))
    sub = formulas.substitute(F, XOR2)
    back, mapping = formulas.base_of_substituted(sub, XOR2)
    assert back == F
    assert set(mapping) == set(sub.clauses)
    assert set(mapping.values()) == set(F.clauses)
    with pytest.raises(PeblabError):
        formulas.base_of_substituted(sub, OR2)


def test_brute_force_sat_examples():
    assert sat.brute_force_sat(formula(["x"])) == {"x": True}
    peb = formulas.pebbling_contradiction(dag.build_pyramid(2))
    assert sat.brute_force_sat(peb) is None
    no_sink = peb.without_clause(clause("-z"))
    model = sat.brute_force_sat(no_sink)
    assert model == {v: True for v in no_sink.variables()}


def test_brute_force_sat_is_lexicographically_first():
    # (x or y) alone: 00 fails, 01 is the first satisfying assignment
    assert sat.brute_force_sat(formula(["x y"])) == {"x": False, "y": True}


def test_brute_force_sat_budget(monkeypatch):
    # pyramid:4 maj:3 needs tens of thousands of assignments
    F = _sink_split(dag.build_pyramid(4), boolfunc.majority_fn(3))[0]
    with pytest.raises(BudgetExceeded, match=r"^SAT oracle exceeded budget: 1001 assignments \(budget 1000\)$"):
        sat.brute_force_sat(F, budget=1000)
    monkeypatch.setenv("PEBLAB_BUDGET", "1000")
    with pytest.raises(BudgetExceeded, match=r"^SAT oracle exceeded budget: 1001 assignments \(budget 1000\)$"):
        sat.brute_force_sat(F)


def test_brute_force_sat_pyramid4_maj3():
    # plain DPLL, a tree-like refutation, exceeds 2 * 10^7 assignments on
    # the full formula; clause learning refutes it in about 45,000
    full, sink_deleted = _sink_split(dag.build_pyramid(4), boolfunc.majority_fn(3))
    start = time.process_time()
    assert sat.brute_force_sat(full, budget=10**6) is None
    model = sat.brute_force_sat(sink_deleted, budget=10**6)
    assert time.process_time() - start < 2
    assert all(any(model[name] == positive for name, positive in c)
               for c in sink_deleted.clauses)


def _sink_split(g, f):
    """F[f] of Peb_G, and F[f] without its sink block."""
    peb = formulas.pebbling_contradiction(g)
    target = formulas.substitute(peb, f)
    sink_block = formulas.substitution_images(peb, f)[Clause(frozenset({(g.sink, False)}))]
    return target, CnfFormula(target.clauses - sink_block)


def reference_sat(F: CnfFormula) -> dict[str, bool] | None:
    """Backtracking with unit propagation and no learning: the lowest
    unassigned variable in canonical order, False before True, so the
    first model found is the lexicographically first."""
    names = F.variables()
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    clause_lits = [
        [(index[name], polarity) for name, polarity in c.sorted_literals()]
        for c in F.sorted_clauses()
    ]
    if any(not lits for lits in clause_lits):
        return None
    if n == 0:
        return {}

    occur: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for ci, lits in enumerate(clause_lits):
        for vi, polarity in lits:
            occur[vi].append((ci, polarity))
    sat_count = [0] * len(clause_lits)
    open_lits = [len(lits) for lits in clause_lits]
    value = [False] * n
    assigned = [False] * n
    trail: list[int] = []

    def do_assign(vi: int, val: bool):
        assigned[vi] = True
        value[vi] = val
        trail.append(vi)
        conflict = False
        units = []
        for ci, polarity in occur[vi]:
            open_lits[ci] -= 1
            if polarity == val:
                sat_count[ci] += 1
            elif sat_count[ci] == 0:
                if open_lits[ci] == 0:
                    conflict = True
                elif open_lits[ci] == 1:
                    units.append(ci)
        return conflict, units

    def undo_to(length: int) -> None:
        while len(trail) > length:
            vi = trail.pop()
            val = value[vi]
            assigned[vi] = False
            for ci, polarity in occur[vi]:
                open_lits[ci] += 1
                if polarity == val:
                    sat_count[ci] -= 1

    def propagate(units) -> bool:
        queue = deque(units)
        while queue:
            ci = queue.popleft()
            if sat_count[ci] > 0 or open_lits[ci] != 1:
                continue
            for vj, polarity in clause_lits[ci]:
                if not assigned[vj]:
                    conflict, more = do_assign(vj, polarity)
                    if conflict:
                        return False
                    queue.extend(more)
                    break
        return True

    if not propagate([ci for ci, lits in enumerate(clause_lits) if len(lits) == 1]):
        return None

    # decision stack: (variable, trying_true, trail length before the decision)
    levels: list[tuple[int, bool, int]] = []
    while True:
        cursor = 0
        while cursor < n and assigned[cursor]:
            cursor += 1
        if cursor == n:
            return {names[i]: value[i] for i in range(n)}
        levels.append((cursor, False, len(trail)))
        conflict, units = do_assign(cursor, False)
        ok = not conflict and propagate(units)
        while not ok:
            while levels and levels[-1][1]:
                _, _, mark = levels.pop()
                undo_to(mark)
            if not levels:
                return None
            vi, _, mark = levels.pop()
            undo_to(mark)
            levels.append((vi, True, mark))
            conflict, units = do_assign(vi, True)
            ok = not conflict and propagate(units)


def test_minimally_unsat():
    assert sat.is_minimally_unsat(formulas.pebbling_contradiction(dag.build_pyramid(2)))
    assert sat.is_minimally_unsat(formulas.pebbling_contradiction(dag.build_path(4)))
    assert not sat.is_minimally_unsat(formula(["x", "-x", "y"]))
    assert not sat.is_minimally_unsat(formula(["x y"]))


def test_dimacs_simple():
    assert formulas.to_dimacs(formula(["x"])).splitlines()[-2:] == ["p cnf 1 1", "1 0"]


def test_dimacs_header_counts():
    text = formulas.to_dimacs(formulas.pebbling_contradiction(dag.build_pyramid(2)))
    assert "p cnf 6 7" in text


def test_dimacs_roundtrip():
    F = formulas.substitute(formulas.pebbling_contradiction(dag.build_pyramid(2)), OR2)
    assert formulas.from_dimacs(formulas.to_dimacs(F)) == F


@pytest.mark.parametrize("text,fragment", [
    ("p cnf 1\n1 0\n", "bad problem line"),
    ("1 0\n", "before problem line"),
    ("p cnf 1 1\n2 0\n", "out of range"),
    ("p cnf 1 1\n1\n", "unterminated"),
    ("p cnf 1 2\n1 0\n", "promises 2 clauses"),
    ("p cnf 1 1\n1 -1 0\n", "both polarities"),
    ("c var 1 a\nc var 2 a\np cnf 2 2\n1 0\n-2 0\n", "line 2: variable name 'a' already given on line 1"),
    ("c var 1 x2\np cnf 2 2\n1 0\n-2 0\n", "line 1: variable name 'x2' is the default name of variable 2"),
    ("c var 1 a\nc var 1 b\np cnf 1 1\n1 0\n", "line 2: variable 1 already named 'a' on line 1"),
    ("c var 1 -a\nc var 2 a\np cnf 2 2\n1 0\n2 0\n", "line 1: variable name '-a' reads as a negative literal"),
    ("c var 1 ~a\np cnf 1 1\n1 0\n", "line 1: variable name '~a' reads as a negative literal"),
    ("c var \u00b2 a\np cnf 1 1\n1 0\n", "^line 1: bad variable index '\u00b2'$"),
    ("p cnf -1 0\n", "^line 1: bad problem line 'p cnf -1 0'$"),
    ("p cnf 2 -1\n", "^line 1: bad problem line 'p cnf 2 -1'$"),
    ("c\np cnf 1 2\n1 0\n", "^line 2: header promises 2 clauses, found 1$"),
    ("p cnf 1 1\n+1 0\n", "^line 2: bad literal '\\+1'$"),
    ("p cnf 10 1\n1_0 0\n", "^line 2: bad literal '1_0'$"),
    ("p cnf 3 1\n\u0663 0\n", "^line 2: bad literal '\u0663'$"),
    ("p cnf 1 1\n1 -1 0\n", r"^line 2: variable occurs with both polarities in \(-x1 x1\)$"),
    ("c var 1 a\nc var 5 b\np cnf 1 1\n1 0\n", r"^line 2: variable 5 out of range \(header says 1 vars\)$"),
    ("p cnf 1 1\nc var 0 a\n1 0\n", r"^line 2: variable 0 out of range \(header says 1 vars\)$"),
])
def test_dimacs_errors(text, fragment):
    with pytest.raises(DimacsError, match=fragment):
        formulas.from_dimacs(text)


@pytest.mark.parametrize("cls", [DagError, DimacsError, TraceError])
def test_input_errors_prefix_the_line(cls):
    located, unlocated = cls("bad token", line=4), cls("bad token")
    assert isinstance(located, PeblabError)
    assert (str(located), located.line) == ("line 4: bad token", 4)
    assert (str(unlocated), unlocated.line) == ("bad token", None)


def test_dimacs_explicit_default_style_names():
    # x<i> is only taken when variable i exists and has no explicit name
    assert formulas.from_dimacs("c var 2 x2\np cnf 2 2\n1 0\n-2 0\n") == formula(["x1", "-x2"])
    assert formulas.from_dimacs("c var 1 x2\nc var 2 y\np cnf 2 2\n1 0\n-2 0\n") == formula(["x2", "-y"])
    assert formulas.from_dimacs("c var 1 x3\np cnf 2 1\n1 -2 0\n") == formula(["x3 -x2"])


def test_split_substituted():
    assert formulas.split_substituted("x#12") == ("x", 12)
    for name in ("x", "x#", "a#\u00b2", "a#+1", "a#1_0"):
        with pytest.raises(PeblabError, match="is not a substituted variable name"):
            formulas.split_substituted(name)


def test_trivial_clause_rejected():
    with pytest.raises(TrivialClause):
        clause("x -x")


@st.composite
def small_formulas(draw, max_vars=5, max_clauses=6, max_width=None):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    names = [f"q{i}" for i in range(nvars)]
    nclauses = draw(st.integers(min_value=1, max_value=max_clauses))
    out = set()
    for _ in range(nclauses):
        chosen = draw(st.sets(st.sampled_from(names), min_size=1, max_size=max_width or nvars))
        lits = frozenset((v, draw(st.booleans())) for v in sorted(chosen))
        out.add(Clause(lits))
    return CnfFormula(frozenset(out))


@given(small_formulas())
@settings(max_examples=60, deadline=None)
def test_dimacs_roundtrip_random(F):
    assert formulas.from_dimacs(formulas.to_dimacs(F)) == F


@given(small_formulas())
@settings(max_examples=30, deadline=None)
def test_substitution_preserves_satisfiability_random(F):
    sub = formulas.substitute(F, XOR2)
    assert (sat.brute_force_sat(F) is None) == (sat.brute_force_sat(sub) is None)
    assert len(sub.variables()) == 2 * len(F.variables())


@given(small_formulas(max_vars=8, max_clauses=32, max_width=3))
# the learned clause (a c) backjumps from level 3 to level 1, over b's level
@example(formula(["a c e", "a c -e", "a -c f", "a -c -f", "b d"]))
@example(formula(["x", "-y", "z"]))
@settings(max_examples=200, deadline=None)
def test_brute_force_sat_matches_enumeration(F):
    assert sat.brute_force_sat(F) == reference_sat(F)


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate problem line"),
    ("c no problem line\n", "missing problem line"),
])
def test_dimacs_takes_exactly_one_problem_line(text, message):
    with pytest.raises(DimacsError) as info:
        formulas.from_dimacs(text)
    assert str(info.value) == message


def test_base_of_substituted_rejects_an_image_missing_a_clause():
    sub = formulas.substitute(formulas.pebbling_contradiction(dag.build_path(2)), XOR2)
    partial = sub.without_clause(sub.sorted_clauses()[0])
    with pytest.raises(PeblabError) as info:
        formulas.base_of_substituted(partial, XOR2)
    assert str(info.value) == "formula is not a full substitution image (incomplete clause blocks)"


def test_brute_force_sat_of_a_formula_with_the_empty_clause():
    assert sat.brute_force_sat(CnfFormula(frozenset({Clause(), clause("x")}))) is None
