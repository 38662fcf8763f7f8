import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peblab
from peblab import boolfunc, dag, formulas, pebbling, projections, resolution
from peblab.cnf import Clause, EMPTY_CLAUSE, clause, formula, minimized
from peblab.errors import BudgetExceeded, IllegalStep, MissingBottom, PeblabError
from peblab.resolution import Download, Erase, Infer, ProofBuilder, Refutation

OR2 = boolfunc.or_fn(2)
XOR2 = boolfunc.xor_fn(2)
MAJ3 = boolfunc.majority_fn(3)


def xor_block(name):
    return sorted(
        boolfunc.canonical_clauses(XOR2, formulas.block_vars(name, 2)),
        key=lambda c: c.sort_key(),
    )


def _repeating_mask_by_division(position, total):
    """The repunit form: one period repeated by dividing 2^(2^total) - 1."""
    period = 1 << (position + 1)
    block = ((1 << (1 << position)) - 1) << (1 << position)
    repunit = ((1 << (1 << total)) - 1) // ((1 << period) - 1)
    return block * repunit


def test_repeating_mask_matches_division_form():
    for total in range(1, 13):
        for position in range(total):
            assert projections._repeating_mask(position, total) == (
                _repeating_mask_by_division(position, total)
            ), (position, total)


def test_repeating_mask_high_position_builds():
    mask = projections._repeating_mask(22, 24)
    assert mask.bit_count() == 1 << 23
    for index in (0, (1 << 22) - 1, 1 << 22, (1 << 23) - 1, 1 << 23, 3 << 22, (1 << 24) - 1):
        assert (mask >> index) & 1 == (index >> 22) & 1


class TestPreciseImplication:
    def test_block_implies_its_variable(self):
        assert projections.precisely_implies(xor_block("x"), clause("x"), XOR2)

    def test_minimality_fails_on_superclause(self):
        assert not projections.precisely_implies(xor_block("x"), clause("x y"), XOR2)

    def test_example_substituted_clause(self):
        d = formula([
            "x#1 x#2 y#1 -y#2", "x#1 x#2 -y#1 y#2",
            "-x#1 -x#2 y#1 -y#2", "-x#1 -x#2 -y#1 y#2",
        ]).sorted_clauses()
        assert projections.precisely_implies(d, clause("x -y"), XOR2)
        assert not projections.precisely_implies(d, clause("x"), XOR2)

    def test_budget_guard(self):
        d = [clause(" ".join(f"x{i}#1" for i in range(13)))]
        with pytest.raises(BudgetExceeded, match=r"truth table exceeded budget: 26 variables \(budget 24\)"):
            projections.precisely_implies(d, clause("x0"), XOR2)


class TestProject:
    def test_empty_configuration(self):
        assert projections.project([], XOR2) == frozenset()
        assert projections.local_project([], XOR2) == frozenset()

    def test_single_block(self):
        assert projections.project(xor_block("x"), XOR2) == frozenset({clause("x")})

    def test_blackboard_figure_under_or(self):
        d = [clause("x#1 x#2")] + [
            clause(f"-v#{i} -w#{j} y#1 y#2") for i in (1, 2) for j in (1, 2)
        ]
        proj = projections.project(d, OR2)
        assert clause("x") in proj
        assert clause("-v -w y") in proj

    def test_projection_is_antichain(self):
        d = xor_block("x") + xor_block("y")
        proj = projections.project(d, XOR2)
        for a in proj:
            for b in proj:
                assert a == b or not a.subsumes(b)

    def test_local_contains_plain(self):
        samples = projections.sample_configurations(XOR2, 20, seed=11)
        for d in samples:
            plain = projections.project(d, XOR2)
            local = projections.local_project(d, XOR2)
            for c in plain:
                assert any(p.subsumes(c) for p in local)

    def test_local_separate_blocks(self):
        d = xor_block("x") + xor_block("y")
        local = projections.local_project(d, XOR2)
        assert clause("x") in local
        assert clause("y") in local

    def test_local_budget(self):
        # 13 distinct clauses exceed the 2^|D| subset cap
        config = set()
        lits = ["p#1", "p#2", "q#1", "q#2", "r#1", "r#2"]
        for combo in itertools.combinations(lits, 3):
            config.add(clause(" ".join(combo)))
            if len(config) == 13:
                break
        with pytest.raises(BudgetExceeded, match=r"exceeded budget: 13 clauses"):
            projections.local_projection_variables(
                sorted(config, key=lambda c: c.sort_key()), XOR2
            )


def mentioned_base_vars(d):
    return sorted({formulas.split_substituted(name)[0] for c in d for name, _ in c})


@pytest.mark.parametrize("f", [XOR2, OR2, MAJ3], ids=["xor2", "or2", "maj3"])
def test_project_matches_precise_implication(f):
    """project(D) is every clause over D's base variables that D precisely
    implies; local_project(D) is the minimized union over all subsets."""
    for d in projections.sample_configurations(f, 40, seed=23):
        names = mentioned_base_vars(d)
        want = set()
        for polarities in itertools.product((None, True, False), repeat=len(names)):
            c = Clause(frozenset((x, p) for x, p in zip(names, polarities) if p is not None))
            if projections.precisely_implies(d, c, f):
                want.add(c)
        assert projections.project(d, f) == want
        if len(d) <= 6:
            union = set()
            for size in range(len(d) + 1):
                for subset in itertools.combinations(d, size):
                    union |= projections.project(subset, f)
            assert projections.local_project(d, f) == minimized(union)


class TestSuites:
    def test_axiom_suite_xor(self):
        samples = projections.sample_configurations(XOR2, 40, seed=3)
        report = projections.projection_axiom_suite(XOR2, samples, seed=3)
        assert report.sample_count == 40
        assert report.checks > 1000

    def test_axiom_suite_or(self):
        samples = projections.sample_configurations(OR2, 25, seed=5)
        report = projections.projection_axiom_suite(OR2, samples, seed=5)
        assert report.sample_count == 25

    def test_sampling_is_deterministic(self):
        a = projections.sample_configurations(XOR2, 10, seed=42)
        b = projections.sample_configurations(XOR2, 10, seed=42)
        assert a == b
        c = projections.sample_configurations(XOR2, 10, seed=43)
        assert a != c

    def test_space_respecting_xor_enforced(self):
        samples = projections.sample_configurations(XOR2, 60, seed=9)
        report = projections.space_respecting_check(XOR2, samples)
        assert report.enforced
        assert not report.violations
        assert all(row.within_bound for row in report.rows)

    def test_space_respecting_or_informational(self):
        samples = projections.sample_configurations(OR2, 30, seed=9)
        report = projections.space_respecting_check(OR2, samples)
        assert not report.enforced  # or2 is authoritarian: no assertion made

    def test_space_respecting_single_block(self):
        report = projections.space_respecting_check(XOR2, [xor_block("x")])
        (row,) = report.rows
        assert row.clause_count == 2
        assert row.projected_variables == 1

    def test_csv_lines(self):
        report = projections.space_respecting_check(XOR2, [xor_block("x")])
        lines = list(report.csv_lines())
        assert lines[0].startswith("config_id")
        assert lines[1] == "0,2,1,yes"


def lift_of_tiny():
    F = formula(["x", "-x"])
    b = ProofBuilder(F)
    b.download(clause("x"))
    b.download(clause("-x"))
    b.infer_resolve(clause("x"), clause("-x"), "x")
    return resolution.lift_refutation(b.build(), XOR2)


def downloads(r):
    return sum(1 for s in r.steps if isinstance(s, Download))


class TestExtraction:
    def test_tiny_roundtrip(self):
        lifted = lift_of_tiny()
        out = projections.extract_refutation(lifted, XOR2)
        m = resolution.check_refutation(out, semantic_check=True)
        assert out.target == formula(["x", "-x"])
        assert downloads(out) <= downloads(lifted)
        assert m.length >= 3

    def test_tiny_roundtrip_local(self):
        lifted = lift_of_tiny()
        out = projections.extract_refutation(lifted, XOR2, use_local=True)
        resolution.check_refutation(out, semantic_check=True)
        assert downloads(out) <= downloads(lifted)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_paths_roundtrip(self, n):
        g = dag.build_path(n)
        r = resolution.constant_space_refutation(g)
        lifted = resolution.lift_refutation(r, XOR2)
        out = projections.extract_refutation(lifted, XOR2)
        resolution.check_refutation(out, semantic_check=True)
        assert out.target == formulas.pebbling_contradiction(g)
        assert downloads(out) <= downloads(lifted)

    def test_pyramid_roundtrip(self):
        g = dag.build_pyramid(2)
        lifted = resolution.lift_refutation(resolution.constant_space_refutation(g), XOR2)
        out = projections.extract_refutation(lifted, XOR2)
        resolution.check_refutation(out, semantic_check=True)
        assert downloads(out) <= downloads(lifted)

    def test_compiled_pebbling_roundtrip(self):
        g = dag.build_pyramid(2)
        r_f = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
        out = projections.extract_refutation(r_f, XOR2)
        resolution.check_refutation(out, semantic_check=True)
        assert out.target == formulas.pebbling_contradiction(g)
        assert downloads(out) <= downloads(r_f)

    def test_variable_space_bound(self):
        g = dag.build_path(3)
        lifted = resolution.lift_refutation(resolution.constant_space_refutation(g), XOR2)
        seq = projections.projected_sequence(lifted, XOR2)
        out = projections.extract_refutation(lifted, XOR2)
        m = resolution.check_refutation(out)
        bound = 0
        for (prev, _), (cur, _) in zip(seq, seq[1:]):
            union = set()
            for c in prev | cur:
                union |= c.variables()
            bound = max(bound, len(union))
        assert m.variable_space <= bound

    def test_rejects_non_substitution_target(self):
        F = formula(["x", "-x"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        with pytest.raises(PeblabError):
            projections.extract_refutation(b.build(), XOR2)


def then_tiny_lift(target, prefix) -> Refutation:
    """`prefix`, then the lift of the tiny refutation of {x, -x}, its ids
    shifted past the prefix."""
    n = len(prefix)
    rest = [Erase(s.target + n) if isinstance(s, Erase)
            else Infer(s.line, tuple(i + n for i in s.premises), s.rule, pivot=s.pivot)
            if isinstance(s, Infer) else s for s in lift_of_tiny().steps]
    return Refutation(target, (*prefix, *rest))


def extraction_transitions():
    """Two refutations of {x y, x, -x}[xor:2], each with the projections
    before and after its step `at`: (1) an erasure takes {x} to {x y},
    so extraction weakens x to x y; (2) a download of x's image clause
    x#1 x#2 takes {} to {x y}, which the base axiom x subsumes."""
    target = formulas.substitute(formula(["x y", "x", "-x"]), XOR2)
    xy = sorted(formulas.substitute_clause(clause("x y"), XOR2), key=Clause.sort_key)
    x = sorted(formulas.substitute_clause(clause("x"), XOR2), key=Clause.sort_key)
    erasing = [*map(Download, xy), *map(Download, x), Erase(len(xy) + x.index(clause("-x#1 -x#2")) + 1)]
    subsumed = [*(Download(c) for c in xy if ("x#1", False) in c), Download(clause("x#1 x#2"))]
    return [(then_tiny_lift(target, erasing), len(erasing), {clause("x")}, {clause("x y")}),
            (then_tiny_lift(target, subsumed), len(subsumed), set(), {clause("x y")})]


@pytest.mark.parametrize("use_local", [False, True])
@pytest.mark.parametrize("case", [0, 1])
def test_extraction_weakens_on_erasure_and_from_a_subsuming_axiom(case, use_local):
    r_f, at, before, after = extraction_transitions()[case]
    seq = projections.projected_sequence(r_f, XOR2, use_local)
    assert (seq[at - 1][0], seq[at][0]) == (before, after)
    out = projections.extract_refutation(r_f, XOR2, use_local)
    resolution.check_refutation(out, semantic_check=True)
    assert downloads(out) <= downloads(r_f)


def broken(r: Refutation, how: str) -> Refutation:
    """`r` with one illegal change; every other step keeps its id."""
    steps = list(r.steps)
    erase = next(i for i, s in enumerate(steps) if isinstance(s, Erase))
    if how == "absent premise":  # the next inference uses the line just erased
        i = next(i for i in range(erase, len(steps)) if isinstance(steps[i], Infer))
        s = steps[i]
        premises = (steps[erase].target, *s.premises[1:])
        steps[i] = Infer(s.line, premises, s.rule, pivot=s.pivot, cut_term=s.cut_term)
    elif how == "absent erasure":
        steps[erase + 1] = steps[erase]
    elif how == "non-axiom download":
        i = next(i for i, s in enumerate(steps) if isinstance(s, Download))
        steps[i] = Download(Clause(steps[i].line | {("z", True)}))
    else:  # erase the empty clause at the end
        steps.append(Erase(max(i for i, s in enumerate(steps, 1) if isinstance(s, Infer)
                               and s.line == EMPTY_CLAUSE)))
    return Refutation(r.target, tuple(steps), system=r.system, k=r.k)


@pytest.mark.parametrize("how,error,message", [
    ("absent premise", IllegalStep, "not in the current configuration"),
    ("absent erasure", IllegalStep, "which is not present"),
    ("non-axiom download", IllegalStep, "is not an axiom"),
    ("missing empty clause", MissingBottom, "does not contain the empty clause"),
])
def test_lift_and_extraction_reject_what_the_checker_rejects(how, error, message):
    base = resolution.constant_space_refutation(dag.build_path(2))
    lifted = resolution.lift_refutation(base, XOR2)
    readers = [
        (broken(base, how), lambda r: resolution.lift_refutation(r, XOR2)),
        (broken(base, how), lambda r: resolution.lift_refutation(r, XOR2, budget=1)),
        (broken(lifted, how), lambda r: projections.projected_sequence(r, XOR2)),
        (broken(lifted, how), lambda r: projections.extract_refutation(r, XOR2)),
    ]
    for r, read in readers:
        with pytest.raises(error, match=message) as checked:
            resolution.check_refutation(r)
        with pytest.raises(PeblabError) as raised:
            read(r)
        assert (type(raised.value), str(raised.value)) == (error, str(checked.value))


BOUNDED_EXTRACTION = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from peblab import boolfunc, dag, projections, resolution
g = dag.parse_family(sys.argv[1])
f = boolfunc.parse_function_literal(sys.argv[2])
lifted = resolution.lift_refutation(resolution.constant_space_refutation(g), f)
out = projections.extract_refutation(lifted, f)
resolution.check_refutation(out)
count = lambda r: sum(1 for s in r.steps if isinstance(s, resolution.Download))
assert count(out) <= count(lifted), (count(out), count(lifted))
"""


@pytest.mark.parametrize("spec,fn", [("pyramid:3", "or:2"), ("path:12", "xor:2")])
def test_extraction_in_bounded_memory(spec, fn):
    """Projection memory follows each configuration's own variables, so
    these extractions fit in a 1 GiB address space."""
    src = str(Path(peblab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED_EXTRACTION, spec, fn],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr


class TestArityThree:
    """The whole chain also works for a ternary function (majority of 3)."""

    MAJ3 = boolfunc.majority_fn(3)

    def test_substitute_counts(self):
        peb = formulas.pebbling_contradiction(dag.build_path(2))
        sub = formulas.substitute(peb, self.MAJ3)
        assert len(sub.variables()) == 6
        assert len(sub.clauses) == 3 + 9 + 3
        assert formulas.brute_force_sat(sub) is None

    def test_lift_extract_roundtrip(self):
        base = resolution.constant_space_refutation(dag.build_path(2))
        lifted = resolution.lift_refutation(base, self.MAJ3)
        m = resolution.check_refutation(lifted, semantic_check=True)
        assert m.width <= 3 * resolution.check_refutation(base).width
        out = projections.extract_refutation(lifted, self.MAJ3)
        resolution.check_refutation(out, semantic_check=True)
        assert downloads(out) <= downloads(lifted)

    def test_projection_block(self):
        block = sorted(
            boolfunc.canonical_clauses(self.MAJ3, formulas.block_vars("x", 3)),
            key=lambda c: c.sort_key(),
        )
        assert projections.project(block, self.MAJ3) == frozenset({clause("x")})
        assert projections.precisely_implies(block, clause("x"), self.MAJ3)
