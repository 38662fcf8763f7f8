import time
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from peblab import boolfunc, dag, formulas, kdnf, lift, pebbling, resolution, sat, saturation, search
from peblab.cnf import Clause, CnfFormula, EMPTY_CLAUSE, clause, formula, minimized, neg
from peblab.errors import (
    BudgetExceeded, IllegalStep, MissingBottom, PivotAbsent, TraceError, TrivialResolvent,
)
from peblab.kdnf import EMPTY_LINE, KDnfLine, term
from peblab.resolution import Download, Erase, Infer, ProofBuilder, Refutation

OR2 = boolfunc.or_fn(2)
XOR2 = boolfunc.xor_fn(2)


class TestResolve:
    def test_unit(self):
        assert resolution.resolve(clause("x"), clause("-x y"), "x") == clause("y")

    def test_pebbling_axioms(self):
        got = resolution.resolve(clause("-u -v x"), clause("-x -y z"), "x")
        assert got == clause("-u -v -y z")

    def test_trivial(self):
        with pytest.raises(TrivialResolvent):
            resolution.resolve(clause("x y"), clause("-x -y"), "x")

    def test_pivot_absent(self):
        with pytest.raises(PivotAbsent):
            resolution.resolve(clause("y"), clause("-x"), "x")
        with pytest.raises(PivotAbsent):
            resolution.resolve(clause("x"), clause("x y"), "x")


class TestChecker:
    def test_tiny_refutation_measures(self):
        F = formula(["x", "-x"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        m = resolution.check_refutation(b.build())
        assert m.length == 3
        assert m.width == 1
        assert m.clause_space == 3
        assert m.variable_space == 1
        assert m.total_space == 2

    def test_download_must_be_axiom(self):
        F = formula(["x", "-x"])
        r = Refutation(target=F, steps=(Download(clause("y")),))
        with pytest.raises(IllegalStep, match="not an axiom"):
            resolution.check_refutation(r)

    def test_missing_bottom(self):
        F = formula(["x", "-x"])
        r = Refutation(target=F, steps=(Download(clause("x")),))
        with pytest.raises(MissingBottom):
            resolution.check_refutation(r)

    def test_premise_must_be_present(self):
        F = formula(["x", "-x"])
        steps = (
            Download(clause("x")),
            Download(clause("-x")),
            Erase(1),
            Infer(EMPTY_CLAUSE, (1, 2), "pivot", pivot="x"),
        )
        with pytest.raises(IllegalStep, match="not in the current configuration"):
            resolution.check_refutation(Refutation(target=F, steps=steps))

    def test_pivot_absent_from_premise(self):
        F = formula(["x y", "-x"])
        steps = (
            Download(clause("x y")),
            Download(clause("-x")),
            Infer(clause("x"), (1, 2), "pivot", pivot="y"),
        )
        with pytest.raises(IllegalStep):
            resolution.check_refutation(Refutation(target=F, steps=steps))

    def test_wrong_resolvent_rejected(self):
        F = formula(["x", "-x y"])
        steps = (
            Download(clause("x")),
            Download(clause("-x y")),
            Infer(EMPTY_CLAUSE, (1, 2), "pivot", pivot="x"),
        )
        with pytest.raises(IllegalStep, match="resolvent"):
            resolution.check_refutation(Refutation(target=F, steps=steps))

    @pytest.mark.parametrize("step", [
        Infer(KDnfLine.from_clause(clause("x y")), (1,), "weaken"),
        Infer(KDnfLine(), (1, 2), "pivot", pivot="x"),
    ])
    def test_res_step_must_infer_a_clause(self, step):
        F = formula(["x", "-x"])
        r = Refutation(target=F, steps=(Download(clause("x")), Download(clause("-x")), step))
        with pytest.raises(IllegalStep, match="step 3: resolution step must infer a clause"):
            resolution.check_refutation(r)

    def test_weakening_accepted(self):
        F = formula(["x", "-x", "y"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.weaken(clause("x"), clause("x y"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        m = resolution.check_refutation(b.build())
        assert m.width == 2

    def test_rederiving_present_clause_counts_in_length(self):
        F = formula(["x", "-x"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        b.infer_resolve(clause("x"), clause("-x"), "x")  # no-op re-derivation
        m = resolution.check_refutation(b.build())
        assert m.length == 4
        assert m.clause_space == 3

    def test_erase_absent_rejected(self):
        F = formula(["x", "-x"])
        steps = (Download(clause("x")), Erase(1), Erase(1))
        with pytest.raises(IllegalStep, match="not present"):
            resolution.check_refutation(Refutation(target=F, steps=steps))

    def test_semantic_spot_check_helper(self):
        assert kdnf._lines_imply([clause("x"), clause("-x y")], clause("y")) is True
        assert kdnf._lines_imply([clause("x y")], clause("x")) is False

    def test_measures_match_independent_replay(self):
        r = resolution.pebbling_to_refutation(
            dag.build_pyramid(2), pebbling.greedy_black_strategy(dag.build_pyramid(2)), OR2
        )
        m = resolution.check_refutation(r)
        assert (m.length, m.width, m.clause_space, m.variable_space, m.total_space) == (
            replayed_measures(r)
        )


def replayed_measures(r):
    """(length, width, clause space, variable space, total space) of `r`,
    recomputed over the whole configuration after every step."""
    def line_width(line):
        return line.literal_count() if isinstance(line, KDnfLine) else line.width

    config, by_id = set(), {}
    length = width = cspace = vspace = tspace = 0
    for idx, step in enumerate(r.steps, start=1):
        if isinstance(step, Erase):
            config.discard(by_id[step.target])
        else:
            config.add(step.line)
            by_id[idx] = step.line
            length += 1
        cspace = max(cspace, len(config))
        if config:
            width = max(width, max(line_width(c) for c in config))
            vspace = max(vspace, len({v for c in config for v in c.variables()}))
            tspace = max(tspace, sum(line_width(c) for c in config))
    return length, width, cspace, vspace, tspace


PROOF_AXIOMS = formula(["x", "-x", "a b", "-a c", "-b -c x", "a -b"]).sorted_clauses()
PROOF_LITERALS = [(v, p) for v in "abcx" for p in (True, False)]
PROOF_OPS = ["download", "erase", "weaken", "infer"]


def random_proof(ops, system):
    """A legal refutation of PROOF_AXIOMS built from (op, i, j) choices.

    `download` may fetch an axiom already present (the same line under a
    second id), `weaken` adds a literal (a unit or two-literal term for
    k-DNF) or re-derives its premise when that literal (or, for a clause,
    its negation) is already there,
    `infer` resolves (res) or cuts on a unit term (kdnf), possibly
    re-deriving a present line, and `erase` drops any present id.  A
    fixed suffix derives the empty line from x and -x.
    """
    kdnf = system == "kdnf"
    lift = KDnfLine.from_clause if kdnf else (lambda c: c)
    axioms = [lift(c) for c in PROOF_AXIOMS]
    steps, by_id, config = [], {}, set()

    def add(step):
        steps.append(step)
        by_id[len(steps)] = step.line
        config.add(step.line)
        return len(steps)

    def cut(i1, i2):
        p1, p2 = by_id[i1], by_id[i2]
        for t in sorted(p1.terms, key=sorted):
            if len(t) == 1 and frozenset({neg(next(iter(t)))}) in p2.terms:
                line = KDnfLine((p1.terms - {t}) | (p2.terms - {frozenset({neg(next(iter(t)))})}))
                return add(Infer(line, (i1, i2), "cut", cut_term=t))

    def resolve(i1, i2):
        p1, p2 = by_id[i1], by_id[i2]
        for pivot in sorted(n for n, positive in p1 if positive and (n, False) in p2):
            try:
                r = resolution.resolve(p1, p2, pivot)
            except TrivialResolvent:
                continue
            return add(Infer(r, (i1, i2), "pivot", pivot=pivot))

    for op, i, j in ops:
        present = sorted(k for k, line in by_id.items() if line in config)
        if op == "download":
            add(Download(axioms[i % len(axioms)]))
        elif not present:
            continue
        elif op == "erase":
            target = present[i % len(present)]
            steps.append(Erase(target))
            config.discard(by_id[target])
        elif op == "weaken":
            src = present[i % len(present)]
            lit = PROOF_LITERALS[j % len(PROOF_LITERALS)]
            if kdnf:
                other = PROOF_LITERALS[(j // 8) % len(PROOF_LITERALS)]
                t = frozenset({lit, other}) if other[0] != lit[0] else frozenset({lit})
                line = KDnfLine(by_id[src].terms | {t})
            elif neg(lit) in by_id[src]:
                line = by_id[src]
            else:
                line = Clause(by_id[src] | {lit})
            add(Infer(line, (src,), "weaken"))
        else:
            (cut if kdnf else resolve)(present[i % len(present)], present[j % len(present)])
    pos = add(Download(lift(clause("x"))))
    negative = add(Download(lift(clause("-x"))))
    if kdnf:
        cut(pos, negative)
    else:
        resolve(pos, negative)
    return Refutation(target=formula(PROOF_AXIOMS), steps=tuple(steps), system=system, k=2)


# x under two ids, one erased; an inference and its re-derivation; a
# weakening and a re-derived weakening; an erase
_EXAMPLE_OPS = [("download", 0, 0), ("download", 0, 0), ("erase", 0, 0), ("download", 2, 0),
                ("download", 4, 0), ("infer", 0, 1), ("infer", 0, 1), ("weaken", 0, 6),
                ("weaken", 0, 0), ("erase", 2, 0)]

# a b and a -b give a, which is derived again while present; erasing both
# premises takes the pivot b out of the configuration before -a c enters
_PIVOT_LEAVES_OPS = [("download", 2, 0), ("download", 3, 0), ("infer", 0, 1), ("infer", 0, 1),
                     ("erase", 0, 0), ("erase", 0, 0), ("download", 4, 0)]
# x weakened by a: the weakening adds a variable that no other line has
_WEAKENING_ADDS_OPS = [("download", 0, 0), ("weaken", 0, 0)]


@given(st.lists(st.tuples(st.sampled_from(PROOF_OPS), st.integers(0, 63), st.integers(0, 63)),
                max_size=30),
       st.sampled_from(["res", "kdnf"]))
@example(_EXAMPLE_OPS, "res")
@example(_EXAMPLE_OPS, "kdnf")
@example(_PIVOT_LEAVES_OPS, "res")
@example(_PIVOT_LEAVES_OPS, "kdnf")
@example(_WEAKENING_ADDS_OPS, "res")
@example(_WEAKENING_ADDS_OPS, "kdnf")
@settings(max_examples=200, deadline=None)
def test_incremental_measures_match_replay(ops, system):
    r = random_proof(ops, system)
    m = resolution.check_refutation(r)
    assert (m.length, m.width, m.clause_space, m.variable_space, m.total_space) == (
        replayed_measures(r)
    )


def first_illegal(r):
    """(index, reason) of r's first illegal step, or None if every step is legal."""
    try:
        resolution.check_refutation(r)
    except IllegalStep as e:
        return e.index, e.reason
    except MissingBottom:
        pass
    return None


@given(st.lists(st.tuples(st.sampled_from(PROOF_OPS), st.integers(0, 63), st.integers(0, 63)),
                max_size=30),
       st.sampled_from(["res", "kdnf"]), st.integers(0, 63),
       st.sampled_from(["premise", "pivot", "line"]), st.integers(0, 63))
@example([], "res", 0, "pivot", 0)
@example([], "kdnf", 0, "pivot", 0)
@example(_EXAMPLE_OPS, "res", 0, "premise", 1)
@settings(max_examples=200, deadline=None)
def test_a_repeated_inference_never_skips_checking_a_changed_copy(ops, system, pick, change, choice):
    """A legal inference twice, then a copy with one premise, its pivot
    (k-DNF: its cut term) or its line changed: the copy is judged as if
    it stood alone, at its own index, with the same reason."""
    r = random_proof(ops, system)
    at = [i for i, s in enumerate(r.steps) if isinstance(s, Infer)]
    i = at[pick % len(at)]
    prefix, step = r.steps[:i], r.steps[i]
    pivot, cut_term, line, premises = step.pivot, step.cut_term, step.line, list(step.premises)
    if change == "premise":
        premises[choice % len(premises)] = choice % i + 1
    elif change == "pivot" and system == "res":
        pivot = "abcx"[choice % 4]
    elif change == "pivot":
        cut_term = frozenset({PROOF_LITERALS[choice % len(PROOF_LITERALS)]})
    else:
        others = [s.line for s in prefix if not isinstance(s, Erase)]
        line = [EMPTY_LINE if system == "kdnf" else EMPTY_CLAUSE, *others][choice % (len(others) + 1)]
    copy = Infer(line, tuple(premises), step.rule, pivot=pivot, cut_term=cut_term)
    alone = first_illegal(Refutation(r.target, (*prefix, copy), system, r.k))
    repeated = first_illegal(Refutation(r.target, (*prefix, step, step, copy), system, r.k))
    assert repeated == (None if alone is None else (alone[0] + 2, alone[1]))


def saturated(premises):
    """The mask encoder of `premises` and the masks of their
    subsumption-minimized resolution closure."""
    codec, alive, _ = saturation.saturate(premises, len({n for c in premises for n, _ in c}))
    return codec.encode, alive


def test_check_serialize_and_lift_read_the_steps_once():
    """The checker, the writer and lift read a proof front to back, once,
    so a one-shot iterator of steps gives what the tuple gives."""
    g = dag.build_pyramid(3)
    r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)

    def streamed(r):
        return Refutation(r.target, iter(r.steps), r.system, r.k)

    assert resolution.check_refutation(streamed(r)) == resolution.check_refutation(r)
    assert resolution.serialize_refutation(streamed(r)) == resolution.serialize_refutation(r)
    base = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g))
    assert lift.lift_refutation(streamed(base), XOR2) == lift.lift_refutation(base, XOR2)
    with pytest.raises(BudgetExceeded, match="lifted lines"):  # the length bound reads the steps too
        lift.lift_refutation(streamed(base), XOR2, budget=len(base.steps))


def legal_resolution_then(*steps) -> Refutation:
    """Download (x y) and (-x), resolve them on x to (y), then `steps`."""
    legal = (Download(clause("x y")), Download(clause("-x")), Infer(clause("y"), (1, 2), "pivot", pivot="x"))
    return Refutation(formula(["x y", "-x"]), (*legal, *steps))


@pytest.mark.parametrize("r,message", [
    (legal_resolution_then(Erase(1), Infer(clause("y"), (1, 2), "pivot", pivot="x")),
     "step 5: premise (x y) not in the current configuration"),
    (legal_resolution_then(Infer(frozenset({("y", True)}), (1, 2), "pivot", pivot="x")),
     "step 4: resolution step must infer a clause"),
    (legal_resolution_then(Infer(clause("y"), (1, 2), "pivot", pivot="y")), "step 4: y not negative in (-x)"),
    (legal_resolution_then(Infer(clause("y"), (2, 1), "pivot", pivot="x")), "step 4: x not positive in (-x)"),
    (legal_resolution_then(Infer(clause("y"), (1, 3), "pivot", pivot="x")), "step 4: x not negative in (y)"),
], ids=["premise-erased", "plain-frozenset", "other-pivot", "premises-swapped", "other-premise"])
def test_a_repeated_legal_resolution_is_judged_again_when_it_changes(r, message):
    """The checker judges each distinct resolution inference once, so a
    repeat of a legal step is rejected with the text and step number it
    would get alone when its premise left, its line is another type, or
    its pivot or premises differ."""
    with pytest.raises(IllegalStep) as info:
        resolution.check_refutation(r)
    assert str(info.value) == message


def test_check_and_write_work_once_per_distinct_inference_and_line(monkeypatch):
    """On the compiled pyramid:8 xor:2 proof the checker judges each
    distinct (line class, line, premise lines, rule, pivot) once, and the
    writer formats each distinct line at most twice."""
    g = dag.build_pyramid(8)
    r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
    lines_by_id, keys, added = {}, set(), []
    for idx, s in enumerate(r.steps, start=1):
        if isinstance(s, Erase):
            continue
        lines_by_id[idx] = s.line
        added.append(s.line)
        if isinstance(s, Infer):
            keys.add((s.line.__class__, s.line, *(lines_by_id[p] for p in s.premises), s.rule, s.pivot))
    inferences = sum(isinstance(s, Infer) for s in r.steps)
    assert len(keys) < inferences // 2  # the proof re-derives most of its lines

    judged, formatted = [], Counter()
    check_res_rule, format_line = resolution._check_res_rule, resolution._format_line

    def counted_check(step, premises, idx):
        judged.append(idx)
        check_res_rule(step, premises, idx)

    def counted_format(line):
        formatted[line] += 1
        return format_line(line)

    monkeypatch.setattr(resolution, "_check_res_rule", counted_check)
    monkeypatch.setattr(resolution, "_format_line", counted_format)
    resolution.check_refutation(r)
    assert len(judged) == len(keys)
    text = resolution.serialize_refutation(r)
    assert set(formatted) == set(added) and max(formatted.values()) == 2
    monkeypatch.undo()
    assert text == resolution.serialize_refutation(r)


def kdnf_after_units(step) -> Refutation:
    """Download the units x and -x as 2-DNF lines, then `step`."""
    units = (Download(KDnfLine.from_clause(clause("x"))), Download(KDnfLine.from_clause(clause("-x"))))
    return Refutation(formula(["x", "-x"]), (*units, step), system="kdnf", k=2)


def res_after_units(step) -> Refutation:
    """Download the unit clauses x and -x, then `step`."""
    return Refutation(formula(["x", "-x"]), (Download(clause("x")), Download(clause("-x")), step))


@pytest.mark.parametrize("r,message", [
    (kdnf_after_units(Infer(EMPTY_CLAUSE, (1, 2), "cut", cut_term=term("x"))),
     "step 3: k-DNF step must infer a k-DNF line"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1, 2), "weaken")), "step 3: weakening takes one premise"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1,), "cut", cut_term=term("x"))),
     "step 3: cut takes two premises and a cut term"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1, 2), "cut")), "step 3: cut takes two premises and a cut term"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1, 2), "cut", cut_term=term("x y z"))),
     "step 3: cut term wider than k=2"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1,), "andi")), "step 3: and-introduction takes two premises"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1, 2), "ande")), "step 3: and-elimination takes one premise"),
    (kdnf_after_units(Infer(EMPTY_LINE, (1, 2), "pivot", pivot="x")), "step 3: unknown k-DNF rule 'pivot'"),
    (res_after_units(Infer(EMPTY_CLAUSE, (1,), "pivot", pivot="x")),
     "step 3: resolution takes two premises and a pivot"),
    (res_after_units(Infer(EMPTY_CLAUSE, (1, 2), "pivot")),
     "step 3: resolution takes two premises and a pivot"),
    (res_after_units(Infer(clause("x y"), (1, 2), "weaken")), "step 3: weakening takes one premise"),
    (res_after_units(Infer(EMPTY_CLAUSE, (1, 2), "cut")), "step 3: unknown resolution rule 'cut'"),
    (res_after_units(Erase(7)), "step 3: erase target 7 does not name a line"),
    (res_after_units("bogus"), "step 3: unknown step 'bogus'"),
])
def test_checker_rejection_texts(r, message):
    with pytest.raises(IllegalStep) as info:
        resolution.check_refutation(r)
    assert str(info.value) == message


def test_checker_rejects_an_unknown_proof_system():
    r = Refutation(formula(["x", "-x"]), (Download(clause("x")),), system="cp")
    with pytest.raises(ValueError, match="^unknown proof system 'cp'$"):
        resolution.check_refutation(r)


class TestSaturate:
    def test_unit_propagation(self):
        encode, alive = saturated([clause("x"), clause("-x y")])
        assert encode(clause("y")) in alive

    def test_two_resolutions(self):
        encode, alive = saturated([clause("x1 x2"), clause("-x1 y1 y2"), clause("-x2 y1 y2")])
        assert encode(clause("y1 y2")) in alive

    def test_xor_block_closure(self):
        # canonical xor sets for u,v plus the substituted axiom block of x
        F = formulas.pebbling_contradiction(dag.build_pyramid(2))
        images = formulas.substitution_images(F, XOR2)
        block = images[clause("-u -v x")]
        premises = set(block)
        for v in ("u", "v"):
            premises |= boolfunc.canonical_clauses(XOR2, formulas.block_vars(v, 2))
        encode, alive = saturated(premises)
        for target in boolfunc.canonical_clauses(XOR2, formulas.block_vars("x", 2)):
            assert encode(target) in alive


def all_functions(max_arity: int):
    return [boolfunc.BooleanFunction(d, table)
            for d in range(1, max_arity + 1) for table in range(1, (1 << (1 << d)) - 1)]


class TestTemplate:
    def test_refutes_every_function_up_to_arity_3(self):
        functions = all_functions(3)
        assert len(functions) == 270
        for f in functions:
            block = tuple(str(i) for i in range(1, f.arity + 1))
            t = lift._template(f)
            assert t.target == CnfFormula(boolfunc.canonical_clauses(f, block)
                                          | boolfunc.canonical_clauses(f, block, "negative"))
            assert resolution.check_refutation(t).width <= f.arity

    def test_xor2_shape(self):
        # four axioms, then x1 from the x1 = 0 branch, -x1 from the other, then the empty clause
        t = lift._template(XOR2)
        assert [type(s) for s in t.steps] == [Download, Download, Infer, Download, Download, Infer, Infer]
        assert [s.line for s in t.steps if isinstance(s, Infer)] == [clause("1"), clause("-1"), EMPTY_CLAUSE]


CORPUS = (
    [dag.build_path(n) for n in range(1, 9)]
    + [dag.build_binary_tree(h) for h in range(0, 4)]
    + [dag.build_pyramid(h) for h in range(1, 4)]
)


class TestConstantSpace:
    def test_single_vertex(self):
        m = resolution.check_refutation(resolution.constant_space_refutation(dag.build_path(1)))
        assert m.length == 3

    def test_path3(self):
        m = resolution.check_refutation(resolution.constant_space_refutation(dag.build_path(3)))
        assert m.clause_space == 3
        assert m.length == 7

    def test_pyramid2(self):
        m = resolution.check_refutation(resolution.constant_space_refutation(dag.build_pyramid(2)))
        assert m.clause_space <= 3
        assert m.width <= 3

    @pytest.mark.parametrize("g", CORPUS, ids=lambda g: f"{len(g.vertices)}v")
    def test_corpus_space_and_length(self, g):
        m = resolution.check_refutation(
            resolution.constant_space_refutation(g), semantic_check=True
        )
        assert m.clause_space <= 3
        assert m.length <= 3 * (len(g.vertices) + len(g.edges)) + 3


class TestPebblingToRefutation:
    def test_identity_single_vertex(self):
        g = dag.build_path(1)
        r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g))
        assert resolution.check_refutation(r).length == 3

    def test_identity_pyramid_constants(self):
        g = dag.build_pyramid(2)
        p = pebbling.greedy_black_strategy(g)
        cost = pebbling.validate_bw(p, black_only=True)
        m = resolution.check_refutation(resolution.pebbling_to_refutation(g, p))
        assert m.length <= 3 * cost.time
        assert m.clause_space <= cost.space + 2

    def test_xor_pyramid_targets_figure_formula(self):
        g = dag.build_pyramid(2)
        r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
        assert len(r.target.clauses) == 32
        resolution.check_refutation(r, semantic_check=True)

    def test_incomplete_pebbling_rejected(self):
        g = dag.build_path(2)
        incomplete = pebbling.BwPebbling(host=g, moves=(("B+", "v1"),))
        with pytest.raises(resolution.IncompletePebbling):
            resolution.pebbling_to_refutation(g, incomplete)

    @pytest.mark.parametrize("fn_literal", ["none", "or:2", "xor:2"])
    def test_corpus_within_pinned_constants(self, fn_literal):
        f = boolfunc.parse_function_literal(fn_literal)
        for g in CORPUS:
            p = pebbling.greedy_black_strategy(g)
            cost = pebbling.validate_bw(p, black_only=True)
            m = resolution.check_refutation(resolution.pebbling_to_refutation(g, p, f))
            k = resolution.pinned_simulation_constants(fn_literal, g.max_indegree)
            assert m.length <= k.length_factor * cost.time
            assert m.clause_space <= k.space_factor * max(cost.space, 1)


class TestLift:
    def test_smallest_instance(self):
        F = formula(["x", "-x"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        lifted = lift.lift_refutation(b.build(), OR2)
        assert lifted.target == formula(["x#1 x#2", "-x#1", "-x#2"])
        resolution.check_refutation(lifted, semantic_check=True)

    def test_width_bound_pyramid_xor(self):
        r = resolution.constant_space_refutation(dag.build_pyramid(2))
        m0 = resolution.check_refutation(r)
        lifted = lift.lift_refutation(r, XOR2)
        m = resolution.check_refutation(lifted)
        assert m.width <= 2 * (m0.width + 1)

    def test_width_bound_path_or(self):
        r = resolution.constant_space_refutation(dag.build_path(4))
        m0 = resolution.check_refutation(r)
        lifted = lift.lift_refutation(r, OR2)
        m = resolution.check_refutation(lifted, semantic_check=True)
        assert m.width <= 2 * m0.width
        assert m.clause_space <= 8 * m0.clause_space

    def test_lift_of_weakening(self):
        F = formula(["x", "-x y", "-y"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.weaken(clause("x"), clause("x y"))
        b.download(clause("-x y"))
        b.infer_resolve(clause("x y"), clause("-x y"), "x")  # y
        b.download(clause("-y"))
        b.infer_resolve(clause("y"), clause("-y"), "y")
        lifted = lift.lift_refutation(b.build(), XOR2)
        resolution.check_refutation(lifted, semantic_check=True)

    def test_lift_of_a_rederived_present_line(self):
        b = ProofBuilder(formula(["x", "-x"]))
        b.download(clause("x"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        b.infer_resolve(clause("x"), clause("-x"), "x")  # the empty clause is present
        lifted = lift.lift_refutation(b.build(), XOR2)
        resolution.check_refutation(lifted)
        added = [s.line for s in lifted.steps if not isinstance(s, Erase)]
        assert len(added) == len(set(added))  # each image clause downloaded or derived once
        once = lift.lift_refutation(Refutation(b.target, tuple(b.steps[:3])), XOR2)
        assert lifted == once

    def test_lifted_lines_bound_is_exact_on_smallest_instance(self):
        # downloads 1 + 2, and the empty clause's 1 target times or:2's 2 template resolutions
        F = formula(["x", "-x"])
        b = ProofBuilder(F)
        b.download(clause("x"))
        b.download(clause("-x"))
        b.infer_resolve(clause("x"), clause("-x"), "x")
        with pytest.raises(BudgetExceeded, match=r"^lift exceeded budget: 5 lifted lines \(budget 4\)$"):
            lift.lift_refutation(b.build(), OR2, budget=4)
        assert resolution.check_refutation(lift.lift_refutation(b.build(), OR2, budget=5)).length == 5

    def test_lifted_lines_bound_pyramid20(self):
        r = resolution.constant_space_refutation(dag.build_pyramid(20))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="lifted lines"):
            lift.lift_refutation(r, XOR2)
        assert time.perf_counter() - start < 1.0

    def test_const_space_pyramid8_xor2(self):
        # base width 9: a resolution step spans 18 substituted variables
        r = resolution.constant_space_refutation(dag.build_pyramid(8))
        w = resolution.check_refutation(r).width
        assert resolution.check_refutation(lift.lift_refutation(r, XOR2)).width <= 2 * (w + 1)

    def test_no_builder_saturates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("saturate called")

        monkeypatch.setattr(saturation, "saturate", refuse)
        g = dag.build_pyramid(3)
        resolution.check_refutation(
            resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2))
        resolution.check_refutation(
            lift.lift_refutation(resolution.constant_space_refutation(g), XOR2))


@given(st.sampled_from([dag.build_path(n) for n in range(1, 6)]
                       + [dag.build_binary_tree(h) for h in range(0, 3)]
                       + [dag.build_pyramid(h) for h in range(1, 4)]),
       st.sampled_from(all_functions(3)))
@settings(max_examples=40, deadline=None)
def test_lift_checks_within_width_bound(g, f):
    r = resolution.constant_space_refutation(g)
    w = resolution.check_refutation(r).width
    lifted = lift.lift_refutation(r, f)
    assert lifted.target == formulas.substitute(r.target, f)
    assert resolution.check_refutation(lifted).width <= f.arity * (w + 1)


class TestBoundedOracles:
    def test_min_width_examples(self):
        assert saturation.min_width(formula(["x", "-x"]), 3) == 1
        peb = formulas.pebbling_contradiction(dag.build_pyramid(2))
        assert saturation.min_width(peb, 4) <= 3
        assert saturation.min_width(formula(["x y", "-x y"]), 4) is None

    def test_min_clause_space_examples(self):
        assert saturation.min_clause_space(formula(["x", "-x"]), 5) == 3
        peb3 = formulas.pebbling_contradiction(dag.build_path(3))
        assert saturation.min_clause_space(peb3, 4) == 3
        assert saturation.min_clause_space(formula(["x y", "-x y"]), 4) is None

    def test_min_width_counts_against_budget(self, monkeypatch):
        monkeypatch.setenv("PEBLAB_BUDGET", "3")
        with pytest.raises(BudgetExceeded):
            saturation.min_width(formulas.pebbling_contradiction(dag.build_pyramid(2)), 4)

    def test_min_clause_space_respects_cap(self):
        assert saturation.min_clause_space(formula(["x", "-x"]), 2) is None
        # below 1 nothing fits, not even an axiom that is the empty clause
        for cap in (0, -1):
            assert saturation.min_clause_space(formula([EMPTY_CLAUSE, "x"]), cap) is None
            assert saturation.min_clause_space(formula(["x", "-x"]), cap) is None
        assert saturation.min_clause_space(formula([EMPTY_CLAUSE, "x"]), 1) == 1

    def test_min_clause_space_work_pin(self):
        # the states the search pops; a change in the shared search's work shows here
        F = formulas.pebbling_contradiction(dag.build_pyramid(4))
        start = time.process_time()
        assert saturation.min_clause_space(F, 4, budget=411) == 3
        assert time.process_time() - start < 0.1
        with pytest.raises(BudgetExceeded, match=r"^clause space search exceeded budget: 411 nodes visited \(budget 410\)$"):
            saturation.min_clause_space(F, 4, budget=410)

    def test_saturation_work_pin(self):
        # the resolvents the loop tries; a change in the saturation's work shows here
        F = formulas.substitute(formulas.pebbling_contradiction(dag.build_binary_tree(2)), boolfunc.majority_fn(3))
        _, alive, width = saturation.saturate(F.clauses, 8, budget=13_865)
        assert list(alive) == [(0, 0)] and width == 6
        with pytest.raises(BudgetExceeded, match=r"^saturation exceeded budget: 13865 resolvents tried \(budget 13864\)$"):
            saturation.saturate(F.clauses, 8, budget=13_864)

    def test_width_space_relation_probe(self):
        probes = [
            formula(["x", "-x"]),
            formulas.pebbling_contradiction(dag.build_path(2)),
            formulas.pebbling_contradiction(dag.build_path(3)),
            formulas.pebbling_contradiction(dag.build_pyramid(1)),
        ]
        for F in probes:
            w = saturation.min_width(F, 6)
            s = saturation.min_clause_space(F, 6)
            assert w is not None and s is not None
            assert w <= s + F.width


class TestTraceFormat:
    def test_roundtrip_const_space(self):
        r = resolution.constant_space_refutation(dag.build_pyramid(2))
        text = resolution.serialize_refutation(r)
        parsed = resolution.parse_refutation_trace(text, r.target)
        assert parsed == r
        assert resolution.serialize_refutation(parsed) == text

    def test_roundtrip_lifted(self):
        r = lift.lift_refutation(
            resolution.constant_space_refutation(dag.build_path(3)), XOR2
        )
        text = resolution.serialize_refutation(r)
        assert resolution.parse_refutation_trace(text, r.target) == r

    def test_parse_errors(self):
        F = formula(["x", "-x"])
        with pytest.raises(TraceError, match="system"):
            resolution.parse_refutation_trace("d x\n", F)
        with pytest.raises(TraceError, match="step reference"):
            resolution.parse_refutation_trace("system res\ne zero\n", F)
        with pytest.raises(TraceError, match="<-"):
            resolution.parse_refutation_trace("system res\nr x 1 2 pivot x\n", F)
        for k in ("two", "0", "-1", "2.5", "\u00b2"):
            with pytest.raises(TraceError, match=f"^line 2: bad system line 'system kdnf {k}'$"):
                resolution.parse_refutation_trace(f"# header\nsystem kdnf {k}\n", F)
        with pytest.raises(TraceError, match="^line 2: bad step reference"):
            resolution.parse_refutation_trace("system res\ne \u00b2\n", F)
        for text in ("system res\nd -\n", "system res\nd x -\n", "system kdnf 2\nd (-&x)\n",
                     "system kdnf 2\nr x <- 1 2 cut (-)\n"):
            with pytest.raises(TraceError, match="^line 2: a literal has an empty variable name$"):
                resolution.parse_refutation_trace(text, F)

    @pytest.mark.parametrize("text,message", [
        ("system res\nd x\nw x y <- 1 2\n", "line 3: weakening takes one premise id: 'w x y <- 1 2'"),
        ("system kdnf 2\nd x\nd -x\nr <- 1 2 cut x\n",
         "line 4: cut term must be parenthesised: 'r <- 1 2 cut x'"),
        ("", "empty trace: missing 'system' header"),
        ("# only a comment\n", "empty trace: missing 'system' header"),
        ("system res\nd x\nw x1 -x1 <- 1\n", "line 3: variable occurs with both polarities in (-x1 x1)"),
        ("system kdnf 2\nd (x1&-x1)\n", "line 2: trivial term (-x1&x1)"),
    ])
    def test_parse_rejection_texts(self, text, message):
        with pytest.raises(TraceError) as info:
            resolution.parse_refutation_trace(text, formula(["x", "-x"]))
        assert str(info.value) == message

    @pytest.mark.parametrize("refs,bad", [
        ("0 9" + "9" * 5000, "0"),  # the first bad reference is reported, before any long one is read
        ("1 0x", "0x"),
        ("1 00", "00"),
        ("1 " + "9" * 5000, "9" * 5000),  # more digits than `int` reads
    ], ids=["zero-then-long", "hex", "zeros", "long"])
    def test_a_bad_step_reference_is_a_trace_error(self, refs, bad):
        F = formula(["x", "-x"])
        for text, lineno in ((f"system res\nd x\nd -x\nr <- {refs} pivot x\n", 4),
                             (f"system res\nd x\ne {bad}\n", 3)):
            with pytest.raises(TraceError) as info:
                resolution.parse_refutation_trace(text, F)
            assert str(info.value) == f"line {lineno}: bad step reference {bad!r}"

    def test_an_invalid_line_fails_at_its_first_occurrence(self):
        F = formula(["x", "-x"])
        with pytest.raises(TraceError, match="^line 3: variable occurs with both polarities"):
            resolution.parse_refutation_trace("system res\nd x\nd x -x\nd -x\nd x -x\n", F)

    def test_equal_lines_and_literals_are_one_object(self):
        g = dag.build_pyramid(4)
        built = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
        parsed = resolution.parse_refutation_trace(resolution.serialize_refutation(built), built.target)
        assert parsed == built
        for r in (built, parsed):
            lines = [s.line for s in r.steps if not isinstance(s, Erase)]
            distinct = set(lines)
            assert len(distinct) < len(lines)  # a greedy compile re-derives lines
            assert len({id(line) for line in lines}) == len(distinct)
        literals: dict = {}  # over the parsed lines: one tuple per literal
        for line in {s.line for s in parsed.steps if not isinstance(s, Erase)}:
            for lit in line:
                assert literals.setdefault(lit, lit) is lit

    def test_comment_lines(self):
        F = formula(["x", "-x"])
        text = "# a refutation\nsystem res\nd x\nd -x\nr <- 1 2 pivot x\n"
        r = resolution.parse_refutation_trace(text, F)
        assert resolution.check_refutation(r).length == 3


# -- k-DNF resolution ---------------------------------------------------


def kline(spec: str) -> KDnfLine:
    return resolution._parse_line_tokens(spec.split(), kdnf=True, lineno=0)


def path2_xor_formula():
    return formulas.substitute(
        formulas.pebbling_contradiction(dag.build_path(2)), XOR2
    )


def handcrafted_kdnf_refutation() -> Refutation:
    """2-DNF refutation of Peb(path 2)[xor2] exercising cut, and-introduction,
    and and-elimination.  a,b = v1 blocks; c,d = v2 blocks."""
    F = path2_xor_formula()
    b = ProofBuilder(F, system="kdnf", k=2)
    a1, a2 = "v1#1", "v1#2"
    c1, c2 = "v2#1", "v2#2"
    A1 = kline(f"{a1} {a2}")
    A2 = kline(f"-{a1} -{a2}")
    X1 = kline(f"{a1} -{a2} {c1} {c2}")
    X2 = kline(f"{a1} -{a2} -{c1} -{c2}")
    X3 = kline(f"-{a1} {a2} {c1} {c2}")
    X4 = kline(f"-{a1} {a2} -{c1} -{c2}")
    S1 = kline(f"{c1} -{c2}")
    S2 = kline(f"-{c1} {c2}")

    b.download(X2)
    b.download(S1)
    b.download(S2)
    B2 = kline(f"{a1} -{a2} -{c1}")
    b.cut(X2, S2, term(f"-{c2}"), B2)
    C2 = kline(f"{a1} -{a2} -{c2}")
    b.cut(X2, S1, term(f"-{c1}"), C2)
    D2 = kline(f"{a1} -{a2} (-{c1}&-{c2})")
    b.andi(B2, C2, D2)
    b.erase(B2)
    b.erase(C2)
    b.erase(X2)
    b.download(X1)
    E1 = kline(f"{a1} -{a2} -{c1}")
    b.ande(D2, E1)  # essential: B2 was erased
    Ecd = kline(f"{a1} -{a2} {c2}")
    b.cut(X1, E1, term(f"{c1}"), Ecd)
    E2 = kline(f"{a1} -{a2} -{c2}")
    b.ande(D2, E2)
    E = kline(f"{a1} -{a2}")
    b.cut(Ecd, E2, term(f"{c2}"), E)
    # second side, with a two-literal cut term
    b.download(X3)
    b.download(X4)
    Fl = kline(f"-{a1} {a2} {c1}")
    b.cut(X3, S1, term(f"{c2}"), Fl)
    G2 = kline(f"-{a1} {a2} {c2}")
    b.cut(X3, S2, term(f"{c1}"), G2)
    H2 = kline(f"-{a1} {a2} ({c1}&{c2})")
    b.andi(Fl, G2, H2)
    I = kline(f"-{a1} {a2}")
    b.cut(H2, X4, term(f"{c1} {c2}"), I)
    # units and the final contradiction
    b.download(A1)
    J = kline(f"{a1}")
    b.cut(A1, E, term(f"{a2}"), J)
    b.download(A2)
    K = kline(f"-{a1}")
    b.cut(I, A2, term(f"{a2}"), K)
    b.cut(J, K, term(f"{a1}"), KDnfLine())
    return b.build()


def test_builder_returns_the_line_it_adds():
    b = ProofBuilder(formula(["x", "-x", "y"]))
    k = ProofBuilder(path2_xor_formula(), system="kdnf", k=2)
    X, S1, S2 = kline("v1#1 -v1#2 -v2#1 -v2#2"), kline("v2#1 -v2#2"), kline("-v2#1 v2#2")
    B, C = kline("v1#1 -v1#2 -v2#1"), kline("v1#1 -v1#2 -v2#2")
    D = kline("v1#1 -v1#2 (-v2#1&-v2#2)")
    for builder, add, line in [
        (b, lambda: b.download(clause("x")), clause("x")),
        (b, lambda: b.weaken(clause("x"), clause("x y")), clause("x y")),
        (b, lambda: b.download(clause("-x")), clause("-x")),
        (b, lambda: b.infer_resolve(clause("x"), clause("-x"), "x"), EMPTY_CLAUSE),
        (k, lambda: k.download(X), X),
        (k, lambda: k.download(S1), S1),
        (k, lambda: k.download(S2), S2),
        (k, lambda: k.cut(X, S2, term("-v2#2"), B), B),
        (k, lambda: k.cut(X, S1, term("-v2#1"), C), C),
        (k, lambda: k.andi(B, C, D), D),
        (k, lambda: k.ande(D, B), B),
    ]:
        assert add() == line == builder.steps[-1].line
    resolution.check_refutation(b.build())


class TestKDnf:
    def test_handcrafted_refutation_accepted(self):
        r = handcrafted_kdnf_refutation()
        m = resolution.check_refutation(r)  # semantic cross-check on by default
        assert m.formula_space == m.clause_space
        rules = {s.rule for s in r.steps if isinstance(s, Infer)}
        assert {"cut", "andi", "ande"} <= rules
        assert any(
            s.rule == "cut" and len(s.cut_term) == 2
            for s in r.steps if isinstance(s, Infer)
        )

    def test_handcrafted_roundtrips(self):
        r = handcrafted_kdnf_refutation()
        text = resolution.serialize_refutation(r)
        assert text.startswith("system kdnf 2")
        parsed = resolution.parse_refutation_trace(text, r.target)
        assert parsed == r
        resolution.check_refutation(parsed)

    def test_wide_term_rejected(self):
        F = path2_xor_formula()
        b = ProofBuilder(F, system="kdnf", k=2)
        X1 = kline("v1#1 -v1#2 v2#1 v2#2")
        b.download(X1)
        bad = Infer(
            kline("v1#1 -v1#2 (v2#1&v2#2&v1#1)"), (1,), "ande",
        )
        r = Refutation(target=F, steps=tuple(b.steps) + (bad,), system="kdnf", k=2)
        with pytest.raises(IllegalStep, match="wider than k"):
            resolution.check_refutation(r)

    def test_andi_union_cap(self):
        # |t U t'| > k must be rejected even if the conclusion pretends otherwise
        F = path2_xor_formula()
        steps = (
            Download(KDnfLine.from_clause(clause("v1#1 -v1#2 v2#1 v2#2"))),
            Download(KDnfLine.from_clause(clause("v1#1 -v1#2 -v2#1 -v2#2"))),
            Infer(kline("v1#1 -v1#2 v2#2 (-v2#1&-v2#2)"), (1, 2), "andi"),
        )
        with pytest.raises(IllegalStep):
            resolution.check_refutation(Refutation(target=F, steps=steps, system="kdnf", k=2))

    def test_cut_requires_negated_singletons(self):
        F = path2_xor_formula()
        steps = (
            Download(KDnfLine.from_clause(clause("v1#1 -v1#2 v2#1 v2#2"))),
            Download(KDnfLine.from_clause(clause("v2#1 -v2#2"))),
            Infer(kline("v1#1 -v1#2 v2#2 -v2#2"), (1, 2), "cut", cut_term=term("v2#1")),
        )
        with pytest.raises(IllegalStep, match="negated cut literals"):
            resolution.check_refutation(Refutation(target=F, steps=steps, system="kdnf", k=2))

    def test_unsound_inference_caught_semantically(self):
        # structurally plausible but wrong conclusion fails the syntactic check
        F = path2_xor_formula()
        steps = (
            Download(KDnfLine.from_clause(clause("v1#1 v1#2"))),
            Infer(kline("v1#1"), (1,), "ande"),
        )
        with pytest.raises(IllegalStep):
            resolution.check_refutation(Refutation(target=F, steps=steps, system="kdnf", k=2))


@st.composite
def resolvable_pairs(draw):
    names = ["p", "q", "r", "s"]
    pivot = draw(st.sampled_from(names))
    rest = [n for n in names if n != pivot]
    left = {(pivot, True)}
    right = {(pivot, False)}
    for n in rest:
        side = draw(st.sampled_from(["left", "right", "both", "none"]))
        pol = draw(st.booleans())
        if side in ("left", "both"):
            left.add((n, pol))
        if side in ("right", "both"):
            right.add((n, pol))
    return Clause(frozenset(left)), Clause(frozenset(right)), pivot


@given(resolvable_pairs())
@settings(max_examples=100, deadline=None)
def test_resolvent_is_implied(pair):
    c1, c2, pivot = pair
    try:
        r = resolution.resolve(c1, c2, pivot)
    except TrivialResolvent:
        return
    assert kdnf._lines_imply([c1, c2], r) is True
    assert pivot not in r.variables()


@st.composite
def small_cnfs(draw):
    names = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    clauses = set()
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        chosen = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
        clauses.add(Clause(frozenset((n, draw(st.booleans())) for n in chosen)))
    return CnfFormula(frozenset(clauses))


@given(small_cnfs())
@settings(max_examples=150, deadline=None)
def test_given_clause_loop_agrees_with_sat_oracle(F):
    unsat = sat.brute_force_sat(F) is None
    _, alive, _ = saturation.saturate(F.clauses, len(F.variables()))
    assert ((0, 0) in alive) == unsat
    # a refutation over n variables never needs a clause wider than n
    assert (saturation.min_width(F, len(F.variables())) is None) == (not unsat)


def width_capped_closure(F: CnfFormula, w: int) -> set[Clause]:
    """The closure of F's clauses of width <= w under resolvents of
    width <= w, on `Clause` values, with no subsumption."""
    closure = {c for c in F.clauses if c.width <= w}
    frontier = list(closure)
    while frontier:
        c1 = frontier.pop()
        for c2 in list(closure):
            for name, positive in c1:
                if (name, not positive) not in c2:
                    continue
                try:
                    r = resolution.resolve(c1, c2, name) if positive else resolution.resolve(c2, c1, name)
                except TrivialResolvent:
                    continue
                if r.width <= w and r not in closure:
                    closure.add(r)
                    frontier.append(r)
    return closure


def reference_min_width(F: CnfFormula, cap: int) -> int | None:
    """The first w <= cap whose width-capped closure holds the empty clause."""
    return next((w for w in range(cap + 1) if EMPTY_CLAUSE in width_capped_closure(F, w)), None)


@given(small_cnfs(), st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_saturate_returns_the_minimal_clauses_of_the_closure(F, cap):
    codec, alive, _ = saturation.saturate(F.clauses, cap)
    closure = width_capped_closure(F, cap)
    if EMPTY_CLAUSE in closure:
        assert set(alive) == {(0, 0)}
    else:
        assert set(alive) == {codec.encode(c) for c in minimized(closure)}


@given(small_cnfs(), st.integers(min_value=0, max_value=6))
# the running maximum of the given widths is 2 here, the width of the
# given clause that meets the empty clause is 1
@example(formula(["v3", "-v3 v2", "-v2"]), 2)
# FIFO selection, with the same running maximum, answers 3 here, not 2
@example(formula(["-v0 -v1 v2 v3", "-v0 -v2 -v3", "-v0 v1 v2 v3", "-v1 -v3", "v0 -v1 v2",
                  "v0 -v3", "v0 v2 v3", "v1 -v2 v3", "v1 -v3", "v3"]), 3)
@settings(max_examples=150, deadline=None)
def test_min_width_matches_per_width_closure(F, cap):
    assert saturation.min_width(F, cap) == reference_min_width(F, cap)


def test_min_width_saturates_once(monkeypatch):
    saturate, calls = saturation.saturate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return saturate(*args, **kwargs)

    monkeypatch.setattr(saturation, "saturate", counted)
    F = formulas.substitute(formulas.pebbling_contradiction(dag.build_pyramid(3)), XOR2)
    assert saturation.min_width(F, 8) == 6
    assert len(calls) == 1


def reference_min_clause_space(F: CnfFormula, cap: int) -> int | None:
    """Breadth-first search over clause-set states of at most s clauses,
    for s = 1..cap, on `Clause` values: download an axiom, resolve two
    present clauses, or erase one."""
    for s in range(1, cap + 1):
        seen = {frozenset()}
        queue = deque(seen)
        while queue:
            state = queue.popleft()
            if EMPTY_CLAUSE in state:
                return s
            nxt = [state - {c} for c in state]
            if len(state) < s:
                nxt += [state | {a} for a in F.clauses]
                for c1 in state:
                    for c2 in state:
                        for name, positive in c1:
                            if positive and (name, False) in c2:
                                try:
                                    nxt.append(state | {resolution.resolve(c1, c2, name)})
                                except TrivialResolvent:
                                    pass
            for new in nxt:
                if new not in seen:
                    seen.add(new)
                    queue.append(new)
    return None


def _resolvents(state):
    """(c1, c2, pivot, resolvent) for each nontrivial resolution of two clauses in state."""
    for c1 in state:
        for c2 in state:
            for name, positive in c1:
                if positive and (name, False) in c2:
                    try:
                        r = resolution.resolve(c1, c2, name)
                    except TrivialResolvent:
                        continue
                    yield c1, c2, name, r


def clause_space_certificate(F: CnfFormula, cap: int) -> Refutation:
    """A refutation of F in least clause space: `space_bounded_search` over
    sets of `Clause` values, its path replayed through `ProofBuilder`."""
    axioms = F.sorted_clauses()

    def erasures(state):
        return (state - {c} for c in state)

    def derivations(state):
        yield from (state | {a} for a in axioms if a not in state)
        yield from (state | {r} for _, _, _, r in _resolvents(state) if r not in state)

    path, _ = search.space_bounded_search(frozenset(), erasures, derivations, len,
                                          lambda state: EMPTY_CLAUSE in state, None,
                                          "certificate search", cap)
    b = ProofBuilder(F)
    for prev, cur in zip(path, path[1:]):
        if prev - cur:
            b.erase(*(prev - cur))
            continue
        (c,) = cur - prev
        if c in F.clauses:
            b.download(c)
        else:
            b.infer_resolve(*next(m[:3] for m in _resolvents(prev) if m[3] == c))
    return b.build()


@pytest.mark.parametrize("spec, fn, space", [
    ("pyramid:3", "none", 3), ("pyramid:5", "none", 3), ("tree:3", "none", 3),
    ("path:2", "or:2", 3), ("pyramid:1", "or:2", 4),
])
def test_min_clause_space_has_a_checked_certificate(spec, fn, space):
    F = formulas.pebbling_contradiction(dag.parse_family(spec))
    f = boolfunc.parse_function_literal(fn)
    if f is not None:
        F = formulas.substitute(F, f)
    assert saturation.min_clause_space(F, 6) == space
    assert resolution.check_refutation(clause_space_certificate(F, 6)).clause_space == space


@st.composite
def tiny_cnfs(draw):
    names = ["a", "b", "c", "d"][:draw(st.integers(min_value=2, max_value=4))]
    clauses = set()
    for _ in range(draw(st.integers(min_value=2, max_value=10))):
        chosen = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
        clauses.add(Clause(frozenset((n, draw(st.booleans())) for n in chosen)))
    return CnfFormula(frozenset(clauses))


@given(tiny_cnfs())
@example(formula(["a", "-a"]))
@example(formula(["a b", "a -b", "-a b", "-a -b"]))  # clause space 4
@settings(max_examples=100, deadline=None)
def test_min_clause_space_matches_clause_level_search(F):
    for cap in (2, 3, 4):
        assert saturation.min_clause_space(F, cap) == reference_min_clause_space(F, cap)


def test_a_plain_frozenset_download_is_not_an_axiom():
    # a clause equals the frozenset of its literals, so the replay checks the type
    r = Refutation(formula(["x", "-x"]), (Download(frozenset({("x", True)})),))
    with pytest.raises(IllegalStep) as info:
        resolution.check_refutation(r)
    assert str(info.value) == "step 1: (frozenset({('x', True)})) is not an axiom of the target formula"
