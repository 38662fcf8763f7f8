import itertools

import pytest
from hypothesis import given, settings, strategies as st

from peblab import boolfunc
from peblab.cnf import clause
from peblab.errors import ConstantFunction


def cs(*specs):
    return frozenset(clause(s) for s in specs)


def test_or2_canonical_sets():
    f = boolfunc.or_fn(2)
    assert boolfunc.canonical_clauses(f, ("x1", "x2")) == cs("x1 x2")
    assert boolfunc.canonical_clauses(f, ("x1", "x2"), "negative") == cs("-x1", "-x2")


def test_xor2_canonical_sets():
    f = boolfunc.xor_fn(2)
    assert boolfunc.canonical_clauses(f, ("x1", "x2")) == cs("x1 x2", "-x1 -x2")
    assert boolfunc.canonical_clauses(f, ("x1", "x2"), "negative") == cs("x1 -x2", "-x1 x2")


def test_threshold_2_of_4_canonical_sets():
    f = boolfunc.threshold_fn(4, 2)
    xs = ("x1", "x2", "x3", "x4")
    assert boolfunc.canonical_clauses(f, xs) == cs(
        "x1 x2 x3", "x1 x2 x4", "x1 x3 x4", "x2 x3 x4"
    )
    assert boolfunc.canonical_clauses(f, xs, "negative") == cs(
        "-x1 -x2", "-x1 -x3", "-x1 -x4", "-x2 -x3", "-x2 -x4", "-x3 -x4"
    )


def test_constant_function_rejected():
    with pytest.raises(ConstantFunction):
        boolfunc.BooleanFunction(2, 0)
    with pytest.raises(ConstantFunction):
        boolfunc.BooleanFunction(2, 0b1111)


def test_canonical_requires_distinct_names():
    with pytest.raises(ValueError):
        boolfunc.canonical_clauses(boolfunc.or_fn(2), ("x", "x"))


def _clauses_evaluate(clauses, names, index):
    value = {n: bool((index >> j) & 1) for j, n in enumerate(names)}
    return all(any(value[n] == p for n, p in c) for c in clauses)


@pytest.mark.parametrize("f", [
    boolfunc.or_fn(2), boolfunc.xor_fn(2), boolfunc.xor_fn(3),
    boolfunc.threshold_fn(4, 2), boolfunc.majority_fn(3),
])
def test_canonical_clauses_equivalent_to_function(f):
    names = tuple(f"x{i}" for i in range(1, f.arity + 1))
    pos = boolfunc.canonical_clauses(f, names)
    negc = boolfunc.canonical_clauses(f, names, "negative")
    for index in range(1 << f.arity):
        assert _clauses_evaluate(pos, names, index) == f.value(index)
        assert _clauses_evaluate(negc, names, index) == (not f.value(index))


@pytest.mark.parametrize("f", [boolfunc.or_fn(2), boolfunc.xor_fn(2), boolfunc.threshold_fn(4, 2)])
def test_canonical_clauses_are_prime(f):
    # no literal can be dropped while staying an implicate
    names = tuple(f"x{i}" for i in range(1, f.arity + 1))
    for c in boolfunc.canonical_clauses(f, names):
        for lit in c:
            weaker = [c.without(lit)]
            broke = any(
                f.value(index) and not _clauses_evaluate(weaker, names, index)
                for index in range(1 << f.arity)
            )
            assert broke, f"{lit} droppable from {c}"


def test_nonauthoritarian_examples():
    assert not boolfunc.is_k_nonauthoritarian(boolfunc.or_fn(2), 1)
    assert not boolfunc.is_k_nonauthoritarian(boolfunc.or_fn(3), 1)
    for d in (1, 2):
        assert boolfunc.is_k_nonauthoritarian(boolfunc.xor_fn(d + 1), d)
        assert boolfunc.is_k_nonauthoritarian(boolfunc.majority_fn(2 * d + 1), d)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_zero_nonauthoritarian_and_arity_bound(arity, data):
    table = data.draw(st.integers(min_value=1, max_value=(1 << (1 << arity)) - 2))
    f = boolfunc.BooleanFunction(arity, table)
    assert boolfunc.is_k_nonauthoritarian(f, 0)
    assert not boolfunc.is_k_nonauthoritarian(f, arity)  # k must be < arity


def test_function_literals():
    assert boolfunc.parse_function_literal("none") is None
    assert boolfunc.parse_function_literal("or:2") == boolfunc.or_fn(2)
    assert boolfunc.parse_function_literal("xor:2") == boolfunc.xor_fn(2)
    assert boolfunc.parse_function_literal("thr:4:2") == boolfunc.threshold_fn(4, 2)
    assert boolfunc.parse_function_literal("maj:3") == boolfunc.majority_fn(3)
    f = boolfunc.xor_fn(2)
    assert boolfunc.parse_function_literal(f"tt:2:{f.to_hex()}") == f
    for spec in ("nand:2", "maj:4", "or:+2", "or:\u0662", "xor: 2", "thr:3:0_2", "maj:3 ", "tt:2:0x6",
                 "tt:2:+6"):
        with pytest.raises(ValueError):
            boolfunc.parse_function_literal(spec)


def test_evaluate_conventions():
    f = boolfunc.threshold_fn(3, 2)
    assert f.value(0b011)
    assert not f.value(0b001)
