import pytest

from peblab.cnf import Clause, EMPTY_CLAUSE, clause, formula, format_lit, neg, parse_lit
from peblab.errors import TrivialClause


def test_literal_parse_and_format():
    assert parse_lit("x") == ("x", True)
    assert parse_lit("-x") == ("x", False)
    assert parse_lit("~x") == ("x", False)
    assert format_lit(("x", False)) == "-x"
    assert neg(("x", True)) == ("x", False)


def test_clause_shorthand_and_ordering():
    c = clause("z -a b")
    assert c.sorted_literals() == (("a", False), ("b", True), ("z", True))
    assert str(c) == "-a b z"
    assert c.width == 3
    assert c.variables() == {"a", "b", "z"}


def test_clause_polarity_sorting_within_variable():
    c = clause("x")
    d = clause("-x")
    assert sorted([d, c], key=Clause.sort_key) == [c, d]


def test_empty_clause():
    assert EMPTY_CLAUSE.is_empty()
    assert EMPTY_CLAUSE.width == 0
    assert str(EMPTY_CLAUSE) == "<empty>"
    assert clause("") == EMPTY_CLAUSE


def test_trivial_rejected():
    with pytest.raises(TrivialClause):
        Clause(frozenset({("x", True), ("x", False)}))


def test_subsume_union_without():
    c = clause("a b")
    assert c.subsumes(clause("a b -c"))
    assert not c.subsumes(clause("a -b"))
    assert c.without(("a", True)) == clause("b")


def test_formula_semantics():
    F = formula(["a b", "a b", "-a"])
    assert len(F) == 2  # duplicate clauses collapse
    assert F.width == 2
    assert F.variables() == ("a", "b")
    assert clause("a b") in F
    assert len(F.without_clause(clause("-a"))) == 1
