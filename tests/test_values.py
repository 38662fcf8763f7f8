"""Value semantics of the immutable types built on `cnf.Value`."""

import importlib
import pkgutil

import pytest

import peblab
from peblab import dag
from peblab.boolfunc import BooleanFunction
from peblab.cnf import Clause, CnfFormula, EMPTY_CLAUSE, Value, clause
from peblab.errors import ConstantFunction, TrivialClause
from peblab.pebbling import (
    BlobPebbling, BlobSubconf, BwPebbling, LabelledCost, LabelledPebbling, PebblingCost, Subconf,
)
from peblab.projections import SpaceRespectReport, SpaceRespectRow, SuiteReport
from peblab.resolution import (
    EMPTY_LINE, Download, Erase, Infer, KDnfLine, Measures, Refutation, SimulationConstants,
)

G = dag.build_path(2)
X = Clause(frozenset({("x", True)}))
ROW = SpaceRespectRow(config_id=0, clause_count=2, projected_variables=1, within_bound=True)

# each type with keyword arguments in constructor order
VALUES = [
    (Clause, dict(literals=frozenset({("x", True), ("y", False)}))),
    (CnfFormula, dict(clauses=frozenset({X}))),
    (BooleanFunction, dict(arity=2, table=0b0110)),
    (BwPebbling, dict(host=G, moves=(("B+", "v1"), ("W+", "v2")))),
    (PebblingCost, dict(time=3, space=2)),
    (LabelledCost, dict(time=3, space=2, bound=(1, 2))),
    (BlobSubconf, dict(blob=frozenset({"v1", "v2"}), support=frozenset({"v3"}))),
    (Subconf, dict(vertex="v2", support=frozenset({"v1"}))),
    (BlobPebbling, dict(host=G, moves=(("I", "v1"), ("X", 1, frozenset({"v1", "v2"}), frozenset())))),
    (LabelledPebbling, dict(host=G, moves=(("I", "v1"), ("I", "v2"), ("M", 2, 1)))),
    (KDnfLine, dict(terms=frozenset({frozenset({("x", True), ("y", False)})}))),
    (Download, dict(line=X)),
    (Infer, dict(line=X, premises=(1, 2), rule="pivot", pivot="y", cut_term=None)),
    (Erase, dict(target=1)),
    (Refutation, dict(target=CnfFormula(frozenset({X})), steps=(Download(X),), system="res", k=1)),
    (Measures, dict(length=1, width=2, clause_space=3, variable_space=4, total_space=5,
                    formula_space=3)),
    (SimulationConstants, dict(length_factor=4, space_factor=4)),
    (SuiteReport, dict(sample_count=3, checks=7)),
    (SpaceRespectRow, dict(config_id=0, clause_count=2, projected_variables=1, within_bound=True)),
    (SpaceRespectReport, dict(rows=(ROW,), enforced=True, max_ratio=0.5, violations=())),
]


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=lambda v: getattr(v, "__name__", ""))
def test_value_semantics(cls, kwargs):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert isinstance(by_keyword, Value)
    assert by_keyword == by_position and not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    assert len({by_keyword, by_position}) == 1
    assert by_keyword != object() and by_keyword != tuple(kwargs.values())
    assert not hasattr(by_keyword, "__dict__")
    if cls is Clause:
        assert repr(by_keyword) == str(by_keyword) == "x -y"
    else:
        assert repr(by_keyword).startswith(f"{cls.__qualname__}(")
        for name in cls._fields:
            assert f"{name}=" in repr(by_keyword)
    for name in cls._fields:
        assert getattr(by_keyword, name) == getattr(by_position, name)


def test_a_changed_field_makes_a_different_value():
    assert PebblingCost(3, 2) != PebblingCost(3, 3)
    assert Infer(X, (1, 2), "pivot", pivot="y") != Infer(X, (1, 2), "pivot", pivot="z")
    assert Refutation(CnfFormula()) != Refutation(CnfFormula(), k=2)


@pytest.mark.parametrize("labelled, blob", [
    (Subconf("v"), BlobSubconf(frozenset({"v"}))),
    # a configuration, as the replays yield it, is a frozenset of subconfigurations
    (frozenset({Subconf("v")}), frozenset({BlobSubconf(frozenset({"v"}))})),
    (LabelledPebbling(G, (("I", "v1"),)), BlobPebbling(G, (("I", "v1"),))),
    (LabelledCost(3, 2, (1, 1)), PebblingCost(3, 2)),
], ids=["subconf", "configuration", "pebbling", "cost"])
def test_subclass_values_differ_from_their_base(labelled, blob):
    assert labelled != blob and blob != labelled
    assert len({labelled, blob}) == 2


@pytest.mark.parametrize("build, error, message", [
    (lambda: Clause(frozenset({("x", True), ("x", False)})), TrivialClause, "both polarities"),
    (lambda: BlobSubconf(frozenset({"v"}), frozenset({"v", "w"})), ValueError, "overlap"),
    (lambda: Subconf("v", frozenset({"v"})), ValueError, "overlap"),
    (lambda: BlobSubconf(frozenset()), ValueError, "blob must be nonempty"),
    (lambda: KDnfLine(frozenset({frozenset()})), ValueError, "empty term"),
    (lambda: KDnfLine(frozenset({frozenset({("x", True), ("x", False)})})), ValueError, "trivial term"),
    (lambda: BooleanFunction(0, 1), ValueError, "arity must be in"),
    (lambda: BooleanFunction(17, 1), ValueError, "arity must be in"),
    (lambda: BooleanFunction(1, 4), ValueError, "more bits"),
    (lambda: BooleanFunction(1, -1), ValueError, "more bits"),
    (lambda: BooleanFunction(1, 0), ConstantFunction, "constant"),
    (lambda: BooleanFunction(1, 3), ConstantFunction, "constant"),
])
def test_constructor_checks_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()


CLAUSES = ["", "x", "-y", "x -y", "x -y z"]


@pytest.mark.parametrize("spec", CLAUSES)
def test_a_clause_equals_its_frozenset_of_literals(spec):
    literals = frozenset(clause(spec))
    assert type(literals) is frozenset
    assert Clause(literals) == literals and literals == Clause(literals)
    assert hash(Clause(literals)) == hash(literals)
    assert {literals: 1}[Clause(literals)] == 1


@pytest.mark.parametrize("a", CLAUSES)
@pytest.mark.parametrize("b", CLAUSES)
def test_clause_order_is_subsumption(a, b):
    c, d = clause(a), clause(b)
    assert (c <= d) == c.subsumes(d)
    assert (c < d) == (c.subsumes(d) and c != d)


@pytest.mark.parametrize("spec", CLAUSES)
def test_no_clause_equals_a_kdnf_line(spec):
    c = clause(spec)
    line = KDnfLine.from_clause(c)
    assert c != line and line != c
    assert len({c, line}) == 2
    assert spec or (c, line) == (EMPTY_CLAUSE, EMPTY_LINE)


def _value_types():
    for module in pkgutil.iter_modules(peblab.__path__):
        importlib.import_module(f"peblab.{module.name}")
    stack, seen = [Value], []
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return seen


def test_no_value_type_overrides_equality():
    # one equality rule: `Value`'s exact-class field comparison, or for
    # `Clause` its frozenset's; a class body defining `__eq__` also sets
    # `__hash__` in its dict
    overriding = [cls.__qualname__ for cls in _value_types()
                  if cls is not Value and {"__eq__", "__hash__"} & cls.__dict__.keys()]
    assert overriding == []
