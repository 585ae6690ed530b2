"""The package's records: frozen fields, equality and hash by value,
and no mutable default shared between instances."""

import copy
import pickle

import pytest

from satflip import (
    CONST1,
    Clause,
    Formula,
    Relation,
    RestrictionMap,
    SimpleGraph,
    SolveResult,
    SolveStats,
)
from satflip.navigate import Outcome

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])


def build_records():
    """Each record kind with one field to assign, built afresh per call."""
    return [
        (Relation(3, {0b000, 0b001, 0b101}), "tuples"),
        (RestrictionMap(3, 2, (1, CONST1, 2)), "entries"),
        (Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),)), "num_vars"),
        (SimpleGraph(3, ((2, 1), (3, 2))), "edges"),
        (Clause("p", (1, 2, 3)), "args"),
    ]


IDS = ["relation", "restriction-map", "formula", "graph", "clause"]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_fields_refuse_assignment(index):
    record, field = build_records()[index]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_equal_fields_equal_records_and_hashes(index):
    first, _ = build_records()[index]
    second, _ = build_records()[index]
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_copy_and_pickle_keep_the_value(index):
    record, _ = build_records()[index]
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record
        assert hash(clone) == hash(record)


def test_different_fields_differ():
    assert Relation(2, {1}) != Relation(2, {2})
    assert Relation(1, {1}) != Relation(2, {1})
    assert RestrictionMap(2, 1, (1, 1)) != RestrictionMap(2, 2, (1, 2))
    assert SimpleGraph(3, ((1, 2),)) != SimpleGraph(4, ((1, 2),))
    clause = Clause("p", (1, 2, 3))
    assert Formula(3, (("p", PATH5),), (clause,)) != Formula(4, (("p", PATH5),), (clause,))
    assert Formula(3, (("p", PATH5),), (clause,)) != Formula(3, (("p", PATH5),), ())


def test_frozen_records_equal_only_their_own_class():
    graph = SimpleGraph(2, ((1, 2),))
    assert graph != (2, ((1, 2),))
    assert Relation(2, {1}) != RestrictionMap(2, 2, (1, 2))


def test_validated_fields_are_normalized():
    assert Relation(2, [1, 2, 1]).tuples == frozenset({1, 2})
    assert SimpleGraph(3, ((2, 1), (3, 2))).edges == ((1, 2), (2, 3))


def test_reprs_name_the_fields():
    assert repr(SimpleGraph(2, ((2, 1),))) == "SimpleGraph(num_vertices=2, edges=((1, 2),))"
    assert repr(RestrictionMap(2, 1, (1, "c0"))) == (
        "RestrictionMap(source_arity=2, target_arity=1, entries=(1, 'c0'))"
    )
    assert repr(SolveStats(levels=2)) == "SolveStats(levels=2, eta_entry=0, dag_builds=0)"


def test_formula_keeps_its_compiled_form():
    phi = Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),))
    assert phi.compiled is phi.compiled
    assert phi.route is phi.route
    # the cached forms take no part in equality
    assert phi == Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),))


def test_solve_results_do_not_share_stats():
    first, second = SolveResult(Outcome.PATH), SolveResult(Outcome.PATH)
    assert first.stats is not second.stats
    first.stats.levels += 1
    assert (first.stats.levels, second.stats.levels) == (1, 0)
    assert first != second


def test_solve_records_are_mutable_and_unhashable():
    result = SolveResult(Outcome.HARD)
    result.flips = ()
    assert result.length == 0
    assert result == SolveResult(Outcome.HARD, flips=())
    assert SolveStats(1, 2, 3) == SolveStats(levels=1, eta_entry=2, dag_builds=3)
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(TypeError):
        hash(SolveStats())
