"""The package's records: frozen fields, equality and hash by value,
and one immutable answer record for the solvers and the exact search."""

import copy
import pickle
import typing

import pytest

from satflip import (
    CONST1,
    Classification,
    Clause,
    Flip,
    Formula,
    Relation,
    RestrictionMap,
    SimpleGraph,
    SolveResult,
    SolveStats,
    bfs_shortest,
    solve,
)
from satflip.navigate import Outcome

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
LEVEL = (((3,), ()),)  # one level's lower sets: x3 raised on the source side


def build_records():
    """Each record kind with one field to assign, built afresh per call."""
    return [
        (Relation(3, {0b000, 0b001, 0b101}), "tuples"),
        (RestrictionMap(3, 2, (1, CONST1, 2)), "entries"),
        (Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),)), "num_vars"),
        (SimpleGraph(3, ((2, 1), (3, 2))), "edges"),
        (Clause("p", (1, 2, 3)), "args"),
        (SolveResult(Outcome.PATH, (Flip(3, True),), stats=SolveStats(1, LEVEL)), "flips"),
        (SolveStats(2, LEVEL * 2), "levels"),
    ]


IDS = ["relation", "restriction-map", "formula", "graph", "clause",
       "solve-result", "solve-stats"]


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
    assert repr(SolveStats(levels=2)) == "SolveStats(levels=2, lower_sets=())"


def test_formula_keeps_its_compiled_form():
    phi = Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),))
    assert phi.compiled is phi.compiled
    assert phi.route is phi.route
    # the cached forms take no part in equality
    assert phi == Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),))


def test_solve_results_share_no_mutable_stats():
    first, second = SolveResult(Outcome.PATH), SolveResult(Outcome.PATH)
    assert first == second
    assert first.stats == SolveStats(levels=0, lower_sets=())
    with pytest.raises(AttributeError):
        first.stats.levels += 1
    assert (first.stats.levels, second.stats.levels) == (0, 0)


def test_solve_records_are_immutable_values():
    result = SolveResult(Outcome.HARD)
    with pytest.raises(AttributeError):
        result.flips = ()
    assert result.flips is None and result.length is None
    assert result == SolveResult(Outcome.HARD, flips=None)
    assert SolveStats(1, ()) == SolveStats(levels=1, lower_sets=())


def test_answer_annotations_resolve():
    # the answer records name their field types by what their module
    # binds, so tools that read the annotations resolve them
    hints = typing.get_type_hints(SolveResult)
    assert hints["classification"] == Classification | None
    assert hints["stats"] is SolveStats and hints["flips"] == tuple[Flip, ...] | None


def test_walk_count_is_derived_from_the_levels():
    # two backward walks per level; the record stores no walk count
    # that could disagree with its levels
    stats = SolveStats(levels=3)
    assert stats.dag_builds == 6 and SolveStats().dag_builds == 0
    assert SolveStats._fields == ("levels", "lower_sets")
    with pytest.raises(AttributeError):
        stats.dag_builds = 6
    with pytest.raises(TypeError):
        SolveStats(1, (), 2)


def test_solve_and_exact_search_return_one_type():
    phi = Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),))
    answer, reference = solve(phi, 0b000, 0b110), bfs_shortest(phi.compiled, 0b000, 0b110)
    assert type(answer) is type(reference) is SolveResult
    assert (answer.outcome, answer.length) == (reference.outcome, reference.length)
    assert answer.protocol_line() == reference.protocol_line() == "PATH 4 x3+ x1+ x2+ x3-"


def test_empty_path_is_not_not_connected():
    phi = Formula(3, (("p", PATH5),), (Clause("p", (1, 2, 3)),))
    equal = Relation.from_bitstrings(["00", "11"])
    apart = Formula(2, (("eq", equal),), (Clause("eq", (1, 2)),))
    for here, there in ((solve(phi, 0b000, 0b000), solve(apart, 0b00, 0b11)),
                        (bfs_shortest(phi.compiled, 0b000, 0b000),
                         bfs_shortest(apart.compiled, 0b00, 0b11))):
        assert (here.outcome, here.flips, here.length) == (Outcome.PATH, (), 0)
        assert (there.outcome, there.flips, there.length) == (Outcome.NOT_CONNECTED, None, None)
        assert here != there
        assert (here.protocol_line(), there.protocol_line()) == ("PATH 0", "NOTCONNECTED")
