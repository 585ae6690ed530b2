"""One integer rule for every count, index, tuple and flip that a Python
caller passes in: ``type(x) is int``. A bool, an int subclass such as an
IntEnum member, a float and a str are each refused with the site's own
PreconditionError and message, never a TypeError or AttributeError; the
int 2 is accepted at every site, so the refusal comes from the type.
A value where a collection belongs is refused the same way."""

import itertools
import pathlib
import re
from enum import IntEnum

import pytest

from satflip import (
    Clause,
    Flip,
    FlipSequenceError,
    Formula,
    PreconditionError,
    Relation,
    RestrictionMap,
    SimpleGraph,
    apply_sequence,
    bfs_shortest,
    classify_set,
    evaluate,
    lower_set_sequence,
    order_respecting_sequence,
    random_formula,
    random_navigable_relation,
    relation_partial_order,
    smallest_lower_set,
)
from satflip.flip_order import advance, formula_flip_dag
from satflip.formula import FlipState

SRC = pathlib.Path(__file__).parent.parent / "src" / "satflip"


class Small(IntEnum):
    TWO = 2


BAD = [True, 2.0, Small.TWO, "2"]
BAD_IDS = ["bool", "float", "IntEnum", "str"]

# x1 -> x2 and x1 | x2: both NAND-free and dual-Horn-free; the second
# holds the tuples 01 = 1 and 10 = 2, so a bool state True passed as 1
IMP = Relation.from_bitstrings(["00", "01", "11"])
OR = Relation.from_bitstrings(["01", "10", "11"])
IMP_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)),))
# raising x1 needs x2 raised first, so {2} is a lower set
IMP_DAG = formula_flip_dag(IMP_PHI.compiled, 0)

# site -> (call with the value, the message the call raises for a refused
# value, the index of the refused flip or None)
SITES = {
    "Relation-arity": (
        lambda x: Relation(x, frozenset()),
        lambda x: f"relation arity must be an integer in 1..8, got {x!r}", None),
    "Relation-tuple": (
        lambda x: Relation(2, {x}),
        lambda x: f"tuple {x!r} out of range for arity 2", None),
    "RestrictionMap-source-arity": (
        lambda x: RestrictionMap(x, 1, (1, 1)),
        lambda x: f"source arity must be an integer, got {x!r}", None),
    "RestrictionMap-target-arity": (
        lambda x: RestrictionMap(2, x, (1, 2)),
        lambda x: f"target arity must be an integer, got {x!r}", None),
    "RestrictionMap-entry": (
        lambda x: RestrictionMap(2, 2, (x, 1)),
        lambda x: f"bad restriction entry {x!r}", None),
    "Formula-num_vars": (
        lambda x: Formula(x, (), ()),
        lambda x: f"num_vars must be >= 1, got {x!r}", None),
    "Formula-argument": (
        lambda x: Formula(2, (("imp", IMP),), (Clause("imp", (x, 1)),)),
        lambda x: f"clause 1 argument {x!r} out of range 1..2", None),
    "assignment": (
        lambda x: evaluate(IMP_PHI, x),
        lambda x: f"assignment {x!r} out of range for 2 variables", None),
    "cap": (
        lambda x: bfs_shortest(IMP_PHI.compiled, 0, 0, cap=x),
        lambda x: f"state cap {x!r} is not an int", None),
    "SimpleGraph-vertex-count": (
        lambda x: SimpleGraph(x, ()),
        lambda x: f"graph needs at least one vertex, got {x!r}", None),
    "SimpleGraph-endpoint": (
        lambda x: SimpleGraph(3, ((1, x),)),
        lambda x: f"edge (1, {x!r}) has a non-integer endpoint", None),
    "advance-Flip": (
        lambda x: apply_sequence(IMP_PHI.compiled, 0, (Flip(2, True), Flip(x, False))),
        lambda x: f"flip 2: x{x}- names no variable in 1..2", 1),
    "advance-pair": (
        lambda x: apply_sequence(IMP_PHI.compiled, 0, ((2, True), (x, False))),
        lambda x: f"flip 2: x{x}- names no variable in 1..2", 1),
    "relation_partial_order-state": (
        lambda x: relation_partial_order(OR, x),
        lambda x: f"state {x} is not in the relation", None),
    "random_navigable_relation-arity": (
        lambda x: random_navigable_relation(x, 0),
        lambda x: f"arity must be in 1..4, got {x}", None),
    "random_formula-num_vars": (
        lambda x: random_formula([IMP], x, 2, 0),
        lambda x: f"num_vars must be in 1..16 for explicit endpoint sampling, got {x}", None),
    "random_formula-num_clauses": (
        lambda x: random_formula([IMP], 4, x, 0),
        lambda x: f"num_clauses must be at least 0, got {x}", None),
    "smallest_lower_set": (
        lambda x: smallest_lower_set(IMP_DAG, [x]),
        lambda x: f"flips not in the DAG: [{x!r}]", None),
    "order_respecting_sequence": (
        lambda x: order_respecting_sequence(IMP_DAG, [x]),
        lambda x: f"flips not in the DAG: [{x!r}]", None),
    "lower_set_sequence": (
        lambda x: lower_set_sequence(FlipState(IMP_PHI.compiled, 0), [x]),
        lambda x: f"x{x} names no variable in 1..2", None),
}


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_refuses_what_is_not_an_int(site, value):
    call, message, index = SITES[site]
    call(2)
    with pytest.raises(PreconditionError) as err:
        call(value)
    assert str(err.value) == message(value)
    if index is not None:
        assert type(err.value) is FlipSequenceError and err.value.index == index


# a value where a collection is expected: a wrong container, an int, a
# generator or None is refused with the site's PreconditionError, never a
# TypeError or AttributeError from iterating, hashing or reading it
CONTAINER_CASES = [
    (lambda: RestrictionMap(2, 1, [1, 1]), "restriction entries must be a tuple, got [1, 1]"),
    (lambda: RestrictionMap(2, 1, (e for e in (1, 1))),
     "restriction entries must be a tuple, got <generator object "),
    (lambda: RestrictionMap(2, 1, None), "restriction entries must be a tuple, got None"),
    (lambda: Relation(2, 5), "relation tuples must be an iterable of ints, got 5"),
    (lambda: Relation(2, [[1]]), "relation tuples must be an iterable of ints, got [[1]]"),
    (lambda: classify_set([1]), "classify_set needs Relation objects, got 1"),
    (lambda: classify_set([IMP, "imp"]), "classify_set needs Relation objects, got 'imp'"),
    (lambda: classify_set(5), "classify_set needs an iterable of relations, got 5"),
    (lambda: Formula(2, [("imp", IMP)], ()), "formula relations must be a tuple, got ["),
    (lambda: Formula(2, (("imp",),), ()),
     "formula relations must be (name, Relation) pairs, got ('imp',)"),
    (lambda: Formula(2, (("imp", IMP, 1),), ()),
     "formula relations must be (name, Relation) pairs, got ('imp', "),
    (lambda: Formula(2, (("imp", "IMP"),), ()),
     "formula relations must be (name, Relation) pairs, got ('imp', 'IMP')"),
    (lambda: Formula(2, ((["imp"], IMP),), ()),
     "formula relations must be (name, Relation) pairs, got (['imp'], "),
    (lambda: Formula(2, (IMP,), ()), "formula relations must be (name, Relation) pairs, got "),
    (lambda: Formula(2, (("imp", IMP),), [Clause("imp", (1, 2))]),
     "formula clauses must be a tuple, got [Clause("),
    (lambda: Formula(2, (("imp", IMP),), (("imp", (1, 2)),)),
     "clause 1 must be a Clause(relation_name, args), got ('imp', (1, 2))"),
    (lambda: Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), 5)),
     "clause 2 must be a Clause(relation_name, args), got 5"),
    (lambda: Formula(2, (("imp", IMP),), (Clause("imp", [1, 2]),)),
     "clause 1 args must be a tuple, got [1, 2]"),
    (lambda: Formula(2, (("imp", IMP),), (Clause("imp", None),)),
     "clause 1 args must be a tuple, got None"),
    (lambda: Formula(2, (("imp", IMP),), (Clause(["imp"], (1, 2)),)),
     "clause 1 uses undefined relation ['imp']"),
    (lambda: SimpleGraph(3, [(1, 2)]), "graph edges must be a tuple, got [(1, 2)]"),
    (lambda: SimpleGraph(3, 5), "graph edges must be a tuple, got 5"),
    (lambda: SimpleGraph(3, (3,)), "edge 3 is not a (u, v) pair"),
    (lambda: SimpleGraph(3, ((1, 2, 3),)), "edge (1, 2, 3) is not a (u, v) pair"),
    (lambda: SimpleGraph(3, ((1, 2), None)), "edge None is not a (u, v) pair"),
]


@pytest.mark.parametrize("case", range(len(CONTAINER_CASES)))
def test_containers_are_refused_with_the_site_message(case):
    call, message = CONTAINER_CASES[case]
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("call", [smallest_lower_set, order_respecting_sequence])
def test_dag_flip_sets_name_every_refused_value(call):
    # True == 1 and 3.0 == 3 are nodes by set membership, yet are refused;
    # the ints outside the DAG come first, ascending, then the rest in order
    path5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
    dag = formula_flip_dag(Formula(3, (("p", path5),), (Clause("p", (1, 2, 3)),)).compiled, 0)
    for flips, shown in [({True, 2, 3}, "[True]"), ({3.0}, "[3.0]"), ([3, 1, True], "[True]"),
                         ([1, "x", 5, 4, 5, [2]], "[4, 5, 'x', [2]]")]:
        with pytest.raises(PreconditionError) as err:
            call(dag, flips)
        assert str(err.value) == f"flips not in the DAG: {shown}"
    assert call(dag, iter([1, 2, 3, 3])) == call(dag, {1, 2, 3})


def outcome(call):
    """The end assignment, or the refused flip's index and message."""
    try:
        return call()
    except FlipSequenceError as exc:
        return exc.index, str(exc)


@pytest.mark.parametrize("flip", [3, (3, True, 1), (3,), None, True],
                         ids=["int", "triple", "single", "None", "bool"])
def test_advance_refuses_a_flip_that_is_not_a_pair(flip):
    # the flip before it stays made; the refused one raises at its index
    state = FlipState(IMP_PHI.compiled, 0)
    with pytest.raises(FlipSequenceError) as err:
        advance(state, [(2, True), flip])
    assert err.value.index == 1
    assert str(err.value) == f"flip 2: {flip!r} is not a (var, up) pair"
    assert state.assignment == 0b01
    with pytest.raises(FlipSequenceError) as err:
        apply_sequence(IMP_PHI.compiled, 0, [flip])
    assert err.value.index == 0


def test_apply_sequence_reads_a_pair_as_the_equal_flip():
    # every sequence of up to three flips on PATH5 from 000: variables 0-4
    # (two of them name none), both directions, as Flips and as pairs
    path5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
    compiled = Formula(3, (("p", path5),), (Clause("p", (1, 2, 3)),)).compiled
    moves = list(itertools.product(range(5), (True, False)))
    kinds = set()
    for length in range(4):
        for pairs in itertools.product(moves, repeat=length):
            flips = [Flip(v, up) for v, up in pairs]
            got = outcome(lambda: apply_sequence(compiled, 0, flips))
            assert outcome(lambda: apply_sequence(compiled, 0, pairs)) == got
            assert outcome(lambda: apply_sequence(compiled, 0, map(list, pairs))) == got
            if isinstance(got, tuple):
                kinds.add(re.sub(r"^flip \d+: (prefix ending at )?x\d[+-] ", "", got[1]))
            else:
                kinds.add("end")
    assert kinds == {"end", "names no variable in 1..3", "raises a variable already 1",
                     "lowers a variable already 0", "falsifies the formula"}


def test_no_module_tests_integers_with_isinstance():
    pattern = re.compile(r"isinstance\([^)]*, (bool|int)\)")
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert not pattern.search(line), f"{path.name}:{lineno}: {line.strip()}"
