import random
import re
from collections import Counter
from contextlib import suppress

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from satflip import (
    CONST0,
    CONST1,
    Clause,
    Flip,
    FlipOrderDag,
    FlipSequenceError,
    Formula,
    PreconditionError,
    Relation,
    TheoryError,
    apply_sequence,
    bfs_shortest,
    evaluate,
    formula_flip_dag,
    lower_set_sequence,
    order_respecting_sequence,
    relation_partial_order,
    smallest_lower_set,
    solve,
)
from satflip import flip_order
from satflip.flip_order import advance, dag_to_dot
from satflip.bits import var_bit
from satflip.formula import FlipState
from satflip.relation import is_dual_horn_free, is_nand_free, pack_tuple

from helpers import (
    canonicalize,
    closure,
    closure_reduction,
    enum_positive_sequences,
    formula_strategy,
    formula_with_constants,
    in_order_class_sample,
    lowest_index_order,
    navigable_corpus,
    order_obeying_sequences,
    positive_flip_variables,
    raises,
    random_relation,
    random_walk,
    reached_precedence,
    reference_advance,
    reference_lower_set_sequence,
    sequence_partial_order,
    swap_signs,
    valid_positive_sequences,
)
from satflip import random_navigable_relation

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))
IMP = Relation.from_bitstrings(["00", "10", "11"])


class TestFlipTokens:
    def test_round_trip(self):
        assert Flip(3, True).token() == "x3+"
        assert Flip(12, False).token() == "x12-"

    def test_swap_signs_keeps_the_order_and_the_type(self):
        seq = (Flip(1, True), Flip(2, False), Flip(1, False))
        swapped = swap_signs(seq)
        assert swapped == (Flip(1, False), Flip(2, True), Flip(1, True))
        assert all(type(f) is Flip for f in swapped)
        assert [f.token() for f in swapped] == ["x1-", "x2+", "x1+"]


class TestValidPositiveSequences:
    def test_path_relation_chain(self):
        assert valid_positive_sequences(PATH5, 0b000) == frozenset(
            {(), (3,), (3, 1), (3, 1, 2)}
        )

    def test_full_square(self):
        assert valid_positive_sequences(Relation.full(2), 0b00) == frozenset(
            {(), (1,), (2,), (1, 2), (2, 1)}
        )

    def test_frozen_point(self):
        assert valid_positive_sequences(Relation(2, frozenset({0})), 0b00) == frozenset(
            {()}
        )

    def test_state_not_in_relation(self):
        with pytest.raises(PreconditionError):
            valid_positive_sequences(PATH5, 0b010)


class TestRelationPartialOrder:
    def test_chain(self):
        members, prec = relation_partial_order(PATH5, 0b000)
        assert members == frozenset({1, 2, 3})
        assert prec == frozenset({(3, 1), (3, 2), (1, 2)})

    def test_two_step(self):
        members, prec = relation_partial_order(IMP, 0b00)
        assert members == frozenset({1, 2})
        assert prec == frozenset({(1, 2)})

    def test_antichain(self):
        members, prec = relation_partial_order(Relation.full(2), 0b00)
        assert members == frozenset({1, 2})
        assert prec == frozenset()

    def test_requires_classification(self):
        nand = Relation.from_bitstrings(["00", "01", "10"])
        message = "requires a NAND-free and dual-Horn-free relation"
        with pytest.raises(PreconditionError, match=message):
            relation_partial_order(nand, 0b00)
        with pytest.raises(PreconditionError, match=message):
            relation_partial_order(nand, 0b11)  # the class is checked first

    @pytest.mark.parametrize("state", [-1, 0b1000, 0b010])
    def test_state_outside_the_relation(self, state):
        with pytest.raises(PreconditionError, match=f"state {state} is not in the relation"):
            relation_partial_order(PATH5, state)

    def test_equals_sequence_order_on_every_small_relation(self):
        pairs = 0
        for arity in (1, 2, 3):
            for table in range(1, 1 << (1 << arity)):
                rel = Relation(arity, frozenset(
                    t for t in range(1 << arity) if table >> t & 1
                ))
                if not (is_nand_free(rel) and is_dual_horn_free(rel)):
                    continue
                for state in sorted(rel.tuples):
                    assert relation_partial_order(rel, state) == (
                        sequence_partial_order(rel, state)
                    ), (rel, state)
                    pairs += 1
        assert pairs > 500

    def test_equals_sequence_order_on_sampled_relations(self):
        relations = in_order_class_sample(80, seed=67)
        relations += [Relation.full(k) for k in (4, 5, 6)]
        chained = 0
        for rel in relations:
            for state in sorted(rel.tuples):
                members, prec = relation_partial_order(rel, state)
                assert (members, prec) == sequence_partial_order(rel, state), (rel, state)
                chained += len(prec) >= 2
        assert chained >= 100

    def test_reads_no_sequences(self):
        relations = in_order_class_sample(30, seed=71)
        want = [
            [sequence_partial_order(rel, state) for state in sorted(rel.tuples)]
            for rel in relations
        ]
        instances = navigable_corpus(60, seed=73, max_vars=10, max_clauses=6)
        lengths = [bfs_shortest(phi.compiled, s, t).length for phi, s, t in instances]

        flip_order._local_order.cache_clear()
        members, prec = relation_partial_order(Relation.full(8), 0)
        assert members == frozenset(range(1, 9)) and prec == frozenset()
        for rel, orders in zip(relations, want):
            assert [relation_partial_order(rel, s) for s in sorted(rel.tuples)] == orders
        for (phi, s, t), length in zip(instances, lengths):
            assert solve(phi, s, t).length == length

    def test_characterizes_valid_sequences(self):
        rng = random.Random(31)
        for _ in range(60):
            rel = random_navigable_relation(rng.randint(1, 4), rng.randrange(2**32))
            for state in sorted(rel.tuples):
                members, prec = relation_partial_order(rel, state)
                assert valid_positive_sequences(rel, state) == order_obeying_sequences(
                    members, prec
                )


class TestLocalOrderCache:
    """`_local_order` is the one cache of local orders, keyed by a
    clause's accept mask, arity and local tuple."""

    def test_cache_is_bounded(self):
        assert flip_order._local_order.cache_info().maxsize == 4096

    def test_equals_the_partial_order_on_every_small_relation(self):
        flip_order._local_order.cache_clear()  # every key is a miss
        checked = 0
        for arity in (1, 2, 3):
            for table in range(1, 1 << (1 << arity)):
                rel = Relation(arity, frozenset(
                    t for t in range(1 << arity) if table >> t & 1
                ))
                if not (is_nand_free(rel) and is_dual_horn_free(rel)):
                    continue
                for state in sorted(rel.tuples):
                    members, prec = relation_partial_order(rel, state)
                    want = [None] * arity
                    for q in members:
                        want[q - 1] = tuple(sorted(p - 1 for p, r in prec if r == q))
                    assert flip_order._local_order(table, arity, state) == tuple(want)
                    checked += 1
        assert checked > 260

    def test_window_chain_reads_each_key_once(self, monkeypatch):
        # solving two pairs twice asks relation_partial_order once per
        # distinct (accept mask, local tuple) the walks meet, and the
        # second round asks nothing
        calls = []

        def counting(relation, state):
            calls.append((relation.table, state))
            return relation_partial_order(relation, state)

        monkeypatch.setattr(flip_order, "relation_partial_order", counting)
        flip_order._local_order.cache_clear()
        n = 41
        phi = stride2_window(n)
        rng = random.Random(2)
        s, t = (random_walk(phi, 0, 60, rng)[1] for _ in range(2))
        pairs = [(0, (1 << n) - 1), (s, t)]
        answers = [solve(phi, *pair) for pair in pairs]
        assert [(r.length, r.stats.levels) for r in answers] == [(n, 1), (10, 2)]
        assert len(calls) > 2 and len(set(calls)) == len(calls)
        assert {mask for mask, _ in calls} == {PATH5.table}
        before = list(calls)
        assert [solve(phi, *pair) for pair in pairs] == answers
        assert calls == before
        info = flip_order._local_order.cache_info()
        assert (info.misses, info.currsize) == (len(calls), len(calls))
        assert info.hits > info.misses


class TestFormulaFlipDag:
    def test_single_clause_chain(self):
        dag = formula_flip_dag(PATH_PHI.compiled, 0b000)
        assert dag.nodes == frozenset({1, 2, 3})
        assert closure(dag) == frozenset({(3, 1), (3, 2), (1, 2)})

    def test_conflicting_clauses_prune_cycle(self):
        phi = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), Clause("imp", (2, 1))))
        dag = formula_flip_dag(phi.compiled, 0b00)
        assert dag.nodes == frozenset()

    def test_free_variables_are_isolated_nodes(self):
        dag = formula_flip_dag(Formula(2, (), ()).compiled, 0b00)
        assert dag.nodes == frozenset({1, 2})
        assert dag.edges == frozenset()

    def test_clause_blocked_flip_removed(self):
        # x1 could rise per the OR clause but a unit clause pins it at 0
        zero = Relation(1, frozenset({0}))
        or2 = Relation.from_bitstrings(["01", "10", "11"])
        phi = Formula(
            2,
            (("or2", or2), ("zero", zero)),
            (Clause("or2", (1, 2)), Clause("zero", (1,))),
        )
        dag = formula_flip_dag(phi.compiled, 0b01)
        assert dag.nodes == frozenset()

    def test_requires_satisfying_state(self):
        with pytest.raises(PreconditionError):
            formula_flip_dag(PATH_PHI.compiled, 0b010)

    def test_cycle_drops_what_it_feeds(self):
        # x1 <-> x2 (each must rise first) feeds x2 -> x3; x4 is free
        clauses = (Clause("imp", (1, 2)), Clause("imp", (2, 1)), Clause("imp", (2, 3)))
        phi = Formula(4, (("imp", IMP),), clauses)
        dag = formula_flip_dag(phi.compiled, 0b0000)
        assert dag.nodes == frozenset({4}) == frozenset(positive_flip_variables(phi, 0))
        assert dag.edges == frozenset()

    @pytest.mark.parametrize("pinned, survivors", [(1, {4}), (2, {1, 4})])
    def test_blocked_successors_dropped(self, pinned, survivors):
        # a unit clause pins one variable at 0 in the chain x1 -> x2 -> x3
        # (each must rise before the next); x4 is free
        zero = Relation(1, frozenset({0}))
        phi = Formula(
            4,
            (("imp", IMP), ("zero", zero)),
            (Clause("zero", (pinned,)), Clause("imp", (1, 2)), Clause("imp", (2, 3))),
        )
        dag = formula_flip_dag(phi.compiled, 0b0000)
        assert dag.nodes == frozenset(survivors) == frozenset(positive_flip_variables(phi, 0))
        assert dag.edges == frozenset()

    def test_requires_right_relation_class(self):
        nand = Relation.from_bitstrings(["00", "01", "10"])
        phi = Formula(2, (("nand", nand),), (Clause("nand", (1, 2)),))
        with pytest.raises(PreconditionError):
            formula_flip_dag(phi.compiled, 0b00)

    def test_nodes_match_reachability_oracle(self):
        for phi, s, _ in navigable_corpus(80, seed=47, max_vars=10, max_clauses=6):
            dag = formula_flip_dag(phi.compiled, s)
            assert dag.nodes == frozenset(positive_flip_variables(phi, s))

    def test_order_matches_reached_assignments(self):
        # the DAG's closure is the order read off the assignments that
        # raising flips reach, with no clause order involved
        for phi, s, _ in navigable_corpus(80, seed=49, max_vars=10, max_clauses=6):
            dag = formula_flip_dag(phi.compiled, s)
            assert (dag.nodes, closure(dag)) == reached_precedence(phi, s)

    def test_sequences_match_enumeration_on_tiny_instances(self):
        count = 0
        for phi, s, _ in navigable_corpus(
            120, seed=53, max_vars=6, max_clauses=4, max_arity=3
        ):
            dag = formula_flip_dag(phi.compiled, s)
            got = order_obeying_sequences(dag.nodes, closure(dag))
            assert got == enum_positive_sequences(phi, s)
            count += 1
        assert count >= 100


class TestLowerSets:
    def chain_dag(self):
        return formula_flip_dag(PATH_PHI.compiled, 0b000)

    def test_chain_closure(self):
        assert smallest_lower_set(self.chain_dag(), {2}) == frozenset({1, 2, 3})

    def test_empty(self):
        assert smallest_lower_set(self.chain_dag(), set()) == frozenset()

    def test_antichain(self):
        dag = FlipOrderDag(frozenset({1, 2}), frozenset())
        assert smallest_lower_set(dag, {1}) == frozenset({1})

    def test_outside_nodes(self):
        with pytest.raises(PreconditionError):
            smallest_lower_set(self.chain_dag(), {4})

    def test_minimality(self):
        # removing any element not in the seed breaks closure or containment
        for phi, s, _ in navigable_corpus(30, seed=61, max_vars=8, max_clauses=5):
            dag = formula_flip_dag(phi.compiled, s)
            nodes = sorted(dag.nodes)
            if not nodes:
                continue
            rng = random.Random(len(nodes))
            seed_set = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            lower = smallest_lower_set(dag, seed_set)
            pairs = closure(dag)
            for drop in lower - seed_set:
                smaller = lower - {drop}
                broken = any(
                    q in smaller and p not in smaller for p, q in pairs
                )
                assert broken or not seed_set <= smaller


class TestOrderRespectingSequence:
    def test_chain_unique(self):
        dag = formula_flip_dag(PATH_PHI.compiled, 0b000)
        assert order_respecting_sequence(dag, {1, 2, 3}) == (3, 1, 2)

    def test_antichain_tiebreak(self):
        dag = FlipOrderDag(frozenset({2, 1}), frozenset())
        assert order_respecting_sequence(dag, {1, 2}) == (1, 2)

    def test_empty(self):
        dag = FlipOrderDag(frozenset({1}), frozenset())
        assert order_respecting_sequence(dag, set()) == ()

    def test_rejects_flips_outside_the_dag(self):
        dag = formula_flip_dag(PATH_PHI.compiled, 0b000)
        with pytest.raises(PreconditionError) as err:
            order_respecting_sequence(dag, {1, 5, 4})
        assert str(err.value) == "flips not in the DAG: [4, 5]"

    def test_rejects_non_lower_sets(self):
        dag = formula_flip_dag(PATH_PHI.compiled, 0b000)
        with pytest.raises(PreconditionError, match="downward"):
            order_respecting_sequence(dag, {2})

    def test_cycle_is_a_theory_error(self):
        dag = FlipOrderDag(frozenset({1, 2}), frozenset({(1, 2), (2, 1)}))
        with pytest.raises(TheoryError, match="cycle survived pruning"):
            order_respecting_sequence(dag, {1, 2})

    def test_matches_reference_order_on_corpus(self):
        rng = random.Random(59)
        checked = 0
        for phi, s, _ in navigable_corpus(80, seed=67, max_vars=10, max_clauses=7):
            dag = formula_flip_dag(phi.compiled, s)
            nodes = sorted(dag.nodes)
            for _ in range(3):
                want = set(rng.sample(nodes, rng.randint(0, len(nodes))))
                lower = smallest_lower_set(dag, want)
                got = order_respecting_sequence(dag, lower)
                assert list(got) == lowest_index_order(lower, dag.edges)
                assert got == reference_lower_set_sequence(phi, s, want)
                checked += len(got) >= 2
        assert checked >= 50

    def test_random_dags_follow_the_reference_order(self):
        # corpus DAGs have few edges; these have many, and many ties
        rng = random.Random(61)
        for _ in range(200):
            rank = rng.sample(range(1, 31), rng.randint(1, 30))
            edges = frozenset(
                (u, v) for i, u in enumerate(rank) for v in rank[i + 1:]
                if rng.random() < 0.1
            )
            dag = FlipOrderDag(frozenset(rank), edges)
            got = order_respecting_sequence(dag, dag.nodes)
            assert list(got) == lowest_index_order(dag.nodes, edges)


def dag_route(state, want):
    """The lower set's sequence through the whole flip DAG, or None when
    some wanted flip is not one of its nodes."""
    dag = formula_flip_dag(state.compiled, state.assignment)
    if not set(want) <= dag.nodes:
        return None
    return order_respecting_sequence(dag, smallest_lower_set(dag, want))


def in_order_class(phi):
    return all(is_nand_free(rel) and is_dual_horn_free(rel) for _, rel in phi.relations)


def zero_vars(state):
    n = state.compiled.num_vars
    return [v for v in range(1, n + 1) if not var_bit(state.assignment, v, n)]


def try_flip(state, v):
    """Flip v through `advance` when that keeps the formula satisfied; a
    refused flip leaves the state as it was."""
    with suppress(FlipSequenceError):
        advance(state, (Flip(v, not var_bit(state.assignment, v, state.compiled.num_vars)),))


def stride2_window(n):
    """PATH5 on every window (x_i, x_i+1, x_i+2) with odd i."""
    clauses = tuple(Clause("path5", (i, i + 1, i + 2)) for i in range(1, n - 1, 2))
    return Formula(n, (("path5", PATH5),), clauses)


class TestLowerSetSequence:
    def test_chain(self):
        state = FlipState(PATH_PHI.compiled, 0b000)
        assert lower_set_sequence(state, {2}) == (3, 1, 2)
        assert lower_set_sequence(state, {1}) == (3, 1)

    def test_empty_wanted_set(self):
        assert lower_set_sequence(FlipState(PATH_PHI.compiled, 0b000), ()) == ()

    def test_variable_in_no_clause(self):
        # x4 is free: it needs nothing, and ties break by lowest index
        phi = Formula(4, PATH_PHI.relations, PATH_PHI.clauses)
        state = FlipState(phi.compiled, 0b0000)
        assert lower_set_sequence(state, {4}) == (4,)
        assert lower_set_sequence(state, {4, 2}) == (3, 1, 2, 4)
        assert lower_set_sequence(FlipState(Formula(2, (), ()).compiled, 0b00), {2}) == (2,)

    @pytest.mark.parametrize("pinned, want, expected", [
        (1, {3}, None),  # x1 is blocked, and x3 needs x2 needs x1
        (1, {2}, None),
        (2, {3}, None),
        (2, {1}, (1,)),  # x1 needs nothing of the blocked x2
        (1, {4}, (4,)),
    ])
    def test_blocked_ancestor(self, pinned, want, expected):
        zero = Relation(1, frozenset({0}))
        phi = Formula(
            4,
            (("imp", IMP), ("zero", zero)),
            (Clause("zero", (pinned,)), Clause("imp", (1, 2)), Clause("imp", (2, 3))),
        )
        state = FlipState(phi.compiled, 0b0000)
        assert lower_set_sequence(state, want) == expected == dag_route(state, want)

    @pytest.mark.parametrize("want, expected", [
        ({3}, None),  # x3 needs x2, which sits on the cycle x1 <-> x2
        ({1}, None),
        ({4}, (4,)),
        ({3, 4}, None),
    ])
    def test_cycle_among_ancestors(self, want, expected):
        clauses = (Clause("imp", (1, 2)), Clause("imp", (2, 1)), Clause("imp", (2, 3)))
        phi = Formula(4, (("imp", IMP),), clauses)
        state = FlipState(phi.compiled, 0b0000)
        assert lower_set_sequence(state, want) == expected == dag_route(state, want)

    def test_wanted_variable_already_raised(self):
        state = FlipState(PATH_PHI.compiled, 0b001)
        assert lower_set_sequence(state, {3}) is None
        assert lower_set_sequence(state, {1, 3}) is None
        # a variable in no clause has no local order to say so
        assert lower_set_sequence(FlipState(Formula(2, (), ()).compiled, 0b01), {2}) is None

    def test_rejects_variable_out_of_range(self):
        with pytest.raises(PreconditionError, match="x4 names no variable"):
            lower_set_sequence(FlipState(PATH_PHI.compiled, 0b000), {4})

    # x3 is 1 at 0b001, so a wanted x3 makes the answer None; the other
    # entry is refused. Whichever comes first in the wanted order decides.
    REFUSAL_ORDER = [
        ((3, 4), None), ((4, 3), "x4 names no variable in 1..3"),
        ((3, 0), None), ((0, 3), "x0 names no variable in 1..3"),
        ((3, -1), None), ((-1, 3), "x-1 names no variable in 1..3"),
        ((3, True), None), ((True, 3), "xTrue names no variable in 1..3"),
        ((3, 2.5), None), ((2.5, 3), "x2.5 names no variable in 1..3"),
        ((3, "x1"), None), (("x1", 3), "xx1 names no variable in 1..3"),
        ((1, 3, 4), None), ((1, 4, 3), "x4 names no variable in 1..3"),
    ]

    @pytest.mark.parametrize("wanted, expected", REFUSAL_ORDER)
    @pytest.mark.parametrize("form", [tuple, list, lambda w: (v for v in w)],
                             ids=["tuple", "list", "generator"])
    def test_refusal_order_with_a_raised_variable(self, wanted, expected, form):
        state = FlipState(PATH_PHI.compiled, 0b001)
        if expected is None:
            assert lower_set_sequence(state, form(wanted)) is None
        else:
            with pytest.raises(PreconditionError, match=f"^{re.escape(expected)}$"):
                lower_set_sequence(state, form(wanted))
        assert state.values == bytearray([0, 0, 0, 1])

    @pytest.mark.parametrize("wanted", [
        {3, 4}, {3, 8}, {3, 0}, {3, -1}, {3, 2.5}, {3, True, 2}, {4, 1}, {1, 3, 2.5},
    ], ids=str)
    def test_refusal_order_of_a_set_is_its_iteration_order(self, wanted):
        state = FlipState(PATH_PHI.compiled, 0b001)
        for v in wanted:  # the first entry that is refused or raised decides
            if type(v) is not int or not 1 <= v <= 3:
                with pytest.raises(PreconditionError, match=f"^x{re.escape(str(v))} names no"):
                    lower_set_sequence(state, wanted)
                break
            if state.values[v]:
                assert lower_set_sequence(state, wanted) is None
                break
        else:
            pytest.fail(f"{wanted} has neither a refused nor a raised entry")

    def test_matches_dag_route_on_corpus(self):
        rng = random.Random(97)
        outcomes = {True: 0, False: 0}
        for phi, s, _ in navigable_corpus(80, seed=89, max_vars=10, max_clauses=7):
            state = FlipState(phi.compiled, s)
            for _ in range(3):
                for _ in range(rng.randint(0, phi.num_vars)):
                    try_flip(state, rng.randint(1, phi.num_vars))
                zeros = zero_vars(state)
                for _ in range(3):
                    want = set(rng.sample(zeros, rng.randint(0, len(zeros))))
                    before = state.assignment
                    got = lower_set_sequence(state, want)
                    assert state.assignment == before
                    assert got == dag_route(state, want)
                    outcomes[got is None] += 1
        assert min(outcomes.values()) >= 50

    def test_matches_reference_order_on_corpus(self):
        # the reference shares no code with the walk or its ordering
        rng = random.Random(103)
        outcomes = {True: 0, False: 0}
        for phi, s, _ in navigable_corpus(80, seed=107, max_vars=10, max_clauses=7):
            state = FlipState(phi.compiled, s)
            for _ in range(3):
                for _ in range(rng.randint(0, phi.num_vars)):
                    try_flip(state, rng.randint(1, phi.num_vars))
                zeros = zero_vars(state)
                for _ in range(3):
                    want = set(rng.sample(zeros, rng.randint(0, len(zeros))))
                    got = lower_set_sequence(state, want)
                    assert got == reference_lower_set_sequence(phi, state.assignment, want)
                    outcomes[got is None] += 1
        assert min(outcomes.values()) >= 50

    @settings(max_examples=200, deadline=None)
    @given(formula_strategy().filter(in_order_class), st.data())
    def test_matches_dag_route_on_drawn_formulas(self, phi, data):
        n = phi.num_vars
        sat = [a for a in range(1 << n) if evaluate(phi, a)]
        assume(sat)
        state = FlipState(phi.compiled, data.draw(st.sampled_from(sat)))
        for v in data.draw(st.lists(st.integers(1, n), max_size=2 * n)):
            try_flip(state, v)
        zeros = zero_vars(state)
        want = data.draw(st.sets(st.sampled_from(zeros))) if zeros else set()
        got = lower_set_sequence(state, want)
        assert got == dag_route(state, want)
        assert got == reference_lower_set_sequence(phi, state.assignment, want)

    def test_reads_only_the_ancestors_clauses(self):
        # n = 4801: x1..x2403 odd and even at 0, every odd x >= 2405 at 1;
        # x2400 needs x2399 and x2401, x2401 needs x2403, and x2403 is free
        n = 4801
        phi = stride2_window(n)
        a = sum(1 << (n - v) for v in range(2405, n + 1, 2))
        reads = []

        class RecordingOccurrences(tuple):
            """The occurrence lists, noting each clause a reader gets."""

            def __getitem__(self, v):
                clauses = tuple.__getitem__(self, v)
                reads.extend(j for j, _ in clauses)
                return clauses

        compiled = phi.compiled._replace(
            occurrences=RecordingOccurrences(phi.compiled.occurrences))
        state = FlipState(compiled, a)
        assert state.violated() is None
        got = lower_set_sequence(state, {2400})
        assert got == (2403, 2401, 2399, 2400)
        assert len(reads) <= 8  # the clauses of each variable reached
        del reads[:]
        assert got == dag_route(state, {2400})
        assert len(reads) > n // 2  # the DAG route reads every clause
        advance(state, raises(got))


class TestBoolInputs:
    """bool is an int subclass: unchecked, True would pass as 1 and False
    as 0, and a flip of `var=True` would print as `xTrue+`."""

    @pytest.mark.parametrize("call, message", [
        (lambda: lower_set_sequence(FlipState(PATH_PHI.compiled, 0), [True]), "xTrue names no"),
        (lambda: solve(PATH_PHI, True, 0b110), "assignment True out of range"),
        (lambda: solve(PATH_PHI, 0b000, False), "assignment False out of range"),
        (lambda: apply_sequence(PATH_PHI.compiled, False, ()), "assignment False out of"),
        (lambda: bfs_shortest(PATH_PHI.compiled, 0b000, 0b110, cap=True), "cap True is not an int"),
    ], ids=["wanted-True", "solve-s", "solve-t", "apply_sequence", "bfs_shortest-cap"])
    def test_refused(self, call, message):
        with pytest.raises(PreconditionError, match=message):
            call()


class TestWalkAndKahn:
    def test_stuck_variable_is_its_own_predecessor(self):
        # a unit clause pins x1 at 0 in the chain x1 -> x2 -> x3
        zero = Relation(1, frozenset({0}))
        phi = Formula(
            3,
            (("imp", IMP), ("zero", zero)),
            (Clause("zero", (1,)), Clause("imp", (1, 2)), Clause("imp", (2, 3))),
        )
        reached, pairs = flip_order._walk(FlipState(phi.compiled, 0b000), [3])
        assert reached == {1, 2, 3}
        assert sorted(pairs) == [(1, 1), (1, 2), (2, 3)]
        assert flip_order._kahn(reached, pairs) == []

    def test_kahn_leaves_out_cycles_and_what_follows(self):
        edges = [(1, 5), (3, 4), (2, 3), (3, 2)]
        assert flip_order._kahn([5, 4, 3, 2, 1, 6], edges) == [1, 5, 6]

    def test_a_pair_two_clauses_give_counts_twice(self):
        # imp(x1, x2) and PATH5(x2, x3, x1) both put x1 before x2; PATH5
        # also puts x2, and so x1, before x3
        phi = Formula(
            3,
            (("imp", IMP), ("path5", PATH5)),
            (Clause("imp", (1, 2)), Clause("path5", (2, 3, 1))),
        )
        reached, pairs = flip_order._walk(FlipState(phi.compiled, 0b000), [3])
        assert reached == {1, 2, 3}
        assert Counter(pairs) == {(1, 2): 2, (2, 3): 1, (1, 3): 1}
        assert flip_order._kahn(reached, pairs) == [1, 2, 3]
        assert flip_order._kahn([2, 1], [(1, 2), (1, 2)]) == [1, 2]

    def test_kahn_follows_the_reference_order_on_corpus(self):
        rng = random.Random(109)
        outcomes = {True: 0, False: 0}
        for phi, s, _ in navigable_corpus(80, seed=113, max_vars=10, max_clauses=7):
            state = FlipState(phi.compiled, s)
            for _ in range(4):
                for _ in range(rng.randint(0, phi.num_vars)):
                    try_flip(state, rng.randint(1, phi.num_vars))
                reached, pairs = flip_order._walk(state, zero_vars(state))
                assert set(pairs) <= {(u, v) for u in reached for v in reached}
                got = flip_order._kahn(reached, pairs)
                want = lowest_index_order(reached, set(pairs))
                if want is None:
                    assert len(got) < len(reached)
                else:
                    assert got == want
                outcomes[want is None] += 1
        assert min(outcomes.values()) >= 50

    def test_dag_edges_are_the_walks_pairs_among_its_nodes(self):
        rng = random.Random(127)
        for phi, s, _ in navigable_corpus(80, seed=131, max_vars=10, max_clauses=7):
            state = FlipState(phi.compiled, s)
            for _ in range(rng.randint(0, phi.num_vars)):
                try_flip(state, rng.randint(1, phi.num_vars))
            dag = formula_flip_dag(phi.compiled, state.assignment)
            reached, pairs = flip_order._walk(state, zero_vars(state))
            assert dag.nodes == frozenset(flip_order._kahn(reached, pairs))
            assert dag.edges == {(u, v) for u, v in pairs if v in dag.nodes}


class TestApplySequence:
    IMP_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)),))

    @pytest.mark.parametrize("bad", [Flip(3, True), Flip(0, True), Flip(-1, False)])
    def test_out_of_range_flip(self, bad):
        with pytest.raises(FlipSequenceError, match="flip 2: .*no variable in 1..2") as err:
            apply_sequence(self.IMP_PHI.compiled, 0b00, (Flip(1, True), bad))
        assert err.value.index == 1

    def test_advance_keeps_flips_before_the_bad_one(self):
        state = FlipState(PATH_PHI.compiled, 0b000)
        with pytest.raises(FlipSequenceError, match="flip 2: prefix ending at x2") as err:
            advance(state, (Flip(3, True), Flip(2, True)))  # 011 is not in PATH5
        assert err.value.index == 1 and state.assignment == 0b001
        assert state.local == FlipState(PATH_PHI.compiled, 0b001).local

    def test_messages(self):
        cases = [
            ((Flip(1, False),), 0, "lowers a variable already 0"),
            ((Flip(1, True), Flip(1, True)), 1, "raises a variable already 1"),
            ((Flip(2, True),), 0, "prefix ending at x2\\+ falsifies"),
        ]
        for flips, index, message in cases:
            with pytest.raises(FlipSequenceError, match=f"flip {index + 1}: .*{message}") as err:
                apply_sequence(self.IMP_PHI.compiled, 0b00, flips)
            assert err.value.index == index

    def test_rejects_unsatisfying_start(self):
        with pytest.raises(PreconditionError, match="start assignment"):
            apply_sequence(self.IMP_PHI.compiled, 0b01, ())

    @pytest.mark.parametrize("start", [1 << 10, 0b100, -1])
    def test_out_of_range_start(self, start):
        with pytest.raises(PreconditionError, match="out of range for 2 variables"):
            apply_sequence(self.IMP_PHI.compiled, start, (Flip(1, True),))

    def test_first_bad_index_matches_replay(self):
        rng = random.Random(83)
        bad = 0
        for phi, s, _ in navigable_corpus(60, seed=89, max_vars=10, max_clauses=8):
            n = phi.num_vars
            for _ in range(4):
                flips, end = random_walk(phi, s, rng.randint(0, 15), rng)
                flips.insert(rng.randint(0, len(flips)),
                             Flip(rng.randint(0, n + 1), rng.random() < 0.5))
                want = reference_advance(phi, s, flips)[1]
                want = None if want is None else want[0]
                try:
                    apply_sequence(phi.compiled, s, flips)
                    got = None
                except FlipSequenceError as exc:
                    got = exc.index
                assert got == want
                bad += want is not None
        assert bad >= 100


def junk_flips(flips, n, rng):
    """The flips with a few random ones put in: a variable out of 1..n
    about one time in six, else a random variable and sign."""
    flips = list(flips)
    for _ in range(rng.randint(0, 3)):
        v = rng.choice([0, n + 1]) if rng.random() < 1 / 6 else rng.randint(1, n)
        flips.insert(rng.randint(0, len(flips)), Flip(v, rng.random() < 0.5))
    return flips


def mixed_formulas(count, seed):
    """(phi, s) pairs over random relations of arity 1-3 whose clauses
    mix constants and repeated variables, n = 1..12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        relations = [random_relation(rng.randint(1, 3), rng)
                     for _ in range(rng.randint(1, 3))]
        drawn = formula_with_constants(relations, rng.randint(1, 12), rng.randint(0, 10), rng)
        if drawn is not None:
            out.append(drawn[:2])
    return out


ERROR_WORDS = ("names no variable", "raises", "lowers", "falsifies")


class TestAdvanceAgainstReference:
    """`advance` and the FlipState build against references that share
    no code with them: `reference_advance` re-evaluates every clause
    after each flip, and `pack_tuple` reads a clause's tuple bit by bit."""

    def test_same_end_or_same_error(self):
        rng = random.Random(1705)
        instances = [(phi, s) for phi, s, _ in navigable_corpus(60, seed=1706)]
        instances += mixed_formulas(120, seed=1707)
        seen = Counter()
        for phi, s in instances:
            n = phi.num_vars
            for _ in range(5):
                flips, _ = random_walk(phi, s, rng.randint(0, 12), rng)
                flips = junk_flips(flips, n, rng)
                end, bad = reference_advance(phi, s, flips)
                state = FlipState(phi.compiled, s)
                try:
                    advance(state, flips)
                    got = None
                except FlipSequenceError as exc:
                    got = (exc.index, str(exc))
                want = None if bad is None else (bad[0], f"flip {bad[0] + 1}: {bad[1]}")
                assert got == want
                assert state.assignment == end
                assert state.local == FlipState(phi.compiled, end).local
                seen[bad and next(w for w in ERROR_WORDS if w in bad[1])] += 1
        # every outcome, each kind of error included, is met often
        assert set(seen) == {None, *ERROR_WORDS}
        assert min(seen.values()) >= 40, seen

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 600])
    def test_state_tuples_match_pack_tuple(self, n):
        rng = random.Random(n)
        relations = [random_relation(k, rng) for k in (1, 2, 3, 4)]
        named = tuple((f"r{k}", rel) for k, rel in enumerate(relations, 1))
        clauses = [Clause("r3", (CONST1, CONST0, CONST1)),  # constants only: k = 0
                   Clause("r2", (1, 1)),  # one variable, repeated
                   Clause("r4", (n, CONST0, n, 1))]
        for _ in range(3 * n):
            k = rng.randint(1, 4)
            clauses.append(Clause(f"r{k}", tuple(
                rng.choice([CONST0, CONST1]) if rng.random() < 0.2 else rng.randint(1, n)
                for _ in range(k))))
        # arities 5-8 up to the byte ceiling: at all ones, a clause of
        # eight distinct variables packs the tuple 255
        wide = random.Random(-n)
        named += tuple((f"r{k}", random_relation(k, wide)) for k in (5, 6, 7, 8))
        clauses.append(Clause("r8", tuple(range(1, 9)) if n >= 8 else (1,) * 8))
        for _ in range(n // 4 + 4):
            k = wide.randint(5, 8)
            clauses.append(Clause(f"r{k}", tuple(
                wide.choice([CONST0, CONST1]) if wide.random() < 0.2 else wide.randint(1, n)
                for _ in range(k))))
        compiled = Formula(n, named, tuple(clauses)).compiled
        assert compiled.variables[0] == () and compiled.variables[1] == (1,)
        assert len(compiled.columns) == max(map(len, compiled.variables))
        one = Formula(n, named, (clauses[2],)).compiled  # columns of one entry each
        assert one.columns == (((1,), (n,)) if n > 1 else ((1,),))
        constants = Formula(n, named, tuple(clauses[:1]) * 3).compiled  # width 0
        assert constants.columns == ()
        assignments = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
        for form in (compiled, one, constants):
            for a in assignments:
                want = [pack_tuple(clause_vars, a, n) for clause_vars in form.variables]
                assert list(FlipState(form, a).local) == want
        assert (255 in FlipState(compiled, (1 << n) - 1).local) == (n >= 8)


def spelled(assignment, n):
    """The byte view of an assignment: byte 0 unused and 0, byte v
    variable v's value, read bit by bit with `var_bit`."""
    return bytearray([0] + [var_bit(assignment, v, n) for v in range(1, n + 1)])


class TestStateByteView:
    """A FlipState stores its variables once, as `values`, one byte per
    variable; `assignment` is read back from it."""

    def test_one_stored_form(self):
        assert FlipState.__slots__ == ("compiled", "values", "local")
        state = FlipState(PATH_PHI.compiled, 0b001)
        with pytest.raises(AttributeError):
            state.assignment = 0b000
        assert state.assignment == 0b001 and state.values == bytearray([0, 0, 0, 1])

    def test_values_spell_the_assignment(self):
        rng = random.Random(3101)
        for phi, s, t in navigable_corpus(60, seed=3102):
            n = phi.num_vars
            for a in [0, (1 << n) - 1, s, t] + [rng.getrandbits(n) for _ in range(8)]:
                state = FlipState(phi.compiled, a)
                assert state.values == spelled(a, n)
                assert state.assignment == a

    def test_advance_keeps_values_and_local_in_step(self):
        rng = random.Random(3103)
        refused = 0
        for phi, s, _ in navigable_corpus(60, seed=3104):
            n = phi.num_vars
            state = FlipState(phi.compiled, s)
            for _ in range(4):  # runs go on from where the last one stopped
                start = state.assignment
                flips, _ = random_walk(phi, start, rng.randint(0, 8), rng)
                flips = junk_flips(flips, n, rng)
                end, bad = reference_advance(phi, start, flips)
                try:
                    advance(state, flips)
                    assert bad is None
                except FlipSequenceError:
                    assert bad is not None
                    refused += 1
                assert state.values == spelled(end, n)
                assert state.assignment == end
                assert state.local == FlipState(phi.compiled, end).local
        assert refused >= 40


class TestCanonicalize:
    def test_already_canonical(self):
        seq = (Flip(3, True), Flip(1, True), Flip(2, True), Flip(3, False))
        assert canonicalize(PATH_PHI.compiled, 0b000, seq) == seq

    def test_swap(self):
        phi = Formula(2, (("full", Relation.full(2)),), (Clause("full", (1, 2)),))
        seq = (Flip(1, False), Flip(2, True))  # valid at 10
        assert canonicalize(phi.compiled, 0b10, seq) == (Flip(2, True), Flip(1, False))

    def test_cancel(self):
        phi = Formula(1, (), ())
        assert canonicalize(phi.compiled, 0b1, (Flip(1, False), Flip(1, True))) == ()

    def test_invalid_input_reports_first_prefix(self):
        seq = (Flip(3, True), Flip(2, True))
        with pytest.raises(FlipSequenceError) as err:
            canonicalize(PATH_PHI.compiled, 0b000, seq)
        assert err.value.index == 1

    def test_walks_canonicalize(self):
        rng = random.Random(71)
        checked = 0
        for phi, s, _ in navigable_corpus(40, seed=73, max_vars=8, max_clauses=5):
            for _ in range(5):
                flips, end = random_walk(phi, s, rng.randint(0, 12), rng)
                out = canonicalize(phi.compiled, s, flips)
                assert apply_sequence(phi.compiled, s, out) == end
                signs = [f.up for f in out]
                assert signs == sorted(signs, reverse=True)  # ups before downs
                assert len(set(out)) == len(out)
                assert set(out) <= set(flips)
                # same-sign subsequence order preserved
                for up in (True, False):
                    kept = [f for f in out if f.up == up]
                    orig = [f for f in flips if f.up == up]
                    it = iter(orig)
                    assert all(f in it for f in kept)
                checked += 1
        assert checked >= 150


class TestDagDot:
    def test_chain_golden(self):
        dag = formula_flip_dag(PATH_PHI.compiled, 0b000)
        assert dag_to_dot(dag) == (
            "digraph fliporder {\n"
            '  "x1+";\n'
            '  "x2+";\n'
            '  "x3+";\n'
            '  "x1+" -> "x2+";\n'
            '  "x3+" -> "x1+";\n'
            "}\n"
        )

    def test_cycle_is_a_theory_error(self):
        dag = FlipOrderDag(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3), (3, 2)}))
        with pytest.raises(TheoryError, match="^cycle survived pruning in the flip DAG$"):
            dag_to_dot(dag)

    @staticmethod
    def reduction_edges(dag):
        return [line for line in dag_to_dot(dag).splitlines() if "->" in line]

    def test_equals_closure_reduction_on_corpus(self):
        for phi, s, _ in navigable_corpus(300, seed=97, max_vars=12, max_clauses=10):
            dag = formula_flip_dag(phi.compiled, s)
            assert self.reduction_edges(dag) == [
                f'  "x{u}+" -> "x{v}+";' for u, v in sorted(closure_reduction(dag))
            ]

    def test_equals_closure_reduction_on_random_dags(self):
        # the corpus DAGs are mostly edgeless; these have transitive edges
        rng = random.Random(101)
        dropped = 0
        for _ in range(300):
            rank = rng.sample(range(1, 41), rng.randint(1, 40))  # a random topological order
            density = rng.random() * 0.5
            edges = frozenset(
                (u, v) for i, u in enumerate(rank) for v in rank[i + 1:]
                if rng.random() < density
            )
            dag = FlipOrderDag(frozenset(rank), edges)
            got = self.reduction_edges(dag)
            assert got == [
                f'  "x{u}+" -> "x{v}+";' for u, v in sorted(closure_reduction(dag))
            ]
            dropped += len(got) < len(edges)
        assert dropped >= 100

    def test_long_chain_needs_no_closure(self):
        n = 4801
        phi = Formula(n, (("imp", IMP),), tuple(
            Clause("imp", (v, v + 1)) for v in range(1, n)
        ))
        dag = formula_flip_dag(phi.compiled, 0)
        # the closure is a test reference (helpers.closure); the library
        # has none to build
        assert not hasattr(FlipOrderDag, "closure")
        assert dag_to_dot(dag) == "".join([
            "digraph fliporder {\n",
            *(f'  "x{v}+";\n' for v in range(1, n + 1)),
            *(f'  "x{v}+" -> "x{v + 1}+";\n' for v in range(1, n)),
            "}\n",
        ])
