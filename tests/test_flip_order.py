import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from satflip import (
    Clause,
    Flip,
    FlipOrderDag,
    FlipSequenceError,
    Formula,
    ParseError,
    PreconditionError,
    Relation,
    TheoryError,
    apply_sequence,
    bfs_shortest,
    canonicalize,
    evaluate,
    formula_flip_dag,
    invert_sequence,
    lower_set_sequence,
    order_respecting_sequence,
    relation_partial_order,
    smallest_lower_set,
    solve,
    valid_positive_sequences,
)
from satflip import flip_order
from satflip.flip_order import advance, dag_to_dot, parse_flip
from satflip.formula import flip_state
from satflip.relation import is_dual_horn_free, is_nand_free

from helpers import (
    closure,
    closure_reduction,
    enum_positive_sequences,
    formula_strategy,
    in_order_class_sample,
    navigable_corpus,
    order_obeying_sequences,
    positive_flip_variables,
    random_walk,
    replay_first_bad_flip,
    sequence_partial_order,
)
from satflip import random_navigable_relation

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))
IMP = Relation.from_bitstrings(["00", "10", "11"])


class TestFlipTokens:
    def test_round_trip(self):
        assert Flip(3, True).token() == "x3+"
        assert Flip(12, False).token() == "x12-"
        assert parse_flip("x12-") == Flip(12, False)

    @pytest.mark.parametrize("token", ["x1", "y1+", "x+", "", "x1*"])
    def test_bad_shape_is_parse_error(self, token):
        with pytest.raises(ParseError, match="bad flip token"):
            parse_flip(token)

    @pytest.mark.parametrize("token", ["xab+", "x1.5-", "x 2+", "x-1-", "x1_0+"])
    def test_bad_variable_is_parse_error(self, token):
        with pytest.raises(ParseError, match="bad variable"):
            parse_flip(token)

    def test_inverse_sequence(self):
        seq = (Flip(1, True), Flip(2, False))
        assert invert_sequence(seq) == (Flip(2, True), Flip(1, False))
        assert invert_sequence(invert_sequence(seq)) == seq


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

    def test_reads_no_sequences(self, monkeypatch):
        relations = in_order_class_sample(30, seed=71)
        want = [
            [sequence_partial_order(rel, state) for state in sorted(rel.tuples)]
            for rel in relations
        ]
        instances = navigable_corpus(60, seed=73, max_vars=10, max_clauses=6)
        lengths = [bfs_shortest(phi.compiled, s, t).length for phi, s, t in instances]

        def refuse(relation, state):
            raise AssertionError("valid_positive_sequences ran")

        monkeypatch.setattr(flip_order, "valid_positive_sequences", refuse)
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
        seq = order_respecting_sequence(dag, {1, 2, 3})
        assert seq == (Flip(3, True), Flip(1, True), Flip(2, True))

    def test_antichain_tiebreak(self):
        dag = FlipOrderDag(frozenset({2, 1}), frozenset())
        assert order_respecting_sequence(dag, {1, 2}) == (Flip(1, True), Flip(2, True))

    def test_empty(self):
        dag = FlipOrderDag(frozenset({1}), frozenset())
        assert order_respecting_sequence(dag, set()) == ()

    def test_rejects_non_lower_sets(self):
        dag = formula_flip_dag(PATH_PHI.compiled, 0b000)
        with pytest.raises(PreconditionError, match="downward"):
            order_respecting_sequence(dag, {2})


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
    return [v for v in range(1, state.compiled.num_vars + 1) if not state.value(v)]


def stride2_window(n):
    """PATH5 on every window (x_i, x_i+1, x_i+2) with odd i."""
    clauses = tuple(Clause("path5", (i, i + 1, i + 2)) for i in range(1, n - 1, 2))
    return Formula(n, (("path5", PATH5),), clauses)


class TestLowerSetSequence:
    def test_chain(self):
        state = flip_state(PATH_PHI.compiled, 0b000)
        assert lower_set_sequence(state, {2}) == (Flip(3, True), Flip(1, True), Flip(2, True))
        assert lower_set_sequence(state, {1}) == (Flip(3, True), Flip(1, True))

    def test_empty_wanted_set(self):
        assert lower_set_sequence(flip_state(PATH_PHI.compiled, 0b000), ()) == ()

    def test_variable_in_no_clause(self):
        # x4 is free: it needs nothing, and ties break by lowest index
        phi = Formula(4, PATH_PHI.relations, PATH_PHI.clauses)
        state = flip_state(phi.compiled, 0b0000)
        assert lower_set_sequence(state, {4}) == (Flip(4, True),)
        assert lower_set_sequence(state, {4, 2}) == (
            Flip(3, True), Flip(1, True), Flip(2, True), Flip(4, True)
        )
        assert lower_set_sequence(flip_state(Formula(2, (), ()).compiled, 0b00), {2}) == (Flip(2, True),)

    @pytest.mark.parametrize("pinned, want, expected", [
        (1, {3}, None),  # x1 is blocked, and x3 needs x2 needs x1
        (1, {2}, None),
        (2, {3}, None),
        (2, {1}, (Flip(1, True),)),  # x1 needs nothing of the blocked x2
        (1, {4}, (Flip(4, True),)),
    ])
    def test_blocked_ancestor(self, pinned, want, expected):
        zero = Relation(1, frozenset({0}))
        phi = Formula(
            4,
            (("imp", IMP), ("zero", zero)),
            (Clause("zero", (pinned,)), Clause("imp", (1, 2)), Clause("imp", (2, 3))),
        )
        state = flip_state(phi.compiled, 0b0000)
        assert lower_set_sequence(state, want) == expected == dag_route(state, want)

    @pytest.mark.parametrize("want, expected", [
        ({3}, None),  # x3 needs x2, which sits on the cycle x1 <-> x2
        ({1}, None),
        ({4}, (Flip(4, True),)),
        ({3, 4}, None),
    ])
    def test_cycle_among_ancestors(self, want, expected):
        clauses = (Clause("imp", (1, 2)), Clause("imp", (2, 1)), Clause("imp", (2, 3)))
        phi = Formula(4, (("imp", IMP),), clauses)
        state = flip_state(phi.compiled, 0b0000)
        assert lower_set_sequence(state, want) == expected == dag_route(state, want)

    def test_wanted_variable_already_raised(self):
        state = flip_state(PATH_PHI.compiled, 0b001)
        assert lower_set_sequence(state, {3}) is None
        assert lower_set_sequence(state, {1, 3}) is None
        # a variable in no clause has no local order to say so
        assert lower_set_sequence(flip_state(Formula(2, (), ()).compiled, 0b01), {2}) is None

    def test_rejects_variable_out_of_range(self):
        with pytest.raises(PreconditionError, match="x4 names no variable"):
            lower_set_sequence(flip_state(PATH_PHI.compiled, 0b000), {4})

    def test_matches_dag_route_on_corpus(self):
        rng = random.Random(97)
        outcomes = {True: 0, False: 0}
        for phi, s, _ in navigable_corpus(80, seed=89, max_vars=10, max_clauses=7):
            state = flip_state(phi.compiled, s)
            for _ in range(3):
                for _ in range(rng.randint(0, phi.num_vars)):
                    v = rng.randint(1, phi.num_vars)
                    if state.can_flip(v):
                        state.flip(v)
                zeros = zero_vars(state)
                for _ in range(3):
                    want = set(rng.sample(zeros, rng.randint(0, len(zeros))))
                    before = state.assignment
                    got = lower_set_sequence(state, want)
                    assert state.assignment == before
                    assert got == dag_route(state, want)
                    outcomes[got is None] += 1
        assert min(outcomes.values()) >= 50

    @settings(max_examples=200, deadline=None)
    @given(formula_strategy().filter(in_order_class), st.data())
    def test_matches_dag_route_on_drawn_formulas(self, phi, data):
        n = phi.num_vars
        sat = [a for a in range(1 << n) if evaluate(phi, a)]
        assume(sat)
        state = flip_state(phi.compiled, data.draw(st.sampled_from(sat)))
        for v in data.draw(st.lists(st.integers(1, n), max_size=2 * n)):
            if state.can_flip(v):
                state.flip(v)
        zeros = zero_vars(state)
        want = data.draw(st.sets(st.sampled_from(zeros))) if zeros else set()
        assert lower_set_sequence(state, want) == dag_route(state, want)

    def test_reads_only_the_ancestors_clauses(self, monkeypatch):
        # n = 4801: x1..x2403 odd and even at 0, every odd x >= 2405 at 1;
        # x2400 needs x2399 and x2401, x2401 needs x2403, and x2403 is free
        n = 4801
        phi = stride2_window(n)
        a = sum(1 << (n - v) for v in range(2405, n + 1, 2))
        state = flip_state(phi.compiled, a)
        assert state.violated() is None
        lookups = []
        counted = flip_order._local_order

        def counting(relation, local):
            lookups.append(local)
            return counted(relation, local)

        monkeypatch.setattr(flip_order, "_local_order", counting)
        got = lower_set_sequence(state, {2400})
        assert got == (Flip(2403, True), Flip(2401, True), Flip(2399, True), Flip(2400, True))
        assert len(lookups) <= 8  # one per clause of each variable reached
        assert got == dag_route(state, {2400})
        assert len(lookups) > n // 2  # the DAG route reads every clause
        advance(state, got)


class TestApplySequence:
    IMP_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)),))

    @pytest.mark.parametrize("bad", [Flip(3, True), Flip(0, True), Flip(-1, False)])
    def test_out_of_range_flip(self, bad):
        with pytest.raises(FlipSequenceError, match="flip 2: .*no variable in 1..2") as err:
            apply_sequence(self.IMP_PHI.compiled, 0b00, (Flip(1, True), bad))
        assert err.value.index == 1

    def test_advance_keeps_flips_before_the_bad_one(self):
        state = flip_state(PATH_PHI.compiled, 0b000)
        with pytest.raises(FlipSequenceError, match="flip 2: prefix ending at x2") as err:
            advance(state, (Flip(3, True), Flip(2, True)))  # 011 is not in PATH5
        assert err.value.index == 1 and state.assignment == 0b001
        assert state.local == flip_state(PATH_PHI.compiled, 0b001).local

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
                want = replay_first_bad_flip(phi, s, flips)
                try:
                    apply_sequence(phi.compiled, s, flips)
                    got = None
                except FlipSequenceError as exc:
                    got = exc.index
                assert got == want
                bad += want is not None
        assert bad >= 100


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
