import random

import pytest

from satflip import (
    Clause,
    Flip,
    FlipOrderDag,
    FlipSequenceError,
    Formula,
    PreconditionError,
    Relation,
    TheoryError,
    apply_sequence,
    canonicalize,
    formula_flip_dag,
    invert_sequence,
    order_respecting_sequence,
    relation_partial_order,
    smallest_lower_set,
    valid_positive_sequences,
)
from satflip.flip_order import dag_to_dot, parse_flip

from helpers import (
    enum_positive_sequences,
    navigable_corpus,
    order_obeying_sequences,
    positive_flip_variables,
    random_walk,
    replay_first_bad_flip,
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
        with pytest.raises(PreconditionError):
            relation_partial_order(nand, 0b00)

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
        dag = formula_flip_dag(PATH_PHI, 0b000)
        assert dag.nodes == frozenset({1, 2, 3})
        assert dag.closure() == frozenset({(3, 1), (3, 2), (1, 2)})

    def test_conflicting_clauses_prune_cycle(self):
        phi = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), Clause("imp", (2, 1))))
        dag = formula_flip_dag(phi, 0b00)
        assert dag.nodes == frozenset()

    def test_free_variables_are_isolated_nodes(self):
        dag = formula_flip_dag(Formula(2, (), ()), 0b00)
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
        dag = formula_flip_dag(phi, 0b01)
        assert dag.nodes == frozenset()

    def test_requires_satisfying_state(self):
        with pytest.raises(PreconditionError):
            formula_flip_dag(PATH_PHI, 0b010)

    def test_requires_right_relation_class(self):
        nand = Relation.from_bitstrings(["00", "01", "10"])
        phi = Formula(2, (("nand", nand),), (Clause("nand", (1, 2)),))
        with pytest.raises(PreconditionError):
            formula_flip_dag(phi, 0b00)

    def test_nodes_match_reachability_oracle(self):
        for phi, s, _ in navigable_corpus(80, seed=47, max_vars=10, max_clauses=6):
            dag = formula_flip_dag(phi, s)
            assert dag.nodes == frozenset(positive_flip_variables(phi, s))

    def test_sequences_match_enumeration_on_tiny_instances(self):
        count = 0
        for phi, s, _ in navigable_corpus(
            120, seed=53, max_vars=6, max_clauses=4, max_arity=3
        ):
            dag = formula_flip_dag(phi, s)
            got = order_obeying_sequences(dag.nodes, dag.closure())
            assert got == enum_positive_sequences(phi, s)
            count += 1
        assert count >= 100


class TestLowerSets:
    def chain_dag(self):
        return formula_flip_dag(PATH_PHI, 0b000)

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
            dag = formula_flip_dag(phi, s)
            nodes = sorted(dag.nodes)
            if not nodes:
                continue
            rng = random.Random(len(nodes))
            seed_set = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            lower = smallest_lower_set(dag, seed_set)
            closure = dag.closure()
            for drop in lower - seed_set:
                smaller = lower - {drop}
                broken = any(
                    q in smaller and p not in smaller for p, q in closure
                )
                assert broken or not seed_set <= smaller


class TestOrderRespectingSequence:
    def test_chain_unique(self):
        dag = formula_flip_dag(PATH_PHI, 0b000)
        seq = order_respecting_sequence(dag, {1, 2, 3})
        assert seq == (Flip(3, True), Flip(1, True), Flip(2, True))

    def test_antichain_tiebreak(self):
        dag = FlipOrderDag(frozenset({2, 1}), frozenset())
        assert order_respecting_sequence(dag, {1, 2}) == (Flip(1, True), Flip(2, True))

    def test_empty(self):
        dag = FlipOrderDag(frozenset({1}), frozenset())
        assert order_respecting_sequence(dag, set()) == ()

    def test_rejects_non_lower_sets(self):
        dag = formula_flip_dag(PATH_PHI, 0b000)
        with pytest.raises(PreconditionError, match="downward"):
            order_respecting_sequence(dag, {2})


class TestApplySequence:
    IMP_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)),))

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("bad", [Flip(3, True), Flip(0, True), Flip(-1, False)])
    def test_out_of_range_flip(self, check, bad):
        with pytest.raises(FlipSequenceError, match="flip 2: .*no variable in 1..2") as err:
            apply_sequence(self.IMP_PHI, 0b00, (Flip(1, True), bad), check=check)
        assert err.value.index == 1

    def test_messages(self):
        cases = [
            ((Flip(1, False),), 0, "lowers a variable already 0"),
            ((Flip(1, True), Flip(1, True)), 1, "raises a variable already 1"),
            ((Flip(2, True),), 0, "prefix ending at x2\\+ falsifies"),
        ]
        for flips, index, message in cases:
            with pytest.raises(FlipSequenceError, match=f"flip {index + 1}: .*{message}") as err:
                apply_sequence(self.IMP_PHI, 0b00, flips)
            assert err.value.index == index

    def test_rejects_unsatisfying_start(self):
        with pytest.raises(PreconditionError, match="start assignment"):
            apply_sequence(self.IMP_PHI, 0b01, ())

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
                    apply_sequence(phi, s, flips)
                    got = None
                except FlipSequenceError as exc:
                    got = exc.index
                assert got == want
                bad += want is not None
        assert bad >= 100


class TestCanonicalize:
    def test_already_canonical(self):
        seq = (Flip(3, True), Flip(1, True), Flip(2, True), Flip(3, False))
        assert canonicalize(PATH_PHI, 0b000, seq) == seq

    def test_swap(self):
        phi = Formula(2, (("full", Relation.full(2)),), (Clause("full", (1, 2)),))
        seq = (Flip(1, False), Flip(2, True))  # valid at 10
        assert canonicalize(phi, 0b10, seq) == (Flip(2, True), Flip(1, False))

    def test_cancel(self):
        phi = Formula(1, (), ())
        assert canonicalize(phi, 0b1, (Flip(1, False), Flip(1, True))) == ()

    def test_invalid_input_reports_first_prefix(self):
        seq = (Flip(3, True), Flip(2, True))
        with pytest.raises(FlipSequenceError) as err:
            canonicalize(PATH_PHI, 0b000, seq)
        assert err.value.index == 1

    def test_walks_canonicalize(self):
        rng = random.Random(71)
        checked = 0
        for phi, s, _ in navigable_corpus(40, seed=73, max_vars=8, max_clauses=5):
            for _ in range(5):
                flips, end = random_walk(phi, s, rng.randint(0, 12), rng)
                out = canonicalize(phi, s, flips)
                assert apply_sequence(phi, s, out) == end
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
        dag = formula_flip_dag(PATH_PHI, 0b000)
        assert dag_to_dot(dag) == (
            "digraph fliporder {\n"
            '  "x1+";\n'
            '  "x2+";\n'
            '  "x3+";\n'
            '  "x1+" -> "x2+";\n'
            '  "x3+" -> "x1+";\n'
            "}\n"
        )
