import random

import pytest

from satflip import (
    Clause,
    Flip,
    Formula,
    NavigableKind,
    Outcome,
    PreconditionError,
    Relation,
    Verdict,
    apply_sequence,
    bfs_shortest,
    classify_formula,
    dualize,
    dualize_flips,
    evaluate,
    relation_flags,
    shortest_path_cwb,
    shortest_path_navigable,
    solve,
)
from satflip import (
    GenerationError,
    SimpleGraph,
    gen_vertex_cover_instance,
    is_componentwise_bijunctive,
    random_formula,
)
from satflip.bits import hamming, zeros

from helpers import navigable_corpus, rescan_cwb_walk

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))
IMP = Relation.from_bitstrings(["00", "10", "11"])
EQ_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), Clause("imp", (2, 1))))
OR2 = Relation.from_bitstrings(["01", "10", "11"])
XOR2 = Relation.from_bitstrings(["01", "10"])


class TestNavigableSolver:
    def test_counterexample_sequence(self):
        res = shortest_path_navigable(PATH_PHI, 0b000, 0b110)
        assert res.outcome is Outcome.PATH
        assert res.flips == (Flip(3, True), Flip(1, True), Flip(2, True), Flip(3, False))
        assert res.length == 4 and hamming(0b000, 0b110) == 2

    def test_equal_endpoints(self):
        res = shortest_path_navigable(PATH_PHI, 0b111, 0b111)
        assert res.flips == ()

    def test_not_connected_via_pruned_nodes(self):
        res = shortest_path_navigable(EQ_PHI, 0b00, 0b11)
        assert res.outcome is Outcome.NOT_CONNECTED

    def test_rejects_unsatisfying_endpoint(self):
        with pytest.raises(PreconditionError, match="clause 1"):
            shortest_path_navigable(PATH_PHI, 0b010, 0b110)

    def test_rejects_wrong_class(self):
        nand = Relation.from_bitstrings(["00", "01", "10"])
        phi = Formula(2, (("nand", nand),), (Clause("nand", (1, 2)),))
        with pytest.raises(PreconditionError, match="NAND-free"):
            shortest_path_navigable(phi, 0b00, 0b01)

    def test_matches_oracle_on_fuzz(self):
        for phi, s, t in navigable_corpus(120, seed=2001):
            res = shortest_path_navigable(phi, s, t)
            ref = bfs_shortest(phi, s, t)
            assert (res.outcome is Outcome.PATH) == ref.connected
            if ref.connected:
                assert res.length == ref.length
                assert apply_sequence(phi, s, res.flips) == t
                assert res.length >= hamming(s, t)
                assert res.length % 2 == hamming(s, t) % 2
                assert res.stats.levels <= res.stats.eta_entry + 1

    def test_trace_levels_decrease_eta(self):
        seen = []
        shortest_path_navigable(
            PATH_PHI, 0b000, 0b110, trace=lambda **kw: seen.append(kw["eta"])
        )
        assert seen == sorted(seen, reverse=True)


class TestCwbSolver:
    def test_or_clause(self):
        phi = Formula(2, (("or2", OR2),), (Clause("or2", (1, 2)),))
        res = shortest_path_cwb(phi, 0b01, 0b10)
        assert res.flips == (Flip(1, True), Flip(2, False))

    def test_equal_endpoints(self):
        phi = Formula(2, (("or2", OR2),), (Clause("or2", (1, 2)),))
        assert shortest_path_cwb(phi, 0b01, 0b01).flips == ()

    def test_xor_not_connected(self):
        phi = Formula(2, (("xor", XOR2),), (Clause("xor", (1, 2)),))
        assert shortest_path_cwb(phi, 0b01, 0b10).outcome is Outcome.NOT_CONNECTED

    def test_rejects_wrong_class(self):
        with pytest.raises(PreconditionError, match="bijunctive"):
            shortest_path_cwb(PATH_PHI, 0b000, 0b110)

    def test_hamming_length_against_oracle(self):
        two_clause_rels = {
            "pp": Relation(2, frozenset({1, 2, 3})),
            "pn": Relation(2, frozenset({0, 2, 3})),
            "np": Relation(2, frozenset({0, 1, 3})),
            "nn": Relation(2, frozenset({0, 1, 2})),
        }
        from satflip import GenerationError, random_formula

        rng = random.Random(404)
        checked = 0
        while checked < 60:
            try:
                phi, s, t = random_formula(
                    list(two_clause_rels.values()),
                    rng.randint(2, 10),
                    rng.randint(1, 8),
                    rng.randrange(2**32),
                )
            except GenerationError:
                continue
            res = shortest_path_cwb(phi, s, t)
            ref = bfs_shortest(phi, s, t)
            assert (res.outcome is Outcome.PATH) == ref.connected
            if ref.connected:
                assert res.length == ref.length == hamming(s, t)
            checked += 1

    def test_matches_rescan_walk(self):
        binary = [Relation(2, frozenset(ts)) for ts in
                  ({1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}, {1, 2}, {0, 3}, {0, 1}, {3})]
        # products of two binary relations: (a, b, c, d) with (a, b) in R, (c, d) in S
        pool = binary + [
            Relation(4, frozenset((x << 2) | y for x in r.tuples for y in q.tuples))
            for r, q in zip(binary, binary[3:] + binary[:3])
        ]
        assert all(is_componentwise_bijunctive(rel) for rel in pool)
        rng = random.Random(505)
        outcomes = []
        while len(outcomes) < 150:
            rels = rng.sample(pool, rng.randint(1, 3))
            try:
                phi, s, t = random_formula(
                    rels, rng.randint(2, 16), rng.randint(1, 14), rng.randrange(2**32)
                )
            except GenerationError:
                continue
            res = shortest_path_cwb(phi, s, t)
            want = rescan_cwb_walk(phi, s, t)
            assert res.flips == want
            assert (res.outcome is Outcome.PATH) == (want is not None)
            outcomes.append(res.outcome)
        assert outcomes.count(Outcome.NOT_CONNECTED) >= 15
        assert outcomes.count(Outcome.PATH) >= 15

    def test_reversed_chain_matches_rescan_walk(self):
        n = 40
        chain = tuple(Clause("imp", (v + 1, v)) for v in range(1, n))  # x_v -> x_(v+1)
        phi = Formula(n, (("imp", IMP),), chain)
        for j in (0, 7, 39):
            t = (1 << (n - j)) - 1
            res = shortest_path_cwb(phi, 0, t)
            assert res.flips == rescan_cwb_walk(phi, 0, t)
            assert [f.var for f in res.flips] == list(range(n, j, -1))


class TestDualize:
    def test_involution(self):
        for phi, s, t in navigable_corpus(15, seed=55, max_vars=8, max_clauses=4):
            assert dualize(*dualize(phi, s, t)) == (phi, s, t)

    def test_or_becomes_nand(self):
        assert OR2.complemented().tuples == frozenset({0b10, 0b01, 0b00})

    def test_constants_swap(self):
        from satflip import CONST0, CONST1

        phi = Formula(1, (("or2", OR2),), (Clause("or2", (1, CONST0)),))
        dual, _, _ = dualize(phi, 0, 0)
        assert dual.clauses[0].args == (1, CONST1)

    def test_flag_mirror(self):
        # the independent-set clause relation: OR-free, not Horn-free;
        # its image must be NAND-free, not dual-Horn-free
        is_rel = Relation(3, frozenset(range(8)) - {0b011})
        f = relation_flags(is_rel)
        g = relation_flags(is_rel.complemented())
        assert (f.or_free, f.horn_free) == (True, False)
        assert (g.nand_free, g.dual_horn_free) == (True, False)

    def test_flag_mirror_random(self):
        rng = random.Random(77)
        for _ in range(80):
            arity = rng.randint(1, 3)
            rel = Relation(
                arity, frozenset(rng.sample(range(1 << arity), rng.randint(0, 1 << arity)))
            )
            f, g = relation_flags(rel), relation_flags(rel.complemented())
            assert f.or_free == g.nand_free
            assert f.horn_free == g.dual_horn_free
            assert f.horn == g.dual_horn

    def test_dualized_solve_matches_oracle(self):
        for phi, s, t in navigable_corpus(50, seed=88, max_vars=10, max_clauses=6):
            dphi, ds, dt = dualize(phi, s, t)
            res = solve(dphi, ds, dt)
            ref = bfs_shortest(dphi, ds, dt)
            assert (res.outcome is Outcome.PATH) == ref.connected
            if ref.connected:
                assert res.length == ref.length
                assert apply_sequence(dphi, ds, res.flips) == dt

    def test_dualize_flips(self):
        seq = (Flip(1, True), Flip(2, False))
        assert dualize_flips(seq) == (Flip(1, False), Flip(2, True))


class TestSolveDispatch:
    def test_navigable_instance(self):
        res = solve(PATH_PHI, 0b000, 0b110)
        assert res.outcome is Outcome.PATH and res.length == 4
        assert res.classification.kind is NavigableKind.NAND_AND_DUAL_HORN_FREE

    def test_hard_with_oracle(self):
        k3 = SimpleGraph(3, ((1, 2), (1, 3), (2, 3)))
        phi, s, t = gen_vertex_cover_instance(k3)
        res = solve(phi, s, t, allow_oracle=True)
        assert res.outcome is Outcome.HARD
        assert res.classification.verdict is Verdict.TIGHT_NOT_NAVIGABLE
        assert res.oracle is not None and res.oracle.connected
        assert res.protocol_line() == "HARD TIGHT_NOT_NAVIGABLE"

    def test_hard_without_oracle(self):
        rels = tuple(
            (f"r{i}", Relation(3, frozenset(range(8)) - {bad}))
            for i, bad in enumerate((0b000, 0b100, 0b110, 0b111))
        )
        phi = Formula(3, rels, (Clause("r0", (1, 2, 3)),))
        res = solve(phi, 0b111, 0b011)
        assert res.outcome is Outcome.HARD
        assert res.classification.verdict is Verdict.NOT_TIGHT
        assert res.oracle is None

    def test_no_relations_is_free_cube(self):
        phi = Formula(4, (), ())
        res = solve(phi, 0b0101, 0b1010)
        assert res.outcome is Outcome.PATH and res.length == 4
        assert res.classification.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE

    def test_cwb_dispatch(self):
        phi = Formula(2, (("or2", OR2),), (Clause("or2", (1, 2)),))
        res = solve(phi, 0b01, 0b10)
        assert res.classification.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE
        assert res.length == 2

    def test_classify_formula_matches_relations(self):
        cls = classify_formula(PATH_PHI)
        assert cls.verdict is Verdict.NAVIGABLE
        assert len(cls.per_relation) == 1


class TestProtocolLines:
    def test_path(self):
        assert solve(PATH_PHI, 0, 0b110).protocol_line() == "PATH 4 x3+ x1+ x2+ x3-"

    def test_empty_path(self):
        assert solve(PATH_PHI, 0, 0).protocol_line() == "PATH 0"

    def test_not_connected(self):
        assert solve(EQ_PHI, 0b00, 0b11).protocol_line() == "NOTCONNECTED"
