import hashlib
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from satflip import (
    CONST0,
    Clause,
    Flip,
    Formula,
    NavigableKind,
    Outcome,
    PreconditionError,
    Relation,
    SolveStats,
    TheoryError,
    Verdict,
    apply_sequence,
    bfs_shortest,
    classify_formula,
    dualize,
    evaluate,
    relation_flags,
    shortest_path_cwb,
    shortest_path_navigable,
    solve,
)
from satflip import (
    CompiledFormula,
    GenerationError,
    SimpleGraph,
    formula_flip_dag,
    gen_independent_set_instance,
    gen_vertex_cover_instance,
    is_bijunctive,
    is_componentwise_bijunctive,
    parse_graph,
    random_formula,
    random_navigable_relation,
)
from satflip.bits import hamming, zeros
from satflip.recon import members, solution_table

from satflip import navigate
from satflip.errors import FlipSequenceError
from satflip.flip_order import advance, lower_set_sequence
from satflip.formula import FlipState, _compile

from helpers import (
    closure,
    formula_strategy,
    formula_with_constants,
    navigable_corpus,
    navigable_population,
    order_obeying_sequences,
    raises,
    random_relation,
    rescan_cwb_walk,
    swap_signs,
    two_cnf_relation,
)

DATA = pathlib.Path(__file__).parent / "data"

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))
IMP = Relation.from_bitstrings(["00", "10", "11"])
EQ_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), Clause("imp", (2, 1))))
OR2 = Relation.from_bitstrings(["01", "10", "11"])
XOR2 = Relation.from_bitstrings(["01", "10"])
NAND = Relation.from_bitstrings(["00", "01", "10"])


class TestNavigableSolver:
    def test_counterexample_sequence(self):
        res = shortest_path_navigable(PATH_PHI.compiled, 0b000, 0b110)
        assert res.outcome is Outcome.PATH
        assert res.flips == (Flip(3, True), Flip(1, True), Flip(2, True), Flip(3, False))
        assert res.length == 4 and hamming(0b000, 0b110) == 2

    def test_equal_endpoints(self):
        res = shortest_path_navigable(PATH_PHI.compiled, 0b111, 0b111)
        assert res.flips == ()

    def test_not_connected_via_pruned_nodes(self):
        res = shortest_path_navigable(EQ_PHI.compiled, 0b00, 0b11)
        assert res.outcome is Outcome.NOT_CONNECTED

    @pytest.mark.parametrize("s, t, walked", [
        (0b00, 0b11, [[1, 2]]),  # the source cannot raise x1 or x2 alone
        (0b11, 0b00, [[], [1, 2]]),  # the source wants nothing; the target fails
    ], ids=["source-fails", "target-fails"])
    def test_a_failed_walk_ends_the_level(self, monkeypatch, s, t, walked):
        # once the source side's walk finds no order, the target side is
        # not walked; the answer and its stats do not depend on it
        walks = []

        def counted(state, wanted):
            walks.append(wanted)
            return lower_set_sequence(state, wanted)

        monkeypatch.setattr(navigate, "lower_set_sequence", counted)
        res = shortest_path_navigable(EQ_PHI.compiled, s, t)
        assert res.outcome is Outcome.NOT_CONNECTED
        assert res.stats == SolveStats(levels=1, lower_sets=())
        assert walks == walked

    def test_rejects_unsatisfying_endpoint(self):
        with pytest.raises(PreconditionError, match="clause 1"):
            shortest_path_navigable(PATH_PHI.compiled, 0b010, 0b110)

    @pytest.mark.parametrize("side, bad, message", [
        (0, 2, "flip 1: prefix ending at x2\\+ falsifies"),  # 000 -> 010
        (1, 1, "flip 1: x1\\+ raises a variable already 1"),  # t = 110
    ], ids=["source", "target"])
    def test_level_flips_are_checked(self, monkeypatch, side, bad, message):
        # a level whose order-respecting sequence is wrong is a bug, not an answer
        calls = []

        def wrong_on_one_side(state, wanted):  # called for side 0 (s), then 1 (t)
            calls.append(state)
            if (len(calls) - 1) % 2 == side:
                return (bad,)
            return lower_set_sequence(state, wanted)

        monkeypatch.setattr(navigate, "lower_set_sequence", wrong_on_one_side)
        with pytest.raises(TheoryError, match="falsified the formula: " + message):
            shortest_path_navigable(PATH_PHI.compiled, 0b000, 0b110)

    def test_rejects_wrong_class(self):
        nand = Relation.from_bitstrings(["00", "01", "10"])
        phi = Formula(2, (("nand", nand),), (Clause("nand", (1, 2)),))
        with pytest.raises(PreconditionError, match="NAND-free"):
            shortest_path_navigable(phi.compiled, 0b00, 0b01)

    def test_matches_oracle_on_fuzz(self):
        for phi, s, t in navigable_corpus(120, seed=2001):
            res = shortest_path_navigable(phi.compiled, s, t)
            ref = bfs_shortest(phi.compiled, s, t)
            assert res.outcome is ref.outcome
            if ref.outcome is Outcome.PATH:
                assert res.length == ref.length
                assert apply_sequence(phi.compiled, s, res.flips) == t
                assert res.length >= hamming(s, t)
                assert res.length % 2 == hamming(s, t) % 2
                n = phi.num_vars
                assert res.stats.levels <= zeros(s, n) + zeros(t, n) + 1

    def test_trace_levels_decrease_eta(self):
        # the pair entering each level, rebuilt from the level's raises:
        # its zero count starts at the endpoints' and falls level by level
        stats = shortest_path_navigable(PATH_PHI.compiled, 0b000, 0b110).stats
        cur_s, cur_t, seen = 0b000, 0b110, []
        for vars_s, vars_t in stats.lower_sets:
            seen.append(zeros(cur_s, 3) + zeros(cur_t, 3))
            cur_s = apply_sequence(PATH_PHI.compiled, cur_s, raises(vars_s))
            cur_t = apply_sequence(PATH_PHI.compiled, cur_t, raises(vars_t))
        assert seen == [zeros(0b000, 3) + zeros(0b110, 3), 1] and cur_s == cur_t


def check_lower_sets(res, route_flips):
    """An order-based answer's `stats.lower_sets`: tuples of the raised
    variables, one pair per completed level, and for a PATH the answer on
    the solver's form, `route_flips`, raises each level's `vars_s` in
    order, then lowers each `vars_t` reversed, last level first. The
    level that finds NOTCONNECTED completes no pair."""
    stats = res.stats
    assert all(type(vs) is tuple and all(type(v) is int for v in vs)
               for level in stats.lower_sets for vs in level)
    if res.outcome is Outcome.NOT_CONNECTED:
        assert len(stats.lower_sets) == stats.levels - 1
        return
    assert len(stats.lower_sets) == stats.levels
    want = [Flip(v, True) for vars_s, _ in stats.lower_sets for v in vars_s]
    want += [Flip(v, False) for _, vars_t in reversed(stats.lower_sets) for v in reversed(vars_t)]
    assert route_flips == tuple(want)


def lower_set_corpus():
    """`navigable_corpus`, then PATH5 windows at n = 7, 11 and 15 with
    seeded endpoints, 21 of which take two levels."""
    rng = random.Random(2801)
    out = navigable_corpus(400, seed=2801, max_vars=14, max_clauses=10)
    for n in (7, 11, 15):
        phi = windows(PATH5, n)
        sats = members(solution_table(phi.compiled))
        out += [(phi, rng.choice(sats), rng.choice(sats)) for _ in range(20)]
    return out


class TestLowerSets:
    def test_levels_spell_the_path(self):
        outcomes = Counter()
        for phi, s, t in lower_set_corpus():
            res = shortest_path_navigable(phi.compiled, s, t)
            check_lower_sets(res, res.flips)
            outcomes[res.outcome, res.stats.levels] += 1
        assert outcomes[Outcome.PATH, 2] >= 20
        assert outcomes[Outcome.NOT_CONNECTED, 1] >= 20

    def test_levels_spell_the_path_on_the_complement_route(self):
        # solve passes the solver's stats through: the lower sets are the
        # complement image's raises, and the answer is their sign swap
        outcomes = Counter()
        for phi, s, t in lower_set_corpus():
            dphi, ds, dt = dualize(phi, s, t)
            if dphi.route.classification.kind is not NavigableKind.OR_AND_HORN_FREE:
                continue
            res = solve(dphi, ds, dt)
            check_lower_sets(res, swap_signs(res.flips or ()))
            outcomes[res.outcome, res.stats.levels] += 1
        assert outcomes[Outcome.PATH, 2] >= 20
        assert outcomes[Outcome.NOT_CONNECTED, 1] >= 5

    def test_not_connected_completes_no_level(self):
        res = shortest_path_navigable(EQ_PHI.compiled, 0b00, 0b11)
        assert res.outcome is Outcome.NOT_CONNECTED
        assert res.stats == SolveStats(levels=1, lower_sets=())


class TestCwbSolver:
    def test_or_clause(self):
        phi = Formula(2, (("or2", OR2),), (Clause("or2", (1, 2)),))
        res = shortest_path_cwb(phi.compiled, 0b01, 0b10)
        assert res.flips == (Flip(1, True), Flip(2, False))

    def test_equal_endpoints(self):
        phi = Formula(2, (("or2", OR2),), (Clause("or2", (1, 2)),))
        assert shortest_path_cwb(phi.compiled, 0b01, 0b01).flips == ()

    def test_xor_not_connected(self):
        phi = Formula(2, (("xor", XOR2),), (Clause("xor", (1, 2)),))
        assert shortest_path_cwb(phi.compiled, 0b01, 0b10).outcome is Outcome.NOT_CONNECTED

    def test_rejects_wrong_class(self):
        with pytest.raises(PreconditionError, match="bijunctive"):
            shortest_path_cwb(PATH_PHI.compiled, 0b000, 0b110)

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
            res = shortest_path_cwb(phi.compiled, s, t)
            ref = bfs_shortest(phi.compiled, s, t)
            assert res.outcome is ref.outcome
            if ref.outcome is Outcome.PATH:
                assert res.length == ref.length == hamming(s, t)
            checked += 1

    def test_matches_rescan_walk(self):
        binary = [Relation(2, frozenset(ts)) for ts in
                  ({1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}, {1, 2}, {0, 3}, {0, 1}, {3})]
        # every componentwise bijunctive relation of arity <= 3, plus
        # products of two binary relations: (a, b, c, d) with (a, b) in R, (c, d) in S
        pool = cwb_population() + [
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
            res = shortest_path_cwb(phi.compiled, s, t)
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
            res = shortest_path_cwb(phi.compiled, 0, t)
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
            ref = bfs_shortest(dphi.compiled, ds, dt)
            assert res.outcome is ref.outcome
            if ref.outcome is Outcome.PATH:
                assert res.length == ref.length
                assert apply_sequence(dphi.compiled, ds, res.flips) == dt

    @given(formula_strategy())
    @settings(max_examples=200, deadline=None)
    def test_complemented_equals_compiling_the_dual(self, phi):
        assert phi.compiled.complemented() == _compile(dualize(phi, 0, 0)[0])

    def test_solve_builds_no_dual_formula(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve built the dual formula")

        monkeypatch.setattr(navigate, "dualize", refuse)
        outcomes = []
        for phi, s, t in navigable_corpus(200, seed=88):
            dphi, ds, dt = dualize(phi, s, t)
            if dphi.route.classification.kind is not NavigableKind.OR_AND_HORN_FREE:
                continue
            res = solve(dphi, ds, dt)
            primal = shortest_path_navigable(dualize(dphi, ds, dt)[0].compiled, s, t)
            want = None if primal.flips is None else tuple(
                Flip(f.var, not f.up) for f in primal.flips)
            assert res.flips == want
            outcomes.append(res.outcome)
        assert outcomes.count(Outcome.PATH) >= 10
        assert Outcome.NOT_CONNECTED in outcomes

    def test_dualize_range_checks_endpoints(self):
        with pytest.raises(PreconditionError, match="out of range for 3 variables"):
            dualize(PATH_PHI, 0, 1 << 3)


class TestEffectiveRelations:
    """The solvers check the relations the clauses use: a declared relation
    that no clause uses, or a clause its constants make full, is fine."""

    NAVIGABLE = {
        "unused": Formula(3, (("path5", PATH5), ("nand", NAND)),
                          (Clause("path5", (1, 2, 3)),)),
        "full": Formula(3, (("path5", PATH5), ("nand", NAND)),
                        (Clause("path5", (1, 2, 3)), Clause("nand", (2, CONST0)))),
    }
    CWB = {
        "unused": Formula(3, (("or2", OR2), ("path5", PATH5)),
                          (Clause("or2", (1, 3)),)),
        "full": Formula(3, (("or2", OR2), ("path5", PATH5)),
                        (Clause("or2", (1, 3)), Clause("path5", (CONST0, CONST0, 2)))),
    }

    @staticmethod
    def matches_oracle(solver, phi):
        sat = [a for a in range(1 << phi.num_vars) if evaluate(phi, a)]
        assert len(sat) >= 4
        for s in sat:
            for t in sat:
                res = solver(phi.compiled, s, t)
                ref = bfs_shortest(phi.compiled, s, t)
                assert res.outcome is ref.outcome
                assert res.length == ref.length

    @pytest.mark.parametrize("case", ["unused", "full"])
    def test_navigable_solver(self, case):
        self.matches_oracle(shortest_path_navigable, self.NAVIGABLE[case])

    @pytest.mark.parametrize("case", ["unused", "full"])
    def test_cwb_solver(self, case):
        self.matches_oracle(shortest_path_cwb, self.CWB[case])

    def test_out_of_class_clause_is_named(self):
        phi = Formula(3, (("path5", PATH5), ("nand", NAND)),
                      (Clause("path5", (1, 2, 3)), Clause("nand", (1, 2))))
        with pytest.raises(PreconditionError) as err:
            shortest_path_navigable(phi.compiled, 0b000, 0b001)
        assert str(err.value) == (
            "the relation of clause 2 is not NAND-free and dual-Horn-free"
        )
        phi = Formula(3, (("or2", OR2), ("path5", PATH5)),
                      (Clause("or2", (1, 3)), Clause("path5", (1, 2, 3))))
        with pytest.raises(PreconditionError) as err:
            shortest_path_cwb(phi.compiled, 0b001, 0b101)
        assert str(err.value) == "the relation of clause 2 is not componentwise bijunctive"


class TestSolveDispatch:
    def test_navigable_instance(self):
        res = solve(PATH_PHI, 0b000, 0b110)
        assert res.outcome is Outcome.PATH and res.length == 4
        assert PATH_PHI.route.classification.kind is NavigableKind.NAND_AND_DUAL_HORN_FREE
        assert res.classification is None

    def test_stats_of_a_path5_solve(self):
        # the counts the benchmark's tracer reads: two levels, four walks
        res = solve(PATH_PHI, 0b000, 0b110)
        assert res.stats == SolveStats(levels=2, lower_sets=(((3, 1, 2), ()), ((), (3,))))
        assert res.stats.dag_builds == 4

    def test_hard_with_oracle(self):
        k3 = SimpleGraph(3, ((1, 2), (1, 3), (2, 3)))
        phi, s, t = gen_vertex_cover_instance(k3)
        res = solve(phi, s, t)
        assert res.outcome is Outcome.HARD
        assert res.classification.verdict is Verdict.TIGHT_NOT_NAVIGABLE
        assert res.protocol_line() == "HARD TIGHT_NOT_NAVIGABLE"
        assert bfs_shortest(phi.compiled, s, t).outcome is Outcome.PATH

    def test_hard_without_oracle(self):
        rels = tuple(
            (f"r{i}", Relation(3, frozenset(range(8)) - {bad}))
            for i, bad in enumerate((0b000, 0b100, 0b110, 0b111))
        )
        phi = Formula(3, rels, (Clause("r0", (1, 2, 3)),))
        res = solve(phi, 0b111, 0b011)
        assert res.outcome is Outcome.HARD
        assert res.classification.verdict is Verdict.NOT_TIGHT

    def test_no_relations_is_free_cube(self):
        phi = Formula(4, (), ())
        res = solve(phi, 0b0101, 0b1010)
        assert res.outcome is Outcome.PATH and res.length == 4
        assert phi.route.classification.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE
        assert res.classification is None

    def test_cwb_dispatch(self):
        phi = Formula(2, (("or2", OR2),), (Clause("or2", (1, 2)),))
        res = solve(phi, 0b01, 0b10)
        assert phi.route.classification.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE
        assert res.length == 2

    def test_classify_formula_matches_relations(self):
        cls = classify_formula(PATH_PHI)
        assert cls.verdict is Verdict.NAVIGABLE
        assert len(cls.per_relation) == 1


# One instance per route of `solve`, each with clause 1 false at 0b010.
BAD_SOURCE_ROUTES = {
    "cwb": (
        Formula(3, (("or2", OR2),), (Clause("or2", (1, 3)),)),
        NavigableKind.COMPONENTWISE_BIJUNCTIVE,
    ),
    "navigable": (PATH_PHI, NavigableKind.NAND_AND_DUAL_HORN_FREE),
    "dualized": (
        Formula(3, (("p", PATH5.complemented()),), (Clause("p", (2, 1, 3)),)),
        NavigableKind.OR_AND_HORN_FREE,
    ),
    "hard": (
        Formula(
            3,
            tuple((f"r{i}", Relation(3, frozenset(range(8)) - {bad}))
                  for i, bad in enumerate((0b010, 0b100, 0b110, 0b111))),
            (Clause("r0", (1, 2, 3)),),
        ),
        None,
    ),
}


class TestEndpointErrors:
    @pytest.mark.parametrize("route", sorted(BAD_SOURCE_ROUTES))
    def test_same_message_on_every_route(self, route):
        phi, kind = BAD_SOURCE_ROUTES[route]
        assert classify_formula(phi).kind is kind
        t = 0b111 if route != "dualized" else 0b000
        assert evaluate(phi, t)
        with pytest.raises(PreconditionError) as err:
            solve(phi, 0b010, t)
        assert str(err.value) == "source assignment does not satisfy clause 1"
        with pytest.raises(PreconditionError) as err:
            solve(phi, t, 0b010)
        assert str(err.value) == "target assignment does not satisfy clause 1"
        with pytest.raises(PreconditionError) as err:
            solve(phi, 1 << 3, t)
        assert str(err.value) == "assignment 8 out of range for 3 variables"


PATH5_COMPLEMENT = Formula(3, (("p5c", PATH5.complemented()),), (Clause("p5c", (1, 2, 3)),))


class TestRoute:
    def test_primal_routes(self):
        for name in ("cwb", "navigable", "hard"):
            phi, _ = BAD_SOURCE_ROUTES[name]
            route = phi.route
            assert route.classification == classify_formula(phi)
            assert route.compiled is phi.compiled and route.mask == 0

    def test_complement_route(self):
        route = PATH5_COMPLEMENT.route
        assert route.classification.kind is NavigableKind.OR_AND_HORN_FREE
        assert route.compiled == PATH5_COMPLEMENT.compiled.complemented()
        assert route.mask == 0b111

    def test_cached_on_the_formula(self):
        assert PATH5_COMPLEMENT.route is PATH5_COMPLEMENT.route

    def test_classified_and_complemented_once(self, monkeypatch):
        calls = {"classify": 0, "complemented": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            navigate, "classify_formula", counting("classify", navigate.classify_formula)
        )
        monkeypatch.setattr(
            CompiledFormula, "complemented",
            counting("complemented", CompiledFormula.complemented),
        )
        phi = Formula(3, (("p5c", PATH5.complemented()),), (Clause("p5c", (1, 2, 3)),))
        for _ in range(3):
            assert solve(phi, 0b111, 0b001).protocol_line() == "PATH 4 x3- x1- x2- x3+"
        assert calls == {"classify": 1, "complemented": 1}

    @pytest.mark.parametrize("relation, s, t", [
        (PATH5, 0b000, 0b110),
        (PATH5.complemented(), 0b111, 0b001),
    ])
    def test_answer_replayed_on_the_formula(self, relation, s, t):
        # A route whose compiled form lost the formula's one clause: the
        # solver answers the empty formula, and only a replay on the
        # formula itself can see that the answer falsifies the clause.
        phi = Formula(3, (("p", relation),), (Clause("p", (1, 2, 3)),))
        route = phi.route
        empty = route.compiled._replace(
            variables=(), accept=(), occurrences=((),) * 4, distinct=(),
            columns=(),
        )
        phi.__dict__["route"] = navigate.Route(route.classification, empty, route.mask)
        with pytest.raises(TheoryError, match="order-based answer fails its replay"):
            solve(phi, s, t)

    def test_stats_in_the_routes_terms(self):
        # the solver ran on the complement image, from 000 to 110: the
        # variables it raised there, which the formula's path lowers
        res = solve(PATH5_COMPLEMENT, 0b111, 0b001)
        assert res.protocol_line() == "PATH 4 x3- x1- x2- x3+"
        assert res.stats == SolveStats(2, (((3, 1, 2), ()), ((), (3,))))

    def test_complement_route_builds_its_flips_in_the_formulas_signs(self):
        # every answer flip is a Flip that replays on the formula, and
        # `lower_sets` holds the variables the complemented form raised
        # from the complemented endpoints; the signs themselves are
        # checked by TestLowerSets
        outcomes = Counter()
        for phi, s, t in (dualize(*instance) for instance in lower_set_corpus()):
            route = phi.route
            if route.classification.kind is not NavigableKind.OR_AND_HORN_FREE:
                continue
            res = solve(phi, s, t)
            outcomes[res.outcome] += 1
            if res.flips is None:
                continue
            assert all(type(f) is Flip for f in res.flips)
            cur_s, cur_t = s ^ route.mask, t ^ route.mask
            for vars_s, vars_t in res.stats.lower_sets:
                cur_s = apply_sequence(route.compiled, cur_s, raises(vars_s))
                cur_t = apply_sequence(route.compiled, cur_t, raises(vars_t))
            assert cur_s == cur_t
            assert apply_sequence(phi.compiled, s, res.flips) == t
        assert outcomes[Outcome.PATH] >= 20


def cwb_population():
    """The 228 componentwise bijunctive relations of arity <= 3."""
    return [rel for rel, kind in navigable_population()
            if kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE]


def two_cnf_draw(rng):
    return two_cnf_relation(rng.randint(1, 3), rng, rng.randint(1, 3))


# Relations that put a formula on each route of `solve`; a drawn set may
# still classify elsewhere, and `routed_corpus` keeps only its own route's.
ROUTE_RELATIONS = {
    NavigableKind.COMPONENTWISE_BIJUNCTIVE: lambda rng: rng.choice(cwb_population()),
    NavigableKind.NAND_AND_DUAL_HORN_FREE:
        lambda rng: random_navigable_relation(rng.randint(1, 4), rng.randrange(2**32)),
    NavigableKind.OR_AND_HORN_FREE:
        lambda rng: random_navigable_relation(
            rng.randint(1, 4), rng.randrange(2**32)).complemented(),
    None: lambda rng: random_relation(rng.randint(2, 3), rng),
}


def routed_corpus(kind, count, seed, draw=None):
    """Seeded instances, n <= 12, whose clauses mix repeated variables
    with constants, all on the route of `kind` (None: the HARD route).
    `draw` replaces the route's entry of ROUTE_RELATIONS."""
    rng = random.Random(seed)
    draw = draw or ROUTE_RELATIONS[kind]
    out = []
    for _ in range(count * 20):
        relations = [draw(rng) for _ in range(rng.randint(1, 3))]
        drawn = formula_with_constants(
            relations, rng.randint(1, 12), rng.randint(0, 10), rng
        )
        if drawn is not None and drawn[0].route.classification.kind is kind:
            out.append(drawn)
            if len(out) == count:
                return out
    raise AssertionError(f"too few instances on the {kind} route")


class TestRoutesAgainstExactSearch:
    @pytest.mark.parametrize("kind", list(ROUTE_RELATIONS), ids=[
        "cwb", "nand-free-dual-horn-free", "complement", "hard-oracle"])
    def test_outcome_length_and_replay(self, kind):
        connected = 0
        for phi, s, t in routed_corpus(kind, 40, seed=1201):
            res = solve(phi, s, t)
            ref = bfs_shortest(phi.compiled, s, t, cap=12)
            if kind is None:
                assert res.outcome is Outcome.HARD
                assert res.classification.verdict is not Verdict.NAVIGABLE
                res = ref
            else:
                assert res.outcome is ref.outcome
            assert res.length == ref.length
            if ref.outcome is Outcome.PATH:
                assert apply_sequence(phi.compiled, s, res.flips) == t
                connected += res.length > 0
        assert connected >= 10

    def test_every_navigable_relation_of_arity_at_most_3(self):
        # ROADMAP item 16: each relation alone, on instances whose
        # clauses mix constants and repeats, so the effective relations
        # vary too
        rng = random.Random(1801)
        seen = Counter()
        non_bijunctive = set()
        assert len(navigable_population()) == 260
        for rel, kind in navigable_population():
            answered = 0
            for _ in range(60):
                drawn = formula_with_constants([rel], rng.randint(1, 12), rng.randint(0, 10), rng)
                if drawn is None:
                    continue
                phi, s, t = drawn
                assert phi.route.classification.kind is kind
                res = solve(phi, s, t)
                ref = bfs_shortest(phi.compiled, s, t, cap=12)
                assert (res.outcome, res.length) == (ref.outcome, ref.length)
                if res.flips is not None:
                    assert apply_sequence(phi.compiled, s, res.flips) == t
                seen[kind, res.outcome] += 1
                if kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE and not is_bijunctive(rel):
                    non_bijunctive.add(rel)
                answered += 1
                if answered == 6:
                    break
            assert answered, rel
        assert len(non_bijunctive) == 42  # on the greedy walk
        assert set(seen) == {(kind, outcome) for kind in NavigableKind
                             for outcome in (Outcome.PATH, Outcome.NOT_CONNECTED)}, seen

    def test_sampled_componentwise_bijunctive_relations_of_arity_4(self):
        # ROADMAP item 16: 60 of the 16,998 of arity 4, drawn by rejection
        # from all 65,536; 12,828 of the 16,998 are not bijunctive
        rng = random.Random(1901)
        sample = set()
        while len(sample) < 60:
            mask = rng.getrandbits(16)
            rel = Relation(4, frozenset(t for t in range(16) if mask >> t & 1))
            if is_componentwise_bijunctive(rel):
                sample.add(rel)
        sample = sorted(sample, key=lambda rel: rel.table)
        assert sum(not is_bijunctive(rel) for rel in sample) >= 30
        outcomes = Counter()
        for rel in sample:
            answered = 0
            for _ in range(40):
                drawn = formula_with_constants([rel], rng.randint(1, 12), rng.randint(0, 10), rng)
                if drawn is None:
                    continue
                phi, s, t = drawn
                assert phi.route.classification.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE
                res = solve(phi, s, t)
                ref = bfs_shortest(phi.compiled, s, t, cap=12)
                assert (res.outcome, res.length) == (ref.outcome, ref.length)
                assert res.flips == rescan_cwb_walk(phi, s, t)
                if res.flips is not None:
                    assert apply_sequence(phi.compiled, s, res.flips) == t
                outcomes[res.outcome] += 1
                answered += 1
                if answered == 6:
                    break
            assert answered, rel
        assert min(outcomes[Outcome.PATH], outcomes[Outcome.NOT_CONNECTED]) >= 20, outcomes

    def test_complement_dag_lowering_sequences_replay(self):
        checked = 0
        for phi, s, _ in routed_corpus(NavigableKind.OR_AND_HORN_FREE, 200, seed=1202):
            route = phi.route
            dag = formula_flip_dag(route.compiled, s ^ route.mask)
            if len(dag.nodes) > 6:
                continue  # every sequence is enumerated
            for seq in order_obeying_sequences(dag.nodes, closure(dag)):
                lowering = [Flip(v, False) for v in seq]
                assert apply_sequence(phi.compiled, s, lowering) == s ^ sum(
                    1 << (phi.num_vars - v) for v in seq
                )
            checked += bool(dag.edges)
        assert checked >= 8


class TestSolveReturnsTheSolversAnswer:
    """`solve` returns the answer of the solver its route picks, with
    only the flips' signs swapped back on the complement route; only a
    HARD answer carries a classification."""

    def test_cwb_route(self):
        for phi, s, t in routed_corpus(NavigableKind.COMPONENTWISE_BIJUNCTIVE, 40, seed=2901):
            assert solve(phi, s, t) == shortest_path_cwb(phi.compiled, s, t)

    def test_primal_order_route(self):
        for phi, s, t in routed_corpus(NavigableKind.NAND_AND_DUAL_HORN_FREE, 40, seed=2902):
            assert solve(phi, s, t) == shortest_path_navigable(phi.compiled, s, t)

    def test_complement_route(self):
        # the dual halves of the lower-set corpus, some of two levels
        outcomes = Counter()
        for phi, s, t in (dualize(*instance) for instance in lower_set_corpus()):
            route = phi.route
            if route.classification.kind is not NavigableKind.OR_AND_HORN_FREE:
                continue
            want = shortest_path_navigable(route.compiled, s ^ route.mask, t ^ route.mask)
            if want.flips is not None:
                want = want._replace(flips=swap_signs(want.flips))
            assert solve(phi, s, t) == want
            outcomes[want.outcome, want.stats.levels] += 1
        assert outcomes[Outcome.PATH, 2] >= 20
        assert outcomes[Outcome.NOT_CONNECTED, 1] >= 5

    def test_only_a_hard_answer_is_classified(self):
        answers = []
        for phi, s, t in navigable_corpus(150, seed=2904):
            answers += [solve(phi, s, t), solve(*dualize(phi, s, t))]
        for path in sorted(DATA.glob("*.graph")):
            graph = parse_graph(path.read_text())
            for reduction in (gen_vertex_cover_instance, gen_independent_set_instance):
                phi, s, t = reduction(graph)
                answers += [solve(phi, s, t), bfs_shortest(phi.compiled, s, t)]
        for phi, s, t in routed_corpus(None, 20, seed=2905):
            answers.append(bfs_shortest(phi.compiled, s, t, cap=12))
        for res in answers:
            assert (res.classification is not None) is (res.outcome is Outcome.HARD)
        assert {res.outcome for res in answers} == set(Outcome)


class TestProtocolLines:
    def test_path(self):
        assert solve(PATH_PHI, 0, 0b110).protocol_line() == "PATH 4 x3+ x1+ x2+ x3-"

    def test_empty_path(self):
        assert solve(PATH_PHI, 0, 0).protocol_line() == "PATH 0"

    def test_not_connected(self):
        assert solve(EQ_PHI, 0b00, 0b11).protocol_line() == "NOTCONNECTED"


def windows(rel, n, stride=2):
    """An arity-3 relation on every window (x_i, x_i+1, x_i+2) with
    i = 1, 1 + stride, ...: odd i by default."""
    clauses = tuple(Clause("w", (i, i + 1, i + 2)) for i in range(1, n - 1, stride))
    return Formula(n, (("w", rel),), clauses)


# (x1 or x2) and (x2 -> x3): bijunctive, so its windows take the greedy walk
OR_IMP = Relation.from_bitstrings(["100", "101", "011", "111"])


def tie_break_corpus(seed):
    """Seeded instances on the three navigable routes: windows of PATH5,
    of its complement and of OR_IMP at n = 7, 11 and 15, three endpoint
    pairs each, then six draws of `routed_corpus` per route. The
    componentwise bijunctive draws take the 2-CNF relations that the
    pinned lines were recorded with."""
    rng = random.Random(seed)
    out = []
    for rel in (PATH5, PATH5.complemented(), OR_IMP):
        for n in (7, 11, 15):
            phi = windows(rel, n)
            sats = members(solution_table(phi.compiled))
            out += [(phi, rng.choice(sats), rng.choice(sats)) for _ in range(3)]
    out += routed_corpus(NavigableKind.NAND_AND_DUAL_HORN_FREE, 6, seed)
    out += routed_corpus(NavigableKind.OR_AND_HORN_FREE, 6, seed)
    out += routed_corpus(NavigableKind.COMPONENTWISE_BIJUNCTIVE, 6, seed, two_cnf_draw)
    return out


# Recorded before the flip-state and walk speed-ups; a change here is a
# change of the documented tie-breaks, not of speed.
PINNED_LINES = (
    "PATH 4 x6+ x7- x4- x3-",
    "PATH 1 x7+",
    "PATH 2 x1+ x7+",
    "PATH 3 x11- x8- x3-",
    "PATH 3 x1+ x5+ x8+",
    "PATH 3 x1+ x2+ x4+",
    "PATH 9 x1+ x2+ x15+ x13+ x11+ x12+ x13- x6- x4-",
    "PATH 8 x7+ x5+ x6+ x8+ x14- x11- x4- x1-",
    "PATH 7 x3+ x1+ x2+ x6+ x10+ x11- x8-",
    "PATH 4 x3- x4- x6- x2+",
    "PATH 5 x5- x3- x4- x6- x2+",
    "PATH 4 x5- x3- x4- x2+",
    "PATH 8 x5- x3- x4- x6- x8+ x7+ x2+ x1+",
    "PATH 6 x7- x5- x6- x7+ x4+ x3+",
    "PATH 5 x3- x9+ x11+ x2+ x1+",
    "PATH 12 x7- x5- x3- x1- x2- x6- x8- x10- x15- x13- x14- x15+",
    "PATH 9 x4- x7- x8- x15- x14+ x9+ x11+ x13+ x15+",
    "PATH 9 x4- x6- x13- x11- x14- x15+ x7+ x2+ x1+",
    "PATH 2 x3+ x4-",
    "PATH 1 x6-",
    "PATH 3 x1+ x6- x7-",
    "PATH 4 x5+ x6- x8+ x10+",
    "PATH 4 x3+ x4- x6+ x9-",
    "PATH 4 x3- x8+ x7- x10+",
    "PATH 4 x1+ x5+ x8+ x15+",
    "PATH 5 x8+ x7- x13+ x12+ x14-",
    "PATH 8 x2+ x1- x4- x6+ x5- x10+ x9- x13+",
    "PATH 2 x1+ x5+",
    "PATH 1 x5-",
    "PATH 4 x1+ x2+ x4+ x3-",
    "PATH 3 x6+ x7+ x1-",
    "NOTCONNECTED",
    "PATH 0",
    "PATH 2 x4+ x1+",
    "PATH 1 x2-",
    "PATH 4 x3- x6- x10- x1+",
    "PATH 5 x5- x6+ x4+ x3+ x2+",
    "PATH 1 x2+",
    "PATH 0",
    "PATH 5 x1- x3+ x8+ x9- x10-",
    "PATH 1 x2-",
    "PATH 0",
    "PATH 2 x1- x2-",
    "PATH 4 x1- x4+ x8- x11-",
    "PATH 0",
)


class TestPinnedTieBreaks:
    def test_protocol_lines(self):
        corpus = tie_break_corpus(1701)
        kinds = [phi.route.classification.kind for phi, _, _ in corpus]
        assert {k.name for k in kinds} == {
            "NAND_AND_DUAL_HORN_FREE", "OR_AND_HORN_FREE", "COMPONENTWISE_BIJUNCTIVE"}
        got = tuple(solve(phi, s, t).protocol_line() for phi, s, t in corpus)
        assert got == PINNED_LINES


def gadgets(n):
    """Disjoint PATH5 gadgets on (x_3i+1, x_3i+2, x_3i+3)."""
    clauses = tuple(Clause("p", (i, i + 1, i + 2)) for i in range(1, n, 3))
    return Formula(n, (("p", PATH5),), clauses)


def implication_chain(n):
    """x_v -> x_v+1 for v < n: its solutions are 0^j 1^(n - j)."""
    return Formula(n, (("imp", IMP),), tuple(Clause("imp", (v + 1, v)) for v in range(1, n)))


def walk_from(phi, start, steps, rng):
    """A seeded walk of checked single flips from a satisfying start:
    each step proposes a random variable, and `advance` keeps its flip
    when the state stays satisfying."""
    state = FlipState(phi.compiled, start)
    for _ in range(steps):
        v = rng.randrange(1, phi.num_vars + 1)
        try:
            advance(state, [(v, not state.values[v])])
        except FlipSequenceError:
            pass
    return state.assignment


def digest_corpus(seed):
    """Seeded instances up to n = 601 on both order-based routes and the
    greedy one: PATH5 gadget chains with per-gadget tuples as endpoints;
    stride-1 windows between the solutions 0^n, 0^(n-1)1, 1^n, 1^(n-1)0
    and 1^(n-2)01, which lie in several components; stride-2 windows
    with endpoints walked from 0^n or 1^n; each of these also
    complemented through `dualize`; and implication chains between two
    of their solutions."""
    rng = random.Random(seed)
    tuples = sorted(PATH5.tuples)
    out = []
    for n in (30, 300, 600):
        phi = gadgets(n)
        for _ in range(3):
            s, t = (sum(rng.choice(tuples) << (n - i - 2) for i in range(1, n, 3))
                    for _ in range(2))
            out += [(phi, s, t), dualize(phi, s, t)]
    for n in (31, 301, 601):
        phi = windows(PATH5, n, 1)
        full = (1 << n) - 1
        sols = [0, 1, full, full - 1, full - 2]
        for _ in range(4):
            s, t = rng.choice(sols), rng.choice(sols)
            out += [(phi, s, t), dualize(phi, s, t)]
    for n in (31, 301, 601):
        phi = windows(PATH5, n)
        full = (1 << n) - 1
        for _ in range(3):
            s = walk_from(phi, rng.choice((0, full)), 4 * n, rng)
            t = walk_from(phi, rng.choice((0, full, s)), 4 * n, rng)
            out += [(phi, s, t), dualize(phi, s, t)]
    for n in (40, 200, 600):
        phi = implication_chain(n)
        for _ in range(3):
            i, j = rng.randrange(n + 1), rng.randrange(n + 1)
            out.append((phi, (1 << (n - i)) - 1, (1 << (n - j)) - 1))
    return out


def answer_text(result) -> str:
    """The protocol line, then the stats: the level count and each
    level's raised variables, spelled as raises by `Flip.token`."""
    lines = [result.protocol_line(), f"levels {result.stats.levels}"]
    for level in result.stats.lower_sets:
        lines.append(" / ".join(" ".join(f.token() for f in raises(vs)) for vs in level))
    return "\n".join(lines) + "\n"


# sha256 of every `answer_text` of `digest_corpus(3301)`, in order,
# recorded before the solver assembled its paths in the route's signs;
# a change here moves a flip, a sign or a tie-break of some answer.
ANSWER_DIGEST = "524bf783b5493417baae3bc4b0265f3e602d022aef9f569b874769060c16ea63"


class TestAnswerDigest:
    def test_answers_match_the_recorded_digest(self):
        corpus = digest_corpus(3301)
        digest = hashlib.sha256()
        outcomes = Counter()
        for phi, s, t in corpus:
            result = solve(phi, s, t)
            digest.update(answer_text(result).encode())
            outcomes[phi.route.classification.kind.name, result.outcome.name] += 1
        assert outcomes[("NAND_AND_DUAL_HORN_FREE", "PATH")] >= 10
        assert outcomes[("OR_AND_HORN_FREE", "PATH")] >= 10
        assert outcomes[("NAND_AND_DUAL_HORN_FREE", "NOT_CONNECTED")] >= 2
        assert outcomes[("OR_AND_HORN_FREE", "NOT_CONNECTED")] >= 2
        assert outcomes[("COMPONENTWISE_BIJUNCTIVE", "PATH")] == 9
        assert digest.hexdigest() == ANSWER_DIGEST
