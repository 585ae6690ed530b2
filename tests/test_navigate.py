import random

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
    gen_vertex_cover_instance,
    is_componentwise_bijunctive,
    random_formula,
    random_navigable_relation,
)
from satflip.bits import hamming, zeros

from satflip import navigate
from satflip.flip_order import lower_set_sequence
from satflip.formula import _compile

from helpers import (
    closure,
    formula_strategy,
    formula_with_constants,
    navigable_corpus,
    order_obeying_sequences,
    rescan_cwb_walk,
    two_cnf_relation,
)

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

    def test_rejects_unsatisfying_endpoint(self):
        with pytest.raises(PreconditionError, match="clause 1"):
            shortest_path_navigable(PATH_PHI.compiled, 0b010, 0b110)

    @pytest.mark.parametrize("side, bad, message", [
        (0, Flip(2, True), "flip 1: prefix ending at x2\\+ falsifies"),  # 000 -> 010
        (1, Flip(1, True), "flip 1: x1\\+ raises a variable already 1"),  # t = 110
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
            assert (res.outcome is Outcome.PATH) == ref.connected
            if ref.connected:
                assert res.length == ref.length
                assert apply_sequence(phi.compiled, s, res.flips) == t
                assert res.length >= hamming(s, t)
                assert res.length % 2 == hamming(s, t) % 2
                assert res.stats.levels <= res.stats.eta_entry + 1

    def test_trace_levels_decrease_eta(self):
        seen = []
        shortest_path_navigable(
            PATH_PHI.compiled, 0b000, 0b110, trace=lambda **kw: seen.append(kw["eta"])
        )
        assert seen == sorted(seen, reverse=True)


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
            assert (res.outcome is Outcome.PATH) == ref.connected
            if ref.connected:
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
            res = solve(dphi, ds, dt)
            if res.classification.kind is not NavigableKind.OR_AND_HORN_FREE:
                continue
            primal = shortest_path_navigable(dualize(dphi, ds, dt)[0].compiled, s, t)
            want = None if primal.flips is None else tuple(f.inverse() for f in primal.flips)
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
                assert (res.outcome is Outcome.PATH) == ref.connected
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

    def test_trace_in_the_formulas_terms(self):
        seen = []
        solve(PATH5_COMPLEMENT, 0b111, 0b001, trace=lambda **kw: seen.append(kw))
        assert seen == [
            dict(level=1, s=0b111, t=0b001, eta=4, lower_t=(),
                 lower_s=(Flip(3, False), Flip(1, False), Flip(2, False))),
            dict(level=2, s=0b000, t=0b001, eta=1, lower_s=(),
                 lower_t=(Flip(3, False),)),
        ]


def _random_relation(rng):
    arity = rng.randint(2, 3)
    return Relation(arity, frozenset(
        rng.sample(range(1 << arity), rng.randint(1, 1 << arity))
    ))


# Relations that put a formula on each route of `solve`; a drawn set may
# still classify elsewhere, and `routed_corpus` keeps only its own route's.
ROUTE_RELATIONS = {
    NavigableKind.COMPONENTWISE_BIJUNCTIVE:
        lambda rng: two_cnf_relation(rng.randint(1, 3), rng, rng.randint(1, 3)),
    NavigableKind.NAND_AND_DUAL_HORN_FREE:
        lambda rng: random_navigable_relation(rng.randint(1, 4), rng.randrange(2**32)),
    NavigableKind.OR_AND_HORN_FREE:
        lambda rng: random_navigable_relation(
            rng.randint(1, 4), rng.randrange(2**32)).complemented(),
    None: _random_relation,
}


def routed_corpus(kind, count, seed):
    """Seeded instances, n <= 12, whose clauses mix repeated variables
    with constants, all on the route of `kind` (None: the HARD route)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count * 20):
        relations = [ROUTE_RELATIONS[kind](rng) for _ in range(rng.randint(1, 3))]
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
            res = solve(phi, s, t, allow_oracle=True, cap=12)
            ref = bfs_shortest(phi.compiled, s, t, cap=12)
            if kind is None:
                assert res.outcome is Outcome.HARD
                res = res.oracle
            else:
                assert (res.outcome is Outcome.PATH) == ref.connected
            assert res.length == ref.length
            if ref.connected:
                assert apply_sequence(phi.compiled, s, res.flips) == t
                connected += res.length > 0
        assert connected >= 10

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


class TestProtocolLines:
    def test_path(self):
        assert solve(PATH_PHI, 0, 0b110).protocol_line() == "PATH 4 x3+ x1+ x2+ x3-"

    def test_empty_path(self):
        assert solve(PATH_PHI, 0, 0).protocol_line() == "PATH 0"

    def test_not_connected(self):
        assert solve(EQ_PHI, 0b00, 0b11).protocol_line() == "NOTCONNECTED"
