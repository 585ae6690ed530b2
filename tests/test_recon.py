import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from satflip import (
    CONST0,
    MAX_STATE_CAP,
    Clause,
    Formula,
    Outcome,
    PreconditionError,
    Relation,
    SimpleGraph,
    apply_sequence,
    bfs_shortest,
    build_graph,
    evaluate,
    gen_independent_set_instance,
    gen_vertex_cover_instance,
    sat_mask,
    solution_table,
)
from satflip.bits import hamming
from satflip import recon
from satflip.recon import graph_size, graph_to_dot, members

from helpers import (
    components,
    dict_bfs_line,
    dict_graph,
    formula_strategy,
    naive_evaluate,
    naive_solutions,
    navigable_corpus,
)

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))
IMP = Relation.from_bitstrings(["00", "10", "11"])
EQ_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), Clause("imp", (2, 1))))


class TestSatMask:
    @pytest.fixture(autouse=True)
    def numpy(self):
        # numpy is an optional extra, and sat_mask is its only user
        pytest.importorskip("numpy")

    def test_matches_evaluate(self):
        for phi, _, _ in navigable_corpus(20, seed=3, max_vars=8, max_clauses=5):
            mask = sat_mask(phi.compiled)
            for a in range(1 << phi.num_vars):
                assert mask[a] == evaluate(phi, a)

    def test_constant_clause_false(self):
        phi = Formula(
            1,
            (("one", Relation(1, frozenset({1}))),),
            (Clause("one", (CONST0,)),),
        )
        assert not sat_mask(phi.compiled).any()


class TestSolutionTable:
    @settings(max_examples=200, deadline=None)
    @given(formula_strategy())
    def test_bits_are_the_satisfying_assignments(self, phi):
        table = solution_table(phi.compiled)
        assert table >> (1 << phi.num_vars) == 0
        assert members(table) == naive_solutions(phi)

    def test_corpus(self):
        for phi, _, _ in navigable_corpus(20, seed=5, max_vars=12, max_clauses=8):
            assert members(solution_table(phi.compiled)) == naive_solutions(phi)

    def test_false_clause_empties_the_table(self):
        phi = Formula(
            3,
            (("one", Relation(1, frozenset({1}))),),
            (Clause("one", (1,)), Clause("one", (CONST0,)), Clause("one", (2,))),
        )
        assert solution_table(phi.compiled) == 0

    def test_members(self):
        rng = random.Random(4)
        for bits in (0, 1, 7, 8, 9, 64, 1000):
            x = rng.getrandbits(bits) if bits else 0
            assert members(x) == [i for i in range(bits) if x >> i & 1]


def small_gadgets():
    """Vertex-cover and independent-set instances with at most 12
    variables, on every graph of at most 4 vertices and 4 edges."""
    for nv in range(1, 5):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for r in range(min(len(pairs), 4) + 1):
            for chosen in itertools.combinations(pairs, r):
                if nv + 2 * r <= 12:
                    graph = SimpleGraph(nv, chosen)
                    yield gen_vertex_cover_instance(graph)
                    yield gen_independent_set_instance(graph)


class TestAgainstDictSearch:
    """The block search gives the same protocol lines and graphs as a
    plain dict BFS over naively evaluated assignments, and its blocks join
    into the solution table, with blocks as large as the table and with
    blocks of 8 assignments."""

    @pytest.fixture(autouse=True, params=[recon.BLOCK_BITS, 3], ids=["one-block", "8-per-block"])
    def block_bits(self, request, monkeypatch):
        monkeypatch.setattr(recon, "BLOCK_BITS", request.param)

    def test_navigable_corpus(self):
        for phi, s, t in navigable_corpus(60, seed=31, max_vars=12, max_clauses=8):
            for a, b in ((s, t), (t, s)):
                assert bfs_shortest(phi.compiled, a, b).protocol_line() == (
                    dict_bfs_line(phi, a, b)
                )

    def test_gadgets(self):
        count = 0
        for phi, s, t in small_gadgets():
            count += 1
            assert bfs_shortest(phi.compiled, s, t).protocol_line() == (
                dict_bfs_line(phi, s, t)
            )
        assert count > 50

    def test_random_pairs_including_not_connected(self):
        rng = random.Random(12)
        lines = []
        instances = [phi for phi, _, _ in navigable_corpus(40, seed=13, max_vars=12)]
        instances += [phi for phi, _, _ in small_gadgets()][::7]
        for phi in instances:
            sats = naive_solutions(phi)
            for _ in range(3):
                s, t = rng.choice(sats), rng.choice(sats)
                line = bfs_shortest(phi.compiled, s, t).protocol_line()
                assert line == dict_bfs_line(phi, s, t)
                lines.append(line)
        assert sum(line == "NOTCONNECTED" for line in lines) >= 10
        assert sum(line.startswith("PATH") for line in lines) >= 100

    def test_graph_matches_dict_graph(self):
        instances = [phi for phi, _, _ in navigable_corpus(30, seed=17, max_vars=10)]
        instances += [phi for phi, _, _ in small_gadgets()][::9]
        for phi in instances:
            g = build_graph(phi.compiled)
            assert (g.states, g.edges) == dict_graph(phi)
            assert graph_size(phi.compiled) == (len(g.states), len(g.edges))

    def test_solution_table_joins_the_blocks(self):
        instances = [phi for phi, _, _ in navigable_corpus(30, seed=5, max_vars=12)]
        instances += [phi for phi, _, _ in small_gadgets()][::9]
        for phi in instances:
            c = phi.compiled
            n = c.num_vars
            blocks = recon.clause_blocks(n, zip(c.variables, c.accept))
            bits = min(n, recon.BLOCK_BITS)
            assert len(blocks) == 1 << (n - bits)
            assert all(b >> (1 << bits) == 0 for b in blocks)
            joined = sum(b << (i << bits) for i, b in enumerate(blocks))
            assert solution_table(c) == joined
            assert members(joined) == naive_solutions(phi)

    def test_clauses_read_until_every_block_is_empty(self):
        # x1 = 0, then x6 = 1, then x1 = 1: the third clause empties every
        # block, whether x1 is a bit of the block number or of the block
        reads = []

        def clauses():
            for variables, accept in [((1,), 0b01), ((6,), 0b10), ((1,), 0b10),
                                      ((2,), 0b01)]:
                reads.append(variables)
                yield variables, accept

        assert recon.clause_blocks(6, clauses()) == [0] * (1 << (6 - min(6, recon.BLOCK_BITS)))
        assert reads == [(1,), (6,), (1,)]


class TestBuildGraph:
    def test_path_relation_is_a_path(self):
        g = build_graph(PATH_PHI.compiled)
        assert len(g.states) == 5
        assert len(g.edges) == 4
        degree = {}
        for u, v in g.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert sorted(degree.values()) == [1, 1, 2, 2, 2]

    def test_free_square(self):
        g = build_graph(Formula(2, (), ()).compiled)
        assert g.states == (0, 1, 2, 3)
        assert len(g.edges) == 4

    def test_equality_formula_no_edges(self):
        g = build_graph(EQ_PHI.compiled)
        assert g.states == (0b00, 0b11)
        assert g.edges == ()

    def test_cap_error_names_cap(self):
        phi = Formula(6, (), ())
        with pytest.raises(PreconditionError, match="cap 5"):
            build_graph(phi.compiled, cap=5)
        with pytest.raises(PreconditionError, match="cap 5"):
            graph_size(phi.compiled, cap=5)


class TestGraphBudget:
    def test_refused_before_building(self, monkeypatch):
        def refuse(table):
            raise AssertionError("members ran for a refused graph")

        monkeypatch.setattr(recon, "members", refuse)
        free = Formula(18, (), ()).compiled
        with pytest.raises(PreconditionError, match="262144 states and 2359296 edges"):
            build_graph(free)
        assert graph_size(free) == (262144, 2359296)

    def test_bound_is_inclusive(self, monkeypatch):
        need = 5 * recon.GRAPH_BYTES_PER_STATE + 4 * recon.GRAPH_BYTES_PER_EDGE
        monkeypatch.setattr(recon, "STATE_BYTE_BUDGET", need)
        assert len(build_graph(PATH_PHI.compiled).edges) == 4
        monkeypatch.setattr(recon, "STATE_BYTE_BUDGET", need - 1)
        with pytest.raises(PreconditionError, match="5 states and 4 edges"):
            build_graph(PATH_PHI.compiled)

    def test_costs_cover_a_measured_dot_export(self):
        # 12 free variables: 4,096 states and 24,576 edges
        compiled = Formula(12, (), ()).compiled
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph = build_graph(compiled)
            text = graph_to_dot(graph)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert text.count(" -- ") == len(graph.edges) == 24576
        bound = (len(graph.states) * recon.GRAPH_BYTES_PER_STATE
                 + len(graph.edges) * recon.GRAPH_BYTES_PER_EDGE)
        assert peak <= bound


class TestBfsShortest:
    def test_path_relation_length_four(self):
        res = bfs_shortest(PATH_PHI.compiled, 0b000, 0b110)
        assert res.length == 4
        assert res.protocol_line() == "PATH 4 x3+ x1+ x2+ x3-"

    def test_same_endpoints(self):
        res = bfs_shortest(PATH_PHI.compiled, 0b111, 0b111)
        assert res.outcome is Outcome.PATH and res.length == 0
        assert res.protocol_line() == "PATH 0"

    def test_not_connected(self):
        res = bfs_shortest(EQ_PHI.compiled, 0b00, 0b11)
        assert res.outcome is Outcome.NOT_CONNECTED
        assert res.protocol_line() == "NOTCONNECTED"

    def test_unsatisfying_endpoint(self):
        with pytest.raises(PreconditionError, match="clause 1"):
            bfs_shortest(PATH_PHI.compiled, 0b010, 0b110)

    def test_cap(self):
        phi = Formula(8, (), ())
        with pytest.raises(PreconditionError, match="cap 6"):
            bfs_shortest(phi.compiled, 0, 0, cap=6)

    def test_path_properties_on_fuzz(self):
        rng = random.Random(8)
        for phi, s, t in navigable_corpus(60, seed=21, max_vars=10, max_clauses=6):
            res = bfs_shortest(phi.compiled, s, t)
            sym = bfs_shortest(phi.compiled, t, s)
            assert res.outcome is sym.outcome
            if res.outcome is Outcome.NOT_CONNECTED:
                continue
            assert res.length == sym.length
            assert res.length >= hamming(s, t)
            assert res.length % 2 == hamming(s, t) % 2
            # every prefix satisfies; endpoint is t
            assert apply_sequence(phi.compiled, s, res.flips) == t


ARITY8 = Relation(8, frozenset(range(256)) - {0b10101010, 0b01010101, 0b11111111, 1})


class TestSearchMemory:
    @staticmethod
    def peak_per_state(n, clauses):
        phi = Formula(n, (("r", ARITY8),), clauses)
        t = ((1 << n) - 1) ^ (1 << (n - 1))  # x1 = 0 keeps the clause true
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = bfs_shortest(phi.compiled, 0, t, cap=n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result.length == n - 1
        return peak / (1 << n)

    @pytest.mark.parametrize("clauses", [
        (), (Clause("r", (1, 3, 5, 7, 9, 11, 13, 15)),),
    ], ids=["clause-free", "arity-8-clause"])
    def test_peak_per_state_fits_at_the_ceiling(self, clauses):
        # The search holds a few bits per state (the blocks, the planes and
        # the layers) plus the masks of one block, a fixed 128 KiB that
        # weighs less per state as n grows. Nothing of it holds n bits per
        # state, so the peak per state does not grow with n, and the
        # ceiling's 2^MAX_STATE_CAP states fit the byte budget.
        at20, at22 = self.peak_per_state(20, clauses), self.peak_per_state(22, clauses)
        assert at22 <= at20 <= recon.BYTES_PER_STATE


class TestStateCapCeiling:
    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(n, clauses):
            raise AssertionError("clause_blocks ran for a rejected cap")

        monkeypatch.setattr(recon, "clause_blocks", refuse)

    def test_ceiling_fits_the_byte_budget(self):
        assert (1 << MAX_STATE_CAP) * recon.BYTES_PER_STATE <= recon.STATE_BYTE_BUDGET
        assert (2 << MAX_STATE_CAP) * recon.BYTES_PER_STATE > recon.STATE_BYTE_BUDGET

    @pytest.mark.parametrize("search", [
        lambda cap: build_graph(PATH_PHI.compiled, cap=cap),
        lambda cap: graph_size(PATH_PHI.compiled, cap=cap),
        lambda cap: bfs_shortest(PATH_PHI.compiled, 0b000, 0b110, cap=cap),
    ], ids=["build_graph", "graph_size", "bfs_shortest"])
    def test_rejected_before_allocation(self, no_allocation, search):
        # a 3-variable formula would fit any cap; the cap itself is refused
        with pytest.raises(PreconditionError, match=f"cap {MAX_STATE_CAP + 1} is above"):
            search(MAX_STATE_CAP + 1)

    def test_ceiling_itself_is_accepted(self):
        assert bfs_shortest(PATH_PHI.compiled, 0b000, 0b110, cap=MAX_STATE_CAP).length == 4
        assert len(build_graph(PATH_PHI.compiled, cap=MAX_STATE_CAP).states) == 5


class TestCheckSearch:
    @pytest.mark.parametrize("use", ["oracle", "explicit-graph"])
    def test_refuses_a_formula_above_the_cap(self, use):
        recon.check_search(20, 20, use)
        with pytest.raises(PreconditionError) as info:
            recon.check_search(21, 20, use)
        assert str(info.value) == f"formula has 21 variables, above the {use} cap 20"

    @pytest.mark.parametrize("search, use", [
        # 010 satisfies no PATH5 clause: the variable count is refused first
        (lambda cap: bfs_shortest(PATH_PHI.compiled, 0b010, 0b010, cap=cap), "oracle"),
        (lambda cap: graph_size(PATH_PHI.compiled, cap=cap), "explicit-graph"),
        (lambda cap: build_graph(PATH_PHI.compiled, cap=cap), "explicit-graph"),
    ], ids=["bfs_shortest", "graph_size", "build_graph"])
    def test_each_search_names_its_use(self, search, use):
        with pytest.raises(PreconditionError) as info:
            search(2)
        assert str(info.value) == f"formula has 3 variables, above the {use} cap 2"

    @pytest.mark.parametrize("cap, message", [
        (True, "state cap True is not an int"),
        (False, "state cap False is not an int"),
        (-1, "state cap -1 is negative"),
    ])
    def test_checks_the_cap_first(self, cap, message):
        # a million variables are above any cap; the cap is refused first
        with pytest.raises(PreconditionError) as info:
            recon.check_search(10**6, cap, "oracle")
        assert str(info.value) == message


class TestComponents:
    def test_xor_two_singletons(self):
        assert components(Relation.from_bitstrings(["01", "10"])) == ((1,), (2,))

    def test_path_relation_single_component(self):
        assert components(PATH5) == ((0, 1, 5, 6, 7),)

    def test_empty_relation(self):
        assert components(Relation(2, frozenset())) == ()


class TestDot:
    def test_path_relation_golden(self):
        assert graph_to_dot(build_graph(PATH_PHI.compiled)) == (
            "graph recon {\n"
            '  "000";\n'
            '  "001";\n'
            '  "101";\n'
            '  "110";\n'
            '  "111";\n'
            '  "000" -- "001";\n'
            '  "001" -- "101";\n'
            '  "101" -- "111";\n'
            '  "110" -- "111";\n'
            "}\n"
        )
