import itertools

import pytest

from satflip import (
    GenerationError,
    Outcome,
    ParseError,
    PreconditionError,
    Relation,
    SimpleGraph,
    Verdict,
    bfs_shortest,
    classify_formula,
    evaluate,
    gen_independent_set_instance,
    gen_vertex_cover_instance,
    is_dual_horn_free,
    is_nand_free,
    parse_graph,
    random_formula,
    random_navigable_relation,
    solve,
)
from satflip import gen
from satflip.bits import hamming
from satflip.formula import restricted_clause
from satflip.gen import MAX_GRAPH_VERTICES

from helpers import min_vertex_cover_size, non_decimal_cases

K3 = SimpleGraph(3, ((1, 2), (1, 3), (2, 3)))
SINGLE_EDGE = SimpleGraph(3, ((1, 2),))  # one edge plus an isolated vertex


def small_graphs(max_vertices):
    for nv in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                yield SimpleGraph(nv, chosen)


class TestSimpleGraph:
    def test_normalizes_edge_order(self):
        g = SimpleGraph(3, ((2, 1),))
        assert g.edges == ((1, 2),)

    def test_rejects_self_loop(self):
        with pytest.raises(PreconditionError, match="self-loop"):
            SimpleGraph(2, ((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            SimpleGraph(2, ((1, 2), (2, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError, match="out of range"):
            SimpleGraph(2, ((1, 3),))

    def test_rejects_bool_vertex_count(self):
        # bool is an int subclass; True would otherwise pass as one vertex
        with pytest.raises(PreconditionError) as err:
            SimpleGraph(True, ())
        assert str(err.value) == "graph needs at least one vertex, got True"

    @pytest.mark.parametrize("edge", [(1.0, 2), (1, True), (2, "3")])
    def test_rejects_non_integer_endpoint(self, edge):
        with pytest.raises(PreconditionError) as err:
            SimpleGraph(3, (edge,))
        assert str(err.value) == f"edge ({edge[0]!r}, {edge[1]!r}) has a non-integer endpoint"

    def test_vertex_ceiling(self):
        assert SimpleGraph(MAX_GRAPH_VERTICES, ()).num_vertices == MAX_GRAPH_VERTICES
        with pytest.raises(PreconditionError, match="above the ceiling 1000000"):
            SimpleGraph(MAX_GRAPH_VERTICES + 1, ())


class TestParseGraph:
    def test_basic(self):
        assert parse_graph("graph 3\nedge 1 2\nedge 2 3\n") == SimpleGraph(
            3, ((1, 2), (2, 3))
        )

    def test_comments(self):
        assert parse_graph("# hi\ngraph 1\n") == SimpleGraph(1, ())

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("graph 2\nvertex 1\n")

    def test_edge_before_graph(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("edge 1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("graph 2\n# c\ngraph 2\n", "line 3: duplicate 'graph' line"),
        ("graph\n", "line 1: expected 'graph <num_vertices>'"),
        ("graph 2 3\n", "line 1: expected 'graph <num_vertices>'"),
        ("", "missing 'graph' line"),
        ("# no graph\n", "missing 'graph' line"),
    ])
    def test_bad_graph_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message

    def test_invalid_edge_reported_as_parse_error(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("graph 2\nedge 1 1\n")

    @pytest.mark.parametrize("text, message", non_decimal_cases([
        ("graph {tok}\n", "line 1: bad vertex count '{tok}'"),
        ("graph 3\nedge {tok} 1\n", "line 2: edge endpoints must be integers"),
        ("graph 3\n# c\nedge 1 {tok}\n", "line 3: edge endpoints must be integers"),
    ]))
    def test_non_decimal_number(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message

    def test_leading_zeros(self):
        assert parse_graph("graph 03\nedge 01 003\n") == SimpleGraph(3, ((1, 3),))


class TestVertexCoverInstance:
    def test_k3_counts(self):
        phi, s, t = gen_vertex_cover_instance(K3)
        assert phi.num_vars == 9
        assert len(phi.clauses) == 6

    def test_single_edge(self):
        phi, s, t = gen_vertex_cover_instance(SINGLE_EDGE)
        assert phi.num_vars == 5
        assert len(phi.clauses) == 2
        assert bfs_shortest(phi.compiled, s, t).length == 4  # 2|E| + 2*mvc = 2 + 2

    def test_empty_graph(self):
        phi, s, t = gen_vertex_cover_instance(SimpleGraph(2, ()))
        assert phi.num_vars == 2 and not phi.clauses
        assert s == t == 0

    def test_endpoints_satisfy_everywhere(self):
        for g in small_graphs(4):
            phi, s, t = gen_vertex_cover_instance(g)
            assert phi.num_vars == g.num_vertices + 2 * len(g.edges)
            assert len(phi.clauses) == 2 * len(g.edges)
            assert evaluate(phi, s) and evaluate(phi, t)

    def test_relation_classification(self):
        phi, _, _ = gen_vertex_cover_instance(K3)
        rel = phi.relation("vc3")
        assert is_nand_free(rel) and not is_dual_horn_free(rel)
        assert classify_formula(phi).verdict is Verdict.TIGHT_NOT_NAVIGABLE

    def test_length_formula_small(self):
        for g in [SINGLE_EDGE, K3, SimpleGraph(4, ((1, 2), (3, 4)))]:
            phi, s, t = gen_vertex_cover_instance(g)
            want = 2 * len(g.edges) + 2 * min_vertex_cover_size(g)
            assert bfs_shortest(phi.compiled, s, t).length == want


class TestIndependentSetInstance:
    def test_classification(self):
        phi, _, _ = gen_independent_set_instance(K3)
        cls = classify_formula(phi)
        flags = cls.per_relation[0]
        assert flags.or_free and not flags.horn_free
        assert cls.verdict is Verdict.TIGHT_NOT_NAVIGABLE

    def test_single_edge_oracle(self):
        phi, s, t = gen_independent_set_instance(SINGLE_EDGE)
        assert evaluate(phi, s) and evaluate(phi, t)
        assert bfs_shortest(phi.compiled, s, t).length == 4

    def test_solve_reports_hard(self):
        phi, s, t = gen_independent_set_instance(K3)
        assert solve(phi, s, t).outcome is Outcome.HARD


class TestMinVertexCover:
    def test_values(self):
        assert min_vertex_cover_size(SimpleGraph(3, ())) == 0
        assert min_vertex_cover_size(SINGLE_EDGE) == 1
        assert min_vertex_cover_size(K3) == 2


class TestRandomNavigableRelation:
    def test_deterministic(self):
        assert random_navigable_relation(3, 42) == random_navigable_relation(3, 42)

    def test_draws_run_out(self, monkeypatch):
        monkeypatch.setattr(gen, "is_nand_free", lambda rel: False)
        with pytest.raises(GenerationError) as err:
            random_navigable_relation(3, 0)
        assert str(err.value) == (
            "no NAND-free and dual-Horn-free relation of arity 3 after 1000 draws"
        )

    def test_arity_one_any_nonempty(self):
        rel = random_navigable_relation(1, 0)
        assert rel.arity == 1 and rel.tuples

    def test_postconditions(self):
        for seed in range(40):
            rel = random_navigable_relation(seed % 4 + 1, seed)
            assert is_nand_free(rel) and is_dual_horn_free(rel)

    def test_arity_cap(self):
        with pytest.raises(PreconditionError):
            random_navigable_relation(5, 0)


class TestRandomFormula:
    def test_deterministic(self):
        rels = [random_navigable_relation(3, 9)]
        assert random_formula(rels, 6, 4, 11) == random_formula(rels, 6, 4, 11)

    def test_endpoints_satisfy(self):
        rels = [random_navigable_relation(2, 1), random_navigable_relation(3, 2)]
        phi, s, t = random_formula(rels, 8, 5, 3)
        assert evaluate(phi, s) and evaluate(phi, t)

    def test_no_clauses_solves_at_hamming(self):
        rels = [random_navigable_relation(2, 4)]
        phi, s, t = random_formula(rels, 6, 0, 5)
        res = solve(phi, s, t)
        assert res.outcome is Outcome.PATH and res.length == hamming(s, t)

    def test_always_navigable(self):
        for seed in range(15):
            rels = [random_navigable_relation(seed % 4 + 1, seed * 3 + 1)]
            phi, _, _ = random_formula(rels, 6, 3, seed)
            assert classify_formula(phi).verdict is Verdict.NAVIGABLE

    def test_needs_a_relation(self):
        with pytest.raises(PreconditionError) as err:
            random_formula([], 4, 1, 0)
        assert str(err.value) == "need at least one relation"

    def test_unsatisfiable_relations_exhaust(self):
        empty = Relation(2, frozenset())
        with pytest.raises(GenerationError):
            random_formula([empty], 4, 1, 0)

    def test_draw_refused_at_the_clause_that_empties_it(self, monkeypatch):
        # x1 = 0 and x1 = 1: a draw is unsatisfiable at its first clause
        # whose relation differs from the first one's, so each of the 200
        # tries reads about three of its 50 clauses
        reads = []

        def counted(rel, clause):
            reads.append(clause)
            return restricted_clause(rel, clause)

        monkeypatch.setattr(gen, "restricted_clause", counted)
        zero, one = Relation(1, {0}), Relation(1, {1})
        with pytest.raises(GenerationError):
            random_formula([zero, one], 1, 50, 0)
        assert 2 * 200 <= len(reads) <= 5 * 200

    def test_vars_cap(self):
        with pytest.raises(PreconditionError):
            random_formula([random_navigable_relation(2, 0)], 17, 1, 0)

