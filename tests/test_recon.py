import random

import numpy as np
import pytest

from satflip import (
    MAX_STATE_CAP,
    Clause,
    Formula,
    PreconditionError,
    Relation,
    apply_sequence,
    bfs_shortest,
    build_graph,
    components,
    evaluate,
    sat_mask,
)
from satflip.bits import hamming
from satflip import recon
from satflip.recon import graph_to_dot

from helpers import navigable_corpus

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))
IMP = Relation.from_bitstrings(["00", "10", "11"])
EQ_PHI = Formula(2, (("imp", IMP),), (Clause("imp", (1, 2)), Clause("imp", (2, 1))))


class TestSatMask:
    def test_matches_evaluate(self):
        for phi, _, _ in navigable_corpus(20, seed=3, max_vars=8, max_clauses=5):
            mask = sat_mask(phi.compiled)
            for a in range(1 << phi.num_vars):
                assert mask[a] == evaluate(phi, a)

    def test_constant_clause_false(self):
        from satflip import CONST0

        phi = Formula(
            1,
            (("one", Relation(1, frozenset({1}))),),
            (Clause("one", (CONST0,)),),
        )
        assert not sat_mask(phi.compiled).any()


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


class TestBfsShortest:
    def test_path_relation_length_four(self):
        res = bfs_shortest(PATH_PHI.compiled, 0b000, 0b110)
        assert res.length == 4
        assert res.protocol_line() == "PATH 4 x3+ x1+ x2+ x3-"

    def test_same_endpoints(self):
        res = bfs_shortest(PATH_PHI.compiled, 0b111, 0b111)
        assert res.connected and res.length == 0
        assert res.protocol_line() == "PATH 0"

    def test_not_connected(self):
        res = bfs_shortest(EQ_PHI.compiled, 0b00, 0b11)
        assert not res.connected
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
            assert res.connected == sym.connected
            if not res.connected:
                continue
            assert res.length == sym.length
            assert res.length >= hamming(s, t)
            assert res.length % 2 == hamming(s, t) % 2
            # every prefix satisfies; endpoint is t
            assert apply_sequence(phi.compiled, s, res.flips) == t


class TestStateCapCeiling:
    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(phi):
            raise AssertionError("sat_mask ran for a rejected cap")

        monkeypatch.setattr(recon, "sat_mask", refuse)

    def test_ceiling_fits_the_byte_budget(self):
        assert (1 << MAX_STATE_CAP) * recon.BYTES_PER_STATE <= recon.STATE_BYTE_BUDGET
        assert (2 << MAX_STATE_CAP) * recon.BYTES_PER_STATE > recon.STATE_BYTE_BUDGET

    @pytest.mark.parametrize("search", [
        lambda cap: build_graph(PATH_PHI.compiled, cap=cap),
        lambda cap: bfs_shortest(PATH_PHI.compiled, 0b000, 0b110, cap=cap),
    ], ids=["build_graph", "bfs_shortest"])
    def test_rejected_before_allocation(self, no_allocation, search):
        # a 3-variable formula would fit any cap; the cap itself is refused
        with pytest.raises(PreconditionError, match=f"cap {MAX_STATE_CAP + 1} is above"):
            search(MAX_STATE_CAP + 1)

    def test_ceiling_itself_is_accepted(self):
        assert bfs_shortest(PATH_PHI.compiled, 0b000, 0b110, cap=MAX_STATE_CAP).length == 4
        assert len(build_graph(PATH_PHI.compiled, cap=MAX_STATE_CAP).states) == 5


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
