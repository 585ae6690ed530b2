import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from satflip import (
    CONST0,
    CONST1,
    Clause,
    Formula,
    ParseError,
    PreconditionError,
    Relation,
    effective_clause,
    evaluate,
    induced,
    parse_assignment,
    parse_dimacs_2cnf,
    parse_formula,
    parse_instance,
    serialize_formula,
)
from satflip.formula import _effective, first_violated_clause

from helpers import formula_strategy, navigable_corpus, naive_first_violated_clause

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))


class TestInduced:
    def test_mixed_map(self):
        phi = Formula(2, (("path5", PATH5),), (Clause("path5", (2, CONST1, 1)),))
        assert induced(phi, phi.clauses[0], 0b10) == 0b011
        # brute-force cross-check over all assignments
        expected = {0b00: 0b010, 0b01: 0b110, 0b10: 0b011, 0b11: 0b111}
        for a, want in expected.items():
            assert induced(phi, phi.clauses[0], a) == want

    def test_identity_map(self):
        for a in range(8):
            assert induced(PATH_PHI, PATH_PHI.clauses[0], a) == a

    def test_all_constants(self):
        phi = Formula(
            1, (("path5", PATH5),), (Clause("path5", (CONST0, CONST0, CONST0)),)
        )
        assert induced(phi, phi.clauses[0], 0) == 0
        assert induced(phi, phi.clauses[0], 1) == 0

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            induced(PATH_PHI, PATH_PHI.clauses[0], 8)


class TestEvaluate:
    def test_empty_conjunction(self):
        phi = Formula(2, (), ())
        assert all(evaluate(phi, a) for a in range(4))

    def test_path_relation_membership(self):
        assert not evaluate(PATH_PHI, 0b010)
        assert evaluate(PATH_PHI, 0b111)

    def test_clause_order_irrelevant(self):
        imp = Relation.from_bitstrings(["00", "10", "11"])
        c1, c2 = Clause("imp", (1, 2)), Clause("imp", (2, 1))
        a_first = Formula(2, (("imp", imp),), (c1, c2))
        b_first = Formula(2, (("imp", imp),), (c2, c1))
        for a in range(4):
            assert evaluate(a_first, a) == evaluate(b_first, a)

    def test_locality(self):
        # variable 3 appears in no clause
        imp = Relation.from_bitstrings(["00", "10", "11"])
        phi = Formula(3, (("imp", imp),), (Clause("imp", (1, 2)),))
        for a in range(8):
            assert evaluate(phi, a) == evaluate(phi, a ^ 0b001)

    def test_first_violated_clause(self):
        assert first_violated_clause(PATH_PHI, 0b010) == 1
        assert first_violated_clause(PATH_PHI, 0b000) is None

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError):
            evaluate(PATH_PHI, 8)

    @settings(max_examples=200, deadline=None)
    @given(formula_strategy())
    def test_first_violated_clause_matches_clause_by_clause(self, phi):
        for a in range(1 << phi.num_vars):
            assert first_violated_clause(phi, a) == naive_first_violated_clause(phi, a)

    def test_constant_only_clauses(self):
        one = Relation(1, frozenset({1}))
        phi = Formula(2, (("one", one),), (Clause("one", (CONST1,)), Clause("one", (CONST0,))))
        assert phi.compiled.variables[:2] == ((), ())
        assert phi.compiled.accept[:2] == (0b1, 0b0)
        assert [first_violated_clause(phi, a) for a in range(4)] == [2, 2, 2, 2]


class TestEffectiveClause:
    def test_repeated_variable_collapses(self):
        phi = Formula(2, (("path5", PATH5),), (Clause("path5", (1, 1, 2)),))
        variables, eff = effective_clause(phi, phi.clauses[0])
        assert variables == (1, 2)
        # tuples r1 r2 with (r1, r1, r2) in PATH5: 000, 001, 110, 111
        # -> {00, 01, 10, 11}
        assert eff.tuples == frozenset({0b00, 0b01, 0b10, 0b11})
        # (r1, r2, r1) in PATH5: 000, 101, 111 (not 010) -> {00, 10, 11}
        phi = Formula(2, (("path5", PATH5),), (Clause("path5", (1, 2, 1)),))
        variables, eff = effective_clause(phi, phi.clauses[0])
        assert variables == (1, 2)
        assert eff.tuples == frozenset({0b00, 0b10, 0b11})

    def test_constants_collapse(self):
        phi = Formula(1, (("path5", PATH5),), (Clause("path5", (CONST1, 1, CONST1)),))
        variables, eff = effective_clause(phi, phi.clauses[0])
        assert variables == (1,)
        # (1, r, 1) in PATH5 for r=0 (101) and r=1 (111)
        assert eff.tuples == frozenset({0b0, 0b1})
        # (0, r, 0) in PATH5 only for r=0 (000; 010 is not)
        phi = Formula(1, (("path5", PATH5),), (Clause("path5", (CONST0, 1, CONST0)),))
        variables, eff = effective_clause(phi, phi.clauses[0])
        assert variables == (1,)
        assert eff.tuples == frozenset({0b0})

    def test_constant_clause(self):
        phi = Formula(
            1, (("path5", PATH5),), (Clause("path5", (CONST0, CONST0, CONST0)),)
        )
        assert effective_clause(phi, phi.clauses[0]) == ((), None)

    def test_cache_holds_one_entry_per_shape(self):
        # a relation no other test uses, so its shape is not cached yet
        rel = Relation(4, frozenset({0b0000, 0b0110, 0b1011, 0b1111}))
        clauses = tuple(Clause("q", (v, CONST1, v + 1, v)) for v in range(1, 501))
        phi = Formula(501, (("q", rel),), clauses)
        before = _effective.cache_info().currsize
        compiled = phi.compiled
        assert _effective.cache_info().currsize == before + 1
        assert len({id(r) for r in compiled.relations}) == 1
        # (r1, 1, r2, r1) hits 0110 and 1111 -> {01, 11}
        assert compiled.relations[0].tuples == frozenset({0b01, 0b11})


class TestFormulaValidation:
    def test_undefined_relation(self):
        with pytest.raises(PreconditionError, match="undefined relation"):
            Formula(2, (), (Clause("nope", (1, 2)),))

    def test_variable_out_of_range(self):
        with pytest.raises(PreconditionError, match="out of range"):
            Formula(1, (("path5", PATH5),), (Clause("path5", (1, 2, 1)),))

    def test_arity_mismatch(self):
        with pytest.raises(PreconditionError, match="arity"):
            Formula(2, (("path5", PATH5),), (Clause("path5", (1, 2)),))

    def test_duplicate_relation_names(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            Formula(1, (("r", PATH5), ("r", PATH5)), ())


class TestCnfsFormat:
    def test_minimal_file(self):
        phi = parse_formula("vars 1\n")
        assert phi == Formula(1, (), ())

    def test_undefined_relation_diagnostic(self):
        text = "vars 2\nclause nope x1 x2\n"
        with pytest.raises(ParseError, match="line 2.*undefined relation"):
            parse_formula(text)

    def test_variable_out_of_range_diagnostic(self):
        text = "vars 1\nrelation imp 2\n00\nend\nclause imp x1 x9\n"
        with pytest.raises(ParseError, match="line 5.*out of range"):
            parse_formula(text)

    def test_unterminated_relation(self):
        with pytest.raises(ParseError, match="not terminated"):
            parse_formula("vars 1\nrelation r 1\n0\n")

    def test_missing_vars(self):
        with pytest.raises(ParseError, match="vars"):
            parse_formula("relation r 1\n0\nend\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2.*unknown directive"):
            parse_formula("vars 1\nfrobnicate\n")

    def test_bad_tuple_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_formula("vars 1\nrelation r 2\n0\nend\n")

    def test_embedded_endpoints(self):
        phi, s, t = parse_instance("# s=01\n# t=10\nvars 2\n")
        assert (s, t) == (0b01, 0b10)

    def test_bad_embedded_endpoint(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("# s=0\nvars 2\n")

    def test_constants_round_trip(self):
        text = "vars 2\nrelation p 3\n011\n111\nend\nclause p T x2 F\n"
        phi = parse_formula(text)
        assert phi.clauses[0].args == (CONST1, 2, CONST0)
        assert parse_formula(serialize_formula(phi)) == phi

    def test_round_trip_on_random_instances(self):
        for phi, _, _ in navigable_corpus(25, seed=99, max_vars=16, max_clauses=10):
            assert parse_formula(serialize_formula(phi)) == phi

    def test_serialized_tuples_sorted(self):
        text = serialize_formula(PATH_PHI)
        assert "000\n001\n101\n110\n111" in text


class TestAssignmentText:
    def test_parse(self):
        assert parse_assignment("0110", 4) == 0b0110

    def test_bad_length(self):
        with pytest.raises(ParseError):
            parse_assignment("011", 4)

    def test_bad_chars(self):
        with pytest.raises(ParseError):
            parse_assignment("01x0", 4)


class TestDimacs2Cnf:
    def test_solutions_match_direct_enumeration(self):
        text = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 0\n"
        phi = parse_dimacs_2cnf(text)

        def direct(a):
            x = [(a >> (3 - i)) & 1 for i in (1, 2, 3)]
            return (x[0] or x[1]) and ((not x[0]) or x[2]) and not x[1]

        for a in range(8):
            assert evaluate(phi, a) == direct(a)

    def test_unit_clauses(self):
        phi = parse_dimacs_2cnf("p cnf 2 2\n1 0\n-2 0\n")
        assert [evaluate(phi, a) for a in range(4)] == [False, False, True, False]

    def test_rejects_wide_clause(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs_2cnf("p cnf 3 1\n1 2 3 0\n")

    def test_non_integer_variable_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs_2cnf("c header next\np cnf x 1\n1 0\n")

    def test_zero_variables(self):
        with pytest.raises(ParseError, match="line 2.*variable count"):
            parse_dimacs_2cnf("c header next\np cnf 0 0\n")

    def test_non_integer_clause_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dimacs_2cnf("p cnf 2 y\n1 0\n")
