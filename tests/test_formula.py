import random
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from satflip import (
    CONST0,
    CONST1,
    Clause,
    Formula,
    ParseError,
    PreconditionError,
    Relation,
    dualize,
    effective_clause,
    evaluate,
    induced,
    parse_assignment,
    parse_dimacs_2cnf,
    parse_instance,
    serialize_formula,
)
from satflip.errors import read_decimal
from satflip.formula import CompiledFormula, FlipState, _effective, first_violated_clause

from helpers import (
    NON_DECIMAL_TOKENS,
    formula_strategy,
    mutated,
    navigable_corpus,
    naive_first_violated_clause,
    non_decimal_cases,
)

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


def _dense_relation(arity, rng):
    """A relation holding most tuples, so a clause is falsified rarely
    and the first falsified clause of a long formula lies anywhere."""
    tuples = [x for x in range(1 << arity) if rng.random() < 0.85]
    return Relation(arity, frozenset(tuples or [0]))


def _check_first_violated(phi, rng, samples=64):
    """`first_violated_clause` against the clause-by-clause reference on
    every assignment of a small formula, or on seeded samples."""
    n = phi.num_vars
    assignments = range(1 << n) if n <= 8 else [rng.getrandbits(n) for _ in range(samples)]
    seen = set()
    for a in assignments:
        got = first_violated_clause(phi, a)
        assert got == naive_first_violated_clause(phi, a)
        seen.add(got)
    return seen


class TestFirstViolatedClauseKinds:
    """`FlipState.violated` reads one acceptance table when every clause
    has one accept mask, and shifts each clause's mask otherwise; both
    must name the clause-by-clause reference's first falsified clause."""

    def test_one_mask_many_clauses(self):
        rng = random.Random(4101)
        found = set()
        for _ in range(30):
            n, arity = rng.randint(4, 40), rng.randint(1, 4)
            rel = _dense_relation(arity, rng)
            clauses = tuple(Clause("r", tuple(sorted(rng.sample(range(1, n + 1), arity))))
                            for _ in range(rng.randint(20, 200)))
            phi = Formula(n, (("r", rel),), clauses)
            assert len(set(phi.compiled.accept)) == 1
            found |= _check_first_violated(phi, rng)
        assert None in found and len(found) >= 10

    def test_complemented_forms_match_the_dualized_formula(self):
        rng = random.Random(4102)
        for _ in range(40):
            n = rng.randint(3, 9)
            rels = [(f"r{i}", _dense_relation(rng.randint(1, 3), rng)) for i in range(rng.randint(1, 3))]
            clauses = []
            for _ in range(rng.randint(1, 40)):
                name, rel = rng.choice(rels)
                clauses.append(Clause(name, tuple(
                    rng.choice((CONST0, CONST1)) if rng.random() < 0.15 else rng.randint(1, n)
                    for _ in range(rel.arity))))
            phi = Formula(n, tuple(rels), tuple(clauses))
            image = dualize(phi, 0, 0)[0]
            compiled = phi.compiled.complemented()
            for a in range(1 << n):
                got = FlipState(compiled, a).violated()
                assert got == naive_first_violated_clause(image, a)

    def test_constant_only_clauses_among_variable_clauses(self):
        rng = random.Random(4103)
        only_000 = Relation(3, frozenset({0}))  # accept mask 1, as a holding constant clause
        for trial in range(40):
            n = rng.randint(3, 8)
            rel = only_000 if trial % 4 == 0 else _dense_relation(3, rng)
            clauses = []
            for _ in range(rng.randint(1, 30)):
                if rng.random() < 0.4:
                    args = tuple(rng.choice((CONST0, CONST1)) for _ in range(3))
                else:
                    args = tuple(sorted(rng.sample(range(1, n + 1), 3)))
                clauses.append(Clause("r", args))
            phi = Formula(n, (("r", rel),), tuple(clauses))
            _check_first_violated(phi, rng)
        # one mask shared by constant-only and variable clauses
        phi = Formula(4, (("r", only_000),),
                      (Clause("r", (CONST0,) * 3), Clause("r", (1, 2, 3)), Clause("r", (2, 3, 4))))
        assert set(phi.compiled.accept) == {1}
        assert [first_violated_clause(phi, a) for a in (0b0000, 0b0001, 0b1000, 0b0100)] == [None, 3, 2, 2]

    def test_several_masks(self):
        rng = random.Random(4104)
        masks = []
        for _ in range(40):
            n = rng.randint(4, 12)
            rels = [(f"r{i}", _dense_relation(rng.randint(1, 4), rng)) for i in range(rng.randint(2, 5))]
            clauses = []
            for _ in range(rng.randint(10, 120)):
                name, rel = rng.choice(rels)
                clauses.append(Clause(name, tuple(sorted(rng.sample(range(1, n + 1), rel.arity)))))
            phi = Formula(n, tuple(rels), tuple(clauses))
            masks.append(len(set(phi.compiled.accept)))
            _check_first_violated(phi, rng, samples=256)
        assert sum(k >= 2 for k in masks) >= 30 and max(masks) >= 4


class TestFlipState:
    @pytest.mark.parametrize("assignment", [-1, 8, 1 << 40, True, False, 1.0],
                             ids=["negative", "2^n", "wide", "True", "False", "float"])
    def test_refuses_assignment_out_of_range(self, assignment):
        # unchecked, 8 = 0b1000 would build the local tuple of 000
        with pytest.raises(PreconditionError, match="out of range for 3 variables"):
            FlipState(PATH_PHI.compiled, assignment)


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

    def test_cache_is_bounded(self):
        assert _effective.cache_info().maxsize == 4096

    def test_cache_holds_one_entry_per_shape(self):
        # a relation no other test uses, so its shape is not cached yet
        rel = Relation(4, frozenset({0b0000, 0b0110, 0b1011, 0b1111}))
        clauses = tuple(Clause("q", (v, CONST1, v + 1, v)) for v in range(1, 501))
        phi = Formula(501, (("q", rel),), clauses)
        # counted in misses and hits: the cache is bounded, and may be full
        before = _effective.cache_info()
        compiled = phi.compiled
        after = _effective.cache_info()
        # a compile looks the cache up once per shape, not once per clause
        assert (after.misses, after.hits) == (before.misses + 1, before.hits)
        # one effective relation for all 500 clauses, named by the first
        (eff, first), = compiled.distinct
        assert first == 1
        # (r1, 1, r2, r1) hits 0110 and 1111 -> {01, 11}
        assert eff.tuples == frozenset({0b01, 0b11})
        assert [clause_relation(compiled, j) for j in range(500)] == [eff] * 500
        # another formula of the same shape, on other variables, hits it once
        other = Formula(9, (("q", rel),), (Clause("q", (7, CONST1, 9, 7)),) * 3)
        before = _effective.cache_info()
        assert other.compiled.distinct == ((eff, 1),)
        assert other.compiled.distinct[0][0] is eff
        assert other.compiled.accept == compiled.accept[:3]
        after = _effective.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    def test_distinct_relations_name_their_first_clause(self):
        phi = Formula(4, (("path5", PATH5),), (
            Clause("path5", (CONST0, CONST0, CONST0)),
            Clause("path5", (1, 2, 3)),
            Clause("path5", (1, 1, 2)),
            Clause("path5", (2, 3, 4)),
            Clause("path5", (3, 3, 4)),
        ))
        compiled = phi.compiled
        (whole, first), (merged, second) = compiled.distinct
        assert (first, second) == (2, 3)
        assert whole == PATH5 and merged.arity == 2
        # the constant clause (000 is in PATH5) has no relation
        assert compiled.variables[0] == () and compiled.accept[0] == 1
        assert [clause_relation(compiled, j) for j in range(1, 5)] == [
            whole, merged, whole, merged,
        ]
        image = compiled.complemented()
        assert image.distinct == ((whole.complemented(), 2), (merged.complemented(), 3))
        assert image.accept[0] == compiled.accept[0]
        assert [clause_relation(image, j) for j in range(1, 5)] == [
            whole.complemented(), merged.complemented(),
            whole.complemented(), merged.complemented(),
        ]
        # one relation under two names: two shapes, one effective relation
        phi = Formula(3, (("a", PATH5), ("b", PATH5)), (
            Clause("a", (1, 1, 2)),
            Clause("b", (1, 2, 3)),
            Clause("a", (1, 2, 3)),
        ))
        compiled = phi.compiled
        (merged, first), (whole, second) = compiled.distinct
        assert (first, second) == (1, 2)
        assert whole == PATH5 and merged.arity == 2
        assert [clause_relation(compiled, j) for j in range(3)] == [merged, whole, whole]

    def test_compiled_fields(self):
        assert CompiledFormula._fields == (
            "num_vars", "variables", "accept", "occurrences", "distinct", "columns",
        )


def clause_relation(compiled, j):
    """The one entry of `compiled.distinct` that is clause j's effective
    relation: its arity is the clause's variable count and its table the
    clause's accept mask."""
    arity, mask = len(compiled.variables[j]), compiled.accept[j]
    found = [eff for eff, _ in compiled.distinct if (eff.arity, eff.table) == (arity, mask)]
    assert len(found) == 1, (j, found)
    return found[0]


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

    def test_bool_num_vars_rejected(self):
        with pytest.raises(PreconditionError, match="num_vars"):
            Formula(True, (), ())

    @pytest.mark.parametrize("arg", [True, False])
    def test_bool_argument_rejected(self, arg):
        # bool is an int subclass; True would otherwise pass as variable 1
        with pytest.raises(PreconditionError, match="out of range"):
            Formula(2, (("path5", PATH5),), (Clause("path5", (arg, 2, 1)),))

    def test_duplicate_relation_names(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            Formula(1, (("r", PATH5), ("r", PATH5)), ())


class TestCnfsFormat:
    def test_minimal_file(self):
        phi = parse_instance("vars 1\n")[0]
        assert phi == Formula(1, (), ())

    def test_undefined_relation_diagnostic(self):
        text = "vars 2\nclause nope x1 x2\n"
        with pytest.raises(ParseError, match="line 2.*undefined relation"):
            parse_instance(text)

    def test_variable_out_of_range_diagnostic(self):
        text = "vars 1\nrelation imp 2\n00\nend\nclause imp x1 x9\n"
        with pytest.raises(ParseError, match="line 5.*out of range"):
            parse_instance(text)

    def test_duplicate_relation_name_diagnostic(self):
        text = "vars 1\nrelation r 1\n0\nend\nrelation r 1\n1\nend\n"
        with pytest.raises(ParseError, match="line 5.*duplicate relation name 'r'"):
            parse_instance(text)

    def test_many_relations_keep_their_order(self):
        rng = random.Random(5)
        count = 2000
        lines = ["vars 3"]
        for i in range(count):
            lines += [f"relation r{i} 1", str(i % 2), "end"]
        uses = [rng.randrange(count) for _ in range(4000)]
        lines += [f"clause r{i} x{i % 3 + 1}" for i in uses]
        phi = parse_instance("\n".join(lines) + "\n")[0]
        assert [name for name, _ in phi.relations] == [f"r{i}" for i in range(count)]
        assert [c.relation_name for c in phi.clauses] == [f"r{i}" for i in uses]
        assert all(rel.tuples == {i % 2} for i, (_, rel) in enumerate(phi.relations))

    def test_unterminated_relation(self):
        with pytest.raises(ParseError, match="not terminated"):
            parse_instance("vars 1\nrelation r 1\n0\n")

    def test_missing_vars(self):
        with pytest.raises(ParseError, match="vars"):
            parse_instance("relation r 1\n0\nend\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 2.*unknown directive"):
            parse_instance("vars 1\nfrobnicate\n")

    def test_bad_tuple_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("vars 1\nrelation r 2\n0\nend\n")

    def test_embedded_endpoints(self):
        phi, s, t = parse_instance("# s=01\n# t=10\nvars 2\n")
        assert (s, t) == (0b01, 0b10)

    @pytest.mark.parametrize("key", ["s", "t"])
    def test_duplicate_embedded_endpoint(self, key):
        # the first value is not silently replaced by the second
        with pytest.raises(ParseError) as err:
            parse_instance(f"# s=000\n# t=110\nvars 3\n# {key}=001\n")
        assert str(err.value) == f"line 4: duplicate '{key}=' endpoint"

    def test_bad_embedded_endpoint(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("# s=0\nvars 2\n")

    def test_constants_round_trip(self):
        text = "vars 2\nrelation p 3\n011\n111\nend\nclause p T x2 F\n"
        phi = parse_instance(text)[0]
        assert phi.clauses[0].args == (CONST1, 2, CONST0)
        assert parse_instance(serialize_formula(phi))[0] == phi

    def test_round_trip_on_random_instances(self):
        for phi, _, _ in navigable_corpus(25, seed=99, max_vars=16, max_clauses=10):
            assert parse_instance(serialize_formula(phi))[0] == phi

    def test_serialized_tuples_sorted(self):
        text = serialize_formula(PATH_PHI)
        assert "000\n001\n101\n110\n111" in text

    @pytest.mark.parametrize("text, message", non_decimal_cases([
        ("vars {tok}\n", "line 1: bad variable count '{tok}'"),
        ("vars 3\nrelation r {tok}\n", "line 2: bad arity '{tok}'"),
        ("vars 3\nrelation r 1\n1\nend\nclause r x{tok}\n", "line 5: bad argument 'x{tok}'"),
    ]))
    def test_non_decimal_number(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("vars 2\nvars 2\n", "line 2: duplicate 'vars' line"),
        ("vars\n", "line 1: expected 'vars <n>'"),
        ("vars 2 3\n", "line 1: expected 'vars <n>'"),
        ("vars 0\n", "line 1: variable count must be >= 1"),
        ("# c\nclause r x1\n", "line 2: 'vars' must come before 'clause'"),
        ("vars 1\nrelation r\n", "line 2: expected 'relation <name> <arity>'"),
        ("vars 1\nclause\n", "line 2: expected 'clause <name> <args...>'"),
        ("vars 2\nrelation r 2\n01\nend\nclause r x1\n",
         "line 5: relation 'r' has arity 2, got 1 arguments"),
        ("vars 1\nrelation r 1\n1\nend\nclause r y1\n",
         "line 5: bad argument 'y1' (expected x<i>, T, or F)"),
        ("", "missing 'vars' line"),
        ("# s=0\n# only comments\n", "missing 'vars' line"),
    ])
    def test_directive_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message

    def test_token_past_the_int_digit_limit(self):
        # Python 3.11 and later refuse int() of more digits than
        # sys.get_int_max_str_digits(); 3.10 has no such limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            assert read_decimal("7" * 5000, "too long") == int("7" * 5000)
            return
        token = "7" * (limit + 1)
        with pytest.raises(ParseError) as err:
            read_decimal(token, "too long", 4)
        assert str(err.value) == "line 4: too long"
        with pytest.raises(ParseError) as err:
            parse_instance(f"vars {token}\n")
        assert str(err.value) == f"line 1: bad variable count '{token}'"
        assert read_decimal("7" * limit, "too long") == int("7" * limit)

    def test_leading_zeros(self):
        phi = parse_instance("vars 03\nrelation r 01\n1\nend\nclause r x003\n")[0]
        assert phi == Formula(3, (("r", Relation(1, {1})),), (Clause("r", (3,)),))


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

    @pytest.mark.parametrize("text, message", [
        ("p cnf 2 -1\n", "line 1: clause count must be >= 0"),
        ("p cnf 2\n", "line 1: expected 'p cnf <vars> <clauses>'"),
        ("c\n1 0\np cnf 2 1\n", "line 2: missing 'p cnf' header"),
        ("c only a comment\n", "missing 'p cnf' header"),
        ("p cnf 2 1\n1 2\n", "line 2: clause line must end with 0"),
        ("p cnf 2 1\n-3 0\n", "line 2: literal -3 out of range"),
    ])
    def test_malformed_lines(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_dimacs_2cnf(text)
        assert str(err.value) == message

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="line 3.*duplicate 'p cnf' header"):
            parse_dimacs_2cnf("p cnf 5 1\n5 0\np cnf 2 1\n")

    @pytest.mark.parametrize("text, message", [
        ("p cnf 2 5\n1 0\n", "line 1: header declares 5 clauses, the file has 1"),
        ("p cnf 2 0\n1 0\n-2 0\n", "line 1: header declares 0 clauses, the file has 2"),
        ("c\np cnf 2 2\n1 0\n", "line 2: header declares 2 clauses, the file has 1"),
    ])
    def test_clause_count_must_match_header(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_dimacs_2cnf(text)
        assert str(err.value) == message

    # "-+2" is refused by int() too, so the negated site takes the other two.
    @pytest.mark.parametrize("text, message", non_decimal_cases([
        ("p cnf {tok} 1\n1 0\n", "line 1: bad header counts in 'p cnf {tok} 1'"),
        ("p cnf 3 {tok}\n1 0\n", "line 1: bad header counts in 'p cnf 3 {tok}'"),
        ("p cnf 3 1\n{tok} 0\n", "line 2: bad clause line '{tok} 0'"),
    ]) + non_decimal_cases(
        [("p cnf 3 1\n1 -{tok} 0\n", "line 2: bad clause line '1 -{tok} 0'")],
        NON_DECIMAL_TOKENS[1:],
    ))
    def test_non_decimal_number(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_dimacs_2cnf(text)
        assert str(err.value) == message

    def test_leading_zeros(self):
        phi = parse_dimacs_2cnf("p cnf 03 01\n-02 003 0\n")
        assert phi.num_vars == 3 and phi.clauses == (Clause("or2_np", (2, 3)),)


DIMACS_BASES = [
    "p cnf 3 3\n1 2 0\n-1 3 0\n-2 0\n",
    "c comment\np cnf 2 2\n1 0\n-2 0\n",
]
DIMACS_TOKENS = [
    "\n", " ", "\t", "0", "1", "2", "9", "-", "-1", "p", "c", "cnf", "x",
    "p cnf ", "p cnf 2 1\n", "1 2 3 0", "1_0", "99999999999999999999",
    "-99999999999999999999", "\x00", "\u00e9", "\ufeff", "\u0663", "+", "_",
]


class TestDimacsFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DIMACS_BASES).flatmap(lambda text: mutated(text, DIMACS_TOKENS)))
    @example("p cnf 5 1\n5 0\np cnf 2 1\n")
    def test_mutated_text_raises_only_parse_error(self, text):
        try:
            phi = parse_dimacs_2cnf(text)
        except ParseError:
            return
        assert isinstance(phi, Formula)
