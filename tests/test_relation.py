import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from satflip import (
    CONST0,
    CONST1,
    Classification,
    NavigableKind,
    PreconditionError,
    Relation,
    RelationFlags,
    RestrictionMap,
    Verdict,
    all_restrictions,
    classify_set,
    is_affine,
    is_bijunctive,
    is_componentwise_bijunctive,
    is_dual_horn,
    is_dual_horn_free,
    is_horn,
    is_horn_free,
    is_nand_free,
    is_or_free,
    parse_relation,
    relation_flags,
    restrict,
    serialize_relation,
)
from satflip.errors import ParseError
from satflip.relation import (
    _bijunctive_table,
    _level_steps,
    _restriction_closure,
    _table_components,
)

from helpers import (
    hamming_components,
    majority_closed,
    naive_all_restriction_values,
    naive_is_free,
    naive_relation_flags,
    naive_restrict_tuples,
    relation_strategy,
    restriction_entries,
    synth_affine,
    synth_bijunctive,
    synth_dual_horn,
    synth_horn,
    two_cnf_relation,
    xor3_closed,
)

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
OR2 = Relation.from_bitstrings(["01", "10", "11"])
CUBE3_NO_000 = Relation(3, frozenset(range(8)) - {0b000})
CUBE3_NO_100 = Relation(3, frozenset(range(8)) - {0b100})


def all_relations(arity):
    for bits in range(1 << (1 << arity)):
        yield Relation(arity, frozenset(i for i in range(1 << arity) if bits >> i & 1))


def staircase(arity):
    return Relation(arity, frozenset((1 << i) - 1 for i in range(arity + 1)))


def table_of(tuples):
    return sum(1 << t for t in tuples)


def tuples_of(arity, table):
    return frozenset(t for t in range(1 << arity) if table >> t & 1)


def coset(arity, base, generators):
    """base xor the linear span of the generators."""
    span = {0}
    for g in generators:
        span |= {x ^ g for x in span}
    return Relation(arity, frozenset(base ^ x for x in span))


COSET8 = coset(8, 0b10110100, (0b11000000, 0b00110000, 0b00001100, 0b10101010, 0b00000011))


def product(left, right):
    """The relation on left's positions followed by right's."""
    return Relation(left.arity + right.arity, frozenset(
        a << right.arity | b for a in left.tuples for b in right.tuples
    ))


class TestRestrict:
    def test_constant_and_positions(self):
        rmap = RestrictionMap(3, 2, (CONST1, 1, 2))
        assert restrict(CUBE3_NO_100, rmap).tuples == frozenset({0b01, 0b10, 0b11})

    def test_identity(self):
        assert restrict(PATH5, RestrictionMap.identity(3)) == PATH5

    def test_identification(self):
        rmap = RestrictionMap(2, 1, (1, 1))
        assert restrict(OR2, rmap).tuples == frozenset({0b1})

    def test_arity_mismatch(self):
        with pytest.raises(PreconditionError):
            restrict(OR2, RestrictionMap.identity(3))

    @given(relation_strategy(max_arity=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive(self, rel, data):
        target = data.draw(st.integers(1, rel.arity))
        entries = data.draw(restriction_entries(rel.arity, target))
        rmap = RestrictionMap(rel.arity, target, entries)
        assert restrict(rel, rmap).tuples == naive_restrict_tuples(rel, target, entries)

    @given(relation_strategy(max_arity=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_composition(self, rel, data):
        k1 = data.draw(st.integers(1, rel.arity))
        first = RestrictionMap(rel.arity, k1, data.draw(restriction_entries(rel.arity, k1)))
        k2 = data.draw(st.integers(1, k1))
        second = RestrictionMap(k1, k2, data.draw(restriction_entries(k1, k2)))
        assert restrict(restrict(rel, first), second) == restrict(rel, first.then(second))

    @given(relation_strategy(max_arity=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_never_grows(self, rel, data):
        # A map need not cover every target position, and an uncovered
        # coordinate is free: {00} under (1, 1) restricts to {00, 01}. The
        # image is injective on the covered coordinates, so each source
        # tuple accounts for at most 2^uncovered target tuples.
        target = data.draw(st.integers(1, rel.arity))
        entries = data.draw(restriction_entries(rel.arity, target))
        out = restrict(rel, RestrictionMap(rel.arity, target, entries))
        uncovered = set(range(1, target + 1)) - set(entries)
        assert len(out.tuples) <= len(rel.tuples) << len(uncovered)
        for r in out.tuples:
            for p in uncovered:
                assert r ^ (1 << (target - p)) in out.tuples


class TestTruthTable:
    @given(relation_strategy(max_arity=8))
    @settings(max_examples=100, deadline=None)
    @example(rel=Relation.full(8))
    @example(rel=Relation(8, frozenset()))
    def test_table_matches_tuples(self, rel):
        assert rel.table == sum(1 << t for t in rel.tuples)

    def test_table_stays_out_of_construction_repr_and_equality(self):
        rel = Relation(2, frozenset({0b01, 0b10}))
        assert repr(rel) == "Relation(arity=2, tuples=frozenset({1, 2}))"
        assert rel == Relation(2, [0b10, 0b01, 0b10])
        with pytest.raises(TypeError):
            Relation(2, frozenset({1}), table=0b10)

    def test_equal_relations_share_one_cache_entry(self):
        built_from_set = Relation(3, {0b001, 0b101})
        built_from_frozenset = Relation(3, frozenset({0b101, 0b001}))
        assert built_from_set == built_from_frozenset
        assert hash(built_from_set) == hash(built_from_frozenset)
        cached = lru_cache(maxsize=None)(lambda rel: object())
        assert cached(built_from_set) is cached(built_from_frozenset)
        info = cached.cache_info()
        assert (info.currsize, info.hits) == (1, 1)


class TestAllRestrictions:
    def test_count_arity2(self):
        rel = Relation.full(2)
        assert sum(1 for _ in all_restrictions(rel, 2)) == 16

    def test_count_arity3(self):
        assert sum(1 for _ in all_restrictions(PATH5, 3)) == 125

    def test_equality_relation_yields_unary_full(self):
        eq = Relation.from_bitstrings(["00", "11"])
        values = {r.tuples for r in all_restrictions(eq, 1)}
        assert frozenset({0, 1}) in values

    @given(relation_strategy(max_arity=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_value_set_matches_naive(self, rel, data):
        target = data.draw(st.integers(1, rel.arity))
        got = {r.tuples for r in all_restrictions(rel, target)}
        assert got == naive_all_restriction_values(rel, target)

    def test_bad_target(self):
        with pytest.raises(PreconditionError):
            list(all_restrictions(OR2, 3))


class TestSyntacticClasses:
    def test_or_is_bijunctive(self):
        assert is_bijunctive(OR2)

    def test_cube_minus_origin_not_bijunctive(self):
        assert not is_bijunctive(CUBE3_NO_000)
        assert not synth_bijunctive(CUBE3_NO_000)

    def test_equality_is_affine(self):
        assert is_affine(Relation.from_bitstrings(["00", "11"]))

    def test_empty_relation_in_every_class(self):
        empty = Relation(2, frozenset())
        assert is_bijunctive(empty) and is_horn(empty) and is_dual_horn(empty)
        assert is_affine(empty) and is_componentwise_bijunctive(empty)
        assert is_or_free(empty) and is_nand_free(empty)

    @given(relation_strategy(max_arity=3))
    @settings(max_examples=300, deadline=None)
    def test_synthesis_oracles_agree(self, rel):
        assert is_bijunctive(rel) == synth_bijunctive(rel)
        assert is_horn(rel) == synth_horn(rel)
        assert is_dual_horn(rel) == synth_dual_horn(rel)
        assert is_affine(rel) == synth_affine(rel)

    def test_bijunctive_cache_is_bounded(self):
        # one classify stream asks the table check for ~1,700 components;
        # a long-lived process must not keep every one of them
        for cached in (is_bijunctive, _bijunctive_table):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize >= 4096

    def test_synthesis_oracles_agree_arity4_sample(self):
        rng = random.Random(41)
        for _ in range(40):
            size = rng.randint(0, 16)
            rel = Relation(4, frozenset(rng.sample(range(16), size)))
            assert is_bijunctive(rel) == synth_bijunctive(rel)
            assert is_horn(rel) == synth_horn(rel)
            assert is_dual_horn(rel) == synth_dual_horn(rel)
            assert is_affine(rel) == synth_affine(rel)


class TestBijunctiveTable:
    """is_bijunctive reads the join of binary projections; the reference
    checks majority closure on every three tuples."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_small_relation_matches_majority(self, arity):
        for rel in all_relations(arity):
            assert is_bijunctive(rel) == majority_closed(rel), rel

    @given(relation_strategy(min_arity=4, max_arity=8))
    @settings(max_examples=150, deadline=None)
    @example(rel=Relation.full(8))
    @example(rel=Relation(8, frozenset(range(256)) - {0b10110100}))
    @example(rel=staircase(4))
    @example(rel=staircase(6))
    @example(rel=staircase(8))
    @example(rel=staircase(8).complemented())
    @example(rel=Relation(8, frozenset({0, 255})))
    def test_wide_relations_match_majority(self, rel):
        assert is_bijunctive(rel) == majority_closed(rel)

    def test_two_cnf_relations_and_near_misses(self):
        rng = random.Random(43)
        seen = set()
        for arity in range(4, 9):
            for _ in range(12):
                rel = two_cnf_relation(arity, rng, rng.randint(arity // 2, 2 * arity))
                if len(rel.tuples) >= 3 and rng.random() < 0.5:
                    # drop the majority of three tuples, unless it is one of them
                    a, b, c = rng.sample(sorted(rel.tuples), 3)
                    rel = Relation(arity, rel.tuples - {(a & b) | (a & c) | (b & c)})
                got = is_bijunctive(rel)
                assert got == majority_closed(rel), rel
                seen.add(got)
        assert seen == {True, False}


class TestAffineCoset:
    """is_affine compares the relation's size with the rank of its
    differences; the reference checks XOR closure on every three tuples."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_small_relation_matches_xor_closure(self, arity):
        for rel in all_relations(arity):
            assert is_affine(rel) == xor3_closed(rel) == synth_affine(rel), rel

    @given(relation_strategy(min_arity=4, max_arity=8))
    @settings(max_examples=150, deadline=None)
    @example(rel=Relation.full(8))
    @example(rel=COSET8)
    @example(rel=Relation(8, COSET8.tuples - {0b10110100}))
    def test_wide_relations_match_xor_closure(self, rel):
        assert is_affine(rel) == xor3_closed(rel) == synth_affine(rel)

    def test_cosets_and_near_misses(self):
        assert len(COSET8.tuples) == 32 and is_affine(COSET8)
        rng = random.Random(47)
        seen = set()
        for arity in range(4, 9):
            for _ in range(12):
                gens = [rng.randrange(1, 1 << arity) for _ in range(rng.randint(1, arity))]
                rel = coset(arity, rng.randrange(1 << arity), gens)
                if len(rel.tuples) >= 4 and rng.random() < 0.5:
                    rel = Relation(arity, rel.tuples - {rng.choice(sorted(rel.tuples))})
                got = is_affine(rel)
                assert got == xor3_closed(rel), rel
                seen.add(got)
        assert seen == {True, False}


class TestTableComponents:
    @given(relation_strategy(min_arity=1, max_arity=8))
    @settings(max_examples=200, deadline=None)
    @example(rel=Relation.full(8))
    @example(rel=staircase(8))
    @example(rel=Relation(8, frozenset({0, 255})))
    @example(rel=Relation(4, frozenset({0b0000, 0b0110, 0b0111, 0b1000, 0b1001})))
    def test_matches_hamming_components(self, rel):
        want = [table_of(c) for c in hamming_components(rel.arity, rel.tuples)]
        got = sorted(_table_components(rel.arity, [rel.table]), key=lambda c: c & -c)
        assert got == want

    @given(st.integers(1, 8).flatmap(
        lambda k: st.lists(relation_strategy(k, k), min_size=1, max_size=6)
    ))
    @settings(max_examples=100, deadline=None)
    def test_packed_tables_split_one_by_one(self, rels):
        arity = rels[0].arity
        each = set()
        for rel in rels:
            each |= _table_components(arity, [rel.table])
        assert _table_components(arity, [rel.table for rel in rels]) == each


class TestFreePredicates:
    def test_nand_itself(self):
        assert not is_nand_free(Relation.from_bitstrings(["00", "01", "10"]))

    def test_path_relation_is_nand_free(self):
        assert is_nand_free(PATH5)

    def test_vc_clause_relation(self):
        # satisfying set of (a | !b | c): NAND-free but not dual-Horn-free
        rel = Relation(3, frozenset(range(8)) - {0b010})
        assert is_nand_free(rel)
        assert not is_dual_horn_free(rel)

    def test_dual_horn_witness_itself(self):
        assert not is_dual_horn_free(CUBE3_NO_100)

    def test_path_relation_is_dual_horn_free(self):
        assert is_dual_horn_free(PATH5)

    def test_low_arity_vacuous(self):
        r1 = Relation(1, frozenset({0}))
        assert is_or_free(r1) and is_nand_free(r1)
        assert is_horn_free(OR2) and is_dual_horn_free(OR2)

    @given(relation_strategy(min_arity=2, max_arity=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_enumeration(self, rel):
        assert is_or_free(rel) == naive_is_free(rel, frozenset({1, 2, 3}), 2)
        assert is_nand_free(rel) == naive_is_free(rel, frozenset({0, 1, 2}), 2)
        assert is_horn_free(rel) == naive_is_free(
            rel, frozenset(range(8)) - {0b011}, 3
        )
        assert is_dual_horn_free(rel) == naive_is_free(
            rel, frozenset(range(8)) - {0b100}, 3
        )

    def test_observation_on_random_relations(self):
        # or-free implies dual-horn-free, nand-free implies horn-free (arity >= 3)
        rng = random.Random(17)
        for _ in range(1000):
            arity = rng.randint(3, 4)
            size = rng.randint(0, 1 << arity)
            rel = Relation(arity, frozenset(rng.sample(range(1 << arity), size)))
            if is_or_free(rel):
                assert is_dual_horn_free(rel)
            if is_nand_free(rel):
                assert is_horn_free(rel)


class TestComponentwiseBijunctive:
    def test_xor(self):
        assert is_componentwise_bijunctive(Relation.from_bitstrings(["01", "10"]))

    def test_cube_minus_origin(self):
        assert not is_componentwise_bijunctive(CUBE3_NO_000)

    def test_singleton(self):
        assert is_componentwise_bijunctive(Relation(1, frozenset({0})))

    def test_connected_bijunctive_is_componentwise(self):
        for arity in (1, 2, 3):
            for rel in all_relations(arity):
                if not rel.tuples:
                    continue
                connected = len(hamming_components(arity, rel.tuples)) == 1
                if is_bijunctive(rel) and connected:
                    assert is_componentwise_bijunctive(rel)


class TestRestrictionClosure:
    """The five restriction-based predicates read one closure of the
    relation under fixing and identifying positions."""

    @staticmethod
    def permuted(arity, tuples):
        out = set()
        for perm in itertools.permutations(range(arity)):
            out.add(frozenset(
                sum((t >> (arity - 1 - perm[p]) & 1) << (arity - 1 - p) for p in range(arity))
                for t in tuples
            ))
        return out

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_closure_is_covering_restrictions_up_to_permutation(self, arity):
        for rel in all_relations(arity):
            closure = _restriction_closure(rel)
            assert len(closure) == arity
            for target in range(1, arity + 1):
                choices = list(range(1, target + 1)) + [CONST0, CONST1]
                covering = {
                    naive_restrict_tuples(rel, target, entries)
                    for entries in itertools.product(choices, repeat=arity)
                    if set(range(1, target + 1)) <= set(entries)
                }
                reached = set()
                for table in closure[target - 1]:
                    tuples = [t for t in range(1 << target) if table >> t & 1]
                    reached |= self.permuted(target, tuples)
                assert reached == covering

    @given(relation_strategy(min_arity=2, max_arity=8))
    @settings(max_examples=100, deadline=None)
    @example(rel=Relation.full(8))
    @example(rel=staircase(8))
    def test_steps_of_one_table_match_restrict(self, rel):
        # tuple bit b is position k - b: fix it, or identify it with a
        # higher bit h (an earlier position), then drop it
        k = rel.arity
        want = set()
        for b in range(k):
            p = k - b
            rest = [q if q < p else q - 1 for q in range(1, k + 1)]
            for c in [CONST0, CONST1] + [k - h for h in range(b + 1, k)]:
                entries = tuple(c if q == p else rest[q - 1] for q in range(1, k + 1))
                want.add(naive_restrict_tuples(rel, k - 1, entries))
        got = {tuples_of(k - 1, table) for table in _level_steps(k, [rel.table])}
        assert got == want

    @given(st.integers(2, 8).flatmap(
        lambda k: st.lists(relation_strategy(k, k), min_size=1, max_size=6)
    ))
    @settings(max_examples=100, deadline=None)
    def test_packed_level_steps_each_table(self, rels):
        arity = rels[0].arity
        each = set()
        for rel in rels:
            each |= _level_steps(arity, [rel.table])
        assert _level_steps(arity, [rel.table for rel in rels]) == each

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_relation_matches_oracles(self, arity):
        for rel in all_relations(arity):
            assert relation_flags(rel) == naive_relation_flags(rel), rel

    def test_seeded_sample_arity4_and_5(self):
        rng = random.Random(29)
        rels = [
            Relation(4, frozenset(rng.sample(range(16), rng.randint(0, 16))))
            for _ in range(16)
        ]
        # arity 5 costs the oracles about 1.5 s a relation: two navigable ones
        gadget = product(PATH5, Relation.from_bitstrings(["00", "01", "11"]))
        rels += [gadget, gadget.complemented()]
        seen = set()
        for rel in rels:
            flags = relation_flags(rel)
            assert flags == naive_relation_flags(rel), rel
            seen.add(flags)
        # the sample exercises both values of every flag
        for field in RelationFlags.__dataclass_fields__:
            assert {getattr(f, field) for f in seen} == {True, False}, field

    def test_componentwise_bijunctive_looks_past_the_relation_itself(self):
        # Both components of the relation are bijunctive, but identifying
        # positions 2 and 3 joins them into {000, 010, 011, 100, 101},
        # which lacks majority(011, 101, 000) = 001.
        rel = Relation.from_bitstrings(["0000", "0110", "0111", "1000", "1001"])
        comps = hamming_components(4, rel.tuples)
        assert len(comps) == 2
        assert all(is_bijunctive(Relation(4, c)) for c in comps)
        assert not is_componentwise_bijunctive(rel)
        assert not naive_relation_flags(rel).componentwise_bijunctive
        joined = restrict(rel, RestrictionMap(4, 3, (1, 2, 2, 3)))
        assert joined.tuples == {0b000, 0b010, 0b011, 0b100, 0b101}

    @pytest.mark.parametrize("missing", [0b011, 0b101, 0b110])
    def test_every_horn_placement_is_caught(self, missing):
        rel = Relation(3, frozenset(range(8)) - {missing})
        assert not is_horn_free(rel)
        assert is_dual_horn_free(rel)

    @pytest.mark.parametrize("missing", [0b100, 0b010, 0b001])
    def test_every_dual_horn_placement_is_caught(self, missing):
        rel = Relation(3, frozenset(range(8)) - {missing})
        assert not is_dual_horn_free(rel)
        assert is_horn_free(rel)


class TestClassify:
    def test_path_relation_set(self):
        cls = classify_set([PATH5])
        assert cls.verdict is Verdict.NAVIGABLE
        assert cls.kind is NavigableKind.NAND_AND_DUAL_HORN_FREE

    def test_vertex_cover_relations(self):
        rel = Relation(3, frozenset(range(8)) - {0b010})
        cls = classify_set([rel])
        assert cls.verdict is Verdict.TIGHT_NOT_NAVIGABLE
        assert cls.kind is None

    def test_three_cnf_relations(self):
        rels = [
            Relation(3, frozenset(range(8)) - {bad})
            for bad in (0b000, 0b100, 0b110, 0b111)
        ]
        cls = classify_set(rels)
        assert cls.verdict is Verdict.NOT_TIGHT
        # flags of the first relation, cross-checked by enumeration
        flags = cls.per_relation[0]
        assert not flags.or_free
        assert flags.nand_free
        assert not flags.componentwise_bijunctive

    def test_empty_set_rejected(self):
        with pytest.raises(PreconditionError):
            classify_set([])

    def test_verdicts_mutually_exclusive(self):
        rng = random.Random(5)
        for _ in range(50):
            rels = [
                Relation(3, frozenset(rng.sample(range(8), rng.randint(0, 8))))
                for _ in range(rng.randint(1, 3))
            ]
            cls = classify_set(rels)
            assert (cls.kind is not None) == (cls.verdict is Verdict.NAVIGABLE)


class TestValidation:
    def test_arity_cap(self):
        with pytest.raises(PreconditionError):
            Relation(9, frozenset())

    def test_bool_arity(self):
        with pytest.raises(PreconditionError, match="arity"):
            Relation(True, frozenset({0}))

    def test_tuple_range(self):
        with pytest.raises(PreconditionError):
            Relation(2, frozenset({4}))

    def test_map_target_above_source(self):
        with pytest.raises(PreconditionError):
            RestrictionMap(2, 3, (1, 2))

    def test_map_bad_entry(self):
        with pytest.raises(PreconditionError):
            RestrictionMap(2, 2, (1, 3))

    @pytest.mark.parametrize(
        "source, target", [(True, True), (2, True), (True, 1), (2.0, 1), (2, "1")]
    )
    def test_map_arity_type(self, source, target):
        # bool is an int subclass: without the check, every map here but
        # the last is accepted, and the last fails comparing str with int
        with pytest.raises(PreconditionError, match="arity must be an integer"):
            RestrictionMap(source, target, (1,) * int(source))

    @pytest.mark.parametrize("entry", [True, False])
    def test_map_bool_entry(self, entry):
        # bool is an int subclass; True would otherwise pass as position 1
        with pytest.raises(PreconditionError, match="bad restriction entry"):
            RestrictionMap(2, 1, (entry, 1))


class TestRelFormat:
    def test_round_trip(self):
        text = serialize_relation(PATH5)
        assert parse_relation(text) == PATH5
        assert text == "arity 3\n000\n001\n101\n110\n111\n"

    def test_comments_and_blanks(self):
        assert parse_relation("# c\narity 1\n\n0\n") == Relation(1, frozenset({0}))

    def test_missing_arity(self):
        with pytest.raises(ParseError):
            parse_relation("01\n")

    def test_bad_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_relation("arity 2\n01\n012\n")

    @given(relation_strategy(max_arity=4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, rel):
        assert parse_relation(serialize_relation(rel)) == rel
