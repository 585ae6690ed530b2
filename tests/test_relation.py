import itertools
import random

import pytest
from hypothesis import given, settings
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
from satflip.relation import _hamming_components, _restriction_closure

from helpers import (
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
)

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
OR2 = Relation.from_bitstrings(["01", "10", "11"])
CUBE3_NO_000 = Relation(3, frozenset(range(8)) - {0b000})
CUBE3_NO_100 = Relation(3, frozenset(range(8)) - {0b100})


def all_relations(arity):
    for bits in range(1 << (1 << arity)):
        yield Relation(arity, frozenset(i for i in range(1 << arity) if bits >> i & 1))


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
        # one classify stream asks it for ~1,700 components; a long-lived
        # process must not keep every one of them
        maxsize = is_bijunctive.cache_info().maxsize
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
                connected = len(_hamming_components(arity, rel.tuples)) == 1
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
                for tuples in closure[target - 1]:
                    reached |= self.permuted(target, tuples)
                assert reached == covering

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
        comps = _hamming_components(4, rel.tuples)
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
