import hashlib
import itertools
import operator
import random
from collections import Counter
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
)
from satflip.errors import ParseError
from satflip.relation import (
    _bijunctive_table,
    _components_bijunctive,
    _free_flags,
    _level_steps,
    _restriction_closure,
    _table_components,
)

from helpers import (
    CLASS_OPERATIONS,
    closed_relation,
    closed_under,
    closure_calls,
    closure_relation_flags,
    components_bijunctive,
    every_relation,
    flag_digest_relations,
    hamming_components,
    majority_closed,
    naive_is_free,
    naive_relation_flags,
    naive_restrict_tuples,
    non_decimal_cases,
    random_relation,
    reference_closure,
    relation_strategy,
    restriction_entries,
    set_rule,
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


def wide_sample(arity):
    """Seeded random relations of the arity, then full, empty, staircase,
    product and complemented ones."""
    rng = random.Random(arity)
    rels = [random_relation(arity, rng) for _ in range({4: 40, 5: 20, 6: 10}.get(arity, 3))]
    left, right = random_relation(2, rng), random_relation(arity - 2, rng)
    pair = product(left, right)
    return rels + [Relation.full(arity), Relation(arity, frozenset()), staircase(arity), pair,
                   staircase(arity).complemented(), rels[0].complemented(),
                   pair.complemented()]


class TestRestrict:
    def test_constant_and_positions(self):
        rmap = RestrictionMap(3, 2, (CONST1, 1, 2))
        assert restrict(CUBE3_NO_100, rmap).tuples == frozenset({0b01, 0b10, 0b11})

    def test_identity(self):
        assert restrict(PATH5, RestrictionMap(3, 3, (1, 2, 3))) == PATH5

    def test_identification(self):
        rmap = RestrictionMap(2, 1, (1, 1))
        assert restrict(OR2, rmap).tuples == frozenset({0b1})

    def test_arity_mismatch(self):
        with pytest.raises(PreconditionError):
            restrict(OR2, RestrictionMap(3, 3, (1, 2, 3)))

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
        # one classify stream asks the table check for ~930 components
        # and the per-table verdict for ~530 tables; a long-lived process
        # must not keep every one of them
        for cached in (is_bijunctive, _bijunctive_table, _components_bijunctive):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize >= 4096

    def test_predicate_caches_are_bounded(self):
        # one classify stream fills ~500 entries in each; a long-lived
        # process must not keep every relation it has classified
        from satflip import relation

        for name in ("is_horn", "is_dual_horn", "is_affine", "is_or_free",
                     "is_nand_free", "is_horn_free", "is_dual_horn_free",
                     "is_componentwise_bijunctive"):
            cached = getattr(relation, name)
            assert cached.cache_info().maxsize == relation.PREDICATE_CACHE_SIZE, name
        assert relation.PREDICATE_CACHE_SIZE >= 4096

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
    """The componentwise-bijunctive predicate reads one closure of the
    relation under fixing and identifying positions, from arity 3 up."""

    @staticmethod
    def permuted(arity, tuples):
        out = set()
        for perm in itertools.permutations(range(arity)):
            out.add(frozenset(
                sum((t >> (arity - 1 - perm[p]) & 1) << (arity - 1 - p) for p in range(arity))
                for t in tuples
            ))
        return out

    @pytest.mark.parametrize("arity", [3, 4])
    def test_closure_is_covering_restrictions_up_to_permutation(self, arity):
        # every relation of arity 3, and a seeded sample of arity 4
        rels = all_relations(3) if arity == 3 else [
            random_relation(4, random.Random(i)) for i in range(24)]
        for rel in rels:
            closure = _restriction_closure(rel)
            assert len(closure) == arity - 2
            for target in range(3, arity + 1):
                choices = list(range(1, target + 1)) + [CONST0, CONST1]
                covering = {
                    naive_restrict_tuples(rel, target, entries)
                    for entries in itertools.product(choices, repeat=arity)
                    if set(range(1, target + 1)) <= set(entries)
                }
                reached = set()
                for table in closure[target - 3]:
                    tuples = [t for t in range(1 << target) if table >> t & 1]
                    reached |= self.permuted(target, tuples)
                assert reached == covering

    @pytest.mark.parametrize("arity", [4, 5, 6, 7, 8])
    def test_closure_equals_the_reference_build(self, arity):
        # every level the closure keeps, arity 3 up, as the same tuple of
        # frozensets; seeded random relations, then full, empty,
        # staircase, product and complemented
        for rel in wide_sample(arity):
            closure = _restriction_closure(rel)
            assert all(type(level) is frozenset for level in closure)
            assert closure == reference_closure(rel)[2:], rel

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
        for field in RelationFlags._fields:
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


def horn_free_not_nand_free(arity, rng, count):
    """`count` relations that are Horn-free but not NAND-free by the
    reference closure: seeded 2-CNF solution sets with 1-3 tuples
    dropped. A NAND witness sends each through the diagonal pass."""
    out = []
    while len(out) < count:
        rel = two_cnf_relation(arity, rng, rng.randint(1, arity))
        kept = sorted(rel.tuples)
        rng.shuffle(kept)
        rel = Relation(arity, frozenset(kept[rng.randint(1, 3):]))
        flags = closure_relation_flags(rel)
        if flags[3] and not flags[2]:
            out.append(rel)
    return out


def spread_horn(arity):
    """(x | !y | !z) with x copied to the first arity - 2 positions: only
    the set X of every copy makes the Horn pattern, so the diagonal pass
    must move several positions at once."""
    copies = (1 << (arity - 2)) - 1
    return Relation(arity, frozenset(
        (copies if x else 0) << 2 | y << 1 | z
        for x, y, z in itertools.product((0, 1), repeat=3) if (x, y, z) != (0, 1, 1)))


class TestFreeFlagMatrices:
    """The six flags read off the pair matrices, with no Schaefer
    shortcut (`_free_flags`): AND- and OR-closure equal the pairwise
    reference `closed_under`, and the four "-free" flags equal the flags
    of the reference closure, which `tests/helpers.py` builds over
    strings."""

    @staticmethod
    def reference(rel):
        return ((closed_under(rel, operator.and_), closed_under(rel, operator.or_))
                + closure_relation_flags(rel)[1:])

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_small_relation_matches_the_reference(self, arity):
        for rel in all_relations(arity):
            assert _free_flags(rel) == self.reference(rel), rel

    @pytest.mark.parametrize("arity", [4, 5, 6, 7, 8])
    def test_seeded_relations_match_the_reference(self, arity):
        rng = random.Random(60 + arity)
        horn_free = horn_free_not_nand_free(arity, rng, 2)
        rels = wide_sample(arity) + horn_free + [spread_horn(arity)]
        rels += [rel.complemented() for rel in horn_free + [spread_horn(arity)]]
        rels += [closed_relation(arity, rng.sample(range(1 << arity), rng.randint(2, 5)),
                                 CLASS_OPERATIONS[name]) for name in ("horn", "dual_horn")]
        seen = set()
        for rel in rels:
            flags = _free_flags(rel)
            assert flags == self.reference(rel), rel
            seen.add(flags)
        # the sample decides each flag both ways
        assert all({f[i] for f in seen} == {True, False} for i in range(6)), seen


class TestComponentsBijunctive:
    """The cached per-table verdict (`_components_bijunctive`) equals
    the reference `components_bijunctive`: a flood over a Python set
    (`hamming_components`) and clause synthesis on each component."""

    def test_every_table_of_arity_3(self):
        verdicts = Counter()
        for table in range(256):
            verdict = _components_bijunctive(3, table)
            assert verdict == components_bijunctive(3, tuples_of(3, table)), table
            verdicts[verdict] += 1
        assert verdicts[False] > 0 and verdicts[True] > 0

    @pytest.mark.parametrize("arity", [4, 5, 6, 7, 8])
    def test_seeded_tables(self, arity):
        rng = random.Random(90 + arity)
        rels = wide_sample(arity) + [two_cnf_relation(arity, rng, rng.randint(1, arity))
                                     for _ in range(4)]
        # sparse tables split into several components
        rels += [Relation(arity, frozenset(rng.sample(range(1 << arity), rng.randint(2, arity))))
                 for _ in range(6)]
        verdicts = Counter()
        for rel in rels:
            verdict = _components_bijunctive(arity, rel.table)
            assert verdict == components_bijunctive(arity, rel.tuples), rel
            verdicts[verdict] += 1
        assert verdicts[False] > 0 and verdicts[True] > 0


# sha256 of every `flag_text` of `flag_digest_relations()`, in order,
# recorded before Horn and dual Horn were read off the pair matrices and
# before the per-table verdict; a change here moves a flag of some
# relation.
FLAG_DIGEST = "ffa1e8282039242b035328c527bb64a38a8ce9a2639821cc2d8c353e28e295ea"


def flag_text(rel):
    flags = "".join("1" if f else "0" for f in relation_flags(rel))
    return f"{rel.arity} {rel.table:x} {flags}\n"


class TestFlagDigest:
    def test_flags_match_the_recorded_digest(self):
        rels = flag_digest_relations()
        assert len(rels) == 526
        digest = hashlib.sha256()
        for rel in rels:
            digest.update(flag_text(rel).encode())
        assert digest.hexdigest() == FLAG_DIGEST

    def test_the_wide_relations_decide_each_flag_both_ways(self):
        wide = [relation_flags(rel) for rel in flag_digest_relations() if rel.arity >= 4]
        for i, name in enumerate(RelationFlags._fields):
            assert {flags[i] for flags in wide} == {True, False}, name


class TestSchaeferShortcut:
    """The componentwise-bijunctive predicate returns True when the
    relation is bijunctive or affine, before it splits the relation or
    builds the closure; every relation builds its pair matrices once, so
    the "-free" predicates take no shortcut. The reference closure, read
    without any shortcut, must agree."""

    CLOSURE_PREDICATES = (is_componentwise_bijunctive, is_or_free, is_nand_free,
                          is_horn_free, is_dual_horn_free)

    @staticmethod
    def in_class_sample():
        """Seeded relations of arity 5-8 inside each Schaefer class: 2-CNF
        solution sets, and closures of random tuples under each class's
        operation."""
        rng = random.Random(53)
        out = []
        for arity in range(5, 9):
            out += [("bijunctive", two_cnf_relation(arity, rng, rng.randint(1, 2 * arity)))
                    for _ in range(6)]
            for name, operation in CLASS_OPERATIONS.items():
                out += [(name, closed_relation(
                    arity, rng.sample(range(1 << arity), rng.randint(2, 8)), operation))
                    for _ in range(6)]
        return out

    def test_flags_match_the_closure_inside_each_class(self):
        classes = {"bijunctive": is_bijunctive, "horn": is_horn,
                   "dual_horn": is_dual_horn, "affine": is_affine}
        alone = set()
        for name, rel in self.in_class_sample():
            assert classes[name](rel), (name, rel)
            assert relation_flags(rel)[4:] == closure_relation_flags(rel), rel
            members = {other for other, test in classes.items() if test(rel)}
            if members == {name}:
                alone.add(name)
        # every class has members that no other class holds, so each
        # class's flags are checked on relations of that class alone
        assert alone == set(classes)

    @pytest.mark.parametrize("rel", [Relation.full(8), COSET8], ids=["full", "coset"])
    def test_relations_in_a_class_build_no_closure(self, rel):
        for predicate in self.CLOSURE_PREDICATES:
            predicate.cache_clear()
        before = closure_calls()
        assert relation_flags(rel)[4:] == (True,) * 5
        assert closure_calls() == before

    @pytest.mark.parametrize("arity", [6, 7, 8])
    def test_a_failed_top_level_check_builds_no_closure(self, arity):
        # (x | y | z) beside !(x & y & z): in no Schaefer class, connected
        # and not bijunctive, so the componentwise check fails on the
        # relation itself, and Horn, dual Horn and the four "-free" flags
        # come from one build of the pair matrices
        rel = product(CUBE3_NO_000, Relation(3, frozenset(range(7))))
        if arity > 6:
            rel = product(rel, Relation.full(arity - 6))
        for predicate in (is_horn, is_dual_horn) + self.CLOSURE_PREDICATES:
            predicate.cache_clear()
        before, matrices = closure_calls(), _free_flags.cache_info().misses
        flags = relation_flags(rel)
        assert closure_calls() == before
        assert _free_flags.cache_info().misses == matrices + 1
        assert flags[:5] == (False,) * 5
        assert flags[4:] == closure_relation_flags(rel)

    def test_componentwise_bijunctive_refuses_the_relation_itself_first(self):
        # connected and not bijunctive: the widest level fails, so no
        # closure is built
        rel = product(CUBE3_NO_000, Relation.full(5))
        is_componentwise_bijunctive.cache_clear()
        before = closure_calls()
        assert not is_componentwise_bijunctive(rel)
        assert closure_calls() == before
        assert not closure_relation_flags(rel)[0]


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

    @pytest.mark.parametrize("k, p", [(k, p) for k in range(1, 7) for p in range(k + 1)])
    def test_single_cnf_clause(self, k, p):
        # One clause of k literals, p of them negated (here x1..xp), holds
        # on every tuple but the one with 1 at the negated positions and 0
        # at the others. Which positions are negated does not change the
        # class, since the classes are closed under permuting positions.
        bad = ((1 << p) - 1) << (k - p)
        cls = classify_set([Relation(k, frozenset(range(1 << k)) - {bad})])
        if k <= 2:
            want = (Verdict.NAVIGABLE, NavigableKind.COMPONENTWISE_BIJUNCTIVE)
        elif p == 0:
            want = (Verdict.NAVIGABLE, NavigableKind.NAND_AND_DUAL_HORN_FREE)
        elif p == k:
            want = (Verdict.NAVIGABLE, NavigableKind.OR_AND_HORN_FREE)
        elif p in (1, k - 1):
            want = (Verdict.TIGHT_NOT_NAVIGABLE, None)
        else:
            want = (Verdict.NOT_TIGHT, None)
        assert (cls.verdict, cls.kind) == want


def gaussian_binomial_2(k, d):
    """The number of d-dimensional subspaces of GF(2)^k."""
    out = 1
    for i in range(d):
        out = out * (2 ** (k - i) - 1) // (2 ** (i + 1) - 1)
    return out


class TestCensus:
    """`classify_set` on every single relation of arity 1-3."""

    CWB = (Verdict.NAVIGABLE, NavigableKind.COMPONENTWISE_BIJUNCTIVE)
    NAND = (Verdict.NAVIGABLE, NavigableKind.NAND_AND_DUAL_HORN_FREE)
    OR = (Verdict.NAVIGABLE, NavigableKind.OR_AND_HORN_FREE)

    @pytest.mark.parametrize("arity, counts", [
        (1, {CWB: 4}),
        (2, {CWB: 16}),
        (3, {CWB: 208, NAND: 16, OR: 16,
             (Verdict.TIGHT_NOT_NAVIGABLE, None): 6, (Verdict.NOT_TIGHT, None): 10}),
    ])
    def test_counts_per_verdict_and_kind(self, arity, counts):
        census = Counter()
        for rel in every_relation(arity):
            cls = classify_set([rel])
            census[cls.verdict, cls.kind] += 1
        assert census == counts

    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_relation_of_arity_at_most_2_is_bijunctive(self, arity):
        # a relation of arity <= 2 is the conjunction of the 2-clauses
        # that exclude its missing tuples, so the census above is all CWB
        assert all(is_bijunctive(rel) for rel in every_relation(arity))

    @pytest.mark.parametrize("arity, count", [(1, 4), (2, 12), (3, 52)])
    def test_affine_count(self, arity, count):
        # the empty relation plus every coset of every subspace of GF(2)^k:
        # at arity 3, 1 + 8 points + 28 lines + 14 planes + 1 cube = 52
        cosets = sum(gaussian_binomial_2(arity, d) * 2 ** (arity - d)
                     for d in range(arity + 1))
        assert 1 + cosets == count
        assert sum(is_affine(rel) for rel in every_relation(arity)) == count

    def test_every_pair_of_arity_at_most_3_follows_the_set_rule(self):
        # 276 relations, so 276 * 277 / 2 = 38,226 pairs, a relation with
        # itself included; the 228 componentwise bijunctive ones make
        # 228 * 229 / 2 = 26,106 of them componentwise bijunctive
        rels = [rel for arity in (1, 2, 3) for rel in every_relation(arity)]
        flags = {rel: relation_flags(rel) for rel in rels}
        census = Counter()
        for a, b in itertools.combinations_with_replacement(rels, 2):
            cls = classify_set([a, b])
            assert cls.per_relation == (flags[a], flags[b])
            assert (cls.verdict, cls.kind) == set_rule(cls.per_relation), (a, b)
            census[cls.verdict, cls.kind] += 1
        assert census == {self.CWB: 26106, self.NAND: 2920, self.OR: 2920,
                          (Verdict.TIGHT_NOT_NAVIGABLE, None): 1152,
                          (Verdict.NOT_TIGHT, None): 5128}

    def test_complement_swaps_the_two_order_kinds(self):
        # bitwise complement maps NAND-free + dual-Horn-free onto
        # OR-free + Horn-free, so the arity-3 census has 16 of each
        for rel in every_relation(3):
            kinds = {classify_set([r]).kind for r in (rel, rel.complemented())}
            if NavigableKind.NAND_AND_DUAL_HORN_FREE in kinds:
                assert kinds == {NavigableKind.NAND_AND_DUAL_HORN_FREE,
                                 NavigableKind.OR_AND_HORN_FREE}


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

    def test_from_bitstrings(self):
        with pytest.raises(PreconditionError) as err:
            Relation.from_bitstrings([])
        assert str(err.value) == "cannot infer arity from an empty tuple list"
        with pytest.raises(PreconditionError) as err:
            Relation.from_bitstrings(["01", "1"])
        assert str(err.value) == "bad tuple '1' for arity 2"

    def test_map_entry_count(self):
        with pytest.raises(PreconditionError) as err:
            RestrictionMap(2, 2, (1,))
        assert str(err.value) == "expected 2 entries, got 1"

    def test_then_needs_matching_arities(self):
        inner, outer = RestrictionMap(3, 2, (1, 2, 2)), RestrictionMap(3, 1, (1, 1, 1))
        with pytest.raises(PreconditionError) as err:
            inner.then(outer)
        assert str(err.value) == (
            "cannot compose: inner target arity 2 != outer source arity 3"
        )

    @pytest.mark.parametrize("entry", [True, False])
    def test_map_bool_entry(self, entry):
        # bool is an int subclass; True would otherwise pass as position 1
        with pytest.raises(PreconditionError, match="bad restriction entry"):
            RestrictionMap(2, 1, (entry, 1))


def rel_text(relation):
    """The relation as .rel text: its arity line, then its tuples."""
    return "\n".join([f"arity {relation.arity}", *relation.bitstrings()]) + "\n"


class TestRelFormat:
    def test_round_trip(self):
        text = rel_text(PATH5)
        assert parse_relation(text) == PATH5
        assert text == "arity 3\n000\n001\n101\n110\n111\n"

    def test_comments_and_blanks(self):
        assert parse_relation("# c\narity 1\n\n0\n") == Relation(1, frozenset({0}))

    def test_missing_arity(self):
        with pytest.raises(ParseError):
            parse_relation("01\n")

    @pytest.mark.parametrize("arity", ["0", "9"])
    def test_arity_out_of_range(self, arity):
        with pytest.raises(ParseError) as err:
            parse_relation(f"# c\narity {arity}\n")
        assert str(err.value) == "line 2: arity must be in 1..8"

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    def test_no_arity_line(self, text):
        with pytest.raises(ParseError) as err:
            parse_relation(text)
        assert str(err.value) == "missing 'arity' line"

    def test_bad_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_relation("arity 2\n01\n012\n")

    @pytest.mark.parametrize("text, message", non_decimal_cases(
        [("# c\narity {tok}\n01\n", "line 2: bad arity '{tok}'")]
    ))
    def test_non_decimal_arity(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_relation(text)
        assert str(err.value) == message

    def test_leading_zeros(self):
        assert parse_relation("arity 02\n01\n") == Relation(2, frozenset({0b01}))

    @given(relation_strategy(max_arity=4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, rel):
        assert parse_relation(rel_text(rel)) == rel
