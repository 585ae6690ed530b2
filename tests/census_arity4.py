"""Census of every relation of arity 4 (ROADMAP item 16).

    PYTHONPATH=src python tests/census_arity4.py

Classifies each of the 65,536 relations of arity 4 alone with
`classify_set` and checks the counts per verdict and kind, the
componentwise bijunctive relations that are not bijunctive, the affine
relations, and that complementing swaps the two order kinds. It checks
the five restriction-based flags, and the four "-free" flags of the pair
matrices (`relation._free_flags`), against the flags of
`helpers.reference_closure`, a closure built a table at a time over
strings (`helpers.closure_relation_flags`); the matrices' AND- and
OR-closure flags against the pairwise reference `helpers.closed_under`;
the cached verdict on the relation's own table
(`relation._components_bijunctive`) against a flood over a Python set
and clause synthesis (`helpers.components_bijunctive`); the bijunctive
flag of the pair-cube join against clause synthesis
(`helpers.synth_bijunctive`); and the affine flag of the translation
kernel against Gaussian elimination (`helpers.eliminated_affine`). It
compares the identification level that the componentwise-bijunctive
check builds for each relation (`relation._identification_levels`) with
`helpers.reference_identifications`, built over strings, and counts the
relations whose flags build no level at all. It takes about 24 s, so it
runs as a CI step rather than in tier-1; pytest does not collect it,
since its name does not start with ``test_``. Exits 1 and names each
count that differs.
"""

import operator
import sys
from collections import Counter

from satflip import NavigableKind, Relation, Verdict, classify_set, is_affine, is_bijunctive

from satflip.relation import _components_bijunctive, _free_flags, _identification_levels

from helpers import (
    closed_under,
    closure_calls,
    closure_relation_flags,
    components_bijunctive,
    eliminated_affine,
    reference_identifications,
    synth_bijunctive,
)

ARITY = 4
CWB = (Verdict.NAVIGABLE, NavigableKind.COMPONENTWISE_BIJUNCTIVE)
NAND = (Verdict.NAVIGABLE, NavigableKind.NAND_AND_DUAL_HORN_FREE)
OR = (Verdict.NAVIGABLE, NavigableKind.OR_AND_HORN_FREE)
TIGHT = (Verdict.TIGHT_NOT_NAVIGABLE, None)
NOT_TIGHT = (Verdict.NOT_TIGHT, None)


def gaussian_binomial_2(k, d):
    """The number of d-dimensional subspaces of GF(2)^k."""
    num = den = 1
    for i in range(d):
        num *= 2 ** (k - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def complement_mask(mask):
    """The truth table of the complemented relation: tuple t moves to
    2^k - 1 - t, which reverses the table's 2^k bits."""
    return int(format(mask, f"0{1 << ARITY}b")[::-1], 2)


def main():
    size = 1 << ARITY
    verdicts = {}
    census = Counter()
    not_bijunctive = affine = no_closure = 0
    flag_mismatches = matrix_mismatches = reference_mismatches = 0
    closed_mismatches = verdict_mismatches = bijunctive_mismatches = affine_mismatches = 0
    for mask in range(1 << size):
        rel = Relation(ARITY, frozenset(t for t in range(size) if mask >> t & 1))
        with closure_calls() as built:
            cls = classify_set([rel])
        no_closure += not built
        flags = cls.per_relation[0]
        bijunctive_mismatches += flags.bijunctive != synth_bijunctive(rel)
        affine_mismatches += flags.affine != eliminated_affine(rel)
        reference = closure_relation_flags(rel)
        flag_mismatches += cls.per_relation[0][4:] != reference
        matrix = _free_flags(rel)
        matrix_mismatches += matrix[2:] != reference[1:]
        closed_mismatches += matrix[:2] != (closed_under(rel, operator.and_),
                                            closed_under(rel, operator.or_))
        verdict_mismatches += (_components_bijunctive(ARITY, rel.table)
                               != components_bijunctive(ARITY, rel.tuples))
        reference_mismatches += (list(_identification_levels(rel))
                                 != reference_identifications(rel))
        key = verdicts[mask] = (cls.verdict, cls.kind)
        census[key] += 1
        not_bijunctive += key == CWB and not is_bijunctive(rel)
        affine += is_affine(rel)
    swapped = sum(verdicts[complement_mask(mask)] == OR
                  for mask, key in verdicts.items() if key == NAND)
    # the empty relation plus every coset of every subspace of GF(2)^4:
    # 16 points + 120 lines + 140 planes + 30 hyperplanes + 1 space
    cosets = [gaussian_binomial_2(ARITY, d) * 2 ** (ARITY - d) for d in range(ARITY + 1)]
    checks = [
        ("componentwise bijunctive", census[CWB], 16998),
        ("componentwise bijunctive, not bijunctive", not_bijunctive, 12828),
        ("NAND-free + dual-Horn-free", census[NAND], 6233),
        ("OR-free + Horn-free", census[OR], 6233),
        ("NAND-free + dual-Horn-free with an OR-free + Horn-free complement", swapped, 6233),
        ("tight but not navigable", census[TIGHT], 3826),
        ("not tight", census[NOT_TIGHT], 32246),
        ("every relation", sum(census.values()), 1 << size),
        ("cosets by Gaussian binomials", cosets, [16, 120, 140, 30, 1]),
        ("affine: the empty set plus every coset", affine, 1 + sum(cosets)),
        ("flags that differ from the reference closure's", flag_mismatches, 0),
        ("pair-matrix flags that differ from the reference closure's", matrix_mismatches, 0),
        ("pair-matrix AND/OR-closure flags that differ from the pairwise reference",
         closed_mismatches, 0),
        ("own-table verdicts that differ from the reference", verdict_mismatches, 0),
        ("identification levels that differ from the reference build", reference_mismatches, 0),
        ("bijunctive flags that differ from clause synthesis", bijunctive_mismatches, 0),
        ("affine flags that differ from the elimination reference", affine_mismatches, 0),
        # only the componentwise-bijunctive flag builds a level: these are
        # the relations whose flag is decided without one, bijunctive,
        # affine, or refused by the components of the relation itself
        ("relations whose flags build no closure", no_closure, 47856),
    ]
    failed = 0
    for label, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got}" + ("" if ok else f", expected {want}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
