"""Every navigable relation of arity 4 through its route (ROADMAP item 20).

    PYTHONPATH=src python tests/navigable_arity4.py

Sends each of the 29,464 navigable relations of arity 4 alone through
seeded `helpers.formula_with_constants` instances: up to 2 satisfiable
draws per relation, in at most 30 tries, with n = 2-12 and 0-10 clauses
whose arguments mix constants and repeated variables. Each instance must
take the relation's route, `solve` must give the outcome and length of
`bfs_shortest`, and every path must replay with `apply_sequence`. The
script prints the counts per route and outcome and the histogram of
`stats.levels` on the two order-based routes (ROADMAP item 19), pinned
for its seed. It takes about 45 s, so it runs as a CI step rather
than in tier-1; pytest does not collect it, since its name does not
start with ``test_``. Exits 1 and names each count that differs.
"""

import random
import sys
from collections import Counter

from satflip import NavigableKind, Outcome, Relation, Verdict, apply_sequence
from satflip import bfs_shortest, classify_set, solve

from helpers import formula_with_constants

ARITY = 4
SEED = 4004
PER_RELATION = 2
TRIES = 30
CWB = NavigableKind.COMPONENTWISE_BIJUNCTIVE
NAND = NavigableKind.NAND_AND_DUAL_HORN_FREE
OR = NavigableKind.OR_AND_HORN_FREE
PATH, NOTCONNECTED = Outcome.PATH, Outcome.NOT_CONNECTED


def main():
    size = 1 << ARITY
    rng = random.Random(SEED)
    relations = Counter()
    answers = Counter()
    levels = Counter()
    unanswered = mismatches = 0
    for mask in range(1 << size):
        rel = Relation(ARITY, frozenset(t for t in range(size) if mask >> t & 1))
        cls = classify_set([rel])
        if cls.verdict is not Verdict.NAVIGABLE:
            continue
        kind = cls.kind
        relations[kind] += 1
        answered = 0
        for _ in range(TRIES):
            drawn = formula_with_constants([rel], rng.randint(2, 12), rng.randint(0, 10), rng)
            if drawn is None:
                continue
            phi, s, t = drawn
            res = solve(phi, s, t)
            ref = bfs_shortest(phi.compiled, s, t, cap=12)
            ok = (phi.route.classification.kind is kind
                  and (res.outcome, res.length) == (ref.outcome, ref.length)
                  and (res.flips is None or apply_sequence(phi.compiled, s, res.flips) == t))
            if not ok:
                mismatches += 1
                print(f"FAIL mask {mask:#06x}: {phi.num_vars} variables, s={s}, t={t}: "
                      f"{res.protocol_line()!r}, exact search {ref.protocol_line()!r}")
            answers[kind, res.outcome] += 1
            if kind is not CWB:
                levels[kind, res.stats.levels] += 1
            answered += 1
            if answered == PER_RELATION:
                break
        unanswered += not answered
    checks = [
        ("navigable relations by route (cwb, NAND-free, OR-free)",
         [relations[CWB], relations[NAND], relations[OR]], [16998, 6233, 6233]),
        ("componentwise bijunctive PATH / NOTCONNECTED",
         [answers[CWB, PATH], answers[CWB, NOTCONNECTED]], [29894, 4077]),
        ("NAND-free + dual-Horn-free PATH / NOTCONNECTED",
         [answers[NAND, PATH], answers[NAND, NOTCONNECTED]], [11222, 1244]),
        ("OR-free + Horn-free PATH / NOTCONNECTED",
         [answers[OR, PATH], answers[OR, NOTCONNECTED]], [11206, 1260]),
        ("NAND-free + dual-Horn-free levels 0 / 1 / 2 / more",
         [levels[NAND, 0], levels[NAND, 1], levels[NAND, 2],
          sum(c for (k, lv), c in levels.items() if k is NAND and lv > 2)],
         [2731, 9704, 31, 0]),
        ("OR-free + Horn-free levels 0 / 1 / 2 / more",
         [levels[OR, 0], levels[OR, 1], levels[OR, 2],
          sum(c for (k, lv), c in levels.items() if k is OR and lv > 2)],
         [2813, 9619, 34, 0]),
        # mask 0x0960, the relation {0101, 0110, 1000, 1011}
        ("relations with no satisfiable draw", unanswered, 1),
        ("instances whose answer differs from the exact search", mismatches, 0),
    ]
    failed = 0
    for label, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got}" + ("" if ok else f", expected {want}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
