"""The exact search's memory per state does not grow with n (ROADMAP item 10).

    PYTHONPATH=src python tests/search_scale.py

Runs `bfs_shortest` under tracemalloc at n = 20 and n = 24 on the two
formulas of `TestSearchMemory` in tests/test_recon.py: the clause-free
formula, and one arity-8 clause on x1, x3, ..., x15. Each search goes
from all zeros to all ones but x1, which the clause allows. Exits 1 if
the peak per state at n = 24 is above `recon.BYTES_PER_STATE` or above
the peak at n = 20, or if a path is not n - 1 flips long or fails
`apply_sequence`. It takes about 3 s, so it runs as a CI step rather
than in tier-1; pytest does not collect it, since its name does not
start with ``test_``.
"""

import sys
import tracemalloc
from time import perf_counter

from satflip import Clause, Formula, Relation, apply_sequence, bfs_shortest
from satflip import recon

SIZES = (20, 24)
ARITY8 = Relation(8, frozenset(range(256)) - {0b10101010, 0b01010101, 0b11111111, 1})
FORMULAS = {
    "clause-free": (),
    "arity-8-clause": (Clause("r", (1, 3, 5, 7, 9, 11, 13, 15)),),
}


def searched(n, clauses):
    """Peak bytes per state of one search, its seconds, and whether its
    path is n - 1 flips long and replays from s to t."""
    compiled = Formula(n, (("r", ARITY8),), clauses).compiled
    t = ((1 << n) - 1) ^ (1 << (n - 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t0 = perf_counter()
        result = bfs_shortest(compiled, 0, t, cap=n)
        seconds = perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    good = result.length == n - 1 and apply_sequence(compiled, 0, result.flips) == t
    return peak / (1 << n), seconds, good


def main():
    ok = True
    for name, clauses in FORMULAS.items():
        peaks = []
        for n in SIZES:
            per_state, seconds, good = searched(n, clauses)
            peaks.append(per_state)
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}, n = {n}: {per_state:.3f} bytes"
                  f" per state, {seconds:.2f} s, path {'replays' if good else 'is wrong'}")
        good = peaks[1] <= min(peaks[0], recon.BYTES_PER_STATE)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: {peaks[1]:.3f} bytes per state at"
              f" n = {SIZES[1]}, at most {peaks[0]:.3f} (n = {SIZES[0]}) and"
              f" {recon.BYTES_PER_STATE} (BYTES_PER_STATE)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
