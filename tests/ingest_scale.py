"""Reading, compiling and solving grow linearly with the instance (ROADMAP items 17 and 25).

    PYTHONPATH=src python tests/ingest_scale.py

Builds stride-2 PATH5 windows, the clauses PATH5(x_i, x_i+1, x_i+2) for
i = 1, 3, 5, ..., as .cnfs text at n = 24,001 and n = 240,001. On each
it times `parse_instance`, then `phi.compiled`, then `solve` with s = t
= all zeros, which must answer ``PATH 0``. Three dense solves follow,
each a path of n flips: the window from all zeros to all ones on the
order-based route; the window over PATH5's complement from all ones to
all zeros on the complement route, which solves the complemented form
from all zeros to all ones and spells the path in the formula's signs;
and an implication chain, the clauses (x_v, x_v+1) over {00, 01, 11},
from all ones to all zeros on the greedy route. Each must answer
``PATH n``. Only the dense solves themselves are timed, not the
complement window's or the chain's parse, compile and route. Both
windows' solves run with the cyclic garbage collector, as a caller runs
them: the backward walk keeps its precedence pairs in one list and
builds no set per variable, and each answer flip is built once. The
chain's solve runs with the collector paused, as `timeit` times a
statement: the greedy walk's n flip records stay tracked while
it runs, so between these two sizes its full collections grow faster
than n (none or one at n = 24,001, two or three at n = 240,001, for a
ratio of 15 to 18 with the collector running), a cost of its
allocations that ROADMAP item 17 keeps, while this step checks the cost
of its flips. The two sizes alternate, run by run, and
each step's time is the best of five runs, measured as this process's
CPU time (`time.process_time`), so that load from other processes on
the machine counts in neither size. The larger instance has ten times
the clauses, so linear growth takes about 10 times as long. Exits 1 if
the three ingest steps together, or any dense solve, take more than
20 times as long on the larger instance as on the smaller, or if an
answer is wrong. The bound is a ratio, so the machine's speed does not
move it. It takes about 50 s, so it runs as a CI step rather than in
tier-1; pytest does not collect it, since its name does not start with
``test_``.
"""

import gc
import sys
from time import process_time

from satflip import parse_instance, solve

SIZES = (24_001, 240_001)
MAX_RATIO = 20
RUNS = 5
PATH5 = ("000", "001", "101", "111", "110")
PATH5_COMPLEMENT = ("111", "110", "010", "000", "001")
IMPLIES = ("00", "01", "11")


def windows_text(n, tuples=PATH5):
    lines = [f"vars {n}", "relation path5 3", *tuples, "end"]
    lines += [f"clause path5 x{i} x{i + 1} x{i + 2}" for i in range(1, n - 1, 2)]
    return "\n".join(lines) + "\n"


def chain_text(n):
    lines = [f"vars {n}", "relation implies 2", *IMPLIES, "end"]
    lines += [f"clause implies x{v} x{v + 1}" for v in range(1, n)]
    return "\n".join(lines) + "\n"


def answer(result):
    """The protocol line's first two tokens: a dense path's whole line
    would spell n flips."""
    return " ".join(result.protocol_line().split(" ", 2)[:2])


def dense(phi, s, t, collector):
    """CPU seconds of one solve, with the collector running or paused,
    and its answer."""
    if not collector:
        gc.disable()
    try:
        t0 = process_time()
        result = solve(phi, s, t)
        seconds = process_time() - t0
    finally:
        gc.enable()
    return seconds, answer(result)


def timed(n, window, complement, chain):
    """Seconds of parse, compile and solve (s = t) on the window, of its
    dense solve, of the complement window's and of the chain's, and the
    four answers."""
    ones = (1 << n) - 1
    t0 = process_time()
    phi = parse_instance(window)[0]
    t1 = process_time()
    phi.compiled
    t2 = process_time()
    same = answer(solve(phi, 0, 0))
    t3 = process_time()
    up_s, up = dense(phi, 0, ones, collector=True)
    del phi
    phi = parse_instance(complement)[0]
    phi.route  # classified, compiled and complemented before the clock starts
    comp_s, comp = dense(phi, ones, 0, collector=True)
    del phi
    psi = parse_instance(chain)[0]
    psi.route
    down_s, down = dense(psi, ones, 0, collector=False)
    return (t1 - t0, t2 - t1, t3 - t2, up_s, comp_s, down_s), (same, up, comp, down)


def main():
    texts = [(windows_text(n), windows_text(n, PATH5_COMPLEMENT), chain_text(n)) for n in SIZES]
    best = [[float("inf")] * 6 for _ in SIZES]
    answers = [set() for _ in SIZES]
    for _ in range(RUNS):
        for i, n in enumerate(SIZES):  # the sizes alternate run by run
            times, got = timed(n, *texts[i])
            best[i] = [min(b, t) for b, t in zip(best[i], times)]
            answers[i].add(got)
    ok = True
    for n, (parse, compile_, solve_, up, comp, down), got in zip(SIZES, best, answers):
        good = got == {("PATH 0", f"PATH {n}", f"PATH {n}", f"PATH {n}")}
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} n = {n}: parse {parse * 1e3:.0f} ms, "
              f"compile {compile_ * 1e3:.0f} ms, solve {solve_ * 1e3:.0f} ms, "
              f"window up {up * 1e3:.0f} ms, complement down {comp * 1e3:.0f} ms, "
              f"chain down {down * 1e3:.0f} ms, "
              f"{' / '.join(map(' / '.join, sorted(got)))}")
    small, large = best
    for what, a, b in (("ingest", sum(small[:3]), sum(large[:3])),
                       ("window dense solve", small[3], large[3]),
                       ("complement dense solve", small[4], large[4]),
                       ("chain dense solve", small[5], large[5])):
        ratio = b / a
        good = ratio <= MAX_RATIO
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {what}: n = {SIZES[1]} takes {ratio:.1f} times "
              f"as long as n = {SIZES[0]} (at most {MAX_RATIO}, best of {RUNS} CPU times)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
