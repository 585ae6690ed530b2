"""Reading, compiling and solving grow linearly with the instance (ROADMAP item 17).

    PYTHONPATH=src python tests/ingest_scale.py

Builds stride-2 PATH5 windows, the clauses PATH5(x_i, x_i+1, x_i+2) for
i = 1, 3, 5, ..., as .cnfs text at n = 24,001 and n = 240,001. On each
it times `parse_instance`, then `phi.compiled`, then `solve` with s = t
= all zeros, which must answer ``PATH 0``. The two sizes alternate, run
by run, and each step's time is the best of five runs, measured as this
process's CPU time (`time.process_time`), so that load from other
processes on the machine counts in neither size. The larger instance
has ten times the clauses, so linear growth takes about 10 times as
long. Exits 1 if the three steps together take more than 20 times as
long on the larger instance as on the smaller, or if an answer is not
``PATH 0``. The bound is a ratio, so the machine's speed does not move
it. It takes about 5 s, so it runs as a CI step rather than in tier-1;
pytest does not collect it, since its name does not start with
``test_``.
"""

import sys
from time import process_time

from satflip import parse_instance, solve

SIZES = (24_001, 240_001)
MAX_RATIO = 20
RUNS = 5
PATH5 = ("000", "001", "101", "111", "110")


def windows_text(n):
    lines = [f"vars {n}", "relation path5 3", *PATH5, "end"]
    lines += [f"clause path5 x{i} x{i + 1} x{i + 2}" for i in range(1, n - 1, 2)]
    return "\n".join(lines) + "\n"


def timed(text):
    """Seconds of parse, compile and solve on `text`, and the solve's
    protocol line."""
    t0 = process_time()
    phi = parse_instance(text)[0]
    t1 = process_time()
    phi.compiled
    t2 = process_time()
    line = solve(phi, 0, 0).protocol_line()
    t3 = process_time()
    return (t1 - t0, t2 - t1, t3 - t2), line


def main():
    texts = [windows_text(n) for n in SIZES]
    best = [[float("inf")] * 3 for _ in SIZES]
    lines = [set() for _ in SIZES]
    for _ in range(RUNS):
        for i, text in enumerate(texts):  # the sizes alternate run by run
            times, line = timed(text)
            best[i] = [min(b, t) for b, t in zip(best[i], times)]
            lines[i].add(line)
    ok = True
    for n, (parse, compile_, solve_), got in zip(SIZES, best, lines):
        good = got == {"PATH 0"}
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} n = {n}: parse {parse * 1e3:.0f} ms, "
              f"compile {compile_ * 1e3:.0f} ms, solve {solve_ * 1e3:.0f} ms, "
              f"{' / '.join(sorted(got))}")
    small, large = (sum(steps) for steps in best)
    ratio = large / small
    good = ratio <= MAX_RATIO
    ok &= good
    print(f"{'ok  ' if good else 'FAIL'} n = {SIZES[1]} takes {ratio:.1f} times "
          f"as long as n = {SIZES[0]} (at most {MAX_RATIO}, best of {RUNS} CPU times)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
