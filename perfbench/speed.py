"""The machine-speed reference that the benchmark's times are scaled to.

The machine the benchmark was tuned on shares its cores with other
work. Over seconds to minutes the interpreter there ran up to about 1.7
times slower, and the raw median of one run moved by up to 60% between
runs of the same workload minutes apart. That swamps any change a PR
could make, so every time the benchmark reports is scaled to a fixed
interpreter speed: next to each measured operation it runs `kernel`, a
fixed piece of interpreter work in the style of satflip's (small ints,
bit operations, frozensets, dicts, calls), and multiplies the
operation's time by REFERENCE_S over the kernel's time around it.
A change to satflip moves the operation and not the kernel, so it
shows in full; a change of machine speed moves both and cancels. Raw
times stay in each run's detailed output.
"""

from time import perf_counter

# Reported times are at the speed where one `kernel` call takes this long.
REFERENCE_S = 0.002


def _cell(i):
    return frozenset(((i * 7 + j) ^ (i >> 2)) & 255 for j in range(5))


def kernel() -> int:
    seen = {}
    acc = 0
    for i in range(1200):
        cell = _cell(i)
        seen[cell] = i
        acc += len(cell) + ((i ^ (i >> 3)) & 5)
    for cell in list(seen)[:600]:
        acc += (seen[cell] & 255) in cell
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from a raw time to reference speed, given the kernel's time
    just before and just after the timed work."""
    return REFERENCE_S / ((before + after) / 2)
