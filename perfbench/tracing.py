"""In-memory spans and counters around satflip's public functions.

The library is not edited: `install` swaps a wrapper in for a function
in every satflip module that binds it, because a `from`-import copies
the binding into the importing module (`evaluate`, for instance, is
bound in `formula`, `flip_order` and `navigate`). A span records name,
start, end and parent; a span's self time is its duration minus that of
its child spans. Functions called 10^5-10^7 times per run (`induced`,
`restrict`) only get a call counter, since timing them would slow the
run by more than the work they do.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# Spans kept for the dump; past this many, spans still add to self times
# and counters but are no longer stored, which bounds memory to ~50 MB.
SPAN_CAP = 2_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = {}
        self._acc: list[float] = []  # child time of each open span
        self._open: list[int] = []  # stored index of each open span, or -1
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def add(self, name: str, value=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def ncalls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        nid = self._id(name)
        acc, open_ = self._acc, self._open
        parent = open_[-1] if open_ else -1
        if len(self.span_start) < SPAN_CAP:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
        else:
            idx = -1
            self.dropped += 1
        acc.append(0.0)
        open_.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            open_.pop()
            child = acc.pop()
            d = t1 - t0
            self.self_s[nid] += d - child
            self.calls[nid] += 1
            if acc:
                acc[-1] += d
            if idx >= 0:
                self.span_start[idx] = t0
                self.span_end[idx] = t1

    def timed(self, name: str, fn, post=None):
        """Wrapper that runs fn in a span; post(result) sees each result."""
        self._id(name)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if post is not None:
                post(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def install(module_name: str, attr: str, wrapper) -> int:
    """Replace the function `module_name.attr` by `wrapper` wherever a
    satflip module binds it; returns how many bindings were replaced."""
    original = getattr(sys.modules[module_name], attr)
    replaced = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "satflip" or name.startswith("satflip.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                replaced += 1
    return replaced
