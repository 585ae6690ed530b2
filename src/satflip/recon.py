"""Exact search over the reconfiguration graph of satisfying assignments.

This is the brute-force reference every solver in the package is
validated against: it enumerates the full assignment space (capped) and
runs plain BFS, sharing no machinery with the order-based solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import to_bitstring, var_bit
from .errors import PreconditionError, TheoryError
from .flip_order import Flip, path_line
from .formula import Formula, first_violated_clause

DEFAULT_STATE_CAP = 20


def sat_mask(phi: Formula) -> np.ndarray:
    """Boolean array over all 2^n assignments, True where phi holds.

    Built clause by clause from the compiled accept masks: each
    falsifying local tuple of a clause wipes one subcube of the mask (all
    of it for a false clause without variables), so the cost is
    O(m * 2^n) writes rather than a per-assignment evaluation loop.
    """
    n = phi.num_vars
    mask = np.ones(1 << n, dtype=bool)
    view = mask.reshape((2,) * n)
    compiled = phi.compiled
    for variables, accept in zip(compiled.variables, compiled.accept):
        k = len(variables)
        for local in range(1 << k):
            if not (accept >> local) & 1:
                idx: list = [slice(None)] * n
                for pos, v in enumerate(variables):
                    idx[v - 1] = (local >> (k - 1 - pos)) & 1
                view[tuple(idx)] = False
    return mask


@dataclass(frozen=True)
class ReconGraph:
    """Explicit reconfiguration graph: satisfying assignments as nodes,
    single-bit flips as edges. States ascending; edges (u, v) with u < v."""

    num_vars: int
    states: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def build_graph(phi: Formula, cap: int = DEFAULT_STATE_CAP) -> ReconGraph:
    n = phi.num_vars
    if n > cap:
        raise PreconditionError(
            f"formula has {n} variables, above the explicit-graph cap {cap}"
        )
    mask = sat_mask(phi)
    states = np.flatnonzero(mask)
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        neighbors = states ^ (1 << (n - i))
        keep = (neighbors > states) & mask[neighbors]
        edges.extend(zip(states[keep].tolist(), neighbors[keep].tolist()))
    edges.sort()
    return ReconGraph(n, tuple(states.tolist()), tuple(edges))


@dataclass(frozen=True)
class PathResult:
    """Outcome of an exact search: a shortest flip sequence, or None when
    the endpoints lie in different components."""

    flips: tuple[Flip, ...] | None

    @property
    def connected(self) -> bool:
        return self.flips is not None

    @property
    def length(self) -> int | None:
        return None if self.flips is None else len(self.flips)

    def protocol_line(self) -> str:
        return path_line(self.flips)


def bfs_shortest(phi: Formula, s: int, t: int, cap: int = DEFAULT_STATE_CAP) -> PathResult:
    """Genuinely shortest flip sequence from s to t by breadth-first search.

    Distances are computed from the target, then the path is rebuilt from
    the source by always taking the lowest-index variable flip that still
    decreases the distance, so ties break deterministically toward the
    lexicographically first shortest sequence.
    """
    n = phi.num_vars
    if n > cap:
        raise PreconditionError(f"formula has {n} variables, above the oracle cap {cap}")
    for label, a in (("source", s), ("target", t)):
        bad = first_violated_clause(phi, a)
        if bad is not None:
            raise PreconditionError(
                f"{label} assignment does not satisfy clause {bad}"
            )
    if s == t:
        return PathResult(())

    mask = sat_mask(phi)
    dist = np.full(1 << n, -1, dtype=np.int32)
    dist[t] = 0
    frontier = np.array([t], dtype=np.int64)
    bit_values = [1 << (n - i) for i in range(1, n + 1)]
    d = 0
    while frontier.size and dist[s] < 0:
        d += 1
        layer = []
        for b in bit_values:
            cand = frontier ^ b
            kept = cand[mask[cand] & (dist[cand] < 0)]
            if kept.size:
                dist[kept] = d
                layer.append(kept)
        frontier = np.concatenate(layer) if layer else np.empty(0, dtype=np.int64)
    if dist[s] < 0:
        return PathResult(None)

    flips = []
    cur = s
    remaining = int(dist[s])
    while cur != t:
        for i in range(1, n + 1):
            nb = cur ^ (1 << (n - i))
            if dist[nb] == remaining - 1:
                flips.append(Flip(i, var_bit(cur, i, n) == 0))
                cur = nb
                remaining -= 1
                break
        else:
            raise TheoryError("BFS path reconstruction found no predecessor")
    return PathResult(tuple(flips))


def components(relation) -> tuple[tuple[int, ...], ...]:
    """Connected components of a relation's flip graph, each component
    sorted ascending, components ordered by smallest member."""
    from .relation import _hamming_components

    comps = _hamming_components(relation.arity, relation.tuples)
    return tuple(tuple(sorted(c)) for c in comps)


def graph_to_dot(graph: ReconGraph) -> str:
    lines = ["graph recon {"]
    for state in graph.states:
        lines.append(f'  "{to_bitstring(state, graph.num_vars)}";')
    for u, v in graph.edges:
        lines.append(
            f'  "{to_bitstring(u, graph.num_vars)}" -- '
            f'"{to_bitstring(v, graph.num_vars)}";'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
