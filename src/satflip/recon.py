"""Exact search over the reconfiguration graph of satisfying assignments.

This is the brute-force reference every solver in the package is
validated against: it covers the full assignment space (capped) and runs
plain breadth-first search, sharing no machinery with the order-based
solver. Like the solvers, it reads a formula's compiled form,
``phi.compiled``, and its answer, :func:`bfs_shortest`, is the
solvers' :class:`~satflip.flip_order.SolveResult`, so the two compare
by ``(outcome, length)``.

The solution set is one Python int, :func:`solution_table`: bit ``a`` is
set iff assignment ``a`` satisfies the formula, the ``Relation.table``
convention at arity n. Every set of assignments below is such an int,
so a set operation over all 2^n assignments is one big-int operation.
Flipping variable v, of weight w = 2^(n-v), moves a set by w bits: up
from the assignments where v is 0 (its low mask, from
:func:`~satflip.bits.low_masks`), down from the others. Nothing here
needs numpy; only the :func:`sat_mask` view loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .bits import low_masks, to_bitstring, var_bit
from .errors import PreconditionError, TheoryError
from .flip_order import Flip, Outcome, SolveResult
from .formula import CompiledFormula, satisfying_state

if TYPE_CHECKING:
    import numpy as np

DEFAULT_STATE_CAP = 20
# Peak bytes of a search per assignment. The peak is building the
# solution table: the n low masks (n/8 bytes), the table, and up to k + 1
# parts of it while a clause of arity k is split. tracemalloc measured
# 2.80 / 3.07 bytes at n = 20 / 22 on the clause-free formula, and 3.40 /
# 3.66 with one arity-8 clause; each variable adds about 0.13, so about
# 4.2 at n = 26. A cap is accepted while 2^cap states fit in the budget.
BYTES_PER_STATE = 5
STATE_BYTE_BUDGET = 1 << 29  # 512 MiB
MAX_STATE_CAP = (STATE_BYTE_BUDGET // BYTES_PER_STATE).bit_length() - 1  # 26
# Peak bytes of graph_to_dot(build_graph(...)) per state and per edge:
# tracemalloc measured 186 per state at n = 24 (no edges) and 339 per edge
# at n = 20 (17 free variables); the DOT text adds about 6 bytes per edge
# for each further variable. Both values cover n = 26.
GRAPH_BYTES_PER_STATE = 190
GRAPH_BYTES_PER_EDGE = 380
# bfs_shortest cuts the table into blocks of 2^BLOCK_BITS assignments
# (8 KiB each), so that an operation skips empty blocks and stays small.
BLOCK_BITS = 16


def check_cap(cap: int) -> None:
    """Reject a cap that is no plain int or is negative, and one whose full
    search would not fit the byte budget, before anything is allocated."""
    if type(cap) is not int:
        raise PreconditionError(f"state cap {cap!r} is not an int")
    if cap < 0:
        raise PreconditionError(f"state cap {cap} is negative")
    if cap > MAX_STATE_CAP:
        raise PreconditionError(
            f"state cap {cap} is above the largest supported cap {MAX_STATE_CAP}"
            f" ({BYTES_PER_STATE} bytes for each of 2^cap states)"
        )


def solution_table(compiled: CompiledFormula) -> int:
    """The formula's solution set as one int: bit a is set iff assignment
    a satisfies every clause."""
    return clause_table(compiled.num_vars, zip(compiled.variables, compiled.accept))


def clause_table(n: int, clauses) -> int:
    """The assignments of n variables that satisfy every clause, given as
    (variables, accept) pairs in the :class:`CompiledFormula` layout.

    Starts from all 2^n assignments and clears, clause by clause, the
    subcube of each falsifying local tuple. The subcubes of one clause
    come from splitting the table position by position on the low mask
    of the position's variable, so tuples sharing a prefix share its
    splits, and a prefix all of whose tuples falsify the clause is cleared
    whole. Returns 0 as soon as the table is 0, without reading the
    remaining clauses.
    """
    masks = [0, *low_masks(n)]  # masks[v] for variable v
    table = (1 << (1 << n)) - 1
    for variables, accept in clauses:
        k = len(variables)
        reject = accept ^ ((1 << (1 << k)) - 1)
        parts = [(table, 0, 0)]  # (assignments of the prefix, its length, prefix)
        while parts:
            part, depth, prefix = parts.pop()
            width = 1 << (k - depth)  # local tuples that extend the prefix
            rejected = (reject >> (prefix * width)) & ((1 << width) - 1)
            if rejected == (1 << width) - 1:
                table ^= part
            elif rejected and part:
                zero = part & masks[variables[depth]]
                parts.append((part ^ zero, depth + 1, 2 * prefix + 1))
                parts.append((zero, depth + 1, 2 * prefix))
        if not table:
            return 0
    return table


def sat_mask(compiled: CompiledFormula) -> np.ndarray:
    """Boolean numpy array over all 2^n assignments, True where the
    formula holds: a view of :func:`solution_table` for numpy callers.
    This is the only function of the package that loads numpy."""
    import numpy as np

    size = 1 << compiled.num_vars
    packed = solution_table(compiled).to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits[:size].astype(bool)


_BYTE_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def members(table: int) -> list[int]:
    """Positions of the set bits of `table`, ascending."""
    out: list[int] = []
    data = table.to_bytes((table.bit_length() + 7) // 8, "little")
    for i, byte in enumerate(data):
        if byte:
            base = i << 3
            out.extend([base + b for b in _BYTE_BITS[byte]])
    return out


class ReconGraph(NamedTuple):
    """Explicit reconfiguration graph: satisfying assignments as nodes,
    single-bit flips as edges. States ascending; edges (u, v) with u < v."""

    num_vars: int
    states: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def _edge_ends(table: int, n: int):
    """Yield (w, lower) for v = 1..n: the flips of variable v are the
    edges (u, u + w), and `lower` is the set of their ends u."""
    for v, low in enumerate(low_masks(n), 1):
        w = 1 << (n - v)
        yield w, table & low & (table >> w)


def check_graph_vars(num_vars: int, cap: int) -> None:
    """Reject an explicit graph of more than `cap` variables."""
    if num_vars > cap:
        raise PreconditionError(
            f"formula has {num_vars} variables, above the explicit-graph cap {cap}"
        )


def _counted_table(compiled: CompiledFormula, cap: int) -> tuple[int, int, int]:
    """The solution table with the graph's state and edge counts."""
    check_cap(cap)
    n = compiled.num_vars
    check_graph_vars(n, cap)
    table = solution_table(compiled)
    edges = sum(lower.bit_count() for _, lower in _edge_ends(table, n))
    return table, table.bit_count(), edges


def graph_size(compiled: CompiledFormula, cap: int = DEFAULT_STATE_CAP) -> tuple[int, int]:
    """The number of states and of edges of the reconfiguration graph,
    counted on the solution table without building either."""
    return _counted_table(compiled, cap)[1:]


def build_graph(compiled: CompiledFormula, cap: int = DEFAULT_STATE_CAP) -> ReconGraph:
    """The explicit graph. It is refused before any node or edge is built
    when it and its DOT text would not fit the byte budget."""
    table, num_states, num_edges = _counted_table(compiled, cap)
    n = compiled.num_vars
    need = num_states * GRAPH_BYTES_PER_STATE + num_edges * GRAPH_BYTES_PER_EDGE
    if need > STATE_BYTE_BUDGET:
        raise PreconditionError(
            f"the reconfiguration graph has {num_states} states and {num_edges}"
            f" edges; with its DOT text that is about {need >> 20} MiB, above"
            f" the {STATE_BYTE_BUDGET >> 20} MiB budget"
        )
    edges: list[tuple[int, int]] = []
    for w, lower in _edge_ends(table, n):
        edges.extend([(u, u + w) for u in members(lower)])
    edges.sort()
    return ReconGraph(n, tuple(members(table)), tuple(edges))


def bfs_shortest(
    compiled: CompiledFormula, s: int, t: int, cap: int = DEFAULT_STATE_CAP
) -> SolveResult:
    """Genuinely shortest flip sequence from s to t by breadth-first search:
    a PATH answer (with ``()`` when s = t) or NOT_CONNECTED.

    The search runs from the target, one whole layer per step, on the
    solution table cut into blocks of 2^BLOCK_BITS assignments (a dict
    from block number to a table int; empty blocks are absent). Within a
    block the neighbours of a layer F across variable v are
    ``((F & low) << w) | ((F >> w) & low)``; a variable whose weight is a
    block or more moves whole blocks, so its flips only renumber them.
    Neighbours are kept where they satisfy the formula and were not
    reached before. Layer d is or-ed into plane d mod 3, so memory does
    not grow with the distance. The path is then rebuilt from the source
    by always taking the lowest-index variable flip whose state lies one
    layer closer; of a state's neighbours only those lie in that layer's
    plane, so ties break deterministically toward the lexicographically
    first shortest sequence.
    """
    check_cap(cap)
    n = compiled.num_vars
    if n > cap:
        raise PreconditionError(f"formula has {n} variables, above the oracle cap {cap}")
    satisfying_state(compiled, s, "source")
    satisfying_state(compiled, t, "target")
    if s == t:
        return SolveResult(Outcome.PATH, ())

    bits = min(n, BLOCK_BITS)  # assignment a is bit a & inside of block a >> bits
    inside = (1 << bits) - 1
    width = ((1 << bits) + 7) // 8
    data = solution_table(compiled).to_bytes(width << (n - bits), "little")
    unvisited = [int.from_bytes(data[i:i + width], "little")
                 for i in range(0, len(data), width)]
    del data
    shifts = [(low, 1 << (bits - v)) for v, low in enumerate(low_masks(bits), 1)]
    moves = [1 << v for v in range(n - bits)]
    frontier = {t >> bits: 1 << (t & inside)}
    unvisited[t >> bits] ^= frontier[t >> bits]
    planes = [dict(frontier), {}, {}]
    d = 0
    while frontier and not frontier.get(s >> bits, 0) >> (s & inside) & 1:
        d += 1
        reached: dict[int, int] = {}
        for block, f in frontier.items():
            r = reached.get(block, 0)
            for low, w in shifts:
                r |= ((f & low) << w) | ((f >> w) & low)
            reached[block] = r
            for move in moves:
                reached[block ^ move] = reached.get(block ^ move, 0) | f
        frontier = {}
        plane = planes[d % 3]
        for block, r in reached.items():
            new = r & unvisited[block]
            if new:
                unvisited[block] ^= new
                frontier[block] = new
                plane[block] = plane.get(block, 0) | new
    if not frontier:
        return SolveResult(Outcome.NOT_CONNECTED)

    del unvisited, reached, frontier
    flips = []
    cur = s
    for remaining in range(d - 1, -1, -1):
        plane = planes[remaining % 3]
        for i in range(1, n + 1):
            nb = cur ^ (1 << (n - i))
            if plane.get(nb >> bits, 0) >> (nb & inside) & 1:
                flips.append(Flip(i, var_bit(cur, i, n) == 0))
                cur = nb
                break
        else:
            raise TheoryError("BFS path reconstruction found no predecessor")
    if cur != t:
        raise TheoryError("BFS path reconstruction did not reach the target")
    return SolveResult(Outcome.PATH, tuple(flips))


def graph_to_dot(graph: ReconGraph) -> str:
    # Each state's line is formatted once; an edge line joins two of them.
    line = {u: f'  "{to_bitstring(u, graph.num_vars)}";' for u in graph.states}
    lines = ["graph recon {", *line.values()]
    lines.extend(f"{line[u][:-1]} -- {line[v][2:]}" for u, v in graph.edges)
    # Dropped before the join, so the peak stays that of the lines and the
    # text, as GRAPH_BYTES_PER_STATE measured it.
    del line
    lines.append("}")
    return "\n".join(lines) + "\n"
