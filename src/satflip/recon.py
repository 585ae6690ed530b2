"""Exact search over the reconfiguration graph of satisfying assignments.

This is the brute-force reference every solver in the package is
validated against: it covers the full assignment space (capped) and runs
plain breadth-first search, sharing no machinery with the order-based
solver: it imports no solver module, and no solver module imports it.
A caller that wants both answers runs both, as the CLI's ``solve
--verify`` and ``--allow-oracle`` do. Like the solvers, it reads a
formula's compiled form, ``phi.compiled``, and its answer,
:func:`bfs_shortest`, is the solvers' :class:`~satflip.answer.SolveResult`,
so the two compare by ``(outcome, length)``.

The solution set is one table, cut into blocks: with bits = min(n,
BLOCK_BITS), it is a list of 2^(n - bits) ints, and bit p of block i is
set iff assignment ``(i << bits) + p`` satisfies the formula, the
``Relation.table`` convention at arity n read block by block.
:func:`clause_blocks` builds it; :func:`bfs_shortest`,
:func:`graph_size` and :func:`build_graph` read it, each after
:func:`check_search`, the search's one gate on the cap and the variable
count, which the CLI runs before it compiles a formula; and
:func:`solution_table` joins it into one int. A set operation over all
2^n assignments is one big-int operation per block. Flipping variable v,
of weight w = 2^(n-v), moves a block's set by w bits when w is below
2^bits: up from the assignments where v is 0 (its low mask, from
:func:`~satflip.bits.low_masks` at the block's width), down from the
others. A variable of weight 2^bits or more is a bit of the block
number, so its flip moves whole blocks. No table of 2^n bits is built
on the way. Nothing here needs numpy; only the :func:`sat_mask` view
loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .answer import Flip, Outcome, SolveResult
from .bits import low_masks, to_bitstring, var_bit
from .errors import PreconditionError, TheoryError
from .formula import CompiledFormula, satisfying_state

if TYPE_CHECKING:
    import numpy as np

DEFAULT_STATE_CAP = 20
# Peak bytes of a search per assignment. The search holds the solution
# blocks, its distance planes, the layer it expands, what that reaches and
# the next layer, each at most one bit per assignment, plus the low masks
# of one block (128 KiB). Its tracemalloc peak measured 0.97 / 0.85 / 0.82
# bytes at n = 20 / 22 / 24, on the clause-free formula and with one
# arity-8 clause alike, so it does not grow with n; counting the graph
# peaks below 0.3. Rounded up to an int with headroom. A cap is accepted
# while 2^cap states fit the budget.
BYTES_PER_STATE = 2
STATE_BYTE_BUDGET = 1 << 29  # 512 MiB
MAX_STATE_CAP = (STATE_BYTE_BUDGET // BYTES_PER_STATE).bit_length() - 1  # 28
# Peak bytes of graph_to_dot(build_graph(...)) per state and per edge:
# tracemalloc measured 187 / 199 per state at n = 24 / 28 (no edges), and
# 337 / 376 / 389 per edge at n = 20 / 26 / 28 (14 free variables); the
# DOT text adds about 6 bytes per edge for each further variable. Both
# values cover n = MAX_STATE_CAP.
GRAPH_BYTES_PER_STATE = 200
GRAPH_BYTES_PER_EDGE = 400
# The solution table is cut into blocks of 2^BLOCK_BITS assignments (8 KiB
# each), so that an operation skips empty blocks and stays small. At least
# 3, so that a block is whole bytes.
BLOCK_BITS = 16


def check_cap(cap: int) -> None:
    """Reject a cap that is no plain int or is negative, and one whose full
    search would not fit the byte budget, before anything is allocated.
    :func:`check_search` runs it first, and the CLI runs it on every
    ``--cap`` before it reads the formula file."""
    if type(cap) is not int:
        raise PreconditionError(f"state cap {cap!r} is not an int")
    if cap < 0:
        raise PreconditionError(f"state cap {cap} is negative")
    if cap > MAX_STATE_CAP:
        raise PreconditionError(
            f"state cap {cap} is above the largest supported cap {MAX_STATE_CAP}"
            f" ({BYTES_PER_STATE} bytes for each of 2^cap states)"
        )


def check_search(num_vars: int, cap: int, use: str) -> None:
    """The exact search's one gate: refuse a bad cap (:func:`check_cap`),
    then a formula of more than `cap` variables, named by its `use`
    (``"oracle"`` or ``"explicit-graph"``). It reads only the variable
    count, so a caller can run it before the formula is compiled."""
    check_cap(cap)
    if num_vars > cap:
        raise PreconditionError(f"formula has {num_vars} variables, above the {use} cap {cap}")


def clause_blocks(n: int, clauses) -> list[int]:
    """The assignments of n variables that satisfy every clause, given as
    (variables, accept) pairs in the :class:`CompiledFormula` layout, as
    the blocks of the module docstring.

    Starts from all 2^n assignments and clears, clause by clause and block
    by block, the subcube of each falsifying local tuple. The subcubes of
    one clause come from splitting the block position by position: on the
    low mask of the position's variable, or, for a variable that is a bit
    of the block number, by taking that bit's branch alone. So tuples
    sharing a prefix share its splits, and a prefix all of whose tuples
    falsify the clause is cleared whole. Reads the clauses one at a time
    and stops as soon as every block is 0, without reading the rest.
    """
    bits = min(n, BLOCK_BITS)
    outer = n - bits  # variables 1..outer are bits of the block number
    masks = [0] * (outer + 1) + list(low_masks(bits))  # masks[v] for v > outer
    blocks = [(1 << (1 << bits)) - 1] * (1 << outer)
    for variables, accept in clauses:
        k = len(variables)
        reject = accept ^ ((1 << (1 << k)) - 1)
        for i, table in enumerate(blocks):
            if not table:
                continue
            parts = [(table, 0, 0)]  # (assignments of the prefix, its length, prefix)
            while parts:
                part, depth, prefix = parts.pop()
                width = 1 << (k - depth)  # local tuples that extend the prefix
                rejected = (reject >> (prefix * width)) & ((1 << width) - 1)
                if rejected == (1 << width) - 1:
                    table ^= part
                elif rejected and part:
                    v = variables[depth]
                    if v <= outer:
                        parts.append((part, depth + 1, 2 * prefix + (i >> (outer - v) & 1)))
                    else:
                        zero = part & masks[v]
                        parts.append((part ^ zero, depth + 1, 2 * prefix + 1))
                        parts.append((zero, depth + 1, 2 * prefix))
            blocks[i] = table
        if not any(blocks):
            break
    return blocks


def clause_table(n: int, clauses) -> int:
    """:func:`clause_blocks` joined into one int: bit a is set iff
    assignment a satisfies every clause."""
    blocks = clause_blocks(n, clauses)
    if len(blocks) == 1:
        return blocks[0]
    width = 1 << (min(n, BLOCK_BITS) - 3)  # bytes per block
    return int.from_bytes(b"".join(b.to_bytes(width, "little") for b in blocks), "little")


def solution_table(compiled: CompiledFormula) -> int:
    """The formula's solution set as one int: bit a is set iff assignment
    a satisfies every clause."""
    return clause_table(compiled.num_vars, zip(compiled.variables, compiled.accept))


def _solution_blocks(compiled: CompiledFormula) -> list[int]:
    return clause_blocks(compiled.num_vars, zip(compiled.variables, compiled.accept))


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


def _edge_ends(blocks: list[int], n: int):
    """Yield (base, w, lower) for v = 1..n and each block: the flips of
    variable v, of weight w, inside the block that starts at assignment
    `base` are the edges (base + u, base + u + w) for the set bits u of
    `lower`. A variable that is a bit of the block number pairs the
    blocks where it is 0 with those where it is 1."""
    bits = min(n, BLOCK_BITS)
    outer = n - bits
    for v in range(1, outer + 1):
        move = 1 << (outer - v)
        for i, table in enumerate(blocks):
            if not i & move:
                yield i << bits, move << bits, table & blocks[i | move]
    for v, low in enumerate(low_masks(bits), outer + 1):
        w = 1 << (n - v)
        for i, table in enumerate(blocks):
            yield i << bits, w, table & low & (table >> w)


def _counted_blocks(compiled: CompiledFormula, cap: int) -> tuple[list[int], int, int]:
    """The solution blocks with the graph's state and edge counts."""
    n = compiled.num_vars
    check_search(n, cap, "explicit-graph")
    blocks = _solution_blocks(compiled)
    edges = sum(lower.bit_count() for _, _, lower in _edge_ends(blocks, n))
    return blocks, sum(table.bit_count() for table in blocks), edges


def graph_size(compiled: CompiledFormula, cap: int = DEFAULT_STATE_CAP) -> tuple[int, int]:
    """The number of states and of edges of the reconfiguration graph,
    counted on the solution blocks without building either."""
    return _counted_blocks(compiled, cap)[1:]


def build_graph(compiled: CompiledFormula, cap: int = DEFAULT_STATE_CAP) -> ReconGraph:
    """The explicit graph. It is refused before any node or edge is built
    when it and its DOT text would not fit the byte budget."""
    blocks, num_states, num_edges = _counted_blocks(compiled, cap)
    n = compiled.num_vars
    need = num_states * GRAPH_BYTES_PER_STATE + num_edges * GRAPH_BYTES_PER_EDGE
    if need > STATE_BYTE_BUDGET:
        raise PreconditionError(
            f"the reconfiguration graph has {num_states} states and {num_edges}"
            f" edges; with its DOT text that is about {need >> 20} MiB, above"
            f" the {STATE_BYTE_BUDGET >> 20} MiB budget"
        )
    bits = min(n, BLOCK_BITS)
    states: list[int] = []
    for i, table in enumerate(blocks):
        base = i << bits
        states.extend([base + u for u in members(table)])
    edges: list[tuple[int, int]] = []
    for base, w, lower in _edge_ends(blocks, n):
        edges.extend([(base + u, base + w + u) for u in members(lower)])
    edges.sort()
    return ReconGraph(n, tuple(states), tuple(edges))


def bfs_shortest(
    compiled: CompiledFormula, s: int, t: int, cap: int = DEFAULT_STATE_CAP
) -> SolveResult:
    """Genuinely shortest flip sequence from s to t by breadth-first search:
    a PATH answer (with ``()`` when s = t) or NOT_CONNECTED.

    The search runs from the target, one whole layer per step, on the
    solution blocks; its layers are dicts from block number to a block
    int, where empty blocks are absent. Within a block the neighbours of
    a layer F across variable v are
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
    n = compiled.num_vars
    check_search(n, cap, "oracle")
    satisfying_state(compiled, s, "source")
    satisfying_state(compiled, t, "target")
    if s == t:
        return SolveResult(Outcome.PATH, ())

    bits = min(n, BLOCK_BITS)  # assignment a is bit a & inside of block a >> bits
    inside = (1 << bits) - 1
    unvisited = _solution_blocks(compiled)
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
