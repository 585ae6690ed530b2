"""Precedence structure of positive flips over satisfying assignments.

A positive flip raises a variable from 0 to 1 while keeping every clause
satisfied. For a single NAND-free and dual-Horn-free relation, the valid
positive flip sequences from a state are exactly the orderings of
downward-closed flip sets under an explicit partial order.
:func:`relation_partial_order` reads that order off the relation's truth
table, from the tuples a flood by single raises reaches, without
enumerating the sequences, whose number grows factorially with the arity.

A formula's flip order is stored one way, as precedence pairs (u, v),
"raise u before v". One backward walk, :func:`_walk`, reads them off
the clauses of the variables it reaches, and one topological order,
:func:`_kahn` (Kahn, CACM 1962), orders any nodes under them. A variable
stuck in one of its clauses gives the pair (v, v), so the order leaves
it out, and all it precedes, as it leaves out a cycle.
:func:`lower_set_sequence`, the solver's route, walks from the flips it
wants, so its cost follows their lower set, not the formula.
:func:`formula_flip_dag` walks from every variable at 0; its DAG serves
the DOT export, :func:`dag_to_dot`, which the CLI draws on the
formula's route (for a formula that the solver complements, the DAG of
its complemented form, whose raises are the formula's lowering flips),
and :func:`order_respecting_sequence` orders its lower sets.
Functions that read a formula take its compiled form, ``phi.compiled``.

Its orders are the raised variables, as ints, with no sign. The
answer that the solvers and the exact search both return,
:class:`~satflip.answer.SolveResult`, lives in :mod:`satflip.answer`,
so the exact search loads none of this module.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import lru_cache
from typing import Iterable, NamedTuple

from .answer import Flip
from .bits import index_masks, set_vars
from .errors import FlipSequenceError, PreconditionError, TheoryError
from .formula import CompiledFormula, FlipState
from .formula import require_relations, satisfying_state
from .relation import Relation
from .relation import is_dual_horn_free, is_nand_free


def apply_sequence(compiled: CompiledFormula, assignment: int, flips) -> int:
    """Apply flips in order and return the end assignment. The start must
    satisfy the formula, every flip must name a variable in 1..n and move
    it in the right direction, and every prefix must keep the formula
    satisfied.

    The start assignment is checked in full once; each flip then costs
    only the clauses of its variable (see :func:`advance`).
    """
    state = satisfying_state(compiled, assignment, "start")
    advance(state, flips)
    return state.assignment


def advance(state: FlipState, flips) -> None:
    """Make the flips, `(var, up)` pairs, on a satisfying state, in order.
    Each must name a variable in 1..n, move it in the right direction and
    keep the formula satisfied; the first that does not raises
    FlipSequenceError at its index, and the state keeps the flips before it.

    One loop checks every flip on the compiled form's tables, held in
    locals: a flip reads ``values[v]`` before it changes anything, then
    moves each of its clauses' tuples once its accept mask holds the
    moved tuple. A clause that refuses it undoes the clauses before, so
    a refused flip changes nothing.
    """
    compiled = state.compiled
    n, accept, occurrences = compiled.num_vars, compiled.accept, compiled.occurrences
    values, local = state.values, state.local
    for i, f in enumerate(flips):
        try:
            v, up = f
        except (TypeError, ValueError):
            raise FlipSequenceError(i, f"{f!r} is not a (var, up) pair") from None
        if type(v) is not int or not 1 <= v <= n:
            raise FlipSequenceError(i, f"{Flip.token(f)} names no variable in 1..{n}")
        if values[v]:
            if up:
                raise FlipSequenceError(i, f"{Flip.token(f)} raises a variable already 1")
        elif not up:
            raise FlipSequenceError(i, f"{Flip.token(f)} lowers a variable already 0")
        clauses = occurrences[v]
        for j, bit in clauses:
            tup = local[j] ^ bit
            if not accept[j] >> tup & 1:
                break
            local[j] = tup
        else:
            values[v] ^= 1
            continue
        for done, bit in clauses:  # undo the clauses before the refusing one
            if done == j:
                break
            local[done] ^= bit
        raise FlipSequenceError(i, f"prefix ending at {Flip.token(f)} falsifies the formula")


def relation_partial_order(relation: Relation, state: int):
    """The flips reachable from `state` and the order they must respect.

    Returns (members, prec): `members` is the set of positions whose
    positive flip occurs in some valid positive sequence, and
    ``(p, q) in prec`` means every valid sequence containing q also
    contains p, earlier. For NAND-free and dual-Horn-free relations the
    valid positive sequences are exactly the orderings of downward-closed
    subsets of `members` that respect `prec`.

    Both are read off the truth table: a flood by single raises marks
    every tuple some valid positive sequence ends at. Position q is a
    member iff a reached tuple has raised it, and p precedes q iff every
    reached tuple that has raised q has raised p too. A valid sequence's
    prefix up to q ends at a reached tuple, and the raises up to any
    reached tuple form a valid sequence, so this is the definition above.
    """
    if not _in_order_class(relation):
        raise PreconditionError(
            "flip partial order requires a NAND-free and dual-Horn-free relation"
        )
    if type(state) is not int or state not in relation.tuples:
        raise PreconditionError(f"state {state} is not in the relation")
    k, table = relation.arity, relation.table
    masks = index_masks(k)  # masks[k - p]: the tuples whose position p is 1
    free = [(k - i, m, 1 << i) for i, m in enumerate(masks) if not state >> i & 1]
    reached, grown = 0, 1 << state
    while grown != reached:
        reached = grown
        for _, m, shift in free:
            grown |= ((reached & ~m) << shift) & table
    # per member q: the reached tuples that have raised q
    raised = {q: reached & m for q, m, _ in free if reached & m}
    prec = frozenset(
        (p, q) for q, rq in raised.items() for p, rp in raised.items()
        if p != q and not rq & ~rp
    )
    return frozenset(raised), prec


# Bounded: one entry per (accept mask, arity, local tuple) that a walk
# meets. The benchmark's navigate stream (seed 1, 331 solves) fills 4
# entries, and a solve of one of the cli stream's 22 `gen random`
# instances at most 16. tests/navigable_arity4.py meets 5,806 keys over
# 29,464 relations; under this bound it misses 5,859 times, not 5,806.
@lru_cache(maxsize=4096)
def _local_order(mask: int, arity: int, state: int) -> tuple[tuple[int, ...] | None, ...]:
    """`relation_partial_order` at `state` of the relation whose truth
    table is `mask`, per 0-based position: the ascending positions that
    must be raised before it, or None where no valid positive sequence
    raises it (it is 1 already, or stuck at 0). The key is a clause's
    accept mask, arity and local tuple, so :func:`_walk` asks this cache
    directly; a formula has few distinct keys."""
    relation = Relation(arity, [t for t in range(1 << arity) if mask >> t & 1])
    members, prec = relation_partial_order(relation, state)
    return tuple(
        tuple(sorted(p - 1 for p, r in prec if r == q)) if q in members else None
        for q in range(1, arity + 1)
    )


def _in_order_class(relation: Relation) -> bool:
    return is_nand_free(relation) and is_dual_horn_free(relation)


def _require_order_class(compiled: CompiledFormula) -> None:
    require_relations(compiled, _in_order_class, "NAND-free and dual-Horn-free")


def _walk(state: FlipState, roots: Iterable[int]) -> tuple[set[int], list[tuple[int, int]]]:
    """The roots and every variable they need raised first, at a
    satisfying state, and the pairs (u, v), u raised before v, that the
    local orders of their own clauses give (:func:`_local_order`, at a
    clause's accept mask, arity and local tuple), a pair as often as a
    clause gives it. A variable stuck in a clause (no valid positive
    sequence of it raises the variable) gives (v, v), so no order
    raises it."""
    compiled = state.compiled
    variables, accept = compiled.variables, compiled.accept
    occurrences, local = compiled.occurrences, state.local
    reached = set(roots)
    stack, pairs = list(reached), []
    while stack:
        v = stack.pop()
        for j, bit in occurrences[v]:
            clause_vars = variables[j]
            k = len(clause_vars)
            order = _local_order(accept[j], k, local[j])[k - bit.bit_length()]
            if order is None:
                pairs.append((v, v))
                continue
            for p in order:
                u = clause_vars[p]
                pairs.append((u, v))
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
    return reached, pairs


def _kahn(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """Kahn's order of `nodes` under the pairs (u, v) of `edges` that end
    in them, u first, ties going to the lowest index. A node left out
    lies on a precedence cycle, a pair (v, v) included, or after one."""
    indeg, succs = dict.fromkeys(nodes, 0), {}
    for u, v in edges:
        try:
            indeg[v] += 1
        except KeyError:  # the pair ends outside `nodes`
            continue
        if u in succs:
            succs[u].append(v)
        else:
            succs[u] = [v]
    ready = [v for v, d in indeg.items() if not d]
    heapq.heapify(ready)
    out = []
    while ready:
        u = heapq.heappop(ready)
        out.append(u)
        for v in succs.get(u, ()):
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    return out


def lower_set_sequence(state: FlipState, wanted: Iterable[int]) -> tuple[int, ...] | None:
    """The variables of the smallest lower set of the wanted flips, in
    the order they are raised.

    `state` is taken as the satisfying state its caller has kept by
    checked flips. The lower set is what :func:`_walk` reaches from the
    wanted flips, in :func:`_kahn`'s order under the walk's pairs.
    Returns None when some wanted flip can never happen: it is 1
    already, or the order leaves a variable out.
    The result equals ``order_respecting_sequence(dag,
    smallest_lower_set(dag, wanted))`` on the state's flip DAG when the
    wanted flips are its nodes, and None exactly when they are not.

    The wanted flips are listed once and read in order: the first that
    is not an int in 1..n raises PreconditionError, unless one before it
    is 1 already, which makes the answer None.
    """
    n, values = state.compiled.num_vars, state.values
    roots = list(wanted)
    for v in roots:
        if type(v) is not int or not 1 <= v <= n:
            raise PreconditionError(f"x{v} names no variable in 1..{n}")
        if values[v]:
            return None
    reached, pairs = _walk(state, roots)
    order = _kahn(reached, pairs)
    if len(order) != len(reached):
        return None
    return tuple(order)


class FlipOrderDag(NamedTuple):
    """Pruned precedence DAG over positive flips of a formula.

    `nodes` are the variables that can still be raised in some valid
    positive sequence; an edge (u, v) forces u to be raised before v.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def predecessor_map(self) -> dict[int, set[int]]:
        """Each node's predecessors, for the walks backward over ancestors."""
        preds = defaultdict(set)
        for u, v in self.edges:
            preds[v].add(u)
        return preds


def formula_flip_dag(compiled: CompiledFormula, assignment: int) -> FlipOrderDag:
    """The precedence DAG of every positive flip at a satisfying assignment:
    :func:`_walk` from every variable at 0, whose nodes are the variables
    :func:`_kahn` can order and whose edges are the walk's pairs that
    end in them. A variable in no clause is an isolated node; a flip
    stuck in a clause, on a precedence cycle or forced after such a flip
    can never happen."""
    _require_order_class(compiled)
    state = satisfying_state(compiled, assignment, "start")
    n = compiled.num_vars
    reached, pairs = _walk(state, set_vars(state.assignment ^ ((1 << n) - 1), n))
    nodes = frozenset(_kahn(reached, pairs))
    return FlipOrderDag(nodes, frozenset((u, v) for u, v in pairs if v in nodes))


def _dag_flips(dag: FlipOrderDag, flips: Iterable[int]) -> set[int]:
    """The flips as a set. Each must be an int (the integer rule) and a
    node of the DAG; the message lists the ints that are not nodes,
    ascending, then every value that is not an int."""
    flips = list(flips)
    others = [v for v in flips if type(v) is not int]
    extra = sorted({v for v in flips if type(v) is int} - dag.nodes)
    if extra or others:
        raise PreconditionError(f"flips not in the DAG: {extra + others}")
    return set(flips)


def smallest_lower_set(dag: FlipOrderDag, flips: Iterable[int]) -> frozenset[int]:
    """Close a set of flips under predecessors: the smallest superset that
    is downward closed in the DAG's reachability order."""
    want = _dag_flips(dag, flips)
    preds = dag.predecessor_map()
    stack = list(want)
    closed = set(want)
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in closed:
                closed.add(u)
                stack.append(u)
    return frozenset(closed)


def order_respecting_sequence(dag: FlipOrderDag, flips: Iterable[int]) -> tuple[int, ...]:
    """A topological ordering of a downward-closed flip set of the DAG,
    as its variables, by :func:`_kahn` over the DAG's edges, so ties go
    to the lowest variable index."""
    chosen = _dag_flips(dag, flips)
    for u, v in dag.edges:
        if v in chosen and u not in chosen:
            raise PreconditionError(
                f"flip set is not downward closed: {Flip.token((v, True))}"
                f" requires {Flip.token((u, True))}"
            )
    order = _kahn(chosen, dag.edges)
    if len(order) != len(chosen):
        raise TheoryError("cycle survived pruning in the flip DAG")
    return tuple(order)


def dag_to_dot(dag: FlipOrderDag, up: bool = True) -> str:
    """DOT text for the DAG, drawing the transitive reduction of its
    reachability order. Nodes are named by their flip tokens, raising
    (`x3+`) or, with `up` false, lowering (`x3-`): the DAG of a
    complemented formula orders the lowering flips of the formula itself.

    Every edge of the reduction is an edge of the DAG: (u, v) is kept
    unless u reaches v through another predecessor of v. The ancestors
    of each node are one bitset int, filled in :func:`_kahn`'s order."""
    order = _kahn(dag.nodes, dag.edges)
    if len(order) != len(dag.nodes):
        raise TheoryError("cycle survived pruning in the flip DAG")
    preds = dag.predecessor_map()
    above = {}  # node -> bitset of the nodes that reach it
    reduced = []
    for v in order:
        via = 0  # the nodes that reach some predecessor of v
        for u in preds[v]:
            via |= above[u]
        reduced += ((u, v) for u in preds[v] if not via >> u & 1)
        above[v] = via | sum(1 << u for u in preds[v])
    token = lambda v: Flip.token((v, up))
    lines = ["digraph fliporder {"]
    for v in sorted(dag.nodes):
        lines.append(f'  "{token(v)}";')
    for u, v in sorted(reduced):
        lines.append(f'  "{token(u)}" -> "{token(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
