"""Precedence structure of positive flips over satisfying assignments.

A positive flip raises a variable from 0 to 1 while keeping every clause
satisfied. For a single NAND-free and dual-Horn-free relation, the valid
positive flip sequences from a state are exactly the orderings of
downward-closed flip sets under an explicit partial order.
:func:`relation_partial_order` reads that order off the relation's truth
table, from the tuples a flood by single raises reaches;
:func:`valid_positive_sequences` enumerates the sequences themselves and
is kept as the reference the order is tested against. This module
combines the per-clause orders of a formula in two ways.

:func:`lower_set_sequence` is the solver's route. It walks precedence
backwards from a set of wanted flips, reading only the clauses of the
variables it reaches, and orders the smallest lower set it finds by
Kahn's algorithm (Kahn, CACM 1962), or reports that some wanted flip can
never happen: an ancestor is blocked by a clause, or the ancestors hold
a precedence cycle. Its cost follows the lower set, not the formula.

:func:`formula_flip_dag` merges every clause into one precedence DAG over
all flips. The flips that can never happen (blocked, on a cycle, or
forced after such a flip) are pruned by one Kahn peel. It serves the DOT
export, and with :func:`smallest_lower_set` and
:func:`order_respecting_sequence` it is the reference the walk is tested
against.
Functions that read a formula take its compiled form, ``phi.compiled``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .bits import flip_bit, set_vars, var_bit
from .errors import FlipSequenceError, ParseError, PreconditionError, TheoryError
from .formula import CompiledFormula, FlipState
from .formula import require_relations, satisfying_state
from .relation import Relation, _index_masks, is_dual_horn_free, is_nand_free


class Flip(NamedTuple):
    var: int
    up: bool

    def token(self) -> str:
        return f"x{self.var}{'+' if self.up else '-'}"

    def inverse(self) -> "Flip":
        return Flip(self.var, not self.up)


def parse_flip(token: str) -> Flip:
    """Read a flip token `x<var>+` or `x<var>-`; raises ParseError."""
    if len(token) < 3 or token[0] != "x" or token[-1] not in "+-":
        raise ParseError(f"bad flip token {token!r}")
    digits = token[1:-1]
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad variable in flip token {token!r}")
    return Flip(int(digits), token[-1] == "+")


def format_sequence(flips: Iterable[Flip]) -> str:
    return " ".join(f.token() for f in flips)


def path_line(flips) -> str:
    """The protocol line of a search result: `PATH <length> <flips>`, or
    `NOTCONNECTED` when `flips` is None."""
    if flips is None:
        return "NOTCONNECTED"
    return f"PATH {len(flips)} {format_sequence(flips)}".rstrip()


def invert_sequence(flips) -> tuple[Flip, ...]:
    """Reverse the order and the sign of every flip."""
    return tuple(f.inverse() for f in reversed(flips))


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
    """Make the flips on a satisfying state, in order. Each must name a
    variable in 1..n, move it in the right direction and keep the formula
    satisfied; the first that does not raises FlipSequenceError at its
    index, and the state keeps the flips before it."""
    n = state.compiled.num_vars
    for i, f in enumerate(flips):
        if not 1 <= f.var <= n:
            raise FlipSequenceError(i, f"{f.token()} names no variable in 1..{n}")
        bit = state.value(f.var)
        if f.up and bit == 1:
            raise FlipSequenceError(i, f"{f.token()} raises a variable already 1")
        if not f.up and bit == 0:
            raise FlipSequenceError(i, f"{f.token()} lowers a variable already 0")
        if not state.can_flip(f.var):
            raise FlipSequenceError(
                i, f"prefix ending at {f.token()} falsifies the formula"
            )
        state.flip(f.var)


def valid_positive_sequences(relation: Relation, state: int) -> frozenset[tuple[int, ...]]:
    """Every positive flip sequence valid at `state`, as tuples of
    positions (1-based), including the empty sequence. It grows
    factorially with the arity; nothing in the library calls it, and it
    is the reference :func:`relation_partial_order` is tested against."""
    if state not in relation.tuples:
        raise PreconditionError(f"state {state} is not in the relation")
    k = relation.arity
    out = set()

    def walk(cur, prefix):
        out.add(tuple(prefix))
        for p in range(1, k + 1):
            if var_bit(cur, p, k) == 0:
                nxt = flip_bit(cur, p, k)
                if nxt in relation.tuples:
                    prefix.append(p)
                    walk(nxt, prefix)
                    prefix.pop()

    walk(state, [])
    return frozenset(out)


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
    :func:`valid_positive_sequences` is the enumeration it is tested
    against.
    """
    if not _in_order_class(relation):
        raise PreconditionError(
            "flip partial order requires a NAND-free and dual-Horn-free relation"
        )
    if state not in relation.tuples:
        raise PreconditionError(f"state {state} is not in the relation")
    k, table = relation.arity, relation.table
    masks = _index_masks(k)  # masks[k - p]: the tuples whose position p is 1
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


@lru_cache(maxsize=4096)
def _local_order(relation: Relation, state: int) -> tuple[tuple[int, ...] | None, ...]:
    """`relation_partial_order` at `state`, per 0-based position: the
    ascending positions that must be raised before it, or None where no
    valid positive sequence raises it (it is 1 already, or stuck at 0).
    The flip DAG and the backward walk both read their clauses through
    this; a formula has few distinct (effective relation, local tuple)
    pairs."""
    members, prec = relation_partial_order(relation, state)
    return tuple(
        tuple(sorted(p - 1 for p, r in prec if r == q)) if q in members else None
        for q in range(1, relation.arity + 1)
    )


def _in_order_class(relation: Relation) -> bool:
    return is_nand_free(relation) and is_dual_horn_free(relation)


def _require_order_class(compiled: CompiledFormula) -> None:
    require_relations(compiled, _in_order_class, "NAND-free and dual-Horn-free")


def lower_set_sequence(state: FlipState, wanted: Iterable[int]) -> tuple[Flip, ...] | None:
    """Raise the smallest lower set of the wanted flips, in order.

    `state` is taken as the satisfying state its caller has kept by
    checked flips. Walks precedence backwards from the wanted variables:
    each variable reached reads the local order of its own clauses only,
    and the predecessors found there are walked in turn. The variables
    reached are then ordered by Kahn's algorithm, lowest index first.
    Returns None when some wanted flip can never happen: a wanted
    variable is 1 already, a variable reached is stuck in one of its
    clauses, or the variables reached contain a precedence cycle. The
    result equals ``order_respecting_sequence(dag, smallest_lower_set(dag,
    wanted))`` on the state's flip DAG when the wanted flips are its
    nodes, and None exactly when they are not.
    """
    compiled = state.compiled
    n = compiled.num_vars
    variables, relations, local = compiled.variables, compiled.relations, state.local
    preds: dict[int, set[int]] = {}
    stack = []
    for v in wanted:
        if not 1 <= v <= n:
            raise PreconditionError(f"x{v} names no variable in 1..{n}")
        if v not in preds:
            if state.value(v):
                return None
            preds[v] = set()
            stack.append(v)
    while stack:
        v = stack.pop()
        before = preds[v]
        for j, bit in compiled.occurrences[v]:
            clause_vars = variables[j]
            order = _local_order(relations[j], local[j])[len(clause_vars) - bit.bit_length()]
            if order is None:
                return None
            for p in order:
                u = clause_vars[p]
                before.add(u)
                if u not in preds:
                    preds[u] = set()
                    stack.append(u)

    indeg = {v: len(before) for v, before in preds.items()}
    succs = defaultdict(list)
    for v, before in preds.items():
        for u in before:
            succs[u].append(v)
    ready = [v for v, d in indeg.items() if not d]
    heapq.heapify(ready)
    out = []
    while ready:
        u = heapq.heappop(ready)
        out.append(Flip(u, True))
        for v in succs[u]:
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(ready, v)
    if len(out) != len(preds):
        return None  # the leftover variables hold a precedence cycle
    return tuple(out)


@dataclass(frozen=True)
class FlipOrderDag:
    """Pruned precedence DAG over positive flips of a formula.

    `nodes` are the variables that can still be raised in some valid
    positive sequence; an edge (u, v) forces u to be raised before v.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def predecessor_map(self) -> dict[int, set[int]]:
        preds = defaultdict(set)
        for u, v in self.edges:
            preds[v].add(u)
        return preds

    def successor_map(self) -> dict[int, set[int]]:
        succs = defaultdict(set)
        for u, v in self.edges:
            succs[u].add(v)
        return succs

    def closure(self) -> frozenset[tuple[int, int]]:
        """All ordered pairs (u, v) with a directed path from u to v."""
        succs = self.successor_map()
        pairs = set()
        for start in self.nodes:
            stack = list(succs[start])
            seen = set()
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                pairs.add((start, v))
                stack.extend(succs[v])
        return frozenset(pairs)


def formula_flip_dag(compiled: CompiledFormula, assignment: int) -> FlipOrderDag:
    """Merge per-clause flip orders at a satisfying assignment into one DAG.

    Every variable currently 0 starts as a candidate node (variables in
    no clause stay as isolated, always-flippable nodes). Each clause
    contributes the partial order of its effective relation at its local
    tuple, translated to variable level, and blocks the variables of
    that clause the order cannot raise. One Kahn peel then keeps the
    candidates that can happen: a candidate survives iff it is not
    blocked and all its predecessors survive. A candidate the peel never
    reaches lies on a directed cycle or downstream of a cycle or of a
    blocked flip, and a flip forced after an impossible flip is itself
    impossible. This reads every clause; :func:`lower_set_sequence`
    reads only the ancestors of the flips it is asked for.
    """
    _require_order_class(compiled)
    state = satisfying_state(compiled, assignment, "start")
    n = compiled.num_vars
    candidates = set(set_vars(state.assignment ^ ((1 << n) - 1), n))
    blocked = set()
    edges = set()
    for variables, eff, sub in zip(compiled.variables, compiled.relations, state.local):
        if eff is None:
            continue  # constant clause, already known satisfied
        for v, before in zip(variables, _local_order(eff, sub)):
            if before is None:
                blocked.add(v)
            else:
                edges.update((variables[p], v) for p in before)

    indeg = dict.fromkeys(candidates, 0)
    succs = defaultdict(list)
    for u, v in edges:
        succs[u].append(v)
        indeg[v] += 1
    ready = [v for v in candidates if not indeg[v] and v not in blocked]
    nodes = set()
    while ready:
        u = ready.pop()
        nodes.add(u)
        for v in succs[u]:
            indeg[v] -= 1
            if not indeg[v] and v not in blocked:
                ready.append(v)

    kept = frozenset((u, v) for u, v in edges if u in nodes and v in nodes)
    return FlipOrderDag(frozenset(nodes), kept)


def smallest_lower_set(dag: FlipOrderDag, flips: Iterable[int]) -> frozenset[int]:
    """Close a set of flips under predecessors: the smallest superset that
    is downward closed in the DAG's reachability order."""
    want = set(flips)
    extra = want - dag.nodes
    if extra:
        raise PreconditionError(
            f"flips not in the DAG: {sorted(extra)}"
        )
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


def order_respecting_sequence(dag: FlipOrderDag, flips: Iterable[int]) -> tuple[Flip, ...]:
    """A topological ordering of a downward-closed flip set, breaking ties
    by lowest variable index."""
    chosen = set(flips)
    extra = chosen - dag.nodes
    if extra:
        raise PreconditionError(f"flips not in the DAG: {sorted(extra)}")
    for u, v in dag.edges:
        if v in chosen and u not in chosen:
            raise PreconditionError(
                f"flip set is not downward closed: x{v}+ requires x{u}+"
            )
    indeg = {v: 0 for v in chosen}
    succs = defaultdict(set)
    for u, v in dag.edges:
        if u in chosen and v in chosen and v not in succs[u]:
            succs[u].add(v)
            indeg[v] += 1
    ready = [v for v in chosen if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in sorted(succs[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(out) != len(chosen):
        raise TheoryError("cycle survived pruning in the flip DAG")
    return tuple(Flip(v, True) for v in out)


def canonicalize(compiled: CompiledFormula, start: int, flips) -> tuple[Flip, ...]:
    """Rewrite a valid flip sequence so all raises precede all lowers.

    Adjacent lower/raise pairs on one variable cancel; a lower
    immediately followed by a raise of a different variable is swapped
    (sound when every relation is NAND-free). The result reaches the
    same endpoint, uses a subset of the original flips, and keeps the
    relative order within each sign.
    """
    end = apply_sequence(compiled, start, flips)
    work = list(flips)
    i = 0
    while i < len(work) - 1:
        a, b = work[i], work[i + 1]
        if not a.up and b.up:
            if a.var == b.var:
                del work[i : i + 2]
            else:
                work[i], work[i + 1] = b, a
            i = max(i - 1, 0)
        else:
            i += 1
    out = tuple(work)
    try:
        final = apply_sequence(compiled, start, out)
    except FlipSequenceError as exc:
        raise TheoryError(
            f"canonical rewrite became invalid ({exc}); is some relation not NAND-free?"
        ) from exc
    if final != end:
        raise TheoryError("canonical rewrite changed the endpoint")
    return out


def dag_to_dot(dag: FlipOrderDag) -> str:
    """DOT text for the DAG, drawing the transitive reduction of its
    reachability order.

    Every edge of the reduction is an edge of the DAG: (u, v) is kept
    unless v is reachable from another successor of u. The nodes
    reachable from each node are one bitset int, filled in reverse
    topological order."""
    succs = dag.successor_map()
    below = {}  # node -> bitset of the nodes reachable from it
    reduced = []
    for f in reversed(order_respecting_sequence(dag, dag.nodes)):
        u = f.var
        via = 0  # the nodes reachable from some successor of u
        for v in succs[u]:
            via |= below[v]
        reduced += ((u, v) for v in succs[u] if not via >> v & 1)
        below[u] = via | sum(1 << v for v in succs[u])
    lines = ["digraph fliporder {"]
    for v in sorted(dag.nodes):
        lines.append(f'  "x{v}+";')
    for u, v in sorted(reduced):
        lines.append(f'  "x{u}+" -> "x{v}+";')
    lines.append("}")
    return "\n".join(lines) + "\n"
