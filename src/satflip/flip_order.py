"""Precedence structure of positive flips over satisfying assignments.

A positive flip raises a variable from 0 to 1 while keeping every clause
satisfied. For a single NAND-free and dual-Horn-free relation, the valid
positive flip sequences from a state are exactly the orderings of
downward-closed flip sets under an explicit partial order; this module
computes that order, merges the per-clause orders of a formula into one
precedence DAG (pruning flips that can never happen), and provides the
lower-set and topological-ordering primitives the solver runs on.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .bits import flip_bit, var_bit
from .errors import FlipSequenceError, ParseError, PreconditionError, TheoryError
from .formula import Formula, _check_assignment, flip_state
from .relation import Relation, is_dual_horn_free, is_nand_free


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


def apply_sequence(phi: Formula, assignment: int, flips, *, check: bool = True) -> int:
    """Apply flips in order; with check, every flip must move in the right
    direction and every prefix must keep the formula satisfied. A start
    outside 0 <= a < 2^n, or a flip of a variable outside 1..n, is
    rejected with or without check.

    The start assignment is checked in full once; each flip then costs
    only the clauses of its variable.
    """
    a = assignment
    n = phi.num_vars
    if check:
        state = flip_state(phi, a)
        if state.violated() is not None:
            raise PreconditionError("start assignment does not satisfy the formula")
    else:
        _check_assignment(phi, a)
    for i, f in enumerate(flips):
        if not 1 <= f.var <= n:
            raise FlipSequenceError(i, f"{f.token()} names no variable in 1..{n}")
        if check:
            bit = var_bit(a, f.var, n)
            if f.up and bit == 1:
                raise FlipSequenceError(i, f"{f.token()} raises a variable already 1")
            if not f.up and bit == 0:
                raise FlipSequenceError(i, f"{f.token()} lowers a variable already 0")
            if not state.can_flip(f.var):
                raise FlipSequenceError(
                    i, f"prefix ending at {f.token()} falsifies the formula"
                )
            state.flip(f.var)
        a = flip_bit(a, f.var, n)
    return a


def valid_positive_sequences(relation: Relation, state: int) -> frozenset[tuple[int, ...]]:
    """Every positive flip sequence valid at `state`, as tuples of
    positions (1-based), including the empty sequence."""
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


@lru_cache(maxsize=None)
def relation_partial_order(relation: Relation, state: int):
    """The flips reachable from `state` and the order they must respect.

    Returns (members, prec): `members` is the set of positions whose
    positive flip occurs in some valid positive sequence, and
    ``(p, q) in prec`` means every valid sequence containing q also
    contains p, earlier. For NAND-free and dual-Horn-free relations the
    valid positive sequences are exactly the orderings of downward-closed
    subsets of `members` that respect `prec`.
    """
    if not (is_nand_free(relation) and is_dual_horn_free(relation)):
        raise PreconditionError(
            "flip partial order requires a NAND-free and dual-Horn-free relation"
        )
    seqs = valid_positive_sequences(relation, state)
    members = frozenset(p for s in seqs for p in s)
    prec = set()
    for q in members:
        containing = [s for s in seqs if q in s]
        for p in members:
            if p != q and all(
                p in s and s.index(p) < s.index(q) for s in containing
            ):
                prec.add((p, q))
    return members, frozenset(prec)


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


def _cycle_vertices(nodes, edges) -> set[int]:
    """Vertices lying on a directed cycle (Tarjan; SCCs of size >= 2)."""
    succs = defaultdict(list)
    for u, v in sorted(edges):
        succs[u].append(v)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    cyclic = set()

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(succs[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succs[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1:
                    cyclic.update(comp)
    return cyclic


def formula_flip_dag(phi: Formula, assignment: int) -> FlipOrderDag:
    """Merge per-clause flip orders at `assignment` into one pruned DAG.

    Every variable currently 0 starts as a candidate node (variables in
    no clause stay as isolated, always-flippable nodes). Each clause
    contributes the partial order of its effective relation at the
    induced state, translated to variable level. A candidate is dropped
    when some clause it appears in can never raise it, or when it lies on
    a directed cycle of the merged precedence edges; removals propagate
    forward along edges, since a flip forced after an impossible flip is
    itself impossible.
    """
    for name, rel in phi.relations:
        if not (is_nand_free(rel) and is_dual_horn_free(rel)):
            raise PreconditionError(
                f"relation {name!r} is not NAND-free and dual-Horn-free"
            )
    state = flip_state(phi, assignment)
    if state.violated() is not None:
        raise PreconditionError("assignment does not satisfy the formula")

    n = phi.num_vars
    candidates = {v for v in range(1, n + 1) if var_bit(assignment, v, n) == 0}
    blocked = set()
    edges = set()
    compiled = phi.compiled
    for variables, eff, sub in zip(compiled.variables, compiled.relations, state.local):
        if eff is None:
            continue  # constant clause, already known satisfied
        members, prec = relation_partial_order(eff, sub)
        flippable = {variables[p - 1] for p in members}
        for v in variables:
            if v in candidates and v not in flippable:
                blocked.add(v)
        for p, q in prec:
            edges.add((variables[p - 1], variables[q - 1]))

    marked = blocked | _cycle_vertices(candidates, edges)
    succs = defaultdict(set)
    for u, v in edges:
        succs[u].add(v)
    queue = list(marked)
    while queue:
        u = queue.pop()
        for v in succs[u]:
            if v not in marked:
                marked.add(v)
                queue.append(v)

    nodes = frozenset(candidates - marked)
    kept = frozenset((u, v) for u, v in edges if u in nodes and v in nodes)
    return FlipOrderDag(nodes, kept)


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


def canonicalize(phi: Formula, start: int, flips) -> tuple[Flip, ...]:
    """Rewrite a valid flip sequence so all raises precede all lowers.

    Adjacent lower/raise pairs on one variable cancel; a lower
    immediately followed by a raise of a different variable is swapped
    (sound when every relation is NAND-free). The result reaches the
    same endpoint, uses a subset of the original flips, and keeps the
    relative order within each sign.
    """
    end = apply_sequence(phi, start, flips)
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
        final = apply_sequence(phi, start, out)
    except FlipSequenceError as exc:
        raise TheoryError(
            f"canonical rewrite became invalid ({exc}); is some relation not NAND-free?"
        ) from exc
    if final != end:
        raise TheoryError("canonical rewrite changed the endpoint")
    return out


def dag_to_dot(dag: FlipOrderDag) -> str:
    """DOT text for the DAG, drawing the transitive reduction of its
    reachability order."""
    closure = dag.closure()
    reduced = [
        (u, v)
        for u, v in closure
        if not any((u, w) in closure and (w, v) in closure for w in dag.nodes)
    ]
    lines = ["digraph fliporder {"]
    for v in sorted(dag.nodes):
        lines.append(f'  "x{v}+";')
    for u, v in sorted(reduced):
        lines.append(f'  "x{u}+" -> "x{v}+";')
    lines.append("}")
    return "\n".join(lines) + "\n"
