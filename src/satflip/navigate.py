"""Shortest flip-sequence solvers and the class-dispatching entry point.

For NAND-free + dual-Horn-free formulas the solver repeatedly raises the
smallest lower sets of the endpoint difference on both sides and recurses
on the resulting pair; OR-free + Horn-free instances are handled through
the complementing transform; componentwise bijunctive ones by a greedy
walk over the symmetric difference. Everything else is reported hard,
optionally falling back to the capped exact search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .bits import hamming, var_bit, zeros
from .errors import FlipSequenceError, PreconditionError, TheoryError
from .flip_order import (
    Flip,
    apply_sequence,
    formula_flip_dag,
    invert_sequence,
    order_respecting_sequence,
    path_line,
    smallest_lower_set,
)
from .formula import Clause, Formula, first_violated_clause, flip_state
from .recon import DEFAULT_STATE_CAP, PathResult, bfs_shortest
from .relation import (
    CONST0,
    CONST1,
    Classification,
    NavigableKind,
    Verdict,
    classify_set,
    is_componentwise_bijunctive,
)


class Outcome(Enum):
    PATH = "path"
    NOT_CONNECTED = "not-connected"
    HARD = "hard"


@dataclass
class SolveStats:
    levels: int = 0
    eta_entry: int = 0
    dag_builds: int = 0
    flips_applied: int = 0


@dataclass
class SolveResult:
    outcome: Outcome
    flips: tuple[Flip, ...] | None = None
    classification: Classification | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    oracle: PathResult | None = None

    @property
    def length(self) -> int | None:
        return None if self.flips is None else len(self.flips)

    def protocol_line(self) -> str:
        if self.outcome is Outcome.HARD:
            return f"HARD {self.classification.verdict.name}"
        return path_line(self.flips)


def classify_formula(phi: Formula) -> Classification:
    """Classify the formula's declared relation set; a formula declaring
    no relations constrains nothing and counts as navigable."""
    rels = [rel for _, rel in phi.relations]
    if rels:
        return classify_set(rels)
    return Classification(Verdict.NAVIGABLE, NavigableKind.COMPONENTWISE_BIJUNCTIVE, ())


def _require_satisfying(phi: Formula, assignment: int, label: str):
    bad = first_violated_clause(phi, assignment)
    if bad is not None:
        raise PreconditionError(f"{label} assignment does not satisfy clause {bad}")


def shortest_path_navigable(phi: Formula, s: int, t: int, trace=None) -> SolveResult:
    """Shortest flip sequence for NAND-free + dual-Horn-free formulas.

    Each level raises, on both endpoints, the smallest lower set of the
    positive flips forced by the other endpoint, in an order respecting
    the precedence DAG; the pair strictly gains ones until it meets.
    Implemented as a loop with an accumulated prefix and suffix stack, so
    deep instances cannot exhaust the call stack.
    """
    _require_satisfying(phi, s, "source")
    _require_satisfying(phi, t, "target")
    n = phi.num_vars
    stats = SolveStats(eta_entry=zeros(s, n) + zeros(t, n))
    prefix: list[Flip] = []
    tails: list[tuple[Flip, ...]] = []
    cur_s, cur_t = s, t

    while cur_s != cur_t:
        stats.levels += 1
        if stats.levels > stats.eta_entry + 1:
            raise TheoryError("level count exceeded the zero-count measure")
        dag_s = formula_flip_dag(phi, cur_s)
        dag_t = formula_flip_dag(phi, cur_t)
        stats.dag_builds += 2
        want_s = frozenset(
            v
            for v in range(1, n + 1)
            if var_bit(cur_s, v, n) == 0 and var_bit(cur_t, v, n) == 1
        )
        want_t = frozenset(
            v
            for v in range(1, n + 1)
            if var_bit(cur_t, v, n) == 0 and var_bit(cur_s, v, n) == 1
        )
        if not (want_s <= dag_s.nodes and want_t <= dag_t.nodes):
            return SolveResult(Outcome.NOT_CONNECTED, stats=stats)
        lower_s = smallest_lower_set(dag_s, want_s)
        lower_t = smallest_lower_set(dag_t, want_t)
        seq_s = order_respecting_sequence(dag_s, lower_s)
        seq_t = order_respecting_sequence(dag_t, lower_t)
        if trace is not None:
            trace(
                level=stats.levels,
                s=cur_s,
                t=cur_t,
                lower_s=lower_s,
                lower_t=lower_t,
                eta=zeros(cur_s, n) + zeros(cur_t, n),
            )
        try:
            new_s = apply_sequence(phi, cur_s, seq_s)
            new_t = apply_sequence(phi, cur_t, seq_t)
        except FlipSequenceError as exc:
            raise TheoryError(
                f"order-respecting sequence falsified the formula: {exc}"
            ) from exc
        stats.flips_applied += len(seq_s) + len(seq_t)
        eta_old = zeros(cur_s, n) + zeros(cur_t, n)
        eta_new = zeros(new_s, n) + zeros(new_t, n)
        if eta_new >= eta_old:
            raise TheoryError("level made no progress on the zero count")
        if want_s and want_t and eta_new > eta_old - 2:
            raise TheoryError("level with both sides active dropped fewer than 2 zeros")
        prefix.extend(seq_s)
        tails.append(seq_t)
        cur_s, cur_t = new_s, new_t

    flips = tuple(prefix)
    for tail in reversed(tails):
        flips += invert_sequence(tail)
    if apply_sequence(phi, s, flips) != t:
        raise TheoryError("assembled sequence does not reach the target")
    return SolveResult(Outcome.PATH, flips=flips, stats=stats)


def shortest_path_cwb(phi: Formula, s: int, t: int) -> SolveResult:
    """Greedy walk for componentwise bijunctive formulas: repeatedly flip
    the lowest-index differing variable that keeps the formula satisfied.
    Within a component the distance equals the Hamming distance, so any
    such flip is optimal progress; if none exists the endpoints are in
    different components.

    The flippable differing variables wait in a min-heap. A flip changes
    only the clauses of its variable, so only the variables sharing a
    clause with it are re-checked; an entry that went stale is dropped
    when popped, and pushed again if a later flip frees it.
    """
    for name, rel in phi.relations:
        if not is_componentwise_bijunctive(rel):
            raise PreconditionError(
                f"relation {name!r} is not componentwise bijunctive"
            )
    _require_satisfying(phi, s, "source")
    _require_satisfying(phi, t, "target")
    n = phi.num_vars
    stats = SolveStats(eta_entry=zeros(s, n) + zeros(t, n))
    state = flip_state(phi, s)
    compiled = phi.compiled

    def ready(v):
        return var_bit(state.assignment ^ t, v, n) and state.can_flip(v)

    queued = {v for v in range(1, n + 1) if ready(v)}
    heap = sorted(queued)
    flips: list[Flip] = []
    while heap:
        v = heapq.heappop(heap)
        queued.remove(v)
        if not state.can_flip(v):
            continue
        flips.append(Flip(v, state.value(v) == 0))
        state.flip(v)
        for j, _ in compiled.occurrences[v]:
            for w in compiled.variables[j]:
                if w not in queued and ready(w):
                    queued.add(w)
                    heapq.heappush(heap, w)
    if state.assignment != t:
        return SolveResult(Outcome.NOT_CONNECTED, stats=stats)
    stats.flips_applied = len(flips)
    if len(flips) != hamming(s, t):
        raise TheoryError("greedy walk left the symmetric difference")
    return SolveResult(Outcome.PATH, flips=tuple(flips), stats=stats)


def dualize(phi: Formula, s: int, t: int):
    """Mirror an instance through bitwise complement.

    Every relation is replaced by its complement image, clause constants
    are swapped, and the endpoints are complemented; assignments satisfy
    the image exactly when their complements satisfy the original, so the
    transform is an involution swapping OR-free + Horn-free with
    NAND-free + dual-Horn-free.
    """
    relations = tuple((name, rel.complemented()) for name, rel in phi.relations)
    swap = {CONST0: CONST1, CONST1: CONST0}
    clauses = tuple(
        Clause(c.relation_name, tuple(swap.get(a, a) for a in c.args))
        for c in phi.clauses
    )
    mask = (1 << phi.num_vars) - 1
    return Formula(phi.num_vars, relations, clauses), s ^ mask, t ^ mask


def dualize_flips(flips) -> tuple[Flip, ...]:
    """Swap the sign of every flip, keeping the order."""
    return tuple(Flip(f.var, not f.up) for f in flips)


def solve(
    phi: Formula,
    s: int,
    t: int,
    *,
    allow_oracle: bool = False,
    cap: int = DEFAULT_STATE_CAP,
    trace=None,
) -> SolveResult:
    """Classify the instance and run the matching solver.

    Componentwise bijunctive sets take the greedy walk; NAND-free +
    dual-Horn-free sets the order-based solver; OR-free + Horn-free sets
    are complemented, solved, and the flips' signs swapped back.
    Non-navigable sets return HARD, with the exact search attached when
    `allow_oracle` holds and the variable count is within `cap`.
    """
    _require_satisfying(phi, s, "source")
    _require_satisfying(phi, t, "target")
    cls = classify_formula(phi)
    if cls.verdict is Verdict.NAVIGABLE:
        if cls.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE:
            result = shortest_path_cwb(phi, s, t)
        elif cls.kind is NavigableKind.NAND_AND_DUAL_HORN_FREE:
            result = shortest_path_navigable(phi, s, t, trace=trace)
        else:
            dual_phi, dual_s, dual_t = dualize(phi, s, t)
            result = shortest_path_navigable(dual_phi, dual_s, dual_t, trace=trace)
            if result.flips is not None:
                result.flips = dualize_flips(result.flips)
                if apply_sequence(phi, s, result.flips) != t:
                    raise TheoryError("mirrored sequence does not reach the target")
        result.classification = cls
        return result

    oracle = None
    if allow_oracle and phi.num_vars <= cap:
        oracle = bfs_shortest(phi, s, t, cap=cap)
    n = phi.num_vars
    return SolveResult(
        Outcome.HARD,
        classification=cls,
        stats=SolveStats(eta_entry=zeros(s, n) + zeros(t, n)),
        oracle=oracle,
    )
