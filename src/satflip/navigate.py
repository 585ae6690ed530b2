"""Shortest flip-sequence solvers and the class-dispatching entry point.

For NAND-free + dual-Horn-free formulas the solver repeatedly raises the
smallest lower sets of the endpoint difference on both sides and recurses
on the resulting pair; each lower set is found by walking precedence
backwards from the flips the other side wants, so a level costs the
clauses of the flips it makes rather than the whole formula. OR-free +
Horn-free instances are handled through the complementing transform;
componentwise bijunctive ones by a greedy walk over the symmetric
difference. Everything else is reported hard, optionally falling back to
the capped exact search.

Which of these answers a formula is decided once per formula and cached
as ``phi.route`` (:class:`Route`): the classification, the compiled form
the solver runs on, and the xor mask from the formula's assignments to
that form's. :func:`solve` and the CLI's flip-order export both read it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .bits import hamming, set_vars, var_bit, zeros
from .errors import FlipSequenceError, TheoryError
from .flip_order import (
    Flip,
    _require_order_class,
    advance,
    apply_sequence,
    invert_sequence,
    lower_set_sequence,
    path_line,
)
from .formula import Clause, CompiledFormula, Formula, _check_assignment
from .formula import require_relations, satisfying_state
from .recon import DEFAULT_STATE_CAP, PathResult, bfs_shortest, check_cap
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


def shortest_path_navigable(
    compiled: CompiledFormula, s: int, t: int, trace=None
) -> SolveResult:
    """Shortest flip sequence for NAND-free + dual-Horn-free formulas.

    Each level raises, on both endpoints, the smallest lower set of the
    positive flips forced by the other endpoint, in an order respecting
    flip precedence; the pair strictly gains ones until it meets. The
    lower set and its order come from one backward walk per side
    (:func:`lower_set_sequence`), which reads only the clauses of the
    flips it reaches; a wanted flip that can never happen makes the
    endpoints NOTCONNECTED. Implemented as a loop with an accumulated
    prefix and suffix stack, so deep instances cannot exhaust the call
    stack. Each side keeps one FlipState for the whole solve: its
    endpoint is checked in full once, and every later flip only against
    the clauses of its variable. `stats.dag_builds` counts the walks.

    `trace`, when given, is called once per level with keywords `level`,
    `s` and `t` (the pair entering the level), `lower_s` and `lower_t`
    (the flips each side makes, as `Flip` tuples in order) and `eta`
    (the pair's zero count entering the level).
    """
    side_s = satisfying_state(compiled, s, "source")
    side_t = satisfying_state(compiled, t, "target")
    if s != t:
        _require_order_class(compiled)
    n = compiled.num_vars
    stats = SolveStats(eta_entry=zeros(s, n) + zeros(t, n))
    prefix: list[Flip] = []
    tails: list[tuple[Flip, ...]] = []

    while side_s.assignment != side_t.assignment:
        cur_s, cur_t = side_s.assignment, side_t.assignment
        stats.levels += 1
        if stats.levels > stats.eta_entry + 1:
            raise TheoryError("level count exceeded the zero-count measure")
        diff = cur_s ^ cur_t
        want_s = tuple(set_vars(diff & cur_t, n))
        want_t = tuple(set_vars(diff & cur_s, n))
        seq_s = lower_set_sequence(side_s, want_s)
        seq_t = lower_set_sequence(side_t, want_t)
        stats.dag_builds += 2
        if seq_s is None or seq_t is None:
            return SolveResult(Outcome.NOT_CONNECTED, stats=stats)
        eta_old = zeros(cur_s, n) + zeros(cur_t, n)
        if trace is not None:
            trace(
                level=stats.levels,
                s=cur_s,
                t=cur_t,
                lower_s=seq_s,
                lower_t=seq_t,
                eta=eta_old,
            )
        try:
            advance(side_s, seq_s)
            advance(side_t, seq_t)
        except FlipSequenceError as exc:
            raise TheoryError(
                f"order-respecting sequence falsified the formula: {exc}"
            ) from exc
        stats.flips_applied += len(seq_s) + len(seq_t)
        eta_new = zeros(side_s.assignment, n) + zeros(side_t.assignment, n)
        if eta_new >= eta_old:
            raise TheoryError("level made no progress on the zero count")
        if want_s and want_t and eta_new > eta_old - 2:
            raise TheoryError("level with both sides active dropped fewer than 2 zeros")
        prefix.extend(seq_s)
        tails.append(seq_t)

    flips = tuple(prefix)
    for tail in reversed(tails):
        flips += invert_sequence(tail)
    if apply_sequence(compiled, s, flips) != t:
        raise TheoryError("assembled sequence does not reach the target")
    return SolveResult(Outcome.PATH, flips=flips, stats=stats)


def shortest_path_cwb(compiled: CompiledFormula, s: int, t: int) -> SolveResult:
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
    require_relations(compiled, is_componentwise_bijunctive, "componentwise bijunctive")
    state = satisfying_state(compiled, s, "source")
    satisfying_state(compiled, t, "target")
    n = compiled.num_vars
    stats = SolveStats(eta_entry=zeros(s, n) + zeros(t, n))

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
    NAND-free + dual-Horn-free. The endpoints are range-checked first.
    The complement route does not build this image: it complements the
    compiled form (:meth:`CompiledFormula.complemented`), which equals the
    image's.
    """
    _check_assignment(phi.num_vars, s)
    _check_assignment(phi.num_vars, t)
    relations = tuple((name, rel.complemented()) for name, rel in phi.relations)
    swap = {CONST0: CONST1, CONST1: CONST0}
    clauses = tuple(
        Clause(c.relation_name, tuple(swap.get(a, a) for a in c.args))
        for c in phi.clauses
    )
    mask = (1 << phi.num_vars) - 1
    return Formula(phi.num_vars, relations, clauses), s ^ mask, t ^ mask


@dataclass(frozen=True)
class Route:
    """How :func:`solve` answers a formula, decided once per formula.

    `classification` is that of the declared relations; its verdict and
    kind pick the solver. `compiled` is the form the solver runs on, and
    an assignment of the formula maps onto it by xor with `mask`. On the
    complement route (OR-free + Horn-free sets) that is
    ``phi.compiled.complemented()`` with mask 2^n - 1, solved as
    NAND-free + dual-Horn-free with the flips' signs swapped back; on
    every other route it is ``phi.compiled`` with mask 0.
    """

    classification: Classification
    compiled: CompiledFormula
    mask: int


def formula_route(phi: Formula) -> Route:
    """Classify the formula and pick its route. ``phi.route`` caches the
    result, so a formula is classified and complemented once."""
    cls = classify_formula(phi)
    if cls.kind is NavigableKind.OR_AND_HORN_FREE:
        return Route(cls, phi.compiled.complemented(), (1 << phi.num_vars) - 1)
    return Route(cls, phi.compiled, 0)


def _mirrored(trace, mask: int):
    """A solver trace on the complement route, reported in the formula's
    own terms: states xor `mask`, and each lower set's flips inverted."""

    def mirrored(level, s, t, lower_s, lower_t, eta):
        trace(
            level=level,
            s=s ^ mask,
            t=t ^ mask,
            lower_s=tuple(f.inverse() for f in lower_s),
            lower_t=tuple(f.inverse() for f in lower_t),
            eta=eta,
        )

    return mirrored


def solve(
    phi: Formula,
    s: int,
    t: int,
    *,
    allow_oracle: bool = False,
    cap: int = DEFAULT_STATE_CAP,
    trace=None,
) -> SolveResult:
    """Answer the instance on the formula's route (``phi.route``).

    Componentwise bijunctive sets take the greedy walk; NAND-free +
    dual-Horn-free sets the order-based solver; OR-free + Horn-free sets
    take the order-based solver on the complement, and the flips' signs
    are swapped back in the same order and replayed on the formula.
    Non-navigable sets return HARD, with the exact search attached when
    `allow_oracle` holds and the variable count is within `cap`. A cap
    above `MAX_STATE_CAP` is rejected up front, whichever route runs.
    Navigable routes range-check the endpoints before mapping them, so
    an error names the endpoint given; the solvers check that they
    satisfy the formula. `trace` receives the order-based solver's
    levels (see :func:`shortest_path_navigable`) in the formula's own
    terms on either route.
    """
    check_cap(cap)
    route = phi.route
    cls, n = route.classification, phi.num_vars
    if cls.verdict is Verdict.NAVIGABLE:
        _check_assignment(n, s)
        _check_assignment(n, t)
        mask = route.mask
        if cls.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE:
            result = shortest_path_cwb(route.compiled, s ^ mask, t ^ mask)
        else:
            if trace is not None and mask:
                trace = _mirrored(trace, mask)
            result = shortest_path_navigable(
                route.compiled, s ^ mask, t ^ mask, trace=trace
            )
        if mask and result.flips is not None:
            result.flips = tuple(f.inverse() for f in result.flips)
            if apply_sequence(phi.compiled, s, result.flips) != t:
                raise TheoryError("mirrored sequence does not reach the target")
        result.classification = cls
        return result

    compiled = phi.compiled
    satisfying_state(compiled, s, "source")
    satisfying_state(compiled, t, "target")
    oracle = None
    if allow_oracle and n <= cap:
        oracle = bfs_shortest(compiled, s, t, cap=cap)
    return SolveResult(
        Outcome.HARD,
        classification=cls,
        stats=SolveStats(eta_entry=zeros(s, n) + zeros(t, n)),
        oracle=oracle,
    )
