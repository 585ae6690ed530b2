"""Shortest flip-sequence solvers and the class-dispatching entry point.

For NAND-free + dual-Horn-free formulas the solver repeatedly raises the
smallest lower sets of the endpoint difference on both sides and recurses
on the resulting pair; each lower set is found by walking precedence
backwards from the flips the other side wants, so a level costs the
clauses of the flips it makes rather than the whole formula. OR-free +
Horn-free instances are handled through the complementing transform;
componentwise bijunctive ones by a greedy walk over the symmetric
difference. Everything else is reported hard. The exact search
(:mod:`satflip.recon`), the reference these solvers are checked against,
is not imported here: a caller that wants its answer on a hard instance
runs it beside :func:`solve`, as ``satflip solve --allow-oracle`` does.

Which of these answers a formula is decided once per formula and cached
as ``phi.route`` (:class:`Route`): the classification, the compiled form
the solver runs on, and the xor mask from the formula's assignments to
that form's. :func:`solve` and the CLI's flip-order export both read it.

Every answer is an immutable :class:`~satflip.answer.SolveResult`, the
exact search's type too, and :func:`solve` returns the solver's own
answer; only a HARD answer carries the classification. No solver takes
a callback: the order-based solver returns its levels' lower sets in
its stats, in the terms of the form it ran on, and ``satflip solve
--verbose`` prints them from the answer.
"""

from __future__ import annotations

import heapq
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .answer import Flip, Outcome, SolveResult, SolveStats, _make_flip
from .bits import hamming, set_vars, zeros
from .errors import FlipSequenceError, PreconditionError, TheoryError
from .flip_order import _require_order_class, advance, apply_sequence, lower_set_sequence
from .formula import Clause, CompiledFormula, Formula, _check_assignment
from .formula import classify_formula, require_relations, satisfying_state
from .relation import (
    CONST0,
    CONST1,
    Classification,
    NavigableKind,
    Verdict,
    is_componentwise_bijunctive,
)


def shortest_path_navigable(compiled: CompiledFormula, s: int, t: int,
                            up: bool = True) -> SolveResult:
    """Shortest flip sequence for NAND-free + dual-Horn-free formulas.

    Each level raises, on both endpoints, the smallest lower set of the
    positive flips forced by the other endpoint, in an order respecting
    flip precedence; the pair strictly gains ones until it meets. The
    lower set and its order come from one backward walk per side
    (:func:`lower_set_sequence`), which reads only the clauses of the
    flips it reaches; a wanted flip that can never happen makes the
    endpoints NOTCONNECTED. Implemented as a loop, so deep instances
    cannot exhaust the call stack. Each side keeps one FlipState for the
    whole solve: its endpoint is checked in full once, and every later
    flip only against the clauses of its variable. The result's `stats`
    counts the levels (its `dag_builds`, the walks, is two per level)
    and keeps each completed level's `(vars_s, vars_t)` pair, the
    variables each side raised, in order, as `lower_sets`.

    The path is every `vars_s` in order, then every `vars_t` reversed, in
    reverse level order, with `up` the sign of the first part and
    ``not up`` that of the second: each of its flips is built once,
    here. With `up` true these are the raises and lowerings of
    `compiled`; the complement route passes false, so the path is
    spelled in the formula's own signs. The assembled sequence is not
    replayed here: :func:`solve` replays it once, on the formula's own
    compiled form.
    """
    side_s = satisfying_state(compiled, s, "source")
    side_t = satisfying_state(compiled, t, "target")
    if s != t:
        _require_order_class(compiled)
    n = compiled.num_vars
    eta_start = zeros(s, n) + zeros(t, n)
    levels, cur_s, cur_t = 0, s, t
    lower_sets: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    while cur_s != cur_t:
        levels += 1
        if levels > eta_start + 1:
            raise TheoryError("level count exceeded the zero-count measure")
        diff = cur_s ^ cur_t
        want_s = set_vars(diff & cur_t, n)
        want_t = set_vars(diff & cur_s, n)
        vars_s = lower_set_sequence(side_s, want_s)
        vars_t = None if vars_s is None else lower_set_sequence(side_t, want_t)
        if vars_t is None:
            stats = SolveStats(levels, tuple(lower_sets))
            return SolveResult(Outcome.NOT_CONNECTED, stats=stats)
        eta_old = zeros(cur_s, n) + zeros(cur_t, n)
        try:
            advance(side_s, zip(vars_s, repeat(True)))
            advance(side_t, zip(vars_t, repeat(True)))
        except FlipSequenceError as exc:
            raise TheoryError(
                f"order-respecting sequence falsified the formula: {exc}"
            ) from exc
        cur_s, cur_t = side_s.assignment, side_t.assignment
        eta_new = zeros(cur_s, n) + zeros(cur_t, n)
        if eta_new >= eta_old:
            raise TheoryError("level made no progress on the zero count")
        if want_s and want_t and eta_new > eta_old - 2:
            raise TheoryError("level with both sides active dropped fewer than 2 zeros")
        lower_sets.append((vars_s, vars_t))

    ahead = chain.from_iterable(map(itemgetter(0), lower_sets))
    back = chain.from_iterable(map(reversed, map(itemgetter(1), reversed(lower_sets))))
    flips = (*map(_make_flip, zip(ahead, repeat(up))),
             *map(_make_flip, zip(back, repeat(not up))))
    stats = SolveStats(levels, tuple(lower_sets))
    return SolveResult(Outcome.PATH, flips=flips, stats=stats)


def shortest_path_cwb(compiled: CompiledFormula, s: int, t: int) -> SolveResult:
    """Greedy walk for componentwise bijunctive formulas: repeatedly flip
    the lowest-index differing variable that keeps the formula satisfied.
    Within a component the distance equals the Hamming distance, so any
    such flip is optimal progress; if none exists the endpoints are in
    different components.

    Every differing variable waits in a min-heap from the start, and is
    tested once when popped, with :func:`~satflip.flip_order.advance`'s
    accept-mask test on the clauses of its variable. A variable that
    fails the test is dropped: a flip changes only the clauses of its
    variable, so after each flip the differing variables sharing a
    clause with it are queued again. The heap thus holds every differing
    variable that can be flipped, and each flip is the lowest-index one,
    as a full rescan would pick. The tables and both states' `values`
    are locals, so a flip and a test against the target cost O(1).
    """
    require_relations(compiled, is_componentwise_bijunctive, "componentwise bijunctive")
    state = satisfying_state(compiled, s, "source")
    target = satisfying_state(compiled, t, "target").values
    accept, occurrences, variables = compiled.accept, compiled.occurrences, compiled.variables
    values, local = state.values, state.local

    heap = set_vars(s ^ t, compiled.num_vars)  # ascending, so already a heap
    queued = set(heap)
    flips: list[Flip] = []
    while heap:
        v = heapq.heappop(heap)
        queued.remove(v)
        clauses = occurrences[v]
        for j, bit in clauses:
            if not accept[j] >> (local[j] ^ bit) & 1:
                break
        else:
            flips.append(_make_flip((v, not values[v])))
            for j, bit in clauses:
                local[j] ^= bit
            values[v] ^= 1
            for j, _ in clauses:
                for w in variables[j]:
                    if w not in queued and values[w] != target[w]:
                        queued.add(w)
                        heapq.heappush(heap, w)
    if values != target:
        return SolveResult(Outcome.NOT_CONNECTED)
    if len(flips) != hamming(s, t):
        raise TheoryError("greedy walk left the symmetric difference")
    return SolveResult(Outcome.PATH, flips=tuple(flips))


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


class Route(NamedTuple):
    """How :func:`solve` answers a formula, decided once per formula.

    `classification` is that of the declared relations; its verdict and
    kind pick the solver. `compiled` is the form the solver runs on, and
    an assignment of the formula maps onto it by xor with `mask`. On the
    complement route (OR-free + Horn-free sets) that is
    ``phi.compiled.complemented()`` with mask 2^n - 1, solved as
    NAND-free + dual-Horn-free with the path spelled in the formula's
    signs (lowering flips for the complement's raises); on
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


def solve(phi: Formula, s: int, t: int) -> SolveResult:
    """Answer the instance on the formula's route (``phi.route``), with
    the solver's own answer.

    Componentwise bijunctive sets take the greedy walk; NAND-free +
    dual-Horn-free sets the order-based solver; OR-free + Horn-free sets
    take the order-based solver on the complement, which is passed
    ``up=False`` and so spells its path in the formula's signs: each
    raise of the complement is a lowering flip of the formula, in the
    same order. Each order-based answer is
    replayed once, on ``phi.compiled``, and a replay that fails or ends
    off the target is a TheoryError; the greedy walk's answer is not
    replayed, since it checks each flip on one live state.
    Non-navigable sets return HARD with the classification, once both
    endpoints are checked to satisfy the formula; a caller that wants
    the exact answer runs :func:`~satflip.recon.bfs_shortest` on
    ``phi.compiled`` itself. Only a HARD answer carries the
    classification; a caller that wants the route of another reads
    ``phi.route.classification``. Navigable routes range-check the
    endpoints before mapping them, so an error names the endpoint given;
    the solvers check that they satisfy the formula. The answer's
    `stats` are the solver's own, in the terms of the form it ran on
    (``phi.route.compiled``): on the complement route, the variables in
    `lower_sets` are those raised from the complemented endpoints.
    """
    route = phi.route
    cls, n = route.classification, phi.num_vars
    if cls.verdict is not Verdict.NAVIGABLE:
        satisfying_state(phi.compiled, s, "source")
        satisfying_state(phi.compiled, t, "target")
        return SolveResult(Outcome.HARD, classification=cls)
    _check_assignment(n, s)
    _check_assignment(n, t)
    if cls.kind is NavigableKind.COMPONENTWISE_BIJUNCTIVE:
        return shortest_path_cwb(route.compiled, s, t)
    mask = route.mask
    result = shortest_path_navigable(route.compiled, s ^ mask, t ^ mask, up=not mask)
    if result.flips is None:
        return result
    try:
        end = apply_sequence(phi.compiled, s, result.flips)
    except PreconditionError as exc:
        raise TheoryError(f"order-based answer fails its replay: {exc}") from exc
    if end != t:
        raise TheoryError("order-based answer does not reach the target")
    return result
