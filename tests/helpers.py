"""Shared test oracles and hypothesis strategies.

Everything here reimplements behavior through a different route than the
library (string manipulation, clause synthesis, plain DFS over
assignments) so agreement is meaningful.
"""

import contextlib
import functools
import itertools
import operator
import random

import hypothesis.strategies as st

from satflip import (
    CONST0,
    CONST1,
    Clause,
    ParseError,
    Flip,
    FlipSequenceError,
    Formula,
    GenerationError,
    NavigableKind,
    PreconditionError,
    Relation,
    RelationFlags,
    TheoryError,
    Verdict,
    apply_sequence,
    classify_set,
    induced,
    random_formula,
    random_navigable_relation,
)
from satflip.bits import from_bitstring, var_bit
from satflip.errors import content_lines, read_decimal
from satflip.formula import parse_assignment
import satflip.relation as relation_layer
from satflip.recon import members, solution_table
from satflip.relation import is_dual_horn_free, is_nand_free, read_arity


def flip_bit(value, index, width):
    return value ^ (1 << (width - index))


# ---------------------------------------------------------------- relations

def relation_strategy(min_arity=1, max_arity=3, min_tuples=0):
    def build(arity):
        return st.frozensets(
            st.integers(0, (1 << arity) - 1), min_size=min_tuples
        ).map(lambda ts: Relation(arity, ts))

    return st.integers(min_arity, max_arity).flatmap(build)


def random_relation(arity, rng):
    """A random nonempty relation of the arity."""
    return Relation(arity, frozenset(
        rng.sample(range(1 << arity), rng.randint(1, 1 << arity))))


def restriction_entries(source_arity, target_arity):
    choices = list(range(1, target_arity + 1)) + [CONST0, CONST1]
    return st.tuples(*[st.sampled_from(choices) for _ in range(source_arity)])


# ------------------------------------------------- string-based restriction

def naive_restrict_tuples(rel, target_arity, entries):
    """Restriction computed over bitstrings, independent of the library."""
    source = {format(t, f"0{rel.arity}b") for t in rel.tuples}
    out = set()
    for r in range(1 << target_arity):
        rbits = format(r, f"0{target_arity}b")
        expanded = []
        for e in entries:
            if e == CONST0:
                expanded.append("0")
            elif e == CONST1:
                expanded.append("1")
            else:
                expanded.append(rbits[e - 1])
        if "".join(expanded) in source:
            out.add(r)
    return frozenset(out)


@functools.lru_cache(maxsize=64)
def naive_all_restriction_values(rel, target_arity):
    choices = list(range(1, target_arity + 1)) + [CONST0, CONST1]
    return frozenset(
        naive_restrict_tuples(rel, target_arity, entries)
        for entries in itertools.product(choices, repeat=rel.arity)
    )


@functools.lru_cache(maxsize=None)
def step_getters(arity):
    """One getter per elementary step on arity-`arity` tables as strings
    (char t is "1" iff tuple t is accepted), keyed by `(p, value)`: fix
    position p (counted from 0) to `value`, "0" or "1", or, for an int
    `value` < p, give it the value of that earlier position; then drop
    position p. Each getter reads, for every target tuple, the source
    tuple's char."""
    getters = {}
    for p in range(arity):
        for value in ["0", "1", *range(p)]:
            index = []
            for r in range(1 << (arity - 1)):
                bits = format(r, f"0{arity - 1}b")
                bit = value if isinstance(value, str) else bits[value]
                index.append(int(bits[:p] + bit + bits[p:], 2))
            getters[p, value] = operator.itemgetter(*index)
    return getters


def table_string(arity, tuples):
    """The relation as a string, char t "1" iff tuple t is in `tuples`."""
    return "".join("1" if t in tuples else "0" for t in range(1 << arity))


def string_tuples(string):
    """The tuples of a table string, the inverse of `table_string`."""
    return frozenset(t for t, char in enumerate(string) if char == "1")


def _string_levels(rel, constants, lowest):
    """Yield `(a, tables)` for a = k - 1 down to `lowest`: the distinct
    truth tables of arity a that steps of `step_getters` reach from the
    relation, one table at a time over strings, with no packing; with
    `constants` false, only the steps that identify two positions."""
    level = {table_string(rel.arity, rel.tuples)}
    for arity in range(rel.arity, lowest, -1):
        getters = [get for (_, value), get in step_getters(arity).items()
                   if constants or type(value) is int]
        level = {"".join(get(s)) for s in level for get in getters}
        yield arity - 1, frozenset(int(s[::-1], 2) for s in level)


@functools.lru_cache(maxsize=1)
def reference_closure(rel):
    """The restriction closure under fixing and identifying positions:
    entry a - 1 holds the distinct truth tables of arity a, for every a
    from 1 to the relation's arity. The last one is kept, since a caller
    often reads both the closure and its flags."""
    levels = dict(_string_levels(rel, True, 1))
    levels[rel.arity] = frozenset({rel.table})
    return tuple(levels[a] for a in range(1, rel.arity + 1))


def reference_identifications(rel):
    """`relation._identification_levels` over strings: `(a, tables)` for
    a = k - 1 down to 3, the distinct truth tables of arity a that
    identifying positions, each time keeping the earlier one, reaches
    from the relation."""
    return list(_string_levels(rel, False, 3))


def naive_is_free(rel, forbidden_tuples, target_arity):
    if rel.arity < target_arity:
        return True
    return forbidden_tuples not in naive_all_restriction_values(rel, target_arity)


def hamming_components(arity, tuples):
    """Connected components under single-bit flips, as frozensets of
    tuples ordered by smallest member: a flood over a Python set, the
    reference for the flood of `relation._components_bijunctive`."""
    remaining = set(tuples)
    comps = []
    while remaining:
        seed = min(remaining)
        remaining.remove(seed)
        comp = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for j in range(arity):
                v = u ^ (1 << j)
                if v in remaining:
                    remaining.remove(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def components(relation):
    """Connected components of a relation's flip graph, each component
    sorted ascending, components ordered by smallest member."""
    comps = hamming_components(relation.arity, relation.tuples)
    return tuple(tuple(sorted(c)) for c in comps)


# ------------------------------------------------- clause-synthesis oracles

@functools.cache
def _clause_solutions(arity, literals):
    """Solutions of a disjunction of (position, polarity) literals, a
    tuple of pairs."""
    return frozenset(v for v in range(1 << arity)
                     if any((v >> (arity - p)) & 1 == pol for p, pol in literals))


def _synthesizes(rel, clause_family):
    """True iff the conjunction of every family clause satisfied by all of
    rel's tuples has exactly rel's tuples as its solution set."""
    sols = set(range(1 << rel.arity))
    for literals in clause_family:
        clause_sols = _clause_solutions(rel.arity, literals)
        if rel.tuples <= clause_sols:
            sols &= clause_sols
    return frozenset(sols) == rel.tuples


def _width_clauses(arity, widths, max_positive=None):
    positions = range(1, arity + 1)
    for width in widths:
        for subset in itertools.combinations(positions, width):
            for pols in itertools.product((0, 1), repeat=width):
                if max_positive is not None and sum(pols) > max_positive:
                    continue
                yield tuple(zip(subset, pols))


def synth_bijunctive(rel):
    return _synthesizes(rel, _width_clauses(rel.arity, (1, 2)))


def _majority(a, b, c):
    return (a & b) | (a & c) | (b & c)


def majority_closed(rel):
    """Bijunctivity by definition: the coordinatewise majority of every
    three distinct tuples is a tuple (repeated arguments return one of
    them)."""
    return all(
        _majority(a, b, c) in rel.tuples
        for a, b, c in itertools.combinations(rel.tuples, 3)
    )


def xor3_closed(rel):
    """Affinity by definition: the coordinatewise XOR of every three
    distinct tuples is a tuple (with a repeated argument, XOR returns the
    third one)."""
    return all(
        a ^ b ^ c in rel.tuples for a, b, c in itertools.combinations(rel.tuples, 3)
    )


def every_relation(arity):
    """All 2^(2^arity) relations of the arity, the empty one included."""
    return [Relation(arity, frozenset(t for t in range(1 << arity) if mask >> t & 1))
            for mask in range(1 << (1 << arity))]


@functools.cache
def navigable_population():
    """Every navigable relation of arity 1..3 with its kind, as
    `classify_set` sees it alone: 260, of which 228 are componentwise
    bijunctive."""
    out = []
    for arity in (1, 2, 3):
        for rel in every_relation(arity):
            cls = classify_set([rel])
            if cls.verdict is Verdict.NAVIGABLE:
                out.append((rel, cls.kind))
    return tuple(out)


def two_cnf_relation(arity, rng, clauses):
    """The solution set of `clauses` random clauses of width 1 and 2, a
    bijunctive relation by construction."""
    sols = set(range(1 << arity))
    for _ in range(clauses):
        width = rng.randint(1, min(2, arity))
        literals = tuple((p, rng.randint(0, 1)) for p in rng.sample(range(1, arity + 1), width))
        sols &= _clause_solutions(arity, literals)
    return Relation(arity, frozenset(sols))


def synth_horn(rel):
    widths = range(1, rel.arity + 1)
    return _synthesizes(rel, _width_clauses(rel.arity, widths, max_positive=1))


def synth_dual_horn(rel):
    mirrored = Relation(rel.arity, frozenset(
        t ^ ((1 << rel.arity) - 1) for t in rel.tuples
    ))
    return synth_horn(mirrored)


def synth_affine(rel):
    """XOR-equation synthesis: keep every parity constraint all tuples
    satisfy and compare the joint solution set."""
    arity = rel.arity
    sols = set(range(1 << arity))
    for size in range(1, arity + 1):
        for subset in itertools.combinations(range(1, arity + 1), size):
            mask = 0
            for p in subset:
                mask |= 1 << (arity - p)
            for c in (0, 1):
                if all((t & mask).bit_count() % 2 == c for t in rel.tuples):
                    sols = {v for v in sols if (v & mask).bit_count() % 2 == c}
    return frozenset(sols) == rel.tuples


def eliminated_affine(rel):
    """Affinity by rank: xored with one of its tuples, the relation must be
    its whole span, whose rank r Gaussian elimination over the tuples
    finds, so it has 2^r tuples. The reference that shares no code with
    the library's translation kernel."""
    tuples = rel.tuples
    if not tuples:
        return True
    base = next(iter(tuples))
    basis = {}  # leading bit -> basis vector with that leading bit
    for t in tuples:
        x = t ^ base
        while x:
            top = x.bit_length()
            if top not in basis:
                basis[top] = x
                break
            x ^= basis[top]
    return len(tuples) == 1 << len(basis)


def naive_is_componentwise_bijunctive(rel):
    """Every Hamming component of every restriction value, over all
    (target+2)^arity maps, is synthesized by 1- and 2-clauses."""
    comps = {
        (target, comp)
        for target in range(1, rel.arity + 1)
        for tuples in naive_all_restriction_values(rel, target)
        for comp in hamming_components(target, tuples)
    }
    return all(synth_bijunctive(Relation(target, comp)) for target, comp in comps)


OR_PATTERN = frozenset({0b01, 0b10, 0b11})
NAND_PATTERN = frozenset({0b00, 0b01, 0b10})
HORN_PATTERN = frozenset(range(8)) - {0b011}
DUAL_HORN_PATTERN = frozenset(range(8)) - {0b100}


def naive_relation_flags(rel):
    """All nine flags from the synthesis oracles and from enumerating
    every restriction map over bitstrings."""
    return RelationFlags(
        bijunctive=synth_bijunctive(rel),
        horn=synth_horn(rel),
        dual_horn=synth_dual_horn(rel),
        affine=synth_affine(rel),
        componentwise_bijunctive=naive_is_componentwise_bijunctive(rel),
        or_free=naive_is_free(rel, OR_PATTERN, 2),
        nand_free=naive_is_free(rel, NAND_PATTERN, 2),
        horn_free=naive_is_free(rel, HORN_PATTERN, 3),
        dual_horn_free=naive_is_free(rel, DUAL_HORN_PATTERN, 3),
    )


# Forbidden binary restrictions as truth tables: the satisfying sets of
# (x | y), tuples {01, 10, 11}, and !(x & y), tuples {00, 01, 10}. Both are
# symmetric, so one order of their positions matches every order.
OR_TABLE = 0b1110
NAND_TABLE = 0b0111
# Forbidden ternary restrictions: satisfying sets of (x | !y | !z) and
# (!x | y | z), each in all three placements of its odd literal.
HORN_PLACEMENTS = frozenset(0xFF ^ (1 << t) for t in (0b011, 0b101, 0b110))
DUAL_HORN_PLACEMENTS = frozenset(0xFF ^ (1 << t) for t in (0b100, 0b010, 0b001))


def closure_relation_flags(rel):
    """The five restriction-based flags, in `RelationFlags` order
    (componentwise bijunctive, OR-, NAND-, Horn- and dual-Horn-free),
    read off `reference_closure` at every level with no Schaefer
    shortcut, for comparison with the library's pair matrices and its
    componentwise-bijunctive check. Each table's components are split and
    tested by `components_bijunctive`, so the reference shares no code
    with `relation.is_componentwise_bijunctive`."""
    closure = reference_closure(rel)
    k = rel.arity
    return (
        all(components_bijunctive(a, frozenset(t for t in range(1 << a) if table >> t & 1))
            for a in range(3, k + 1)
            for table in closure[a - 1]),
        k < 2 or OR_TABLE not in closure[1],
        k < 2 or NAND_TABLE not in closure[1],
        k < 3 or closure[2].isdisjoint(HORN_PLACEMENTS),
        k < 3 or closure[2].isdisjoint(DUAL_HORN_PLACEMENTS),
    )


@contextlib.contextmanager
def closure_calls():
    """Inside the block, count the calls of `relation._level_steps`, each
    of which builds one level of the componentwise-bijunctive check: the
    yielded list gets the arity of every level built."""
    built = []
    level_steps = relation_layer._level_steps

    def counted(arity, tables):
        built.append(arity)
        return level_steps(arity, tables)

    relation_layer._level_steps = counted
    try:
        yield built
    finally:
        relation_layer._level_steps = level_steps


# Each Schaefer class as the operation its relations are closed under,
# with the operation's number of arguments.
CLASS_OPERATIONS = {
    "horn": (operator.and_, 2),
    "dual_horn": (operator.or_, 2),
    "bijunctive": (lambda a, b, c: (a & b) | (a & c) | (b & c), 3),
    "affine": (lambda a, b, c: a ^ b ^ c, 3),
}


def closed_relation(arity, seeds, operation):
    """The smallest relation that holds `seeds` and is closed under
    `operation`, a `CLASS_OPERATIONS` value: apply it to every choice of
    arguments until nothing is new."""
    op, width = operation
    tuples = set(seeds)
    while True:
        new = set(itertools.starmap(op, itertools.product(tuples, repeat=width))) - tuples
        if not new:
            return Relation(arity, frozenset(tuples))
        tuples |= new


def closed_under(rel, op):
    """True iff `op` maps every two distinct tuples of `rel` into it; AND
    and OR of a tuple with itself return it. The pairwise reference for
    the AND- and OR-closure flags of the library's pair matrices."""
    ts = rel.tuples
    return all(t in ts for t in itertools.starmap(op, itertools.combinations(ts, 2)))


def components_bijunctive(arity, tuples):
    """Every Hamming component of the tuple set is bijunctive: the flood
    `hamming_components` and clause synthesis on each component, the
    reference for `relation._components_bijunctive`."""
    return all(_synth_bijunctive_component(arity, comp)
               for comp in hamming_components(arity, tuples))


@functools.cache
def _synth_bijunctive_component(arity, comp):
    # the census of arity 4 meets each component many times
    return synth_bijunctive(Relation(arity, comp))


def flag_digest_relations():
    """Every relation of arity 1-3, then seeded ones of arity 4-8: random
    relations from sparse to dense, each beside its complement, 2-CNF
    solution sets with 0-3 tuples dropped, and the closure of a few
    random tuples under each Schaefer class's operation."""
    rels = [rel for arity in (1, 2, 3) for rel in every_relation(arity)]
    for arity in range(4, 9):
        rng = random.Random(1404 + arity)
        size = 1 << arity
        for density in (0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(3):
                rel = Relation(arity, frozenset(t for t in range(size) if rng.random() < density))
                rels += [rel, rel.complemented()]
        for _ in range(4):
            kept = sorted(two_cnf_relation(arity, rng, rng.randint(1, arity)).tuples)
            rng.shuffle(kept)
            rels.append(Relation(arity, frozenset(kept[rng.randint(0, 3):])))
        for operation in CLASS_OPERATIONS.values():
            seeds = rng.sample(range(size), rng.randint(2, 5))
            rels.append(closed_relation(arity, seeds, operation))
    return rels


def set_rule(flags):
    """`(verdict, kind)` of a relation set from its relations' nine flags,
    written from the classification rule alone: the navigable kinds every
    relation has, the first in preference order, else tight when every
    relation is OR-free or every one is NAND-free, else not tight."""
    every = {
        "cwb": all(f.componentwise_bijunctive for f in flags),
        "nand": all(f.nand_free and f.dual_horn_free for f in flags),
        "or": all(f.or_free and f.horn_free for f in flags),
        "tight": all(f.or_free for f in flags) or all(f.nand_free for f in flags),
    }
    for name, kind in (("cwb", NavigableKind.COMPONENTWISE_BIJUNCTIVE),
                       ("nand", NavigableKind.NAND_AND_DUAL_HORN_FREE),
                       ("or", NavigableKind.OR_AND_HORN_FREE)):
        if every[name]:
            return Verdict.NAVIGABLE, kind
    return (Verdict.TIGHT_NOT_NAVIGABLE if every["tight"] else Verdict.NOT_TIGHT), None


# ------------------------------------------- clause-by-clause evaluation
# These read every clause through `induced` and the clause's declared
# relation, so they share nothing with the compiled clause tables.

def naive_first_violated_clause(phi, assignment):
    for i, clause in enumerate(phi.clauses, 1):
        if induced(phi, clause, assignment) not in phi.relation(clause.relation_name):
            return i
    return None


def naive_evaluate(phi, assignment):
    return naive_first_violated_clause(phi, assignment) is None


def rescan_cwb_walk(phi, s, t):
    """The greedy walk by full rescans: flip the lowest-index differing
    variable whose flip keeps the formula satisfied, until t is reached;
    None when no differing variable can be flipped."""
    n = phi.num_vars
    cur = s
    flips = []
    while cur != t:
        for v in range(1, n + 1):
            if var_bit(cur, v, n) == var_bit(t, v, n):
                continue
            candidate = flip_bit(cur, v, n)
            if naive_evaluate(phi, candidate):
                flips.append(Flip(v, var_bit(cur, v, n) == 0))
                cur = candidate
                break
        else:
            return None
    return tuple(flips)


def reference_advance(phi, start, flips):
    """Step through the flips from a satisfying `start` one at a time,
    re-evaluating every clause after each. Returns (assignment, None)
    when every flip holds, else (the assignment before the first bad
    flip, (its index, the message `advance` gives for it)). A flip is
    bad when it names no variable, moves its variable the wrong way or
    falsifies the formula."""
    n = phi.num_vars
    cur = start
    for i, (v, up) in enumerate(flips):
        token = f"x{v}{'+' if up else '-'}"
        if not 1 <= v <= n:
            return cur, (i, f"{token} names no variable in 1..{n}")
        if var_bit(cur, v, n) == up:
            verb = "raises" if up else "lowers"
            return cur, (i, f"{token} {verb} a variable already {int(up)}")
        nxt = flip_bit(cur, v, n)
        if not naive_evaluate(phi, nxt):
            return cur, (i, f"prefix ending at {token} falsifies the formula")
        cur = nxt
    return cur, None


@st.composite
def formula_strategy(draw, max_vars=6, max_clauses=5):
    """Small formulas whose clauses mix variables, repeats and constants,
    including clauses made of constants only."""
    n = draw(st.integers(1, max_vars))
    rels = draw(st.lists(relation_strategy(1, 3), min_size=1, max_size=3))
    named = tuple((f"r{i}", rel) for i, rel in enumerate(rels, 1))
    arg = st.one_of(st.integers(1, n), st.sampled_from([CONST0, CONST1]))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        name, rel = draw(st.sampled_from(named))
        clauses.append(Clause(name, draw(st.tuples(*[arg] * rel.arity))))
    return Formula(n, named, tuple(clauses))


# ------------------------------------------ assignment-space flip oracles

def enum_positive_sequences(phi, start):
    """All valid positive flip sequences of a formula, as variable tuples."""
    n = phi.num_vars
    out = set()

    def walk(cur, prefix):
        out.add(tuple(prefix))
        for v in range(1, n + 1):
            if var_bit(cur, v, n) == 0:
                nxt = flip_bit(cur, v, n)
                if naive_evaluate(phi, nxt):
                    prefix.append(v)
                    walk(nxt, prefix)
                    prefix.pop()

    walk(start, [])
    return out


def raise_reachable(phi, start):
    """The assignments that valid positive sequences from `start` reach
    (BFS over the monotone-up reachable states, so it stays cheap)."""
    n = phi.num_vars
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in range(1, n + 1):
            if var_bit(u, v, n) == 0:
                w = flip_bit(u, v, n)
                if w not in seen and naive_evaluate(phi, w):
                    seen.add(w)
                    stack.append(w)
    return seen


def positive_flip_variables(phi, start):
    """Variables raised by some valid positive sequence."""
    raised = 0
    for a in raise_reachable(phi, start):
        raised |= a & ~start
    n = phi.num_vars
    return {v for v in range(1, n + 1) if var_bit(raised, v, n)}


def reached_precedence(phi, start):
    """The formula's flip order at `start`, read off `raise_reachable`: v
    is a member iff some reached assignment has raised it, and (u, v) is
    a pair iff every reached assignment that has raised v has raised u
    too. The pairs are transitively closed."""
    n = phi.num_vars
    seen = raise_reachable(phi, start)
    members = set()
    prec = set()
    for v in range(1, n + 1):
        raised = [a & ~start for a in seen if var_bit(a & ~start, v, n)]
        if raised:
            members.add(v)
            prec.update(
                (u, v) for u in range(1, n + 1)
                if u != v and all(var_bit(a, u, n) for a in raised)
            )
    return frozenset(members), frozenset(prec)


def lowest_index_order(chosen, prec):
    """The topological order of `chosen` under the pairs (u, v) of `prec`,
    u first, that always places the smallest variable whose predecessors
    in `chosen` are all placed; None when some variable never qualifies.
    Quadratic and heap-free, so it shares nothing with the library."""
    placed = []
    left = sorted(chosen)
    while left:
        ready = [
            v for v in left
            if all(u in placed for u, w in prec if w == v and u in chosen)
        ]
        if not ready:
            return None
        placed.append(ready[0])
        left.remove(ready[0])
    return placed


def reference_lower_set_sequence(phi, start, want):
    """What `lower_set_sequence` must return at `start`, the variables in
    the order they are raised, from `reached_precedence` and
    `lowest_index_order` alone."""
    members, prec = reached_precedence(phi, start)
    if not set(want) <= members:
        return None
    lower = set(want) | {u for u, v in prec if v in want}
    return tuple(lowest_index_order(lower, prec))


def raises(variables):
    """The raising flips of `variables`, in order."""
    return tuple(Flip(v, True) for v in variables)


def swap_signs(flips):
    """The flips in the same order, each with its sign swapped."""
    return tuple(Flip(v, not up) for v, up in flips)


def order_obeying_sequences(members, prec):
    """All orderings of downward-closed subsets of `members` respecting
    the pairs in `prec`."""
    out = set()
    for r in range(len(members) + 1):
        for subset in itertools.combinations(sorted(members), r):
            chosen = set(subset)
            if any(q in chosen and p not in chosen for p, q in prec):
                continue
            for perm in itertools.permutations(subset):
                pos = {v: i for i, v in enumerate(perm)}
                if all(
                    not (p in chosen and q in chosen) or pos[p] < pos[q]
                    for p, q in prec
                ):
                    out.add(perm)
    return out


def valid_positive_sequences(relation, state):
    """Every positive flip sequence valid at `state`, as tuples of
    positions (1-based), including the empty sequence. It grows
    factorially with the arity."""
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


def sequence_partial_order(relation, state):
    """The flip partial order derived from the valid positive sequences
    themselves: a position is a member iff some sequence raises it, and p
    precedes q iff every sequence containing q contains p earlier."""
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


def closure(dag):
    """All ordered pairs (u, v) of a flip DAG with a directed path from u
    to v."""
    succs = {v: [] for v in dag.nodes}
    for u, v in dag.edges:
        succs[u].append(v)
    pairs = set()
    for start in dag.nodes:
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


def closure_reduction(dag):
    """The transitive reduction of a flip DAG, read off its closure: the
    pairs (u, v) with a path from u to v and no node w between them."""
    pairs = closure(dag)
    return frozenset(
        (u, v)
        for u, v in pairs
        if not any((u, w) in pairs and (w, v) in pairs for w in dag.nodes)
    )


# ------------------------------------------------ dict BFS reference search
# Shares nothing with the table search in satflip.recon: states come from
# `naive_evaluate` one assignment at a time, distances live in a dict.

def naive_solutions(phi):
    """The satisfying assignments, ascending."""
    return [a for a in range(1 << phi.num_vars) if naive_evaluate(phi, a)]


def dict_bfs_line(phi, s, t):
    """The protocol line of a shortest flip sequence from s to t: BFS
    distances from t in a dict, then from s always the lowest-index flip
    whose state is one closer."""
    n = phi.num_vars
    sat = set(naive_solutions(phi))
    dist = {t: 0}
    layer = [t]
    while layer and s not in dist:
        nxt = []
        for a in layer:
            for v in range(1, n + 1):
                b = flip_bit(a, v, n)
                if b in sat and b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        layer = nxt
    if s not in dist:
        return "NOTCONNECTED"
    tokens = []
    cur = s
    while cur != t:
        for v in range(1, n + 1):
            b = flip_bit(cur, v, n)
            if dist.get(b) == dist[cur] - 1:
                tokens.append(f"x{v}{'+' if var_bit(cur, v, n) == 0 else '-'}")
                cur = b
                break
    return " ".join(["PATH", str(len(tokens))] + tokens)


def dict_graph(phi):
    """(states, edges) of the reconfiguration graph, edges (u, v) with
    u < v, both ascending."""
    n = phi.num_vars
    states = naive_solutions(phi)
    sat = set(states)
    edges = sorted(
        (a, b)
        for a in states
        for v in range(1, n + 1)
        if (b := flip_bit(a, v, n)) > a and b in sat
    )
    return tuple(states), tuple(edges)


# -------------------------------------------------------- seeded instances

def navigable_corpus(count, seed, max_arity=4, max_vars=12, max_clauses=8,
                     max_relations=3):
    """Deterministic stream of (phi, s, t) instances over relations that
    are NAND-free and dual-Horn-free."""
    rng = random.Random(seed)
    instances = []
    attempts = 0
    while len(instances) < count and attempts < count * 20:
        attempts += 1
        rels = [
            random_navigable_relation(rng.randint(1, max_arity), rng.randrange(2**32))
            for _ in range(rng.randint(1, max_relations))
        ]
        try:
            instances.append(
                random_formula(
                    rels,
                    rng.randint(2, max_vars),
                    rng.randint(0, max_clauses),
                    rng.randrange(2**32),
                )
            )
        except GenerationError:
            continue
    return instances


def formula_with_constants(relations, num_vars, num_clauses, rng):
    """(phi, s, t) over the given relations, or None when unsatisfiable.
    Unlike `random_formula`, a clause argument is a constant about one
    time in six and repeats an earlier argument of its clause about one
    time in five; s and t are drawn from the solutions."""
    named = tuple((f"r{i}", rel) for i, rel in enumerate(relations, 1))
    clauses = []
    for _ in range(num_clauses):
        name, rel = rng.choice(named)
        args = []
        for _ in range(rel.arity):
            roll = rng.random()
            if roll < 1 / 6:
                args.append(rng.choice([CONST0, CONST1]))
            elif roll < 1 / 6 + 1 / 5 and args:
                args.append(rng.choice(args))
            else:
                args.append(rng.randint(1, num_vars))
        clauses.append(Clause(name, tuple(args)))
    phi = Formula(num_vars, named, tuple(clauses))
    sats = members(solution_table(phi.compiled))
    if not sats:
        return None
    return phi, rng.choice(sats), rng.choice(sats)


def in_order_class_sample(count, seed, min_arity=4, max_arity=6):
    """Seeded NAND-free and dual-Horn-free relations of arity min..max.
    Each starts as the solution set of random implications between its
    positions, a lattice with long precedence chains; about a tenth of
    its tuples are dropped, and it is kept if it is still in the class."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        arity = rng.randint(min_arity, max_arity)
        implied = [(i, j) for i in range(arity) for j in range(arity)
                   if i != j and rng.random() < 0.15]
        kept = frozenset(
            t for t in range(1 << arity)
            if all(not t >> i & 1 or t >> j & 1 for i, j in implied)
            and rng.random() >= 0.1
        )
        if not kept:
            continue
        rel = Relation(arity, kept)
        if is_nand_free(rel) and is_dual_horn_free(rel):
            out.append(rel)
    return out


def random_walk(phi, start, steps, rng):
    """A random flip walk in the solution graph; returns the Flip list
    and the assignment it ends at."""
    n = phi.num_vars
    cur = start
    flips = []
    for _ in range(steps):
        options = []
        for v in range(1, n + 1):
            nxt = flip_bit(cur, v, n)
            if naive_evaluate(phi, nxt):
                options.append(v)
        if not options:
            break
        v = rng.choice(options)
        flips.append(Flip(v, var_bit(cur, v, n) == 0))
        cur = flip_bit(cur, v, n)
    return flips, cur


def canonicalize(compiled, start, flips):
    """Rewrite a valid flip sequence so all raises precede all lowers.

    Adjacent lower/raise pairs on one variable cancel; a lower
    immediately followed by a raise of a different variable is swapped
    (sound when every relation is NAND-free). The result reaches the
    same endpoint, uses a subset of the original flips, and keeps the
    relative order within each sign. A proof device of the NAND-free
    case, not a solver step, so it lives with the tests.
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


# ------------------------------------------------------------------ fuzzing

@st.composite
def mutated(draw, text, tokens):
    """`text` (bytes or str) after one to six deletions of a run of up to
    12 characters or insertions of one of `tokens`."""
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        if text and draw(st.booleans()):
            text = text[:i] + text[i + draw(st.integers(1, 12)):]
        else:
            text = text[:i] + draw(st.sampled_from(tokens)) + text[i:]
    return text


# ------------------------------------------------------------------- graphs

def min_vertex_cover_size(graph):
    """Brute force over vertex subsets, smallest first."""
    vertices = range(1, graph.num_vertices + 1)
    for size in range(graph.num_vertices + 1):
        for subset in itertools.combinations(vertices, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return size
    raise AssertionError("the full vertex set always covers")


# Numeric tokens that Python's int() reads as 2, 10 and 3 but that no
# input format accepts: a sign, a digit separator, an Arabic-Indic digit.
NON_DECIMAL_TOKENS = ("+2", "1_0", "٣")


def non_decimal_cases(sites, tokens=NON_DECIMAL_TOKENS):
    """(text, message) for each site and token: a site is a text and the
    message its parser raises, each with `{tok}` where the token goes."""
    return [(text.format(tok=tok), message.format(tok=tok))
            for text, message in sites for tok in tokens]


# ------------------------------------------------------- reference readers
#
# The library's .cnfs and DIMACS readers read each clause line in one
# match and build the Formula without re-checking it. These references
# read every token through read_decimal and build it through the checking
# constructor; both must give the same result or the same ParseError.

def reference_parse_instance(text):
    """`satflip.parse_instance`, token by token."""
    num_vars = None
    relations = {}
    clauses = []
    pending = None  # (name, arity, tuples, start_line) of an open relation block
    endpoint_raw = {}

    for lineno, line in content_lines(text):
        if line.startswith("#"):
            body = line[1:].strip()
            for key in ("s", "t"):
                if body.startswith(f"{key}="):
                    if key in endpoint_raw:
                        raise ParseError(f"duplicate '{key}=' endpoint", lineno)
                    endpoint_raw[key] = (body[2:].strip(), lineno)
            continue
        if pending is not None:
            name, arity, tuples, start = pending
            if line == "end":
                relations[name] = Relation(arity, frozenset(tuples))
                pending = None
            elif (t := from_bitstring(line, arity)) is None:
                raise ParseError(
                    f"expected a {arity}-bit tuple or 'end' in relation {name!r}",
                    lineno,
                )
            else:
                tuples.add(t)
            continue
        parts = line.split()
        directive = parts[0]
        if directive == "vars":
            if num_vars is not None:
                raise ParseError("duplicate 'vars' line", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'vars <n>'", lineno)
            num_vars = read_decimal(parts[1], f"bad variable count {parts[1]!r}", lineno)
            if num_vars < 1:
                raise ParseError("variable count must be >= 1", lineno)
        elif directive == "relation":
            if num_vars is None:
                raise ParseError("'vars' must come before 'relation'", lineno)
            if len(parts) != 3:
                raise ParseError("expected 'relation <name> <arity>'", lineno)
            name = parts[1]
            if name in relations:
                raise ParseError(f"duplicate relation name {name!r}", lineno)
            pending = (name, read_arity(parts[2], lineno), set(), lineno)
        elif directive == "clause":
            if num_vars is None:
                raise ParseError("'vars' must come before 'clause'", lineno)
            if len(parts) < 2:
                raise ParseError("expected 'clause <name> <args...>'", lineno)
            name = parts[1]
            rel = relations.get(name)
            if rel is None:
                raise ParseError(f"undefined relation {name!r}", lineno)
            raw_args = parts[2:]
            if len(raw_args) != rel.arity:
                raise ParseError(
                    f"relation {name!r} has arity {rel.arity}, got "
                    f"{len(raw_args)} arguments",
                    lineno,
                )
            args = []
            for tok in raw_args:
                if tok == "T":
                    args.append(CONST1)
                elif tok == "F":
                    args.append(CONST0)
                elif tok.startswith("x"):
                    idx = read_decimal(tok[1:], f"bad argument {tok!r}", lineno)
                    if not 1 <= idx <= num_vars:
                        raise ParseError(
                            f"variable index {tok!r} out of range 1..{num_vars}",
                            lineno,
                        )
                    args.append(idx)
                else:
                    raise ParseError(
                        f"bad argument {tok!r} (expected x<i>, T, or F)", lineno
                    )
            clauses.append(Clause(name, tuple(args)))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    if pending is not None:
        raise ParseError(f"relation {pending[0]!r} not terminated by 'end'", pending[3])
    if num_vars is None:
        raise ParseError("missing 'vars' line")
    phi = Formula(num_vars, tuple(relations.items()), tuple(clauses))

    endpoints = {key: parse_assignment(bits, num_vars, lineno)
                 for key, (bits, lineno) in endpoint_raw.items()}
    return phi, endpoints.get("s"), endpoints.get("t")


DIMACS_RELATIONS = {
    "or2_pp": Relation(2, frozenset({0b01, 0b10, 0b11})),
    "or2_pn": Relation(2, frozenset({0b00, 0b10, 0b11})),
    "or2_np": Relation(2, frozenset({0b00, 0b01, 0b11})),
    "or2_nn": Relation(2, frozenset({0b00, 0b01, 0b10})),
    "or1_p": Relation(1, frozenset({0b1})),
    "or1_n": Relation(1, frozenset({0b0})),
}


def reference_parse_dimacs_2cnf(text):
    """`satflip.parse_dimacs_2cnf`, token by token."""
    num_vars = None
    clauses = []
    used = set()
    for lineno, line in content_lines(text, "c"):
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno)
            message = f"bad header counts in {line!r}"
            num_vars = read_decimal(parts[2], message, lineno)
            num_clauses = read_decimal(parts[3], message, lineno)
            header = lineno
            if num_vars < 1:
                raise ParseError("variable count must be >= 1", lineno)
            if num_clauses < 0:
                raise ParseError("clause count must be >= 0", lineno)
            continue
        if num_vars is None:
            raise ParseError("missing 'p cnf' header", lineno)
        message = f"bad clause line {line!r}"
        lits = [read_decimal(tok, message, lineno) for tok in line.split()]
        if not lits or lits[-1] != 0:
            raise ParseError("clause line must end with 0", lineno)
        lits = lits[:-1]
        if not 1 <= len(lits) <= 2:
            raise ParseError("only 1- and 2-literal clauses are supported", lineno)
        for lit in lits:
            if not 1 <= abs(lit) <= num_vars:
                raise ParseError(f"literal {lit} out of range", lineno)
        if len(lits) == 1:
            name = "or1_p" if lits[0] > 0 else "or1_n"
        else:
            name = "or2_" + "".join("p" if lit > 0 else "n" for lit in lits)
        used.add(name)
        clauses.append(Clause(name, tuple(abs(lit) for lit in lits)))
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise ParseError(f"header declares {num_clauses} clauses, "
                         f"the file has {len(clauses)}", header)
    relations = tuple((name, rel) for name, rel in DIMACS_RELATIONS.items() if name in used)
    return Formula(num_vars, relations, tuple(clauses))
