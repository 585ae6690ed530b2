"""Shared test oracles and hypothesis strategies.

Everything here reimplements behavior through a different route than the
library (string manipulation, clause synthesis, plain DFS over
assignments) so agreement is meaningful.
"""

import itertools
import random

import hypothesis.strategies as st

from satflip import (
    CONST0,
    CONST1,
    Clause,
    Flip,
    Formula,
    GenerationError,
    Relation,
    induced,
    random_formula,
    random_navigable_relation,
)
from satflip.bits import flip_bit, var_bit


# ---------------------------------------------------------------- relations

def relation_strategy(min_arity=1, max_arity=3, min_tuples=0):
    def build(arity):
        return st.frozensets(
            st.integers(0, (1 << arity) - 1), min_size=min_tuples
        ).map(lambda ts: Relation(arity, ts))

    return st.integers(min_arity, max_arity).flatmap(build)


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


def naive_all_restriction_values(rel, target_arity):
    choices = list(range(1, target_arity + 1)) + [CONST0, CONST1]
    seen = set()
    for entries in itertools.product(choices, repeat=rel.arity):
        seen.add(naive_restrict_tuples(rel, target_arity, entries))
    return seen


def naive_is_free(rel, forbidden_tuples, target_arity):
    if rel.arity < target_arity:
        return True
    return forbidden_tuples not in naive_all_restriction_values(rel, target_arity)


# ------------------------------------------------- clause-synthesis oracles

def _clause_solutions(arity, literals):
    """Solutions of a disjunction of (position, polarity) literals."""
    sols = set()
    for v in range(1 << arity):
        if any((v >> (arity - p)) & 1 == pol for p, pol in literals):
            sols.add(v)
    return sols


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


def replay_first_bad_flip(phi, start, flips):
    """Index of the first flip that names no variable, moves its variable
    the wrong way or falsifies the formula; None if every prefix holds."""
    n = phi.num_vars
    cur = start
    for i, f in enumerate(flips):
        if not 1 <= f.var <= n or var_bit(cur, f.var, n) == f.up:
            return i
        cur = flip_bit(cur, f.var, n)
        if not naive_evaluate(phi, cur):
            return i
    return None


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


def positive_flip_variables(phi, start):
    """Variables raised by some valid positive sequence (via BFS over the
    monotone-up reachable states, so it stays cheap)."""
    n = phi.num_vars
    seen = {start}
    stack = [start]
    flippable = set()
    while stack:
        u = stack.pop()
        for v in range(1, n + 1):
            if var_bit(u, v, n) == 0:
                w = flip_bit(u, v, n)
                if naive_evaluate(phi, w):
                    flippable.add(v)
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return flippable


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


def random_walk(phi, start, steps, rng):
    """A random flip walk in the solution graph; returns the Flip list."""
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
