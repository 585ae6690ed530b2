"""Shared test oracles and hypothesis strategies.

Everything here reimplements behavior through a different route than the
library (string manipulation, clause synthesis, plain DFS over
assignments) so agreement is meaningful.
"""

import functools
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
    RelationFlags,
    induced,
    random_formula,
    random_navigable_relation,
    valid_positive_sequences,
)
from satflip.bits import flip_bit, var_bit
from satflip.recon import members, solution_table
from satflip.relation import is_dual_horn_free, is_nand_free


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


@functools.lru_cache(maxsize=64)
def naive_all_restriction_values(rel, target_arity):
    choices = list(range(1, target_arity + 1)) + [CONST0, CONST1]
    return frozenset(
        naive_restrict_tuples(rel, target_arity, entries)
        for entries in itertools.product(choices, repeat=rel.arity)
    )


def naive_is_free(rel, forbidden_tuples, target_arity):
    if rel.arity < target_arity:
        return True
    return forbidden_tuples not in naive_all_restriction_values(rel, target_arity)


def hamming_components(arity, tuples):
    """Connected components under single-bit flips, as frozensets of
    tuples ordered by smallest member: a flood over a Python set, the
    reference for the packed flood of `relation._table_components`."""
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


def two_cnf_relation(arity, rng, clauses):
    """The solution set of `clauses` random clauses of width 1 and 2, a
    bijunctive relation by construction."""
    sols = set(range(1 << arity))
    for _ in range(clauses):
        width = rng.randint(1, min(2, arity))
        literals = [(p, rng.randint(0, 1)) for p in rng.sample(range(1, arity + 1), width)]
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
    succs = dag.successor_map()
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
