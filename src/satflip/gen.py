"""Instance generators: graph reductions and seeded random fuzz inputs.

The vertex-cover and independent-set builders produce formulas whose
shortest flip sequences encode minimum covers, giving concrete instances
of the NP-complete class; the tests find those covers by brute force.
The random builders rejection-sample inputs for the polynomial solvers,
up to a fixed number of draws, so they can be fuzzed against the exact
search.
"""

from __future__ import annotations

import random

from .errors import GenerationError, ParseError, PreconditionError
from .errors import content_lines, read_decimal
from .formula import Clause, Formula, restricted_clause
from .records import Frozen, set_field
from .relation import Relation, is_dual_horn_free, is_nand_free


# The reductions write one endpoint character per variable, so a graph's
# declared vertex count, not its file size, sets their output size. At
# this ceiling `gen vc` with one edge writes 2 MB in 0.17 s, 18 MiB RSS.
MAX_GRAPH_VERTICES = 1_000_000


class SimpleGraph(Frozen):
    """An undirected graph on vertices 1..num_vertices. `edges` are stored
    as (smaller, larger) pairs, in the order given."""

    __slots__ = _fields = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, int], ...]):
        if type(num_vertices) is not int or num_vertices < 1:
            raise PreconditionError(f"graph needs at least one vertex, got {num_vertices!r}")
        if num_vertices > MAX_GRAPH_VERTICES:
            raise PreconditionError(
                f"graph has {num_vertices} vertices, above the ceiling {MAX_GRAPH_VERTICES}"
            )
        if type(edges) is not tuple:
            raise PreconditionError(f"graph edges must be a tuple, got {edges!r}")
        normalized = []
        seen = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise PreconditionError(f"edge {edge!r} is not a (u, v) pair") from None
            if type(u) is not int or type(v) is not int:
                raise PreconditionError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                raise PreconditionError(f"edge ({u}, {v}) out of range")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise PreconditionError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            normalized.append(e)
        set_field(self, "num_vertices", num_vertices)
        set_field(self, "edges", tuple(normalized))


def parse_graph(text: str) -> SimpleGraph:
    """Read `graph <num_vertices>` followed by `edge <u> <v>` lines."""
    num_vertices = None
    edges = []
    for lineno, line in content_lines(text, "#"):
        parts = line.split()
        if parts[0] == "graph":
            if num_vertices is not None:
                raise ParseError("duplicate 'graph' line", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'graph <num_vertices>'", lineno)
            num_vertices = read_decimal(parts[1], f"bad vertex count {parts[1]!r}", lineno)
        elif parts[0] == "edge":
            if num_vertices is None:
                raise ParseError("'graph' must come before 'edge'", lineno)
            if len(parts) != 3:
                raise ParseError("expected 'edge <u> <v>'", lineno)
            edges.append(tuple(read_decimal(tok, "edge endpoints must be integers", lineno)
                               for tok in parts[1:]))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if num_vertices is None:
        raise ParseError("missing 'graph' line")
    try:
        return SimpleGraph(num_vertices, tuple(edges))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


# Satisfying sets of (a | !b | c) and (a | !b | !c), used with argument
# orders (y_e, z_e, x_u) / (z_e, y_e, x_v) to build both clauses per edge.
VC_CLAUSE_RELATION = Relation(3, frozenset(range(8)) - {0b010})
IS_CLAUSE_RELATION = Relation(3, frozenset(range(8)) - {0b011})


def _edge_clauses(graph: SimpleGraph, name: str):
    nv = graph.num_vertices
    clauses = []
    for i, (u, v) in enumerate(graph.edges, 1):
        y = nv + 2 * i - 1
        z = y + 1
        clauses.append(Clause(name, (y, z, u)))
        clauses.append(Clause(name, (z, y, v)))
    return tuple(clauses)


def gen_vertex_cover_instance(graph: SimpleGraph):
    """Formula with |V| + 2|E| variables and 2|E| clauses whose shortest
    flip sequence from all-zeros to edge-variables-one pays two flips per
    edge variable plus two per vertex of a minimum vertex cover."""
    ne = len(graph.edges)
    n = graph.num_vertices + 2 * ne
    phi = Formula(n, (("vc3", VC_CLAUSE_RELATION),), _edge_clauses(graph, "vc3"))
    s = 0
    t = (1 << (2 * ne)) - 1  # edge variables occupy the low bits
    return phi, s, t


def gen_independent_set_instance(graph: SimpleGraph):
    """Mirror construction: all relations OR-free but not Horn-free, with
    endpoints all-ones and vertex-variables-one."""
    ne = len(graph.edges)
    n = graph.num_vertices + 2 * ne
    phi = Formula(n, (("is3", IS_CLAUSE_RELATION),), _edge_clauses(graph, "is3"))
    s = (1 << n) - 1
    t = ((1 << graph.num_vertices) - 1) << (2 * ne)
    return phi, s, t


# The largest `--clauses` or `--relations` count `gen random` accepts. As
# whole processes (0.11 s of start-up each): 1,000 clauses over 16 variables
# take 0.13 s and 16 MiB peak RSS; with 1,000 arity-4 relations and 200
# unsatisfiable draws (RANDOM_FORMULA_TRIES), 1.3 s and 19 MiB, most of it
# drawing the 200,000 clauses from the rng.
MAX_RANDOM_COUNT = 1_000

RANDOM_RELATION_TRIES = 1000
RANDOM_FORMULA_TRIES = 200


def random_navigable_relation(arity: int, seed: int) -> Relation:
    """Rejection-sample a NAND-free and dual-Horn-free relation."""
    if type(arity) is not int or not 1 <= arity <= 4:
        raise PreconditionError(f"arity must be in 1..4, got {arity}")
    rng = random.Random(seed)
    for _ in range(RANDOM_RELATION_TRIES):
        size = rng.randint(1, 1 << arity)
        rel = Relation(arity, frozenset(rng.sample(range(1 << arity), size)))
        if is_nand_free(rel) and is_dual_horn_free(rel):
            return rel
    raise GenerationError(
        f"no NAND-free and dual-Horn-free relation of arity {arity} "
        f"after {RANDOM_RELATION_TRIES} draws"
    )


def random_formula(relations, num_vars: int, num_clauses: int, seed: int):
    """Random clauses over the given relations, plus two satisfying
    endpoints sampled from the explicit solution set.

    Clause arguments are uniform random variables (repeats allowed, no
    constants). Unsatisfiable draws are resampled up to
    `RANDOM_FORMULA_TRIES` times. A draw takes all its clauses from the
    rng first, so the stream does not depend on the draw's outcome; its
    solution table is then narrowed clause by clause, and the draw is
    refused at the first clause that empties it.
    """
    # Only this builder needs the exact search's table, so reading a
    # graph or building a reduction loads neither it nor the solvers.
    from .recon import clause_table, members

    if type(num_vars) is not int or not 1 <= num_vars <= 16:
        raise PreconditionError(
            f"num_vars must be in 1..16 for explicit endpoint sampling, got {num_vars}"
        )
    if type(num_clauses) is not int or num_clauses < 0:
        raise PreconditionError(f"num_clauses must be at least 0, got {num_clauses}")
    named = tuple((f"r{i}", rel) for i, rel in enumerate(relations, 1))
    if not named:
        raise PreconditionError("need at least one relation")
    rng = random.Random(seed)
    for _ in range(RANDOM_FORMULA_TRIES):
        drawn = []
        for _ in range(num_clauses):
            name, rel = named[rng.randrange(len(named))]
            args = tuple(rng.randint(1, num_vars) for _ in range(rel.arity))
            drawn.append((rel, Clause(name, args)))
        effective = (restricted_clause(rel, clause) for rel, clause in drawn)
        table = clause_table(num_vars, ((vs, eff.table) for vs, eff in effective))
        if table:
            phi = Formula(num_vars, named, tuple(clause for _, clause in drawn))
            sats = members(table)
            s = sats[rng.randrange(len(sats))]
            t = sats[rng.randrange(len(sats))]
            return phi, s, t
    raise GenerationError(f"no satisfiable draw after {RANDOM_FORMULA_TRIES} tries")
