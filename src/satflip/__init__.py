"""Shortest flip sequences between satisfying assignments.

Classify finite sets of Boolean relations by how hard shortest
reconfiguration is over formulas built from them, and compute provably
shortest flip sequences for the polynomially solvable classes, with a
brute-force exact search as the reference. See README.md for the file
formats and the CLI.
"""

from .errors import (
    FlipSequenceError,
    GenerationError,
    ParseError,
    PreconditionError,
    SatFlipError,
    TheoryError,
)
from .flip_order import (
    Flip,
    FlipOrderDag,
    Outcome,
    SolveResult,
    SolveStats,
    apply_sequence,
    canonicalize,
    formula_flip_dag,
    invert_sequence,
    lower_set_sequence,
    order_respecting_sequence,
    relation_partial_order,
    smallest_lower_set,
)
from .formula import (
    Clause,
    CompiledFormula,
    Formula,
    effective_clause,
    evaluate,
    format_assignment,
    induced,
    parse_assignment,
    parse_dimacs_2cnf,
    parse_formula,
    parse_instance,
    serialize_formula,
)
from .gen import (
    SimpleGraph,
    gen_independent_set_instance,
    gen_vertex_cover_instance,
    parse_graph,
    random_formula,
    random_navigable_relation,
)
from .navigate import (
    Route,
    classify_formula,
    dualize,
    shortest_path_cwb,
    shortest_path_navigable,
    solve,
)
from .recon import (
    DEFAULT_STATE_CAP,
    MAX_STATE_CAP,
    ReconGraph,
    bfs_shortest,
    build_graph,
    graph_size,
    sat_mask,
    solution_table,
)
from .relation import (
    CONST0,
    CONST1,
    MAX_ARITY,
    Classification,
    NavigableKind,
    Relation,
    RelationFlags,
    RestrictionMap,
    Verdict,
    classify_set,
    is_affine,
    is_bijunctive,
    is_componentwise_bijunctive,
    is_dual_horn,
    is_dual_horn_free,
    is_horn,
    is_horn_free,
    is_nand_free,
    is_or_free,
    parse_relation,
    relation_flags,
    restrict,
    serialize_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
