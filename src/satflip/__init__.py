"""Shortest flip sequences between satisfying assignments.

Classify finite sets of Boolean relations by how hard shortest
reconfiguration is over formulas built from them, and compute provably
shortest flip sequences for the polynomially solvable classes, with a
brute-force exact search as the reference. See README.md for the file
formats and the CLI.

Importing the package loads none of its modules. Each exported name is
resolved on first use (PEP 562): ``satflip.classify_set`` loads
``relation`` and the three small modules it imports, and
``classify_formula`` adds ``formula``. The answer records
(``SolveResult`` and the rest) add ``answer``, and only a name from
``navigate``, ``recon``, ``gen`` or ``flip_order`` loads the solvers.
``from satflip import *`` loads every module.
"""

from importlib import import_module

_EXPORTS = {
    "answer": ("Flip", "Outcome", "SolveResult", "SolveStats"),
    "errors": (
        "FlipSequenceError", "GenerationError", "ParseError",
        "PreconditionError", "SatFlipError", "TheoryError",
    ),
    "flip_order": (
        "FlipOrderDag", "apply_sequence", "formula_flip_dag",
        "lower_set_sequence", "order_respecting_sequence",
        "relation_partial_order", "smallest_lower_set",
    ),
    "formula": (
        "Clause", "CompiledFormula", "Formula", "classify_formula",
        "effective_clause", "evaluate", "format_assignment", "induced",
        "parse_assignment", "parse_dimacs_2cnf", "parse_instance",
        "serialize_formula",
    ),
    "gen": (
        "SimpleGraph", "gen_independent_set_instance",
        "gen_vertex_cover_instance", "parse_graph", "random_formula",
        "random_navigable_relation",
    ),
    "navigate": (
        "Route", "dualize", "shortest_path_cwb", "shortest_path_navigable",
        "solve",
    ),
    "recon": (
        "DEFAULT_STATE_CAP", "MAX_STATE_CAP", "ReconGraph", "bfs_shortest",
        "build_graph", "graph_size", "sat_mask", "solution_table",
    ),
    "relation": (
        "CONST0", "CONST1", "MAX_ARITY", "Classification", "NavigableKind",
        "Relation", "RelationFlags", "RestrictionMap", "Verdict",
        "classify_set", "is_affine", "is_bijunctive",
        "is_componentwise_bijunctive", "is_dual_horn", "is_dual_horn_free",
        "is_horn", "is_horn_free", "is_nand_free", "is_or_free",
        "parse_relation", "relation_flags", "restrict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# The modules' own names are exports too: `from satflip import *` imports
# each module and binds it, besides the names it exports.
__all__ = sorted([*_HOME, *_EXPORTS, "bits", "records"])


def __getattr__(name):
    """Import an exported name's home module on first use, and keep the
    value in the package, so later lookups skip this function."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
