"""CNF formulas over named finite relations, and the .cnfs text format.

A clause is a relation name plus a map from relation positions to
variables or constants; an assignment satisfies the formula when every
clause's induced tuple is accepted by its relation. Each formula is
compiled once, on first use, into per-clause accept masks and
per-variable occurrence lists (:class:`CompiledFormula`), so a flip is
checked against the clauses of its variable only (:class:`FlipState`).
The solvers, flip orders and exact search read only that compiled form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .bits import to_bitstring
from .errors import ParseError, PreconditionError
from .relation import CONST0, CONST1, MAX_ARITY, Relation, RestrictionMap, restrict
from .relation import pack_tuple


@dataclass(frozen=True)
class Clause:
    """One constraint: args[p] is the variable index (1-based) or constant
    feeding position p+1 of the named relation."""

    relation_name: str
    args: tuple

    def variables(self) -> tuple[int, ...]:
        """Distinct variables appearing in the clause, ascending."""
        return tuple(sorted({a for a in self.args if isinstance(a, int)}))


@dataclass(frozen=True)
class Formula:
    num_vars: int
    relations: tuple[tuple[str, Relation], ...]
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if (isinstance(self.num_vars, bool) or not isinstance(self.num_vars, int)
                or self.num_vars < 1):
            raise PreconditionError(f"num_vars must be >= 1, got {self.num_vars!r}")
        by_name = {}
        for name, rel in self.relations:
            if name in by_name:
                raise PreconditionError(f"duplicate relation name {name!r}")
            by_name[name] = rel
        for i, clause in enumerate(self.clauses, 1):
            rel = by_name.get(clause.relation_name)
            if rel is None:
                raise PreconditionError(
                    f"clause {i} uses undefined relation {clause.relation_name!r}"
                )
            if len(clause.args) != rel.arity:
                raise PreconditionError(
                    f"clause {i} has {len(clause.args)} args, relation "
                    f"{clause.relation_name!r} has arity {rel.arity}"
                )
            for a in clause.args:
                if a in (CONST0, CONST1):
                    continue
                if (isinstance(a, bool) or not isinstance(a, int)
                        or not 1 <= a <= self.num_vars):
                    raise PreconditionError(
                        f"clause {i} argument {a!r} out of range 1..{self.num_vars}"
                    )
        object.__setattr__(self, "_by_name", by_name)

    def relation(self, name: str) -> Relation:
        return self._by_name[name]

    @cached_property
    def compiled(self) -> "CompiledFormula":
        """The formula's clause tables, built on first use."""
        return _compile(self)

    @cached_property
    def route(self):
        """How the solvers answer the formula (:class:`satflip.navigate.Route`):
        it is classified, and complemented where needed, on first use."""
        from .navigate import formula_route

        return formula_route(self)


class CompiledFormula(NamedTuple):
    """Clause tables of a formula, in clause order.

    Clause j (0-based) constrains the distinct variables `variables[j]`
    (ascending) through its effective relation `relations[j]`. Its local
    tuple packs their values, the first variable in the highest bit, and
    `accept[j]` is that relation's truth table (`Relation.table`): bit
    `local` is set iff the tuple satisfies the clause. A clause without
    variables has k = 0, relation None, and bit 0 set iff it holds.
    `occurrences[v]` lists the (clause, bit) pairs of variable v: flipping
    v xors `bit` into that clause's local tuple. `distinct` lists each
    distinct relation of `relations` once, in order of first use, with
    the 1-based index of the first clause that uses it.
    """

    num_vars: int
    variables: tuple[tuple[int, ...], ...]
    relations: tuple[Relation | None, ...]
    accept: tuple[int, ...]
    occurrences: tuple[tuple[tuple[int, int], ...], ...]
    distinct: tuple[tuple[Relation, int], ...]

    def complemented(self) -> "CompiledFormula":
        """The compiled form of the formula's complement image: every
        relation complemented, clause constants swapped.

        Restricting a complemented relation with swapped constants gives
        the complement of the restriction, so the image keeps the
        variables and occurrences, complements each distinct effective
        relation once, and so mirrors each accept mask (bit x moves to
        bit x ^ (2^k - 1)). A constant-only clause keeps its mask: it
        holds in the image iff it holds here.
        """
        images = {}
        relations, accept = [], []
        for eff, mask in zip(self.relations, self.accept):
            if eff is not None:
                if eff not in images:
                    images[eff] = eff.complemented()
                eff = images[eff]
                mask = eff.table
            relations.append(eff)
            accept.append(mask)
        distinct = tuple((images[eff], j) for eff, j in self.distinct)
        return self._replace(
            relations=tuple(relations), accept=tuple(accept), distinct=distinct
        )


def _compile(phi: Formula) -> CompiledFormula:
    variables, relations, accept = [], [], []
    occurrences = [[] for _ in range(phi.num_vars + 1)]
    first_clause = {}
    for j, clause in enumerate(phi.clauses):
        clause_vars, eff = effective_clause(phi, clause)
        if eff is None:
            mask = int(pack_tuple(clause.args, 0, 0) in phi.relation(clause.relation_name))
        else:
            mask = eff.table
            first_clause.setdefault(eff, j + 1)
        k = len(clause_vars)
        for p, v in enumerate(clause_vars):
            occurrences[v].append((j, 1 << (k - 1 - p)))
        variables.append(clause_vars)
        relations.append(eff)
        accept.append(mask)
    return CompiledFormula(
        phi.num_vars,
        tuple(variables),
        tuple(relations),
        tuple(accept),
        tuple(map(tuple, occurrences)),
        tuple(first_clause.items()),
    )


class FlipState:
    """An assignment of a compiled formula plus each clause's local tuple.

    `can_flip` and `flip` touch only the clauses of the flipped variable.
    `can_flip` assumes those clauses hold now, as they do while the
    state walks through satisfying assignments.
    """

    __slots__ = ("compiled", "assignment", "local")

    def __init__(self, compiled: CompiledFormula, assignment: int):
        n = compiled.num_vars
        local = []
        for clause_vars in compiled.variables:
            x = 0
            for v in clause_vars:
                x = (x << 1) | ((assignment >> (n - v)) & 1)
            local.append(x)
        self.compiled = compiled
        self.assignment = assignment
        self.local = local

    def violated(self) -> int | None:
        """1-based index of the first falsified clause, or None."""
        for j, (mask, x) in enumerate(zip(self.compiled.accept, self.local), 1):
            if not (mask >> x) & 1:
                return j
        return None

    def value(self, v: int) -> int:
        return (self.assignment >> (self.compiled.num_vars - v)) & 1

    def can_flip(self, v: int) -> bool:
        """True iff flipping v keeps every clause containing v satisfied."""
        accept, local = self.compiled.accept, self.local
        for j, bit in self.compiled.occurrences[v]:
            if not (accept[j] >> (local[j] ^ bit)) & 1:
                return False
        return True

    def flip(self, v: int) -> None:
        local = self.local
        for j, bit in self.compiled.occurrences[v]:
            local[j] ^= bit
        self.assignment ^= 1 << (self.compiled.num_vars - v)


def flip_state(compiled: CompiledFormula, assignment: int) -> FlipState:
    """A :class:`FlipState` at a range-checked assignment."""
    _check_assignment(compiled.num_vars, assignment)
    return FlipState(compiled, assignment)


def satisfying_state(compiled: CompiledFormula, assignment: int, label: str) -> FlipState:
    """A :class:`FlipState` of an endpoint, which must be in range and
    satisfy every clause; `label` names the endpoint in the error."""
    state = flip_state(compiled, assignment)
    bad = state.violated()
    if bad is not None:
        raise PreconditionError(f"{label} assignment does not satisfy clause {bad}")
    return state


def require_relations(compiled: CompiledFormula, accepts, description: str) -> None:
    """Check each distinct effective relation once with `accepts`, naming
    the first clause whose relation fails. Solvers read these relations,
    not the declared ones a clause may use only trivially or not at all."""
    for eff, j in compiled.distinct:
        if not accepts(eff):
            raise PreconditionError(f"the relation of clause {j} is not {description}")


def _check_assignment(num_vars: int, assignment: int) -> None:
    if not isinstance(assignment, int) or not 0 <= assignment < (1 << num_vars):
        raise PreconditionError(
            f"assignment {assignment!r} out of range for {num_vars} variables"
        )


def induced(phi: Formula, clause: Clause, assignment: int) -> int:
    """The tuple the assignment induces on the clause's relation."""
    _check_assignment(phi.num_vars, assignment)
    return pack_tuple(clause.args, assignment, phi.num_vars)


def evaluate(phi: Formula, assignment: int) -> bool:
    """True iff every clause's induced tuple lies in its relation."""
    return first_violated_clause(phi, assignment) is None


def first_violated_clause(phi: Formula, assignment: int) -> int | None:
    """1-based index of the first falsified clause, or None if satisfying."""
    return flip_state(phi.compiled, assignment).violated()


@lru_cache(maxsize=None)
def _effective(rel: Relation, entries: tuple, k: int) -> Relation:
    """The restriction of `rel` for one clause shape: `entries` are the
    clause's arguments with its variables renumbered 1..k."""
    return restrict(rel, RestrictionMap(rel.arity, k, entries))


def effective_clause(phi: Formula, clause: Clause):
    """Collapse constants and repeated variables out of a clause.

    Returns (variables, relation): the clause's distinct variables in
    ascending order and the relation they must jointly satisfy. A clause
    with no variable arguments returns ((), None); evaluate it through
    :func:`induced` instead. Clauses of one shape (same relation, same
    pattern of constants and repeats) share one cached relation.
    """
    variables = clause.variables()
    if not variables:
        return variables, None
    index = {v: i for i, v in enumerate(variables, 1)}
    entries = tuple(index.get(a, a) for a in clause.args)
    return variables, _effective(phi.relation(clause.relation_name), entries, len(variables))


def parse_assignment(text: str, num_vars: int) -> int:
    if len(text) != num_vars or any(c not in "01" for c in text):
        raise ParseError(
            f"assignment must be a {num_vars}-character bitstring, got {text!r}"
        )
    return int(text, 2)


def format_assignment(assignment: int, num_vars: int) -> str:
    return to_bitstring(assignment, num_vars)


def parse_formula(text: str) -> Formula:
    """Read the .cnfs format; see `serialize_formula` for the layout."""
    return parse_instance(text)[0]


def parse_instance(text: str):
    """Like `parse_formula` but also returns endpoints embedded as
    `# s=<bits>` / `# t=<bits>` comments (None when absent)."""
    num_vars = None
    relations: list[tuple[str, Relation]] = []
    names = set()
    clauses: list[Clause] = []
    pending = None  # (name, arity, tuples, start_line) of an open relation block
    endpoint_raw = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            for key in ("s", "t"):
                if body.startswith(f"{key}="):
                    endpoint_raw[key] = (body[2:].strip(), lineno)
            continue
        parts = line.split()
        if pending is not None:
            name, arity, tuples, start = pending
            if parts == ["end"]:
                relations.append((name, Relation(arity, frozenset(tuples))))
                pending = None
                continue
            if len(line) != arity or any(c not in "01" for c in line):
                raise ParseError(
                    f"expected a {arity}-bit tuple or 'end' in relation {name!r}",
                    lineno,
                )
            tuples.add(int(line, 2))
            continue
        directive = parts[0]
        if directive == "vars":
            if num_vars is not None:
                raise ParseError("duplicate 'vars' line", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'vars <n>'", lineno)
            try:
                num_vars = int(parts[1])
            except ValueError:
                raise ParseError(f"bad variable count {parts[1]!r}", lineno) from None
            if num_vars < 1:
                raise ParseError("variable count must be >= 1", lineno)
        elif directive == "relation":
            if num_vars is None:
                raise ParseError("'vars' must come before 'relation'", lineno)
            if len(parts) != 3:
                raise ParseError("expected 'relation <name> <arity>'", lineno)
            name = parts[1]
            if name in names:
                raise ParseError(f"duplicate relation name {name!r}", lineno)
            try:
                arity = int(parts[2])
            except ValueError:
                raise ParseError(f"bad arity {parts[2]!r}", lineno) from None
            if not 1 <= arity <= MAX_ARITY:
                raise ParseError(f"arity must be in 1..{MAX_ARITY}", lineno)
            names.add(name)
            pending = (name, arity, set(), lineno)
        elif directive == "clause":
            if num_vars is None:
                raise ParseError("'vars' must come before 'clause'", lineno)
            if len(parts) < 2:
                raise ParseError("expected 'clause <name> <args...>'", lineno)
            name = parts[1]
            rel = dict(relations).get(name)
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
                    try:
                        idx = int(tok[1:])
                    except ValueError:
                        raise ParseError(f"bad argument {tok!r}", lineno) from None
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
    phi = Formula(num_vars, tuple(relations), tuple(clauses))

    endpoints = {}
    for key, value in endpoint_raw.items():
        bits, lineno = value
        try:
            endpoints[key] = parse_assignment(bits, num_vars)
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return phi, endpoints.get("s"), endpoints.get("t")


def serialize_formula(phi: Formula) -> str:
    lines = [f"vars {phi.num_vars}"]
    for name, rel in phi.relations:
        lines.append(f"relation {name} {rel.arity}")
        lines.extend(rel.bitstrings())
        lines.append("end")
    for clause in phi.clauses:
        toks = []
        for a in clause.args:
            if a == CONST0:
                toks.append("F")
            elif a == CONST1:
                toks.append("T")
            else:
                toks.append(f"x{a}")
        lines.append(f"clause {clause.relation_name} {' '.join(toks)}")
    return "\n".join(lines) + "\n"


_DIMACS_RELATIONS = (
    ("or2_pp", Relation(2, frozenset({0b01, 0b10, 0b11}))),
    ("or2_pn", Relation(2, frozenset({0b00, 0b10, 0b11}))),
    ("or2_np", Relation(2, frozenset({0b00, 0b01, 0b11}))),
    ("or2_nn", Relation(2, frozenset({0b00, 0b01, 0b10}))),
    ("or1_p", Relation(1, frozenset({0b1}))),
    ("or1_n", Relation(1, frozenset({0b0}))),
)


def parse_dimacs_2cnf(text: str) -> Formula:
    """Convenience converter for DIMACS files whose clauses all have one
    or two literals; wider clauses are rejected."""
    num_vars = None
    clauses = []
    used = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad header counts in {line!r}", lineno) from None
            if num_vars < 1:
                raise ParseError("variable count must be >= 1", lineno)
            if num_clauses < 0:
                raise ParseError("clause count must be >= 0", lineno)
            continue
        if num_vars is None:
            raise ParseError("missing 'p cnf' header", lineno)
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"bad clause line {line!r}", lineno) from None
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
    relations = tuple(pair for pair in _DIMACS_RELATIONS if pair[0] in used)
    return Formula(num_vars, relations, tuple(clauses))
