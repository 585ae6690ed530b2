"""CNF formulas over named finite relations, and the .cnfs text format.

A clause is a relation name plus a map from relation positions to
variables or constants; an assignment satisfies the formula when every
clause's induced tuple is accepted by its relation. Each formula is
compiled once, on first use, into per-clause accept masks, the clauses'
variables by position and per-variable occurrence lists
(:class:`CompiledFormula`); the compile resolves each clause shape
(relation and pattern of repeats and constants) once. A
:class:`FlipState` is a range-checked assignment of that form, one byte
per variable, plus each clause's local tuple, one byte per clause, built
with one big-int pass per clause position and checked against every
clause in one pass. The solvers, flip orders and exact search read only
the compiled form; each walker holds its tables in locals, so a flip
costs O(1) plus the clauses of its variable. :func:`classify_formula`
classifies a formula's declared relation set here, so classifying a
formula loads no solver.

The .cnfs and DIMACS readers read each clause line in one match of a
token-rule pattern (:mod:`satflip.errors`); a refused .cnfs clause line
is read again, token by token, only to name its first bad argument. The
readers check every field as they read it, so they build the
:class:`Formula` without running its constructor's checks again.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import repeat
from operator import and_, itemgetter, rshift
from typing import NamedTuple

from .bits import _BIT_BYTES, _BYTE_BITS, from_bitstring, to_bitstring
from .errors import ARGUMENTS, ParseError, PreconditionError, TheoryError
from .errors import content_lines, read_decimal, read_decimals
from .records import Frozen, set_field
from .relation import CONST0, CONST1, Classification, NavigableKind, Relation
from .relation import RestrictionMap, Verdict, classify_set, pack_tuple, read_arity
from .relation import restrict


class Clause(NamedTuple):
    """One constraint: args[p] is the variable index (1-based) or constant
    feeding position p+1 of the named relation."""

    relation_name: str
    args: tuple


# A Clause from a (name, args) pair through tuple.__new__, which skips the
# NamedTuple's Python-level __new__: the parsers build clauses in bulk.
_make_clause = partial(tuple.__new__, Clause)


class Formula(Frozen):
    """Clauses over named relations. The compiled form and the route are
    computed on first use and kept in the instance's ``__dict__``."""

    _fields = ("num_vars", "relations", "clauses")

    def __init__(self, num_vars: int, relations: tuple[tuple[str, Relation], ...],
                 clauses: tuple[Clause, ...]):
        if type(num_vars) is not int or num_vars < 1:
            raise PreconditionError(f"num_vars must be >= 1, got {num_vars!r}")
        for field, value in (("relations", relations), ("clauses", clauses)):
            if type(value) is not tuple:
                raise PreconditionError(f"formula {field} must be a tuple, got {value!r}")
        by_name = {}
        for entry in relations:
            name, rel = entry if type(entry) is tuple and len(entry) == 2 else (None, None)
            if type(name) is not str or not isinstance(rel, Relation):
                raise PreconditionError(
                    f"formula relations must be (name, Relation) pairs, got {entry!r}")
            if name in by_name:
                raise PreconditionError(f"duplicate relation name {name!r}")
            by_name[name] = rel
        for i, clause in enumerate(clauses, 1):
            if type(clause) is not Clause:
                raise PreconditionError(
                    f"clause {i} must be a Clause(relation_name, args), got {clause!r}")
            name, args = clause
            if type(args) is not tuple:
                raise PreconditionError(f"clause {i} args must be a tuple, got {args!r}")
            rel = by_name.get(name) if type(name) is str else None
            if rel is None:
                raise PreconditionError(f"clause {i} uses undefined relation {name!r}")
            if len(args) != rel.arity:
                raise PreconditionError(
                    f"clause {i} has {len(args)} args, relation {name!r} has arity {rel.arity}")
            for a in args:
                if a not in (CONST0, CONST1) and not (type(a) is int and 1 <= a <= num_vars):
                    raise PreconditionError(
                        f"clause {i} argument {a!r} out of range 1..{num_vars}"
                    )
        _fill(self, num_vars, relations, clauses, by_name)

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


def classify_formula(phi: Formula) -> Classification:
    """Classify the formula's declared relation set; a formula declaring
    no relations constrains nothing and counts as navigable."""
    rels = [rel for _, rel in phi.relations]
    if rels:
        return classify_set(rels)
    return Classification(Verdict.NAVIGABLE, NavigableKind.COMPONENTWISE_BIJUNCTIVE, ())


def _fill(phi: Formula, num_vars, relations, clauses, by_name) -> Formula:
    """Set a formula's fields. The parsers call it on a bare instance,
    since they check each field as :class:`Formula` does while reading it."""
    set_field(phi, "num_vars", num_vars)
    set_field(phi, "relations", relations)
    set_field(phi, "clauses", clauses)
    set_field(phi, "_by_name", by_name)
    return phi


class CompiledFormula(NamedTuple):
    """Clause tables of a formula, in clause order.

    Clause j (0-based) constrains the distinct variables `variables[j]`
    (ascending) through its effective relation. Its local tuple packs
    their values, the first variable in the highest bit, and `accept[j]`
    is that relation's truth table (`Relation.table`): bit `local` is
    set iff the tuple satisfies the clause. A clause without variables
    has k = 0 and bit 0 set iff it holds. `occurrences[v]` lists the
    (clause, bit) pairs of variable v: flipping v xors `bit` into that
    clause's local tuple. `distinct` lists each distinct effective
    relation once, as a `Relation`, in order of first use, with the
    1-based index of the first clause that uses it; clause j's relation
    is the one of arity ``len(variables[j])`` whose table is `accept[j]`.
    `columns` holds `variables` by position: with w the widest clause's
    variable count, `columns[p][j]` is clause j's variable at position p
    of its tuple right-aligned to width w, and 0 where the clause is
    narrower, so column p feeds bit w - 1 - p of every local tuple.
    """

    num_vars: int
    variables: tuple[tuple[int, ...], ...]
    accept: tuple[int, ...]
    occurrences: tuple[tuple[tuple[int, int], ...], ...]
    distinct: tuple[tuple[Relation, int], ...]
    columns: tuple[tuple[int, ...], ...]

    def complemented(self) -> "CompiledFormula":
        """The compiled form of the formula's complement image: every
        relation complemented, clause constants swapped.

        Restricting a complemented relation with swapped constants gives
        the complement of the restriction, so the image keeps the
        variables, columns and occurrences, complements each distinct
        effective relation once, and maps each accept mask to the table
        of its relation's complement (bit x moves to bit x ^ (2^k - 1)).
        A constant-only clause keeps its mask: it holds in the image iff
        it holds here.
        """
        images = {(eff.arity, eff.table): eff.complemented() for eff, _ in self.distinct}
        accept = tuple([images[len(vs), mask].table if vs else mask
                        for vs, mask in zip(self.variables, self.accept)])
        distinct = tuple((images[eff.arity, eff.table], j) for eff, j in self.distinct)
        return self._replace(accept=accept, distinct=distinct)


def _compile(phi: Formula) -> CompiledFormula:
    variables, accept = [], []
    occurrences = [[] for _ in range(phi.num_vars + 1)]
    first_clause = {}
    # (relation name, pattern) -> (accept mask, occurrence bits); the
    # pattern is None for distinct ascending variables
    shapes = {}
    for j, clause in enumerate(phi.clauses):
        name, args = clause
        clause_vars, pattern = _shape(args)
        key = name if pattern is None else (name, pattern)
        shape = shapes.get(key)
        if shape is None:
            eff = effective_clause(phi, clause)[1]
            if eff is None:
                mask = int(pack_tuple(args, 0, 0) in phi.relation(name))
            else:
                mask = eff.table
                first_clause.setdefault(eff, j + 1)
            k = len(clause_vars)
            shape = shapes[key] = (mask, tuple(1 << (k - 1 - p) for p in range(k)))
        mask, bits = shape
        for v, bit in zip(clause_vars, bits):
            occurrences[v].append((j, bit))
        variables.append(clause_vars)
        accept.append(mask)
    # the occurrence lists are freed before the columns are built, so the
    # columns do not raise the compile's memory peak
    occurrences = tuple(map(tuple, occurrences))
    width = max(map(len, variables), default=0)
    columns = tuple(zip(*[(0,) * (width - len(vs)) + vs for vs in variables]))
    return CompiledFormula(
        phi.num_vars,
        tuple(variables),
        tuple(accept),
        occurrences,
        tuple(first_clause.items()),
        columns,
    )


# Bounded: one entry per accept mask that a one-mask formula's check
# reads. The benchmark's navigate and greedy streams (seed 1) fill 2 and 1.
@lru_cache(maxsize=256)
def _acceptance(mask: int) -> bytes:
    """The 256-byte ``bytes.translate`` table of an accept mask: byte x
    is 1 iff bit x of `mask` is set, so it maps each local tuple to
    whether its clause holds."""
    return bytes([mask >> x & 1 for x in range(256)])


class FlipState:
    """An assignment of a compiled formula and its clauses' local tuples.

    `values` is the assignment's bitstring one character wider than n,
    as bytes 0 and 1: byte v is variable v's value, byte 0 is always 0,
    and `assignment` reads the int back in O(n). The constructor refuses
    an assignment outside 0..2^n - 1, a bool included: a wider one would
    shift every byte. `local` holds one byte per clause, cut from one big
    int: each column of `compiled.columns` shifts it left by one bit and
    adds the column's bytes of `values`, the padding reading byte 0.
    `violated` tests every clause's accept mask in one pass. The walkers
    (:func:`~satflip.flip_order.advance` and the greedy walk) hold the
    tables, `values` and `local` in locals: a flip of v xors ``values[v]``
    and v's bits in its clauses' tuples, in O(1) besides those clauses.
    """

    __slots__ = ("compiled", "values", "local")

    def __init__(self, compiled: CompiledFormula, assignment: int):
        n, m = compiled.num_vars, len(compiled.accept)
        _check_assignment(n, assignment)
        values = bytearray(to_bitstring(assignment, n + 1).encode()).translate(_BIT_BYTES)
        x = 0
        for col in compiled.columns:
            # No carry crosses a byte: MAX_ARITY = 8 keeps every tuple
            # <= 255. itemgetter of one index returns the byte, not a tuple.
            picked = itemgetter(*col)(values) if m > 1 else (values[col[0]],)
            x = (x << 1) + int.from_bytes(bytes(picked), "big")
        self.compiled = compiled
        self.values = values
        self.local = bytearray(x.to_bytes(m, "big"))

    @property
    def assignment(self) -> int:
        return int(self.values.translate(_BYTE_BITS), 2)

    def violated(self) -> int | None:
        """1-based index of the first falsified clause, or None.

        When every clause has one accept mask, ``local`` is read through
        that mask's acceptance table (:func:`_acceptance`) in one
        ``bytes.translate``, and the first 0 names the clause. Otherwise
        each clause's mask is shifted by its tuple, in one chain of
        C-level ``map`` passes. Either way no Python loop runs per
        clause."""
        accept, local = self.compiled.accept, self.local
        if accept and accept.count(accept[0]) == len(accept):
            held = local.translate(_acceptance(accept[0]))
        else:
            held = bytes(map(and_, map(rshift, accept, local), repeat(1)))
        j = held.find(0)
        return None if j < 0 else j + 1


def satisfying_state(compiled: CompiledFormula, assignment: int, label: str) -> FlipState:
    """A :class:`FlipState` of an endpoint, which must be in range and
    satisfy every clause; `label` names the endpoint in the error."""
    state = FlipState(compiled, assignment)
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
    if type(assignment) is not int or not 0 <= assignment < (1 << num_vars):
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
    return FlipState(phi.compiled, assignment).violated()


# Bounded: one entry per clause shape. Compiling every formula of the
# benchmark's navigate or greedy stream (seed 1) fills 2 or 8 entries.
@lru_cache(maxsize=4096)
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
    return restricted_clause(phi.relation(clause.relation_name), clause)


def restricted_clause(rel: Relation, clause: Clause):
    """:func:`effective_clause` of a clause whose relation is `rel`."""
    variables, pattern = _shape(clause.args)
    if not variables:
        return variables, None
    k = len(variables)
    return variables, _effective(rel, pattern or tuple(range(1, k + 1)), k)


def _shape(args: tuple):
    """The clause's distinct variables, ascending, and its pattern: the
    arguments with each variable replaced by its rank among them (1-based).
    The pattern is None when the arguments are those variables already."""
    variables = set(args)
    variables.discard(CONST0)
    variables.discard(CONST1)
    variables = tuple(sorted(variables))
    if variables == args:
        return variables, None
    rank = dict(zip(variables, range(1, len(variables) + 1)))
    return variables, tuple(map(rank.get, args, args))


def parse_assignment(text: str, num_vars: int, line: int | None = None) -> int:
    if (assignment := from_bitstring(text, num_vars)) is None:
        raise ParseError(
            f"assignment must be a {num_vars}-character bitstring, got {text!r}", line
        )
    return assignment


def format_assignment(assignment: int, num_vars: int) -> str:
    return to_bitstring(assignment, num_vars)


def parse_instance(text: str):
    """Read the .cnfs format (see `serialize_formula` for the layout): the
    formula, and the endpoints embedded as `# s=<bits>` / `# t=<bits>`
    comments (None when absent)."""
    num_vars = None
    relations: dict[str, Relation] = {}
    clauses: list[Clause] = []
    pending = None  # (name, arity, tuples, start_line) of an open relation block
    endpoint_raw = {}

    for lineno, line in content_lines(text):
        if line[0] == "#":
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
        parts = line.split(None, 2)
        if parts[0] == "clause":
            if num_vars is None:
                raise ParseError("'vars' must come before 'clause'", lineno)
            if len(parts) < 2:
                raise ParseError("expected 'clause <name> <args...>'", lineno)
            name = parts[1]
            rel = relations.get(name)
            if rel is None:
                raise ParseError(f"undefined relation {name!r}", lineno)
            rest = parts[2] if len(parts) == 3 else ""
            args = _arguments(rest, num_vars)
            if args is None or len(args) != rel.arity:
                _refuse_arguments(rest.split(), name, rel.arity, num_vars, lineno)
            clauses.append(_make_clause((name, args)))
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
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    if pending is not None:
        raise ParseError(f"relation {pending[0]!r} not terminated by 'end'", pending[3])
    if num_vars is None:
        raise ParseError("missing 'vars' line")
    phi = _fill(object.__new__(Formula), num_vars, tuple(relations.items()),
                tuple(clauses), relations)

    endpoints = {key: parse_assignment(bits, num_vars, lineno)
                 for key, (bits, lineno) in endpoint_raw.items()}
    return phi, endpoints.get("s"), endpoints.get("t")


_CONSTANTS = {"T": CONST1, "F": CONST0}


def _arguments(rest: str, num_vars: int) -> tuple | None:
    """The arguments of a .cnfs clause line, `rest` being the line after
    its relation name, read in one match; None when a token is not
    x<i>, T or F, or names a variable outside 1..num_vars."""
    if ARGUMENTS.fullmatch(rest):
        try:
            args = tuple([_CONSTANTS.get(tok) or int(tok[1:]) for tok in rest.split()])
        except ValueError:  # more digits than int() takes
            return None
        for a in args:
            if type(a) is int and not 0 < a <= num_vars:
                return None
        return args
    return None


def _refuse_arguments(tokens, name, arity, num_vars, lineno) -> None:
    """Raise the ParseError of a clause line whose arguments were refused:
    the argument count, or the first bad argument."""
    if len(tokens) != arity:
        raise ParseError(
            f"relation {name!r} has arity {arity}, got {len(tokens)} arguments", lineno
        )
    for tok in tokens:
        if tok in _CONSTANTS:
            continue
        if not tok.startswith("x"):
            raise ParseError(f"bad argument {tok!r} (expected x<i>, T, or F)", lineno)
        idx = read_decimal(tok[1:], f"bad argument {tok!r}", lineno)
        if not 1 <= idx <= num_vars:
            raise ParseError(f"variable index {tok!r} out of range 1..{num_vars}", lineno)
    raise TheoryError(f"clause arguments {tokens} refused, but none is bad")


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


# The named relation of a clause, by its literal count and whether its
# first and last literals are positive.
_DIMACS_RELATIONS = {
    (2, True, True): ("or2_pp", Relation(2, frozenset({0b01, 0b10, 0b11}))),
    (2, True, False): ("or2_pn", Relation(2, frozenset({0b00, 0b10, 0b11}))),
    (2, False, True): ("or2_np", Relation(2, frozenset({0b00, 0b01, 0b11}))),
    (2, False, False): ("or2_nn", Relation(2, frozenset({0b00, 0b01, 0b10}))),
    (1, True, True): ("or1_p", Relation(1, frozenset({0b1}))),
    (1, False, False): ("or1_n", Relation(1, frozenset({0b0}))),
}

def parse_dimacs_2cnf(text: str) -> Formula:
    """Convenience converter for DIMACS files whose clauses all have one
    or two literals; wider clauses are rejected, and so is a clause count
    other than the header's."""
    num_vars = None
    clauses = []
    used = set()
    for lineno, line in content_lines(text, "c"):
        if line[0] == "p":
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
        lits = read_decimals(line)
        if lits is None:
            raise ParseError(f"bad clause line {line!r}", lineno)
        if lits.pop() != 0:
            raise ParseError("clause line must end with 0", lineno)
        if not 1 <= len(lits) <= 2:
            raise ParseError("only 1- and 2-literal clauses are supported", lineno)
        args = tuple(map(abs, lits))
        if 0 in args or max(args) > num_vars:
            bad = next(lit for lit in lits if not 1 <= abs(lit) <= num_vars)
            raise ParseError(f"literal {bad} out of range", lineno)
        name = _DIMACS_RELATIONS[len(lits), lits[0] > 0, lits[-1] > 0][0]
        used.add(name)
        clauses.append(_make_clause((name, args)))
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise ParseError(f"header declares {num_clauses} clauses, "
                         f"the file has {len(clauses)}", header)
    relations = tuple(pair for pair in _DIMACS_RELATIONS.values() if pair[0] in used)
    return _fill(object.__new__(Formula), num_vars, relations, tuple(clauses),
                 dict(relations))
