"""Finite Boolean relations, their restrictions, and class predicates.

A k-ary relation is a set of k-bit tuples. Restrictions substitute
constants into positions and identify positions with each other; the
"-free" predicates ask whether any restriction equals a fixed forbidden
relation, and the whole set of predicates feeds the solvability verdict
computed by :func:`classify_set`.

Every tuple set in this layer is also one truth-table int, bit t set
iff tuple t is accepted (:attr:`Relation.table`). The five
restriction-based predicates (componentwise bijunctive and the four
"-free" ones) read one memoized closure of the relation's table under
elementary steps: fix one position, or identify two. Each step is a few
mask-and-shift operations, run once for a whole level of the closure
with its tables packed side by side into one int; components and
bijunctivity are read off the tables the same way. The closure holds
every covering restriction up to a permutation of its positions, so the
predicates never walk the (k'+2)^k restriction maps one by one;
:func:`all_restrictions` still does, as the tests' reference.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .bits import to_bitstring
from .errors import ParseError, PreconditionError

# The restriction closure grows quickly with arity. Measured cold on
# CPython 3.11, best of 3: all nine flags of a random relation take about
# 1 ms at arity 6, 3.5 ms at arity 7 and 17-23 ms at arity 8, where one
# closure holds about 1.7 MiB (15,000 arity-4 members); the
# componentwise-bijunctive check of the full arity-8 relation takes 1 ms.
# At arity 9 (measured with the bound raised, 3 seeds) the nine flags take
# 190-220 ms, one closure has about 120,000 members with an 18 MiB
# tracemalloc peak, and the 4-entry closure cache could hold about 70 MiB:
# a tenfold step per arity that no workload needs, so the bound stays 8.
MAX_ARITY = 8

CONST0 = "c0"
CONST1 = "c1"

# Forbidden binary restrictions as truth tables: the satisfying sets of
# (x | y), tuples {01, 10, 11}, and !(x & y), tuples {00, 01, 10}. Both are
# symmetric, so one order of their positions matches every order.
OR_TABLE = 0b1110
NAND_TABLE = 0b0111
# Forbidden ternary restrictions: satisfying sets of (x | !y | !z) and
# (!x | y | z), each in all three placements of its odd literal.
HORN_PLACEMENTS = frozenset(0xFF ^ (1 << t) for t in (0b011, 0b101, 0b110))
DUAL_HORN_PLACEMENTS = frozenset(0xFF ^ (1 << t) for t in (0b100, 0b010, 0b001))


@dataclass(frozen=True)
class Relation:
    """A k-ary Boolean relation stored as the explicit set of accepted
    tuples, each an int whose bit ``k - p`` holds position ``p``.

    ``table`` is the same set as one truth-table int: bit t is set iff
    tuple t is accepted. It is derived from ``tuples``, so it takes no
    part in construction, equality or ``repr``; the hash is computed once
    from ``(arity, table)``.
    """

    arity: int
    tuples: frozenset[int]
    table: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (isinstance(self.arity, bool) or not isinstance(self.arity, int)
                or not 1 <= self.arity <= MAX_ARITY):
            raise PreconditionError(
                f"relation arity must be an integer in 1..{MAX_ARITY}, got {self.arity!r}"
            )
        if not isinstance(self.tuples, frozenset):
            object.__setattr__(self, "tuples", frozenset(self.tuples))
        top = 1 << self.arity
        table = 0
        for t in self.tuples:
            if not isinstance(t, int) or not 0 <= t < top:
                raise PreconditionError(
                    f"tuple {t!r} out of range for arity {self.arity}"
                )
            table |= 1 << t
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_hash", hash((self.arity, table)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_bitstrings(cls, rows) -> "Relation":
        rows = list(rows)
        if not rows:
            raise PreconditionError("cannot infer arity from an empty tuple list")
        arity = len(rows[0])
        vals = set()
        for row in rows:
            if len(row) != arity or any(c not in "01" for c in row):
                raise PreconditionError(f"bad tuple {row!r} for arity {arity}")
            vals.add(int(row, 2))
        return cls(arity, frozenset(vals))

    @classmethod
    def full(cls, arity: int) -> "Relation":
        return cls(arity, frozenset(range(1 << arity)))

    def __contains__(self, t: int) -> bool:
        return t in self.tuples

    def bitstrings(self) -> list[str]:
        return [to_bitstring(t, self.arity) for t in sorted(self.tuples)]

    def complemented(self) -> "Relation":
        """The image of the relation under bitwise complement of every tuple."""
        mask = (1 << self.arity) - 1
        return Relation(self.arity, frozenset(t ^ mask for t in self.tuples))


def pack_tuple(entries, value: int, width: int) -> int:
    """The tuple `entries` read, first entry highest: a constant gives its
    bit, an int i position i of the `width`-bit `value`."""
    v = 0
    for e in entries:
        if e == CONST0:
            b = 0
        elif e == CONST1:
            b = 1
        else:
            b = (value >> (width - e)) & 1
        v = (v << 1) | b
    return v


@dataclass(frozen=True)
class RestrictionMap:
    """Assignment of every source position to a target position or constant.

    ``entries[i]`` describes source position ``i + 1``: an int in
    ``1..target_arity``, or CONST0/CONST1. Target positions need not be
    covered: a target position that no entry names does not reach the
    source tuple, so its coordinate is free in the restriction.
    """

    source_arity: int
    target_arity: int
    entries: tuple

    def __post_init__(self):
        for label, arity in (("source", self.source_arity), ("target", self.target_arity)):
            if isinstance(arity, bool) or not isinstance(arity, int):
                raise PreconditionError(f"{label} arity must be an integer, got {arity!r}")
        if not 1 <= self.target_arity <= self.source_arity <= MAX_ARITY:
            raise PreconditionError(
                f"need 1 <= target ({self.target_arity}) <= source "
                f"({self.source_arity}) <= {MAX_ARITY}"
            )
        if len(self.entries) != self.source_arity:
            raise PreconditionError(
                f"expected {self.source_arity} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if e in (CONST0, CONST1):
                continue
            if (isinstance(e, bool) or not isinstance(e, int)
                    or not 1 <= e <= self.target_arity):
                raise PreconditionError(f"bad restriction entry {e!r}")

    @classmethod
    def identity(cls, arity: int) -> "RestrictionMap":
        return cls(arity, arity, tuple(range(1, arity + 1)))

    def then(self, other: "RestrictionMap") -> "RestrictionMap":
        """Compose: restricting by self and then by other equals
        restricting once by the returned map."""
        if other.source_arity != self.target_arity:
            raise PreconditionError(
                f"cannot compose: inner target arity {self.target_arity} != "
                f"outer source arity {other.source_arity}"
            )
        entries = tuple(
            e if e in (CONST0, CONST1) else other.entries[e - 1] for e in self.entries
        )
        return RestrictionMap(self.source_arity, other.target_arity, entries)


def restrict(relation: Relation, rmap: RestrictionMap) -> Relation:
    """The restriction of `relation` by `rmap`: a target tuple survives iff
    the source tuple it induces is accepted.

    An uncovered target coordinate is free: flipping it keeps a tuple in
    the restriction. The induced source tuple (:func:`pack_tuple`) is
    injective on the covered coordinates, so the restriction has at most
    ``len(relation.tuples) * 2**u`` tuples, where ``u`` is the number of
    uncovered target positions; a covering map never grows the relation.
    """
    if rmap.source_arity != relation.arity:
        raise PreconditionError(
            f"map source arity {rmap.source_arity} != relation arity {relation.arity}"
        )
    k = rmap.target_arity
    keep = (r for r in range(1 << k) if pack_tuple(rmap.entries, r, k) in relation.tuples)
    return Relation(k, frozenset(keep))


def all_restrictions(relation: Relation, target_arity: int):
    """Yield the restriction for every one of the (target_arity+2)^arity maps."""
    if not 1 <= target_arity <= relation.arity:
        raise PreconditionError(
            f"target arity must be in 1..{relation.arity}, got {target_arity}"
        )
    choices = tuple(range(1, target_arity + 1)) + (CONST0, CONST1)
    for entries in itertools.product(choices, repeat=relation.arity):
        yield restrict(relation, RestrictionMap(relation.arity, target_arity, entries))


@lru_cache(maxsize=None)
def _index_masks(arity: int) -> tuple[int, ...]:
    """Entry i is the truth table of the tuples whose bit i is 1."""
    return tuple(
        sum(1 << t for t in range(1 << arity) if t >> i & 1) for i in range(arity)
    )


def _steps(masks, table: int) -> list[int]:
    """The truth table of every elementary step on the positions that
    ``masks`` (see :func:`_index_masks`) index: fix tuple bit b to 0 or 1,
    or identify it with a higher bit (keep the tuples whose two bits
    agree), and then drop bit b. Every operation moves a bit only within
    the table's own 2^arity-bit span, so ``table`` and ``masks`` may hold
    many tables side by side."""
    out = []
    for b, mb in enumerate(masks):
        # entry t (bit b clear) of zero / one is the table's entry t / t | 2^b
        zero, one = table & ~mb, (table & mb) >> (1 << b)
        for i in range(b + 1, len(masks)):
            # drop bit b: move index bit i down into the cleared bit i - 1
            mi, shift = masks[i], 1 << (i - 1)
            zero = (zero & ~mi) | ((zero & mi) >> shift)
            one = (one & ~mi) | ((one & mi) >> shift)
        out += (zero, one)
        # bit b agrees with bit h > b, which now sits at bit h - 1
        out.extend((zero & ~mh) | (one & mh) for mh in masks[b:-1])
    return out


# Many tables of one arity are packed side by side into one int, a slot
# of 2^arity bits (at least a byte) each. An operation that moves a bit
# only within its table's own span then runs once for all of them.
_CODES = {array(code).itemsize: code for code in "QLIHB"}  # by item bytes
# Per arity: the bytes of a slot, and its array / memoryview code if any.
_SLOTS = tuple(
    (width, _CODES.get(width))
    for width in (max(2 ** arity // 8, 1) for arity in range(MAX_ARITY + 1))
)


def _pack(arity: int, tables) -> int:
    width, fmt = _SLOTS[arity]
    if fmt:
        data = array(fmt, tables).tobytes()
    else:
        data = b"".join(t.to_bytes(width, sys.byteorder) for t in tables)
    return int.from_bytes(data, sys.byteorder)


def _unpack(arity: int, packed, count: int):
    """The tables in the packed ints ``packed``, ``count`` in each."""
    width, fmt = _SLOTS[arity]
    size = width * count
    data = b"".join(p.to_bytes(size, sys.byteorder) for p in packed)
    if fmt:
        return memoryview(data).cast(fmt)
    return (int.from_bytes(data[i:i + width], sys.byteorder)
            for i in range(0, len(data), width))


def _packed_masks(arity: int, count: int) -> list[int]:
    """:func:`_index_masks` repeated in each of ``count`` slots."""
    ones = _pack(arity, [1] * count)
    return [m * ones for m in _index_masks(arity)]


def _level_steps(arity: int, tables) -> frozenset[int]:
    """The distinct steps of every table of one closure level, each step
    taken once for the whole packed level."""
    count = len(tables)
    steps = _steps(_packed_masks(arity, count), _pack(arity, tables))
    return frozenset(_unpack(arity, steps, count))


@lru_cache(maxsize=4)
def _restriction_closure(relation: Relation) -> tuple[frozenset[int], ...]:
    """Every covering restriction of the relation, up to a permutation of
    positions: entry ``a - 1`` holds the distinct truth tables of arity a.

    A covering map names every target position. It factors into
    elementary steps (see :func:`_steps`) followed by a permutation of
    the target positions, so closing the relation under those steps
    reaches each covering restriction in some order of its positions. A
    map that is not covering leaves a target coordinate free, so its
    restriction is a product of a smaller restriction with {0, 1}: it can
    never equal one of the forbidden patterns, and its components are
    bijunctive exactly when the smaller one's are.

    One closure of a random arity-8 relation holds about 20,000 small
    ints, 1.7 MiB, so only the last few are kept: enough for the five
    predicates of one relation, which :func:`relation_flags` asks in a row.
    """
    levels = [frozenset({relation.table})]
    for arity in range(relation.arity, 1, -1):
        levels.append(_level_steps(arity, levels[-1]))
    return tuple(reversed(levels))


def _table_components(arity: int, tables) -> set[int]:
    """The distinct Hamming components of the given truth tables, each as
    a truth table. A packed flood fill grows one component of every table
    at once, by all single-bit flips per round, from its lowest tuple."""
    comps = set()
    pending = [t for t in tables if t]
    while pending:
        count = len(pending)
        flips = [(m, 1 << i) for i, m in enumerate(_packed_masks(arity, count))]
        rest = _pack(arity, pending)
        comp, grown = 0, _pack(arity, [t & -t for t in pending])
        while grown != comp:
            comp = grown
            for m, shift in flips:
                grown |= ((comp & ~m) << shift) | ((comp & m) >> shift)
            grown &= rest
        found = list(_unpack(arity, (comp,), count))
        comps.update(found)
        pending = [t ^ c for t, c in zip(pending, found) if t != c]
    return comps


def _closed_under(relation: Relation, op) -> bool:
    """True iff ``op`` maps every two distinct tuples of the relation into
    the relation; AND and OR of a tuple with itself return it."""
    ts = relation.tuples
    return all(t in ts for t in itertools.starmap(op, itertools.combinations(ts, 2)))


# Bounded: is_componentwise_bijunctive asks it for every Hamming component
# of every closure member, about 1,700 distinct ones in one classify stream.
@lru_cache(maxsize=4096)
def _bijunctive_table(arity: int, table: int) -> bool:
    """Closed under coordinatewise majority. A Boolean relation is
    majority-closed iff it equals the join of its binary projections
    (Baker & Pixley, 1975). The projection on positions i, j, lifted back
    to all positions, is the union of the pair cubes (fixed bits i and j)
    that the table touches; the join is their intersection over all pairs."""
    if arity <= 2:
        return True
    masks = _index_masks(arity)
    full = (1 << (1 << arity)) - 1
    join = full
    for i, j in itertools.combinations(range(arity), 2):
        union = 0
        for mi in (masks[i], full ^ masks[i]):
            for mj in (masks[j], full ^ masks[j]):
                if table & mi & mj:
                    union |= mi & mj
        join &= union
    return join == table


# Bounded like the table check it reads.
@lru_cache(maxsize=4096)
def is_bijunctive(relation: Relation) -> bool:
    """Closed under coordinatewise majority, i.e. expressible in 2CNF."""
    return _bijunctive_table(relation.arity, relation.table)


@lru_cache(maxsize=None)
def is_horn(relation: Relation) -> bool:
    """Closed under coordinatewise AND."""
    return _closed_under(relation, operator.and_)


@lru_cache(maxsize=None)
def is_dual_horn(relation: Relation) -> bool:
    """Closed under coordinatewise OR."""
    return _closed_under(relation, operator.or_)


@lru_cache(maxsize=None)
def is_affine(relation: Relation) -> bool:
    """Closed under coordinatewise XOR of three tuples, i.e. empty or a
    coset of a linear subspace: xored with one of its tuples it must be
    its whole span, whose rank r elimination finds, so it has 2^r tuples."""
    tuples = relation.tuples
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


@lru_cache(maxsize=None)
def is_or_free(relation: Relation) -> bool:
    """No binary restriction equals the satisfying set of (x | y)."""
    return relation.arity < 2 or OR_TABLE not in _restriction_closure(relation)[1]


@lru_cache(maxsize=None)
def is_nand_free(relation: Relation) -> bool:
    """No binary restriction equals the satisfying set of !(x & y)."""
    return relation.arity < 2 or NAND_TABLE not in _restriction_closure(relation)[1]


@lru_cache(maxsize=None)
def is_horn_free(relation: Relation) -> bool:
    """No ternary restriction equals the satisfying set of (x | !y | !z)."""
    return relation.arity < 3 or _restriction_closure(relation)[2].isdisjoint(
        HORN_PLACEMENTS
    )


@lru_cache(maxsize=None)
def is_dual_horn_free(relation: Relation) -> bool:
    """No ternary restriction equals the satisfying set of (!x | y | z)."""
    return relation.arity < 3 or _restriction_closure(relation)[2].isdisjoint(
        DUAL_HORN_PLACEMENTS
    )


@lru_cache(maxsize=None)
def is_componentwise_bijunctive(relation: Relation) -> bool:
    """Every connected component of every restriction induces a bijunctive
    relation (the identity restriction included). Components and
    bijunctivity do not depend on the order of positions, so the closure
    covers every restriction. Relations of arity 2 or less are bijunctive,
    so only the wider levels are split."""
    closure = _restriction_closure(relation)
    return all(
        _bijunctive_table(arity, comp)
        for arity in range(3, relation.arity + 1)
        for comp in _table_components(arity, closure[arity - 1])
    )


@dataclass(frozen=True)
class RelationFlags:
    bijunctive: bool
    horn: bool
    dual_horn: bool
    affine: bool
    componentwise_bijunctive: bool
    or_free: bool
    nand_free: bool
    horn_free: bool
    dual_horn_free: bool


def relation_flags(relation: Relation) -> RelationFlags:
    return RelationFlags(
        bijunctive=is_bijunctive(relation),
        horn=is_horn(relation),
        dual_horn=is_dual_horn(relation),
        affine=is_affine(relation),
        componentwise_bijunctive=is_componentwise_bijunctive(relation),
        or_free=is_or_free(relation),
        nand_free=is_nand_free(relation),
        horn_free=is_horn_free(relation),
        dual_horn_free=is_dual_horn_free(relation),
    )


class Verdict(Enum):
    NAVIGABLE = "navigable"
    TIGHT_NOT_NAVIGABLE = "tight-not-navigable"
    NOT_TIGHT = "not-tight"


class NavigableKind(Enum):
    COMPONENTWISE_BIJUNCTIVE = "componentwise bijunctive"
    NAND_AND_DUAL_HORN_FREE = "nand-free + dual-horn-free"
    OR_AND_HORN_FREE = "or-free + horn-free"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    kind: NavigableKind | None
    per_relation: tuple[RelationFlags, ...]


def classify_set(relations) -> Classification:
    """Sort a set of relations into one of the three solvability classes.

    Navigable sets admit a polynomial shortest-flip-sequence algorithm;
    tight-but-not-navigable sets make the shortest version NP-complete
    though connectivity stays easy; anything else is PSPACE-complete.
    When several navigable kinds apply, componentwise bijunctive wins,
    then nand-free + dual-horn-free.
    """
    rels = tuple(relations)
    if not rels:
        raise PreconditionError("classify_set needs at least one relation")
    flags = tuple(relation_flags(r) for r in rels)
    if all(f.componentwise_bijunctive for f in flags):
        return Classification(
            Verdict.NAVIGABLE, NavigableKind.COMPONENTWISE_BIJUNCTIVE, flags
        )
    if all(f.nand_free and f.dual_horn_free for f in flags):
        return Classification(
            Verdict.NAVIGABLE, NavigableKind.NAND_AND_DUAL_HORN_FREE, flags
        )
    if all(f.or_free and f.horn_free for f in flags):
        return Classification(Verdict.NAVIGABLE, NavigableKind.OR_AND_HORN_FREE, flags)
    if all(f.or_free for f in flags) or all(f.nand_free for f in flags):
        return Classification(Verdict.TIGHT_NOT_NAVIGABLE, None, flags)
    return Classification(Verdict.NOT_TIGHT, None, flags)


def parse_relation(text: str) -> Relation:
    """Read the .rel format: `arity <k>`, then one k-bit tuple per line."""
    arity = None
    tuples = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if arity is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "arity":
                raise ParseError("expected 'arity <k>'", lineno)
            try:
                arity = int(parts[1])
            except ValueError:
                raise ParseError(f"bad arity {parts[1]!r}", lineno) from None
            if not 1 <= arity <= MAX_ARITY:
                raise ParseError(f"arity must be in 1..{MAX_ARITY}", lineno)
            continue
        if len(line) != arity or any(c not in "01" for c in line):
            raise ParseError(f"expected a {arity}-bit tuple, got {line!r}", lineno)
        tuples.add(int(line, 2))
    if arity is None:
        raise ParseError("missing 'arity' line")
    return Relation(arity, frozenset(tuples))


def serialize_relation(relation: Relation) -> str:
    lines = [f"arity {relation.arity}"]
    lines.extend(relation.bitstrings())
    return "\n".join(lines) + "\n"
