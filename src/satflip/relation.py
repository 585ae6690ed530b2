"""Finite Boolean relations, their restrictions, and class predicates.

A k-ary relation is a set of k-bit tuples. Restrictions substitute
constants into positions and identify positions with each other; the
"-free" predicates ask whether any restriction equals a fixed forbidden
relation, and the nine predicates feed the solvability verdict computed
by :func:`classify_set`, one cached record per relation
(:func:`relation_flags`).

Every tuple set in this layer is also one truth-table int, bit t set
iff tuple t is accepted (:attr:`Relation.table`), and each class kernel
reads masks built once per arity: bijunctivity joins the pair cubes the
table touches (:func:`_pair_cubes`), and affinity translates the table,
one masked swap per bit (:func:`_translate`). Horn, dual Horn and
the four "-free" flags are read off two 2^k x 2^k bit matrices over
pairs of tuples, R(g | w) and R(g & w), each built from the table by k
mask-and-shift steps, once per relation (:func:`_free_flags`): AND and
OR of two tuples are entries of the matrices, and a forbidden
restriction onto two or three positions is fixed by two tuples of the
relation and a set of positions. Componentwise bijunctivity is implied
by bijunctivity and by affinity; otherwise it splits the relation
itself, then every identification of its positions, one level per
arity, each level built from the one above by identifying two positions.
Fixing a constant never breaks the flag, so no step fixes one. Each step
is a few mask-and-shift operations, run once for a whole level with its
tables packed side by side into one int. The relation's own table and
every table of every level get one cached verdict
(:func:`_components_bijunctive`). The level of arity a holds one table
per partition of the k positions into a blocks, at most 4,011 tables in
all at arity 8, so the predicate never walks the (k'+2)^k restriction
maps one by one.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .bits import from_bitstring, index_masks, to_bitstring
from .errors import ParseError, PreconditionError, content_lines, read_decimal
from .records import Frozen, set_field

# The identification levels grow with the Bell numbers, and only the
# componentwise-bijunctive flag builds them, when the relation is in
# neither class that implies the flag and its own components are
# bijunctive. Measured cold on CPython 3.11, process CPU time, best of 5,
# eight seeded random relations per arity at densities 0.05-0.3 that
# build a level: all nine flags take 0.2-0.4 ms at arity 6, 0.3-1.4 ms
# at arity 7 and 0.9-5.8 ms at arity 8, whose levels held up to 956
# tables (at most 4,011), a tracemalloc peak of 0.6 MiB. At arity 9 (the
# bound raised, 4 seeds at densities 0.03-0.05) they take 2.4-16 ms and
# the pair matrices alone 0.7-1.1 ms, a step per arity that no workload
# needs, so the bound stays 8.
MAX_ARITY = 8

CONST0 = "c0"
CONST1 = "c1"


class Relation(Frozen):
    """A k-ary Boolean relation stored as the explicit set of accepted
    tuples, each an int whose bit ``k - p`` holds position ``p``.

    ``table`` is the same set as one truth-table int: bit t is set iff
    tuple t is accepted. It is derived from ``tuples``, so it takes no
    part in construction or ``repr``; equality compares it in place of
    ``tuples``, and the hash is computed once from ``(arity, table)``.
    """

    __slots__ = ("arity", "tuples", "table", "_hash")
    _fields = ("arity", "tuples")

    def __init__(self, arity: int, tuples):
        if type(arity) is not int or not 1 <= arity <= MAX_ARITY:
            raise PreconditionError(
                f"relation arity must be an integer in 1..{MAX_ARITY}, got {arity!r}"
            )
        if not isinstance(tuples, frozenset):
            try:
                tuples = frozenset(tuples)
            except TypeError:
                raise PreconditionError(
                    f"relation tuples must be an iterable of ints, got {tuples!r}"
                ) from None
        top = 1 << arity
        table = 0
        for t in tuples:
            if type(t) is not int or not 0 <= t < top:
                raise PreconditionError(f"tuple {t!r} out of range for arity {arity}")
            table |= 1 << t
        set_field(self, "arity", arity)
        set_field(self, "tuples", tuples)
        set_field(self, "table", table)
        set_field(self, "_hash", hash((arity, table)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arity == other.arity and self.table == other.table

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
            if (t := from_bitstring(row, arity)) is None:
                raise PreconditionError(f"bad tuple {row!r} for arity {arity}")
            vals.add(t)
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


class RestrictionMap(Frozen):
    """Assignment of every source position to a target position or constant.

    ``entries[i]`` describes source position ``i + 1``: an int in
    ``1..target_arity``, or CONST0/CONST1. Target positions need not be
    covered: a target position that no entry names does not reach the
    source tuple, so its coordinate is free in the restriction.
    """

    __slots__ = _fields = ("source_arity", "target_arity", "entries")

    def __init__(self, source_arity: int, target_arity: int, entries: tuple):
        for label, arity in (("source", source_arity), ("target", target_arity)):
            if type(arity) is not int:
                raise PreconditionError(f"{label} arity must be an integer, got {arity!r}")
        if not 1 <= target_arity <= source_arity <= MAX_ARITY:
            raise PreconditionError(
                f"need 1 <= target ({target_arity}) <= source "
                f"({source_arity}) <= {MAX_ARITY}"
            )
        if type(entries) is not tuple:
            raise PreconditionError(f"restriction entries must be a tuple, got {entries!r}")
        if len(entries) != source_arity:
            raise PreconditionError(f"expected {source_arity} entries, got {len(entries)}")
        for e in entries:
            if e not in (CONST0, CONST1) and not (type(e) is int and 1 <= e <= target_arity):
                raise PreconditionError(f"bad restriction entry {e!r}")
        set_field(self, "source_arity", source_arity)
        set_field(self, "target_arity", target_arity)
        set_field(self, "entries", entries)


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


def _steps(masks, table: int) -> list[int]:
    """The truth table of every identification on the positions that
    ``masks`` (see :func:`index_masks`) index: keep the tuples whose bit
    b agrees with a higher bit h, then drop bit b. Every operation moves a
    bit only within the table's own 2^arity-bit span, so ``table`` and
    ``masks`` may hold many tables side by side."""
    out = []
    for b, mb in enumerate(masks[:-1]):
        # entry t (bit b clear) of zero / one is the table's entry t / t | 2^b
        zero, one = table & ~mb, (table & mb) >> (1 << b)
        for i in range(b + 1, len(masks)):
            # drop bit b: move index bit i down into the cleared bit i - 1
            mi, shift = masks[i], 1 << (i - 1)
            zero = (zero & ~mi) | ((zero & mi) >> shift)
            one = (one & ~mi) | ((one & mi) >> shift)
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
    """:func:`index_masks` repeated in each of ``count`` slots: each mask
    times the int whose slots each hold 1, one bytes repetition."""
    ones = int.from_bytes((1).to_bytes(_SLOTS[arity][0], "little") * count, "little")
    return [m * ones for m in index_masks(arity)]


def _level_steps(arity: int, tables) -> frozenset[int]:
    """The distinct identifications of every table of one level, each
    step taken once for the whole packed level."""
    count = len(tables)
    steps = _steps(_packed_masks(arity, count), _pack(arity, tables))
    return frozenset(_unpack(arity, steps, count))


def _identification_levels(relation: Relation):
    """Yield ``(a, tables)`` for a = k - 1 down to 3, k the relation's
    arity: the distinct truth tables of R_pi over every partition pi of
    the k positions into a blocks, each block read at its first position
    (its highest tuple bit), the blocks in that order. Each step of
    :func:`_level_steps` identifies two positions and keeps the first, so
    the level of arity a is exactly that set, at most S(k, a) tables. No
    level below arity 3 is built: a relation of arity 2 or less is
    bijunctive."""
    tables = (relation.table,)
    for arity in range(relation.arity, 3, -1):
        tables = _level_steps(arity, tables)
        yield arity - 1, tables


@lru_cache(maxsize=None)
def _pair_cubes(arity: int):
    """Per pair of positions i < j, the truth tables of the four cubes of
    tuples with bits i and j fixed."""
    full = (1 << (1 << arity)) - 1
    halves = [(m, full ^ m) for m in index_masks(arity)]
    return tuple(tuple(a & b for a in hi for b in hj)
                 for hi, hj in itertools.combinations(halves, 2))


# Per arity, per position i: the tuples whose bit i is 1, those whose bit
# i is 0, and the table shift 2^i that moves tuple t to t ^ 2^i.
_FLIPS = ((),) + tuple(
    tuple((m, m ^ ((1 << (1 << arity)) - 1), 1 << i) for i, m in enumerate(index_masks(arity)))
    for arity in range(1, MAX_ARITY + 1))


def _translate(flips, table: int, s: int) -> int:
    """The table of {t ^ s : t in table}: one masked swap per set bit of
    s, whose bit i is the shift 2^i itself."""
    for high, low, shift in flips:
        if s & shift:
            table = ((table & high) >> shift) | ((table & low) << shift)
    return table


# Bounded: _components_bijunctive asks it for every Hamming component of
# two or more tuples of every table it splits, 821 distinct ones in one
# classify stream (seed 1), 890 at seed 2.
@lru_cache(maxsize=4096)
def _bijunctive_table(arity: int, table: int) -> bool:
    """Closed under coordinatewise majority. A Boolean relation is
    majority-closed iff it equals the join of its binary projections
    (Baker & Pixley, 1975). The projection on positions i, j, lifted back
    to all positions, is the union of the pair cubes (:func:`_pair_cubes`)
    that the table touches; the join is their intersection over all pairs."""
    if arity <= 2:
        return True
    join = -1
    for c0, c1, c2, c3 in _pair_cubes(arity):
        # the touched cubes: (table & c and c) is c if touched, else 0
        join &= ((table & c0 and c0) | (table & c1 and c1)
                 | (table & c2 and c2) | (table & c3 and c3))
    return join == table


# Bounded like _bijunctive_table. is_componentwise_bijunctive asks it for
# the relation's own table and every table of its identification levels:
# one classify stream (seed 1) fills 587 entries. One check asks at most
# 4,012 tables (an arity-8 relation and its levels), under the bound, so
# it never evicts its own entries.
@lru_cache(maxsize=4096)
def _components_bijunctive(arity: int, table: int) -> bool:
    """Every Hamming component of the table is bijunctive. A tuple with
    no neighbour in the table is a bijunctive component alone: one round
    of all single-bit flips drops every such tuple. A flood over the
    table's one int then grows a component from the lowest tuple left by
    all single-bit flips per round; the component then leaves the table."""
    flips = _FLIPS[arity]
    near = 0
    for high, low, shift in flips:
        near |= ((table & low) << shift) | ((table & high) >> shift)
    table &= near
    while table:
        comp, grown = 0, table & -table
        while grown != comp:
            comp = grown
            for high, low, shift in flips:
                grown |= ((comp & low) << shift) | ((comp & high) >> shift)
            grown &= table
        if not _bijunctive_table(arity, comp):
            return False
        table ^= comp
    return True


# The bound of every predicate cache below, relation_flags' included. One
# benchmark classify stream (seed 1, 40 rounds, 800 relation sets) fills
# 503 entries in each of them, and 510-518 in the two order flags that
# relation generation also tests (NAND-free and dual-Horn-free).
PREDICATE_CACHE_SIZE = 4096


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_bijunctive(relation: Relation) -> bool:
    """Closed under coordinatewise majority, i.e. expressible in 2CNF."""
    return _bijunctive_table(relation.arity, relation.table)


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_horn(relation: Relation) -> bool:
    """Closed under coordinatewise AND."""
    return _free_flags(relation)[0]


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_dual_horn(relation: Relation) -> bool:
    """Closed under coordinatewise OR."""
    return _free_flags(relation)[1]


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_affine(relation: Relation) -> bool:
    """Closed under coordinatewise XOR of three tuples, i.e. empty or a
    coset of a subspace: of 2^r tuples, with S = R xor t0, t0 the lowest
    tuple, a subspace. A span L grows from {0} by s, the lowest member of
    S outside L, once S xor s = S (:func:`_translate`); when S lies in L,
    S is closed under L and holds 0, so S = L. At most log2 |R| rounds."""
    table = relation.table
    size = table.bit_count()
    if size & (size - 1):
        return False
    if size <= 2:
        return True
    flips = _FLIPS[relation.arity]
    table = _translate(flips, table, (table & -table).bit_length() - 1)
    span = 1
    while rest := table & ~span:
        s = (rest & -rest).bit_length() - 1
        if _translate(flips, table, s) != table:
            return False
        span |= _translate(flips, span, s)
    return True


@lru_cache(maxsize=None)
def _pair_masks(arity: int):
    """The masks of the pair matrices of arity-k tables: truth tables of
    arity 2k whose entry (g, w), index g * 2^k + w, is about the tuples g
    and w, one row of 2^k bits per g. Returned: the entries with w = 0,
    and per position i, the index shift 2^i of w's bit i, the diagonal
    shift that sets bit i of both g and w, the entries whose g and w both
    have bit i clear / set, and the entries that keep their value when
    bit i of g enters w by OR / by AND."""
    size = 1 << arity
    masks = index_masks(2 * arity)
    full = (1 << (size * size)) - 1
    first = full
    steps = []
    for i in range(arity):
        w1, g1 = masks[i], masks[arity + i]
        w0, g0 = full ^ w1, full ^ g1
        first &= w0
        steps.append((1 << i, (size + 1) << i, g0 & w0, g1 & w1,
                      full ^ (g1 & w0), full ^ (g0 & w1)))
    return first, steps


@lru_cache(maxsize=1)
def _free_flags(relation: Relation) -> tuple[bool, bool, bool, bool, bool, bool]:
    """AND-closed (Horn), OR-closed (dual Horn), and OR-, NAND-, Horn- and
    dual-Horn-free.

    Both matrices, up[g][w] = R(g | w) and down[g][w] = R(g & w), start
    as the table in every row and take bit i of g into w by one masked
    shift per position; then rows and columns are restricted to R. The
    relation is AND-closed iff every entry of down is then set, and
    OR-closed iff every entry of up is; the diagonal is in R, since
    t & t = t | t = t.

    A restriction onto x and y reads the relation at R(b & c), R(c),
    R(b), R(b | c) for xy = 00, 01, 10, 11, where b and c are the tuples
    it induces at xy = 10 and 01. So (x | y) is a restriction iff two
    tuples b, c of R have R(b | c) and not R(b & c) (an OR witness; b and
    c are then incomparable, so the map names both variables), and
    !(x & y) iff two have R(b & c) and not R(b | c) (a NAND witness). The
    x = 0 half of (x | !y | !z) is a NAND restriction onto y and z: it is
    a restriction iff some NAND witness (p, q) and nonempty set X of
    positions outside p | q (those named x) put the whole square
    (p & q, p, q, p | q) | X in R. (!x | y | z) is the mirror: an OR
    witness, and X taken out of p & q.

    The Horn pass ORs into every entry the square of (g | X, w | X), X
    outside g | w, one diagonal shift per position, and the dual-Horn
    pass the square of (g - X, w - X), X inside g & w. At a witness the
    term of the empty X is the witness's own square, which lacks p | q
    (p & q), so the passes need no test that X is nonempty. About
    0.1-0.2 ms at arity 8, on 65,536-bit ints."""
    first, steps = _pair_masks(relation.arity)
    size = 1 << relation.arity
    cols = relation.table * first  # the table in every row
    up = down = cols
    for shift, _, both0, both1, keep_up, keep_down in steps:
        up = (up & keep_up) | ((up & both1) >> shift)
        down = (down & keep_down) | ((down & both0) << shift)
    rows = up & first  # up[g][0] = R(g)
    pairs = ((rows << size) - rows) & cols  # the entries with g and w in R
    up &= pairs
    down &= pairs
    square = up & down
    or_witness, nand_witness = up ^ square, down ^ square
    horn_free = dual_horn_free = True
    if nand_witness:
        above = square
        for _, diagonal, both0, *_ in steps:
            above |= (above >> diagonal) & both0
        horn_free = not (nand_witness & above)
    if or_witness:
        below = square
        for _, diagonal, _, both1, *_ in steps:
            below |= (below << diagonal) & both1
        dual_horn_free = not (or_witness & below)
    return (down == pairs, up == pairs, not or_witness, not nand_witness,
            horn_free, dual_horn_free)


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_or_free(relation: Relation) -> bool:
    """No binary restriction equals the satisfying set of (x | y)."""
    return _free_flags(relation)[2]


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_nand_free(relation: Relation) -> bool:
    """No binary restriction equals the satisfying set of !(x & y)."""
    return _free_flags(relation)[3]


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_horn_free(relation: Relation) -> bool:
    """No ternary restriction equals the satisfying set of (x | !y | !z)."""
    return _free_flags(relation)[4]


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_dual_horn_free(relation: Relation) -> bool:
    """No ternary restriction equals the satisfying set of (!x | y | z)."""
    return _free_flags(relation)[5]


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def is_componentwise_bijunctive(relation: Relation) -> bool:
    """Every connected component of every restriction induces a bijunctive
    relation (the identity restriction included).

    Identifying positions is the only step that can break the flag. A
    restriction map factors into identifications followed by constants,
    and fixing a constant keeps every component bijunctive: a component
    of R with x_p = c lies inside one component C of R, C with x_p = c is
    bijunctive, and so is each of its own components (Gopalan, Kolaitis,
    Maneva & Papadimitriou, 2009). A target position that no entry names
    is a free coordinate: each component is one of the rest times {0, 1},
    bijunctive exactly when that one is. Neither components nor
    bijunctivity depend on the order of positions. So the flag holds iff
    every component of every identification of the relation is
    bijunctive (:func:`_identification_levels`).

    Bijunctive and affine relations pass at once: their restrictions
    stay in the class, each component of a bijunctive relation is
    bijunctive, and each component of an affine relation is a subcube.
    Otherwise the relation itself is split first, so one that fails there
    builds no level. Then every table of every level, widest first, gets
    the same cached verdict (:func:`_components_bijunctive`), each level
    checked before the next is built. Relations of arity 2 or less are
    bijunctive, so no level below 3 is split, and a relation of arity 3
    builds none."""
    arity = relation.arity
    if is_bijunctive(relation) or is_affine(relation):
        return True
    if not _components_bijunctive(arity, relation.table):
        return False
    return all(_components_bijunctive(level, table)
               for level, tables in _identification_levels(relation)
               for table in tables)


class RelationFlags(NamedTuple):
    bijunctive: bool
    horn: bool
    dual_horn: bool
    affine: bool
    componentwise_bijunctive: bool
    or_free: bool
    nand_free: bool
    horn_free: bool
    dual_horn_free: bool


@lru_cache(maxsize=PREDICATE_CACHE_SIZE)
def relation_flags(relation: Relation) -> RelationFlags:
    """The nine flags, one cached record per relation. A miss calls the
    predicates by their module names, so one replaced there is called."""
    return RelationFlags(
        is_bijunctive(relation), is_horn(relation), is_dual_horn(relation),
        is_affine(relation), is_componentwise_bijunctive(relation),
        is_or_free(relation), is_nand_free(relation), is_horn_free(relation),
        is_dual_horn_free(relation),
    )


class Verdict(Enum):
    NAVIGABLE = "navigable"
    TIGHT_NOT_NAVIGABLE = "tight-not-navigable"
    NOT_TIGHT = "not-tight"


class NavigableKind(Enum):
    COMPONENTWISE_BIJUNCTIVE = "componentwise bijunctive"
    NAND_AND_DUAL_HORN_FREE = "nand-free + dual-horn-free"
    OR_AND_HORN_FREE = "or-free + horn-free"


class Classification(NamedTuple):
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
    try:
        rels = tuple(relations)
    except TypeError:
        raise PreconditionError(
            f"classify_set needs an iterable of relations, got {relations!r}"
        ) from None
    if not rels:
        raise PreconditionError("classify_set needs at least one relation")
    for rel in rels:
        if not isinstance(rel, Relation):
            raise PreconditionError(f"classify_set needs Relation objects, got {rel!r}")
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


def read_arity(token: str, line: int) -> int:
    """An arity token of a .rel or .cnfs file, checked against 1..MAX_ARITY."""
    arity = read_decimal(token, f"bad arity {token!r}", line)
    if not 1 <= arity <= MAX_ARITY:
        raise ParseError(f"arity must be in 1..{MAX_ARITY}", line)
    return arity


def parse_relation(text: str) -> Relation:
    """Read the .rel format: `arity <k>`, then one k-bit tuple per line."""
    arity = None
    tuples = set()
    for lineno, line in content_lines(text, "#"):
        if arity is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "arity":
                raise ParseError("expected 'arity <k>'", lineno)
            arity = read_arity(parts[1], lineno)
        elif (t := from_bitstring(line, arity)) is None:
            raise ParseError(f"expected a {arity}-bit tuple, got {line!r}", lineno)
        else:
            tuples.add(t)
    if arity is None:
        raise ParseError("missing 'arity' line")
    return Relation(arity, frozenset(tuples))
