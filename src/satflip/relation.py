"""Finite Boolean relations, their restrictions, and class predicates.

A k-ary relation is a set of k-bit tuples. Restrictions substitute
constants into positions and identify positions with each other; the
"-free" predicates ask whether any restriction equals a fixed forbidden
relation, and the whole set of predicates feeds the solvability verdict
computed by :func:`classify_set`.

The five restriction-based predicates (componentwise bijunctive and the
four "-free" ones) read one memoized closure of the relation under
elementary steps: fix one position, or identify two. The closure holds
every covering restriction up to a permutation of its positions, so the
predicates never walk the (k'+2)^k restriction maps one by one;
:func:`all_restrictions` still does, as the tests' reference.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .bits import to_bitstring
from .errors import ParseError, PreconditionError

# The restriction closure grows quickly with arity. Measured cold on
# CPython 3.11: all nine flags of a random relation take about 8 ms at
# arity 6, 70 ms at arity 7 and 0.55 s (up to 0.9 s) at arity 8, where
# one closure holds up to about 13 MiB; the componentwise-bijunctive check
# of the full arity-8 relation takes 0.6 s.
MAX_ARITY = 8

CONST0 = "c0"
CONST1 = "c1"

# Forbidden binary restrictions: the satisfying sets of (x | y) and !(x & y).
# Both are symmetric, so one order of their positions matches every order.
OR_TUPLES = frozenset({0b01, 0b10, 0b11})
NAND_TUPLES = frozenset({0b00, 0b01, 0b10})
# Forbidden ternary restrictions: satisfying sets of (x | !y | !z) and
# (!x | y | z), each in all three placements of its odd literal.
HORN_PLACEMENTS = frozenset(
    frozenset(range(8)) - {t} for t in (0b011, 0b101, 0b110)
)
DUAL_HORN_PLACEMENTS = frozenset(
    frozenset(range(8)) - {t} for t in (0b100, 0b010, 0b001)
)


@dataclass(frozen=True)
class Relation:
    """A k-ary Boolean relation stored as the explicit set of accepted
    tuples, each an int whose bit ``k - p`` holds position ``p``."""

    arity: int
    tuples: frozenset[int]

    def __post_init__(self):
        if (isinstance(self.arity, bool) or not isinstance(self.arity, int)
                or not 1 <= self.arity <= MAX_ARITY):
            raise PreconditionError(
                f"relation arity must be an integer in 1..{MAX_ARITY}, got {self.arity!r}"
            )
        if not isinstance(self.tuples, frozenset):
            object.__setattr__(self, "tuples", frozenset(self.tuples))
        top = 1 << self.arity
        for t in self.tuples:
            if not isinstance(t, int) or not 0 <= t < top:
                raise PreconditionError(
                    f"tuple {t!r} out of range for arity {self.arity}"
                )

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

    def image(self, r: int) -> int:
        """Expand a target tuple into the source tuple it induces."""
        v = 0
        for e in self.entries:
            if e == CONST0:
                b = 0
            elif e == CONST1:
                b = 1
            else:
                b = (r >> (self.target_arity - e)) & 1
            v = (v << 1) | b
        return v

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
    the restriction. `rmap.image` is injective on the covered coordinates,
    so the restriction has at most ``len(relation.tuples) * 2**u`` tuples,
    where ``u`` is the number of uncovered target positions; a covering
    map never grows the relation.
    """
    if rmap.source_arity != relation.arity:
        raise PreconditionError(
            f"map source arity {rmap.source_arity} != relation arity {relation.arity}"
        )
    keep = frozenset(
        r for r in range(1 << rmap.target_arity) if rmap.image(r) in relation.tuples
    )
    return Relation(rmap.target_arity, keep)


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
def _elementary_steps(arity: int) -> tuple:
    """The elementary steps on ``arity`` positions, each as the set of
    tuples it keeps and a lookup that drops one bit from a kept tuple:
    fix a position to 0 or 1, or identify two positions (keep the tuples
    whose two bits agree, then drop the later position)."""
    everything = range(1 << arity)
    steps = []
    for b in range(arity):
        low = (1 << b) - 1
        drop = tuple((t >> 1) & ~low | t & low for t in everything).__getitem__
        for bit in (0, 1):
            steps.append((frozenset(t for t in everything if t >> b & 1 == bit), drop))
        for hi in range(b + 1, arity):
            agree = frozenset(t for t in everything if (t >> b ^ t >> hi) & 1 == 0)
            steps.append((agree, drop))
    return tuple(steps)


@lru_cache(maxsize=4)
def _restriction_closure(relation: Relation) -> tuple[frozenset[frozenset[int]], ...]:
    """Every covering restriction of the relation, up to a permutation of
    positions: entry ``a - 1`` holds the distinct tuple sets of arity a.

    A covering map names every target position. It factors into
    elementary steps (see :func:`_elementary_steps`) followed by a
    permutation of the target positions, so closing the relation under
    those steps reaches each covering restriction in some order of its
    positions. A map that is not covering leaves a target coordinate free, so its
    restriction is a product of a smaller restriction with {0, 1}: it can
    never equal one of the forbidden patterns, and its components are
    bijunctive exactly when the smaller one's are.

    One closure holds up to about 300 KiB at arity 6 and 13 MiB at arity
    8, so only the last few are kept: enough for the five predicates of
    one relation, which :func:`relation_flags` asks in a row.
    """
    levels = [frozenset({relation.tuples})]
    for arity in range(relation.arity, 1, -1):
        steps = _elementary_steps(arity)
        levels.append(frozenset(
            frozenset(map(drop, tuples & keep))
            for tuples in levels[-1]
            for keep, drop in steps
        ))
    return tuple(reversed(levels))


def _hamming_components(arity: int, tuples: frozenset[int]) -> list[frozenset[int]]:
    """Connected components under single-bit flips, ordered by smallest member."""
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


def _closed_under(relation: Relation, op, n: int) -> bool:
    """True iff ``op`` maps every n distinct tuples of the relation into
    the relation. Repeated arguments need no check: when two arguments
    coincide, each op used here returns one of its arguments."""
    ts = relation.tuples
    return all(t in ts for t in itertools.starmap(op, itertools.combinations(ts, n)))


def _majority(a: int, b: int, c: int) -> int:
    return (a & b) | (a & c) | (b & c)


def _xor3(a: int, b: int, c: int) -> int:
    return a ^ b ^ c


# Bounded: is_componentwise_bijunctive asks it for every Hamming component
# of every closure member, about 1,700 distinct ones in one classify stream.
@lru_cache(maxsize=4096)
def is_bijunctive(relation: Relation) -> bool:
    """Closed under coordinatewise majority, i.e. expressible in 2CNF."""
    return _closed_under(relation, _majority, 3)


@lru_cache(maxsize=None)
def is_horn(relation: Relation) -> bool:
    """Closed under coordinatewise AND."""
    return _closed_under(relation, operator.and_, 2)


@lru_cache(maxsize=None)
def is_dual_horn(relation: Relation) -> bool:
    """Closed under coordinatewise OR."""
    return _closed_under(relation, operator.or_, 2)


@lru_cache(maxsize=None)
def is_affine(relation: Relation) -> bool:
    """Closed under coordinatewise XOR of three tuples."""
    return _closed_under(relation, _xor3, 3)


@lru_cache(maxsize=None)
def is_or_free(relation: Relation) -> bool:
    """No binary restriction equals the satisfying set of (x | y)."""
    return relation.arity < 2 or OR_TUPLES not in _restriction_closure(relation)[1]


@lru_cache(maxsize=None)
def is_nand_free(relation: Relation) -> bool:
    """No binary restriction equals the satisfying set of !(x & y)."""
    return relation.arity < 2 or NAND_TUPLES not in _restriction_closure(relation)[1]


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
    covers every restriction."""
    for arity, members in enumerate(_restriction_closure(relation), 1):
        for tuples in members:
            for comp in _hamming_components(arity, tuples):
                if not is_bijunctive(Relation(arity, comp)):
                    return False
    return True


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
