"""Independent output checks for the benchmark.

Nothing here imports satflip. Formulas are read from their text with
this module's own parsers, assignments are evaluated by building each
clause tuple and testing membership in the clause's relation, and exact
distances come from this module's own searches. A solver answer is
accepted only when it agrees with these.

Assignments are ints; variable i (1-based) is bit ``n - i``, so the
leftmost character of a printed bitstring is variable 1.
"""

from __future__ import annotations

import itertools
from collections import deque

FLAG_NAMES = (
    "bijunctive",
    "horn",
    "dual-horn",
    "affine",
    "componentwise-bijunctive",
    "or-free",
    "nand-free",
    "horn-free",
    "dual-horn-free",
)
# Complementing every tuple swaps these flag pairs and keeps the rest.
_COMPLEMENT_SWAP = {1: 2, 2: 1, 5: 6, 6: 5, 7: 8, 8: 7}

KIND_CWB = "componentwise bijunctive"
KIND_NAND_DH = "nand-free + dual-horn-free"
KIND_OR_H = "or-free + horn-free"


class CheckError(Exception):
    """An output disagrees with the independent check."""


# ---------------------------------------------------------------- relations


def tuple_mask(tuples) -> int:
    """The tuple set as an int with bit t set for each tuple t."""
    return sum(1 << t for t in set(tuples))


def permute_tuples(arity: int, tuples, perm) -> frozenset:
    """Position p+1 of each new tuple is position perm[p]+1 of the old."""
    out = set()
    for t in tuples:
        v = 0
        for p in perm:
            v = (v << 1) | ((t >> (arity - 1 - p)) & 1)
        out.add(v)
    return frozenset(out)


def complement_tuples(arity: int, tuples) -> frozenset:
    mask = (1 << arity) - 1
    return frozenset(t ^ mask for t in tuples)


def complement_flags(flags: str) -> str:
    return "".join(flags[_COMPLEMENT_SWAP.get(i, i)] for i in range(len(flags)))


def expected_verdict(flag_rows) -> tuple[str, str | None]:
    """The trichotomy applied to per-relation flag strings.

    Navigable when every relation is componentwise bijunctive, or every
    one is NAND-free and dual-Horn-free, or every one is OR-free and
    Horn-free (tried in that order); tight but not navigable when every
    relation is OR-free or every one is NAND-free; not tight otherwise.
    """
    rows = [[c == "1" for c in f] for f in flag_rows]
    if all(r[4] for r in rows):
        return "navigable", KIND_CWB
    if all(r[6] and r[8] for r in rows):
        return "navigable", KIND_NAND_DH
    if all(r[5] and r[7] for r in rows):
        return "navigable", KIND_OR_H
    if all(r[5] for r in rows) or all(r[6] for r in rows):
        return "tight-not-navigable", None
    return "not-tight", None


def classify_lines(named_flags) -> list[str]:
    """The stdout lines `satflip classify` must print for these relations."""
    lines = []
    for name, flags in named_flags:
        fields = " ".join(
            f"{label}={'yes' if bit == '1' else 'no'}"
            for label, bit in zip(FLAG_NAMES, flags)
        )
        lines.append(f"relation {name}: {fields}")
    verdict, kind = expected_verdict([f for _, f in named_flags])
    if verdict == "navigable":
        lines.append(f"NAVIGABLE ({kind})")
    elif verdict == "tight-not-navigable":
        lines.append("NP-COMPLETE CLASS (tight, not navigable)")
    else:
        lines.append("PSPACE CLASS (not tight)")
    return lines


# ----------------------------------------------------------------- formulas


class Cnf:
    """Clauses as (args, allowed): args are variable indices or the
    constants 0/1 given as the strings "F"/"T"; allowed is the set of
    accepted clause tuples."""

    def __init__(self, num_vars: int, clauses):
        self.n = num_vars
        self.clauses = [(tuple(a), frozenset(r)) for a, r in clauses]
        self.occ = {v: [] for v in range(1, num_vars + 1)}
        for ci, (args, _) in enumerate(self.clauses):
            for v in set(a for a in args if isinstance(a, int)):
                self.occ[v].append(ci)

    def clause_ok(self, a: int, ci: int) -> bool:
        args, allowed = self.clauses[ci]
        n = self.n
        tup = 0
        for x in args:
            if x == "T":
                bit = 1
            elif x == "F":
                bit = 0
            else:
                bit = (a >> (n - x)) & 1
            tup = (tup << 1) | bit
        return tup in allowed

    def satisfies(self, a: int) -> bool:
        return all(self.clause_ok(a, ci) for ci in range(len(self.clauses)))

    def flip_ok(self, a: int, v: int) -> bool:
        """Whether flipping v keeps a satisfying assignment satisfying."""
        b = a ^ (1 << (self.n - v))
        return all(self.clause_ok(b, ci) for ci in self.occ[v])

    def replay(self, s: int, flips) -> int:
        """Apply (var, up) flips from s, checking direction and every
        intermediate assignment; return the end assignment."""
        if not self.satisfies(s):
            raise CheckError("start assignment does not satisfy the formula")
        a = s
        for i, (v, up) in enumerate(flips):
            if not 1 <= v <= self.n:
                raise CheckError(f"flip {i + 1}: variable x{v} out of range")
            bit = (a >> (self.n - v)) & 1
            if bit == int(up):
                raise CheckError(f"flip {i + 1}: x{v} already {bit}")
            if not self.flip_ok(a, v):
                raise CheckError(f"flip {i + 1}: x{v} falsifies a clause")
            a ^= 1 << (self.n - v)
        return a

    def sat_array(self):
        """Boolean numpy array over all 2^n assignments (n <= 20)."""
        import numpy as np

        n = self.n
        if n > 20:
            raise CheckError(f"explicit enumeration refused for n = {n}")
        space = np.arange(1 << n, dtype=np.uint32)
        mask = np.ones(1 << n, dtype=bool)
        for args, allowed in self.clauses:
            k = len(args)
            table = np.zeros(1 << k, dtype=bool)
            for t in allowed:
                table[t] = True
            idx = np.zeros(1 << n, dtype=np.uint32)
            for x in args:
                if x == "T":
                    bit = np.uint32(1)
                elif x == "F":
                    bit = np.uint32(0)
                else:
                    bit = (space >> np.uint32(n - x)) & np.uint32(1)
                idx = (idx << np.uint32(1)) | bit
            mask &= table[idx]
        return mask

    def count_states_edges(self) -> tuple[int, int]:
        import numpy as np

        mask = self.sat_array()
        states = np.flatnonzero(mask)
        edges = 0
        for v in range(1, self.n + 1):
            b = 1 << (self.n - v)
            lower = states[(states & b) == 0]
            edges += int(np.count_nonzero(mask[lower | b]))
        return int(states.size), edges

    def bfs_distance(self, s: int, t: int):
        """Exact flip distance by breadth-first search over the explicit
        solution set, or None when t is unreachable from s."""
        import numpy as np

        mask = self.sat_array()
        if not (mask[s] and mask[t]):
            raise CheckError("endpoint does not satisfy the formula")
        seen = np.zeros(mask.size, dtype=bool)
        seen[s] = True
        frontier = np.array([s], dtype=np.int64)
        d = 0
        while frontier.size:
            if seen[t]:
                return d
            d += 1
            nxt = []
            for v in range(1, self.n + 1):
                cand = frontier ^ (1 << (self.n - v))
                cand = cand[mask[cand] & ~seen[cand]]
                seen[cand] = True
                nxt.append(cand)
            frontier = np.unique(np.concatenate(nxt))
        return d if seen[t] else None

    def local_solutions(self) -> list[int]:
        """All satisfying assignments, found by extending prefixes one
        variable at a time; fit only for chain formulas whose clauses
        span a few adjacent variables, where few prefixes survive."""
        n = self.n
        by_last = {v: [] for v in range(1, n + 1)}
        for ci, (args, _) in enumerate(self.clauses):
            vs = [a for a in args if isinstance(a, int)]
            if vs:
                by_last[max(vs)].append(ci)
        prefixes = [0]
        for v in range(1, n + 1):
            grown = []
            for p in prefixes:
                for bit in (0, 1):
                    q = p | (bit << (n - v))
                    if all(self.clause_ok(q, ci) for ci in by_last[v]):
                        grown.append(q)
            prefixes = grown
            if len(prefixes) > 100_000:
                raise CheckError("too many partial solutions for explicit search")
        return [a for a in prefixes if self.satisfies(a)]

    def explicit_distance(self, s: int, t: int, sols=None):
        """Exact distance over the solutions from `local_solutions`."""
        sols = set(self.local_solutions() if sols is None else sols)
        if s not in sols or t not in sols:
            raise CheckError("endpoint does not satisfy the formula")
        dist = {s: 0}
        queue = deque([s])
        while queue:
            a = queue.popleft()
            if a == t:
                return dist[a]
            for v in range(1, self.n + 1):
                b = a ^ (1 << (self.n - v))
                if b in sols and b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        return None


def parse_cnfs(text: str):
    """Read the .cnfs text; returns (Cnf, s, t, relations) where s/t come
    from `# s=` / `# t=` comments and relations maps name -> (arity, set)."""
    relations = {}
    clauses = []
    n = None
    s = t = None
    block = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("s="):
                s = int(body[2:], 2)
            elif body.startswith("t="):
                t = int(body[2:], 2)
            continue
        parts = line.split()
        if block is not None:
            if parts == ["end"]:
                relations[block[0]] = (block[1], frozenset(block[2]))
                block = None
            else:
                block[2].add(int(line, 2))
        elif parts[0] == "vars":
            n = int(parts[1])
        elif parts[0] == "relation":
            block = (parts[1], int(parts[2]), set())
        elif parts[0] == "clause":
            args = tuple(
                tok if tok in ("T", "F") else int(tok[1:]) for tok in parts[2:]
            )
            clauses.append((args, relations[parts[1]][1]))
        else:
            raise CheckError(f"unexpected line {line!r}")
    return Cnf(n, clauses), s, t, relations


def parse_dimacs(text: str) -> Cnf:
    """Read DIMACS CNF; each clause accepts every tuple but the one that
    falsifies all of its literals."""
    n = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n = int(line.split()[2])
            continue
        lits = [int(tok) for tok in line.split()][:-1]
        args = tuple(abs(lit) for lit in lits)
        falsifying = 0
        for lit in lits:
            falsifying = (falsifying << 1) | (0 if lit > 0 else 1)
        allowed = set(range(1 << len(lits))) - {falsifying}
        clauses.append((args, allowed))
    return Cnf(n, clauses)


# ------------------------------------------------------------------ outputs


def parse_flips(tokens) -> list[tuple[int, bool]]:
    flips = []
    for tok in tokens:
        if len(tok) < 3 or tok[0] != "x" or tok[-1] not in "+-":
            raise CheckError(f"bad flip token {tok!r}")
        flips.append((int(tok[1:-1]), tok[-1] == "+"))
    return flips


def parse_path_line(line: str) -> list[tuple[int, bool]]:
    parts = line.split()
    if not parts or parts[0] != "PATH":
        raise CheckError(f"expected a PATH line, got {line!r}")
    flips = parse_flips(parts[2:])
    if int(parts[1]) != len(flips):
        raise CheckError(f"PATH length {parts[1]} but {len(flips)} flips")
    return flips


def check_path(cnf: Cnf, s: int, t: int, flips, length) -> None:
    """The flips must lead from s to t through satisfying assignments, and
    their count must equal the known shortest length."""
    end = cnf.replay(s, flips)
    if end != t:
        raise CheckError("path does not end at the target")
    if len(flips) != length:
        raise CheckError(f"path length {len(flips)}, expected {length}")


def check_outcome(cnf: Cnf, s: int, t: int, expect, outcome: str, flips) -> None:
    """`expect` is the known shortest length, or None for NOTCONNECTED."""
    if expect is None:
        if outcome != "NOTCONNECTED":
            raise CheckError(f"expected NOTCONNECTED, got {outcome}")
        return
    if outcome != "PATH":
        raise CheckError(f"expected a path of length {expect}, got {outcome}")
    check_path(cnf, s, t, flips, expect)


# ------------------------------------------------------------- constructions

# PATH5 = {000, 001, 101, 111, 110}, listed in path order.
PATH5_ORDER = (0b000, 0b001, 0b101, 0b111, 0b110)


def gadget_distance(n: int, s: int, t: int) -> int:
    """Shortest length between two states of disjoint PATH5 gadgets on
    (x1,x2,x3), (x4,x5,x6), ...: each gadget walks its own path."""
    total = 0
    for g in range(n // 3):
        shift = n - 3 * g - 3
        a = (s >> shift) & 7
        b = (t >> shift) & 7
        total += abs(PATH5_ORDER.index(a) - PATH5_ORDER.index(b))
    return total


def min_vertex_cover(num_vertices: int, edges) -> int:
    """Smallest vertex cover by trying subsets in order of size."""
    for size in range(num_vertices + 1):
        for subset in itertools.combinations(range(1, num_vertices + 1), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise CheckError("unreachable: the full vertex set covers every edge")


def random_walk(cnf: Cnf, start: int, steps: int, rng) -> int:
    """Propose `steps` uniformly random single flips, keeping each one
    that leaves the formula satisfied."""
    a = start
    for _ in range(steps):
        v = rng.randint(1, cnf.n)
        if cnf.flip_ok(a, v):
            a ^= 1 << (cnf.n - v)
    return a
