"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import itertools
import pathlib
import random
import time

from satflip import (
    Clause,
    Formula,
    NavigableKind,
    Outcome,
    Relation,
    Verdict,
    apply_sequence,
    bfs_shortest,
    classify_set,
    dualize,
    gen_vertex_cover_instance,
    random_formula,
    relation_partial_order,
    shortest_path_cwb,
    shortest_path_navigable,
    solve,
)
from satflip import GenerationError, SimpleGraph, random_navigable_relation
from satflip.bits import hamming
from satflip.cli import main as cli_main

from helpers import (
    canonicalize,
    min_vertex_cover_size,
    navigable_corpus,
    order_obeying_sequences,
    random_walk,
    valid_positive_sequences,
)

DATA = pathlib.Path(__file__).parent / "data"

PATH5 = Relation.from_bitstrings(["000", "001", "101", "111", "110"])
PATH_PHI = Formula(3, (("path5", PATH5),), (Clause("path5", (1, 2, 3)),))


def _report(number, label, failures, elapsed, budget=None, note=""):
    ok = not failures and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    extra = f" [{note}]" if note else ""
    print(f"[acceptance] criterion {number} ({label}): {status} "
          f"({elapsed:.1f}s){extra}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_1_counterexample_reproduction():
    start = time.perf_counter()
    failures = []
    res = solve(PATH_PHI, 0b000, 0b110)
    if res.outcome is not Outcome.PATH or res.length != 4:
        failures.append(f"got {res.protocol_line()}")
    if hamming(0b000, 0b110) != 2:
        failures.append("hamming distance is not 2")
    _report(1, "length 4 vs hamming 2", failures, time.perf_counter() - start,
            budget=1.0)


def test_criterion_2_oracle_equivalence_primal():
    start = time.perf_counter()
    failures = []
    instances = navigable_corpus(500, seed=20_01, max_arity=4, max_vars=12,
                                 max_clauses=8)
    if len(instances) < 500:
        failures.append(f"only generated {len(instances)} instances")
    for i, (phi, s, t) in enumerate(instances):
        res = shortest_path_navigable(phi.compiled, s, t)
        ref = bfs_shortest(phi.compiled, s, t)
        if res.outcome is not ref.outcome:
            failures.append(f"instance {i}: connectivity mismatch")
        elif res.length != ref.length:
            failures.append(
                f"instance {i}: solver {res.length} oracle {ref.length}"
            )
    _report(2, f"{len(instances)} primal instances vs oracle", failures,
            time.perf_counter() - start, budget=300.0)


def test_criterion_3_oracle_equivalence_dual():
    start = time.perf_counter()
    failures = []
    instances = navigable_corpus(200, seed=30_03, max_arity=4, max_vars=12,
                                 max_clauses=8)
    if len(instances) < 200:
        failures.append(f"only generated {len(instances)} instances")
    for i, primal in enumerate(instances):
        phi, s, t = dualize(*primal)
        res = solve(phi, s, t)
        ref = bfs_shortest(phi.compiled, s, t)
        if res.outcome is not ref.outcome:
            failures.append(f"instance {i}: connectivity mismatch")
        elif ref.outcome is Outcome.PATH:
            if res.length != ref.length:
                failures.append(f"instance {i}: {res.length} vs {ref.length}")
            elif apply_sequence(phi.compiled, s, res.flips) != t:
                failures.append(f"instance {i}: path does not reach target")
    _report(3, f"{len(instances)} dualized instances vs oracle", failures,
            time.perf_counter() - start)


def _relation_corpus(count, seed):
    rng = random.Random(seed)
    return [
        random_navigable_relation(rng.randint(1, 4), rng.randrange(2**32))
        for _ in range(count)
    ]


def test_criterion_4_partial_order_characterization():
    start = time.perf_counter()
    failures = []
    relations = _relation_corpus(100, seed=40_04)
    states = 0
    for rel in relations:
        for state in sorted(rel.tuples):
            members, prec = relation_partial_order(rel, state)
            want = valid_positive_sequences(rel, state)
            got = order_obeying_sequences(members, prec)
            if want != got:
                failures.append(f"{rel} at {state}")
            states += 1
    _report(4, f"order characterization on {len(relations)} relations / "
            f"{states} states", failures, time.perf_counter() - start)


def test_criterion_5_lattice_closure():
    start = time.perf_counter()
    failures = []
    relations = _relation_corpus(100, seed=50_05)
    for rel in relations:
        for state in sorted(rel.tuples):
            seqs = valid_positive_sequences(rel, state)
            sets = {frozenset(q) for q in seqs}
            for a, b in itertools.combinations_with_replacement(
                sorted(sets, key=sorted), 2
            ):
                if a | b not in sets:
                    failures.append(f"union fails: {rel} {state}")
                if a & b not in sets:
                    failures.append(f"intersection fails: {rel} {state}")
    _report(5, f"union/intersection closure on {len(relations)} relations",
            failures, time.perf_counter() - start)


def test_criterion_6_canonicalization():
    start = time.perf_counter()
    failures = []
    rng = random.Random(60_06)
    instances = navigable_corpus(100, seed=60_06, max_vars=10, max_clauses=6)
    walks = 0
    for phi, s, _ in instances:
        for _ in range(10):
            flips, end = random_walk(phi, s, rng.randint(0, 14), rng)
            out = canonicalize(phi.compiled, s, flips)
            if apply_sequence(phi.compiled, s, out) != end:
                failures.append("endpoint changed")
            signs = [f.up for f in out]
            if signs != sorted(signs, reverse=True):
                failures.append("not canonical")
            if len(set(out)) != len(out):
                failures.append("repeated flip")
            if not set(out) <= set(flips):
                failures.append("introduced new flips")
            for up in (True, False):
                kept = [f for f in out if f.up == up]
                it = iter([f for f in flips if f.up == up])
                if not all(f in it for f in kept):
                    failures.append("same-sign order broken")
            walks += 1
    if walks < 1000:
        failures.append(f"only {walks} walks exercised")
    _report(6, f"canonicalization of {walks} random walks", failures,
            time.perf_counter() - start)


def test_criterion_7_componentwise_bijunctive():
    start = time.perf_counter()
    failures = []
    two_clause_relations = [
        Relation(2, frozenset({1, 2, 3})),
        Relation(2, frozenset({0, 2, 3})),
        Relation(2, frozenset({0, 1, 3})),
        Relation(2, frozenset({0, 1, 2})),
    ]
    rng = random.Random(70_07)
    checked = connected = 0
    while checked < 200:
        try:
            phi, s, t = random_formula(
                two_clause_relations,
                rng.randint(2, 12),
                rng.randint(1, 10),
                rng.randrange(2**32),
            )
        except GenerationError:
            continue
        res = shortest_path_cwb(phi.compiled, s, t)
        ref = bfs_shortest(phi.compiled, s, t)
        if res.outcome is not ref.outcome:
            failures.append(f"instance {checked}: connectivity mismatch")
        elif ref.outcome is Outcome.PATH:
            connected += 1
            if not (res.length == ref.length == hamming(s, t)):
                failures.append(
                    f"instance {checked}: {res.length} vs {ref.length} vs "
                    f"hamming {hamming(s, t)}"
                )
        checked += 1
    _report(7, f"{checked} random 2CNF instances ({connected} connected)",
            failures, time.perf_counter() - start)


def _all_labeled_graphs(max_vertices):
    for nv in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                yield SimpleGraph(nv, chosen)


def _iso_key(graph):
    best = None
    for perm in itertools.permutations(range(1, graph.num_vertices + 1)):
        edges = tuple(sorted(
            tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in graph.edges
        ))
        if best is None or edges < best:
            best = edges
    return graph.num_vertices, best


def test_criterion_8_reduction_fidelity():
    start = time.perf_counter()
    failures = []
    classes = {}
    labeled = 0
    for graph in _all_labeled_graphs(5):
        labeled += 1
        phi, s, t = gen_vertex_cover_instance(graph)
        if phi.num_vars != graph.num_vertices + 2 * len(graph.edges):
            failures.append(f"variable count wrong for {graph}")
        if len(phi.clauses) != 2 * len(graph.edges):
            failures.append(f"clause count wrong for {graph}")
        cls = classify_set([rel for _, rel in phi.relations])
        flags = cls.per_relation[0]
        if not flags.nand_free or flags.dual_horn_free:
            failures.append(f"classification wrong for {graph}")
        classes.setdefault(_iso_key(graph), graph)
    # shortest lengths are relabeling-invariant, so the exact search runs
    # once per isomorphism class
    equal = 0
    for graph in classes.values():
        phi, s, t = gen_vertex_cover_instance(graph)
        res = bfs_shortest(phi.compiled, s, t, cap=26)
        want = 2 * len(graph.edges) + 2 * min_vertex_cover_size(graph)
        if res.length != want:
            failures.append(f"length {res.length} != {want} for {graph}")
        else:
            equal += 1
    note = (f"finding: shortest length equalled 2|E|+2*mvc on all "
            f"{equal}/{len(classes)} graph classes (<=5 vertices)")
    _report(8, f"{labeled} labeled graphs, {len(classes)} classes", failures,
            time.perf_counter() - start, budget=120.0, note=note)


def test_criterion_9_trichotomy_dispatch(capsys):
    start = time.perf_counter()
    failures = []
    vc_rel = Relation(3, frozenset(range(8)) - {0b010})
    is_rel = Relation(3, frozenset(range(8)) - {0b011})
    three_cnf = [
        Relation(3, frozenset(range(8)) - {bad})
        for bad in (0b000, 0b100, 0b110, 0b111)
    ]
    cases = [
        ([PATH5], Verdict.NAVIGABLE, NavigableKind.NAND_AND_DUAL_HORN_FREE),
        ([vc_rel], Verdict.TIGHT_NOT_NAVIGABLE, None),
        ([is_rel], Verdict.TIGHT_NOT_NAVIGABLE, None),
        (three_cnf, Verdict.NOT_TIGHT, None),
    ]
    for rels, verdict, kind in cases:
        cls = classify_set(rels)
        if cls.verdict is not verdict or cls.kind is not kind:
            failures.append(f"{rels} -> {cls.verdict}, {cls.kind}")

    goldens = [
        (["classify", str(DATA / "path.cnfs")],
         "NAVIGABLE (nand-free + dual-horn-free)"),
        (["classify", str(DATA / "threecnf.cnfs")], "PSPACE CLASS (not tight)"),
        (["solve", str(DATA / "path.cnfs")], "PATH 4 x3+ x1+ x2+ x3-"),
        (["solve", str(DATA / "equality.cnfs")], "NOTCONNECTED"),
    ]
    for argv, want_last in goldens:
        code = cli_main(argv)
        out = capsys.readouterr().out
        if code != 0 or out.splitlines()[-1] != want_last:
            failures.append(f"{argv}: {out!r}")
    with capsys.disabled():
        _report(9, "trichotomy verdicts + CLI goldens", failures,
                time.perf_counter() - start)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    start = time.perf_counter()
    failures = []
    vc_file = tmp_path / "vc.cnfs"
    cli_main(["gen", "vc", str(DATA / "k3.graph")])
    vc_file.write_text(capsys.readouterr().out)
    commands = [
        ["classify", str(DATA / "path.cnfs")],
        ["classify", str(vc_file)],
        ["solve", str(DATA / "path.cnfs"), "--verify"],
        ["solve", str(vc_file), "--allow-oracle"],
        ["oracle", str(DATA / "path.cnfs")],
        ["gen", "vc", str(DATA / "k3.graph")],
        ["gen", "is", str(DATA / "single_edge.graph")],
        ["gen", "random", "--vars", "10", "--clauses", "6", "--seed", "99"],
        ["dot", str(DATA / "path.cnfs"), "--what", "recon"],
        ["dot", str(DATA / "path.cnfs"), "--what", "fliporder"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            runs.append((code, out))
        if runs[0] != runs[1]:
            failures.append(f"nondeterministic: {argv}")
        if runs[0][0] != 0:
            failures.append(f"nonzero exit: {argv}")
    with capsys.disabled():
        _report(10, f"{len(commands)} commands byte-identical across runs",
                failures, time.perf_counter() - start)
