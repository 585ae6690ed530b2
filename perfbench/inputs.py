"""Seeded input generation for the four workloads.

Everything here runs before the measured process starts, in a process
of its own, so that building inputs (which calls cached satflip
predicates, e.g. inside `random_navigable_relation`) cannot warm the
caches the measured process relies on. Inputs come only from in-repo
constructions; the measured process sees only the texts written here.

Each workload is a sequence of rounds. A round is a fixed list of slots:
the slot decides the input family and size, the seed decides the
content (permutations, walks, graphs, draws). A run executes whole
rounds, so every run sees the same mix of families, and the spread
between seeds comes only from content.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import check

# ------------------------------------------------------------- relations

PATH5 = (3, frozenset({0b000, 0b001, 0b101, 0b111, 0b110}))
IMPL = (2, frozenset({0b00, 0b01, 0b11}))
RN3_SEEDS = range(6)
RN4_SEEDS = range(8)
RAND_POOL = 24  # uniform random relations stored per arity


def staircase(k):
    return k, frozenset((1 << i) - 1 for i in range(k + 1))


def full(k):
    return k, frozenset(range(1 << k))


def uniform_random(k, i):
    rng = random.Random(f"rand.{k}.{i}")
    while True:
        tuples = frozenset(t for t in range(1 << k) if rng.random() < 0.5)
        if tuples:
            return k, tuples


def factor(name):
    """A named relation: PATH5, IMPL, VC, IS, STAIR.k, FULL.k, RN3.s,
    RN4.s (satflip's random_navigable_relation) or RAND.k.i."""
    from satflip import random_navigable_relation
    from satflip.gen import IS_CLAUSE_RELATION, VC_CLAUSE_RELATION

    head, _, rest = name.partition(".")
    if name == "PATH5":
        return PATH5
    if name == "IMPL":
        return IMPL
    if name == "VC":
        return 3, VC_CLAUSE_RELATION.tuples
    if name == "IS":
        return 3, IS_CLAUSE_RELATION.tuples
    if head == "STAIR":
        return staircase(int(rest))
    if head == "FULL":
        return full(int(rest))
    if head in ("RN3", "RN4"):
        rel = random_navigable_relation(int(head[2]), int(rest))
        return rel.arity, rel.tuples
    if head == "RAND":
        k, i = rest.split(".")
        return uniform_random(int(k), int(i))
    raise ValueError(f"unknown relation {name!r}")


def product(recipe):
    """Cartesian product of the factors in a `A*B*...` recipe."""
    arity, tuples = 0, frozenset({0})
    for name in recipe.split("*"):
        k, ts = factor(name)
        tuples = frozenset((a << k) | b for a in tuples for b in ts)
        arity += k
    return arity, tuples


def rel_text(arity, tuples):
    rows = [format(t, f"0{arity}b") for t in sorted(tuples)]
    return "\n".join([f"arity {arity}"] + rows) + "\n"


# Slot menus of the classify workload; a slot takes the next recipe of
# its menu each round, and `RN3`/`RN4` get a seeded index. Arity 7-8 is
# left out: one staircase operation takes 9.5-165 s there.
A6 = ("STAIR.6", "PATH5*PATH5", "IMPL*IMPL*IMPL", "VC*IS", "RN3*RN3")
A5 = ("STAIR.5", "PATH5*IMPL", "VC*IMPL", "IS*IMPL", "RN3*IMPL")
A23 = ("STAIR.3", "PATH5", "VC", "IS", "RN3", "FULL.3", "IMPL", "STAIR.2",
       "FULL.2", "FULL.4")


def pool_recipes():
    """Every concrete recipe the classify generator can emit; their flags
    are stored in expected.json."""
    out = set()
    for menu in (A6, A5, ("RN4",), A23):
        for recipe in menu:
            out.update(_instances(recipe))
    for k in range(2, 7):
        out.update(f"RAND.{k}.{i}" for i in range(RAND_POOL))
    return sorted(out)


def _instances(recipe):
    parts = [
        [f"RN3.{s}" for s in RN3_SEEDS] if p == "RN3"
        else [f"RN4.{s}" for s in RN4_SEEDS] if p == "RN4"
        else [p]
        for p in recipe.split("*")
    ]
    return ["*".join(c) for c in itertools.product(*parts)]


def _fill(recipe, rng):
    return "*".join(
        f"RN3.{rng.choice(RN3_SEEDS)}" if p == "RN3"
        else f"RN4.{rng.choice(RN4_SEEDS)}" if p == "RN4"
        else p
        for p in recipe.split("*")
    )


def _family(recipe):
    """The recipe without its seeded indices, e.g. RN3*RN3 or random."""
    parts = ["random" if p.startswith("RAND") else p.split(".")[0]
             if p.startswith("RN") else p for p in recipe.split("*")]
    return "*".join(parts)


def _variant(recipe, rng, flags, complement=None):
    """A seeded position permutation of the recipe's relation, complemented
    when asked (or by a coin when `complement` is None)."""
    arity, tuples = product(recipe)
    perm = list(range(arity))
    rng.shuffle(perm)
    tuples = check.permute_tuples(arity, tuples, perm)
    if complement is None:
        complement = rng.random() < 0.5
    want = flags[recipe]
    if complement:
        tuples = check.complement_tuples(arity, tuples)
        want = check.complement_flags(want)
    family = _family(recipe) + ("-complement" if complement else "")
    return {"text": rel_text(arity, tuples), "flags": want}, family


def gen_classify(seed, expected, rounds):
    """Per round 20 relation sets, cheapest kinds last:
    - an arity-6 and an arity-5 product or staircase, each once as drawn
      and once complemented (these make the tail);
    - uniform random relations of arity 6 and 5, most failing early;
    - seven arity-4 sets: three uniform random relations, a random pair
      of arity 3 and 4, two navigable random relations (`RN4`) and a pair
      of an arity 2-3 relation with an `RN4` (the median falls here);
    - an arity 2-3 relation, a uniform random binary relation, and five
      repeats of earlier sets of the run (a quarter of the stream), which
      hit the predicate caches.
    Why these: staircase, full and product relations of navigable
    factors pass most predicates, so restriction enumeration runs to the
    end; their complements take the OR-free + Horn-free side of every
    check; uniform random relations usually fail within the first
    restrictions, the cheap path; repeats take the cached path. Every
    relation is a seeded position permutation of its recipe, so nearly
    all non-repeat sets are new values to the caches. An op's tag n is
    the number of relations in its set."""
    flags = expected["flags"]
    rng = random.Random(f"classify.{seed}")
    ops = []
    out = []
    for r in range(rounds):
        cur = []

        def add(rels, family):
            arity = max(int(x["text"].split()[1]) for x in rels)
            op = {"rels": rels, "tag": {"family": family, "arity": arity,
                                        "n": len(rels)}}
            cur.append(op)
            ops.append(op)

        def one(recipe, complement=None):
            rel, family = _variant(_fill(recipe, rng), rng, flags, complement)
            add([rel], family)

        def pair(first, second, family):
            add([_variant(_fill(first, rng), rng, flags)[0],
                 _variant(_fill(second, rng), rng, flags)[0]], family)

        def rand(k):
            return f"RAND.{k}.{rng.randrange(RAND_POOL)}"

        for menu in (A6, A5):
            one(menu[(2 * r) % len(menu)], complement=False)
            one(menu[(2 * r + 1) % len(menu)], complement=True)
        one(rand(6))
        one(rand(5))
        for _ in range(3):
            one(rand(4))
        pair(rand(3), rand(4), "random-set2")
        one("RN4", complement=False)
        one("RN4", complement=True)
        pair(A23[r % len(A23)], "RN4", "set2")
        one(A23[(r + 4) % len(A23)])
        one(rand(2))
        for _ in range(5):
            earlier = rng.choice(ops)
            rep = {"rels": earlier["rels"],
                   "tag": dict(earlier["tag"], family="repeat")}
            cur.append(rep)
            ops.append(rep)
        out.append(cur)
    return {"rounds": out}


# ---------------------------------------------------------------- formulas


def cnfs_text(n, relname, arity, tuples, clauses):
    lines = [f"vars {n}", f"relation {relname} {arity}"]
    lines += [format(t, f"0{arity}b") for t in sorted(tuples)]
    lines.append("end")
    lines += [f"clause {relname} " + " ".join(f"x{v}" for v in c) for c in clauses]
    return "\n".join(lines) + "\n"


def bits(a, n):
    return format(a, f"0{n}b")


def path5_formula(n, clauses, dual):
    """PATH5 clauses as .cnfs text, or their complemented image (which
    the dispatcher sends through `dualize`)."""
    arity, tuples = PATH5
    name = "path5"
    if dual:
        tuples = check.complement_tuples(arity, tuples)
        name = "path5c"
    text = cnfs_text(n, name, arity, tuples, clauses)
    return text, check.parse_cnfs(text)[0]


def gadget_clauses(n):
    return [(3 * g + 1, 3 * g + 2, 3 * g + 3) for g in range(n // 3)]


def window_clauses(n, stride):
    return [(i, i + 1, i + 2) for i in range(1, n - 1, stride)]


def gadget_walk(n, start, rng, steps=12):
    """Seeded random walk on disjoint PATH5 gadgets: each gadget takes
    `steps` proposed single flips, kept when they stay in PATH5."""
    a = start
    for g in range(n // 3):
        shift = n - 3 * g - 3
        local = (a >> shift) & 7
        for _ in range(steps):
            nxt = local ^ (1 << rng.randrange(3))
            if nxt in PATH5[1]:
                local = nxt
        a = (a & ~(7 << shift)) | (local << shift)
    return a


WINDOW_SIZES = (301, 451, 601)
FROZEN_SIZES = (300, 450, 600)
WINDOW_POOL = 8  # stored stride-2 window endpoint pairs per size


def window_pool_entry(n, i):
    """Endpoints of stored stride-2 window instance i: two chained
    seeded random walks of 16n proposals from all-zeros."""
    _, cnf = path5_formula(n, window_clauses(n, 2), False)
    rng = random.Random(f"window.{n}.{i}")
    s = check.random_walk(cnf, 0, 16 * n, rng)
    t = check.random_walk(cnf, s, 16 * n, rng)
    return s, t


# Gadget slots of a navigate round as (n, dualized), cheapest first.
GADGET_SLOTS = ((420, False),) * 3 + ((540, True), (600, False), (600, True), (600, True))


def gen_navigate(seed, expected, rounds, outdir):
    """Per round 11 solves, cheapest kinds first:
    - one frozen stride-1 PATH5 window instance (n = 300, 450 or 600)
      whose endpoints lie in different components: the solver finds the
      blocked flips in its first DAG and answers NOTCONNECTED;
    - three stride-2 windows on (x_i, x_i+1, x_i+2), n = 301, 451, 601,
      drawn from the stored pool (their lengths are in expected.json);
    - seven disjoint PATH5 gadget chains with seeded random-walk
      endpoints: three at n = 420 (the median falls here), then 540, 600
      and twice 600 again (the tail falls among these).
    Half of the instances are complemented, so `solve` routes them
    through `dualize`. Round 0 also carries the ROADMAP baseline: 200
    gadgets from all-zeros to (110)^200."""
    rng = random.Random(f"navigate.{seed}")
    files = {}

    def formula(key, n, clauses, dual):
        name = f"{key}-{n}-{'dual' if dual else 'primal'}"
        if name not in files:
            text, _ = path5_formula(n, clauses, dual)
            (outdir / f"{name}.cnfs").write_text(text)
            files[name] = f"{name}.cnfs"
        return name

    windows = {(w["n"], w["i"]): w for w in expected["windows"]}
    frozen = {}
    for n in FROZEN_SIZES:
        _, cnf = path5_formula(n, window_clauses(n, 1), False)
        sols = cnf.local_solutions()
        frozen[n] = [(s, t) for s in sols for t in sols
                     if s != t and cnf.explicit_distance(s, t, sols) is None]

    out = []
    for r in range(rounds):
        cur = []

        def add(key, n, clauses, dual, s, t, expect, family):
            mask = (1 << n) - 1
            if dual:
                s, t = s ^ mask, t ^ mask
            cur.append({
                "formula": formula(key, n, clauses, dual),
                "s": bits(s, n), "t": bits(t, n), "expect": expect,
                "tag": {"family": family + ("-dual" if dual else ""), "n": n,
                        "m": len(clauses), "arity": 3},
            })

        n = FROZEN_SIZES[r % len(FROZEN_SIZES)]
        s, t = rng.choice(frozen[n])
        add("window1", n, window_clauses(n, 1), r % 2 == 1, s, t, None, "window1")
        for n, dual in zip(WINDOW_SIZES, (True, False, True)):
            w = windows[(n, rng.randrange(WINDOW_POOL))]
            add("window2", n, window_clauses(n, 2), dual,
                int(w["s"], 16), int(w["t"], 16), w["length"], "window2")
        for n, dual in GADGET_SLOTS:
            s = gadget_walk(n, 0, rng)
            t = gadget_walk(n, s, rng)
            add("gadget", n, gadget_clauses(n), dual, s, t,
                check.gadget_distance(n, s, t), "gadget")
        if r == 0:
            n = 600
            t = int("110" * (n // 3), 2)
            add("gadget", n, gadget_clauses(n), False, 0, t,
                check.gadget_distance(n, 0, t), "gadget-baseline")
        out.append(cur)
    return {"rounds": out, "files": files}


# Greedy round as (family, n), cheapest first.
GREEDY_SLOTS = (("planted2cnf", 60), ("planted2cnf", 130), ("planted2cnf", 200),
                ("chain", 60), ("chain", 100), ("chain", 100), ("chain", 100),
                ("chain", 115), ("chain", 130), ("chain", 130), ("chain", 130))


def planted_2cnf(n, m, rng):
    """Random 2-CNF over n variables keeping only clauses satisfied along
    one seeded monotone path from s to t, so t is reachable in exactly
    hamming(s, t) flips. Clause order constraints make the greedy walk
    reject many candidate flips."""
    s, t = rng.getrandbits(n), rng.getrandbits(n)
    diff = [v for v in range(1, n + 1) if (s ^ t) >> (n - v) & 1]
    rng.shuffle(diff)
    states = [s]
    for v in diff:
        states.append(states[-1] ^ (1 << (n - v)))
    full_mask = (1 << len(states)) - 1
    column = {v: sum(((a >> (n - v)) & 1) << j for j, a in enumerate(states))
              for v in range(1, n + 1)}
    lines = []
    for _ in range(200 * m):
        if len(lines) == m:
            break
        u, v = rng.sample(range(1, n + 1), 2)
        su, sv = rng.choice((1, -1)), rng.choice((1, -1))
        cu = column[u] if su > 0 else full_mask ^ column[u]
        cv = column[v] if sv > 0 else full_mask ^ column[v]
        if cu | cv == full_mask:
            lines.append(f"{su * u} {sv * v} 0")
    return f"p cnf {n} {len(lines)}\n" + "\n".join(lines) + "\n", s, t


def chain_text(n):
    return cnfs_text(n, "imp", *IMPL, [(i, i + 1) for i in range(1, n)])


def gen_greedy(seed, rounds, outdir):
    """Per round 11 solves, cheapest kinds first:
    - planted random 2-CNF read through DIMACS at n = 60, 130, 200 with
      m = n clauses;
    - reversed implication chains x_i -> x_(i+1) from 0...0 to
      0^j 1^(n-j), j seeded in 0..n/8: the greedy walk tests every lower
      variable before the one it can flip, so nearly all `evaluate`
      calls reject. Once at n = 60, three times at 100 (the median falls
      here), once at 115 and three times at 130 (the tail falls here).
    Round 0 also carries the ROADMAP baseline: the chain at n = 200 from
    0...0 to 1...1."""
    rng = random.Random(f"greedy.{seed}")
    files = {}
    out = []
    for r in range(rounds):
        cur = []

        def chain(n, j):
            name = f"chain-{n}"
            if name not in files:
                (outdir / f"{name}.cnfs").write_text(chain_text(n))
                files[name] = f"{name}.cnfs"
            family = "chain-baseline" if j == 0 and n == 200 else "chain"
            cur.append({"formula": name, "s": bits(0, n),
                        "t": bits((1 << (n - j)) - 1, n), "expect": n - j,
                        "tag": {"family": family, "n": n, "m": n - 1, "arity": 2}})

        for family, n in GREEDY_SLOTS:
            if family == "chain":
                chain(n, rng.randint(0, n // 8))
                continue
            text, s, t = planted_2cnf(n, n, rng)
            name = f"planted-{r}-{n}"
            (outdir / f"{name}.dimacs").write_text(text)
            files[name] = f"{name}.dimacs"
            cur.append({"formula": name, "s": bits(s, n), "t": bits(t, n),
                        "expect": bin(s ^ t).count("1"),
                        "tag": {"family": family, "n": n, "m": n, "arity": 2}})
        if r == 0:
            chain(200, 0)
        out.append(cur)
    return {"rounds": out, "files": files}


# --------------------------------------------------------------------- cli

# (vertices, edges): instance sizes n = V + 2E of 14, 17 and 20.
GRAPH_SIZES = ((4, 5), (5, 6), (6, 7))
GEN_RANDOM_ARGS = ["--vars", "16", "--clauses", "20"]


def random_graph(v, e, rng):
    edges = sorted(rng.sample(list(itertools.combinations(range(1, v + 1), 2)), e))
    text = f"graph {v}\n" + "".join(f"edge {a} {b}\n" for a, b in edges)
    return text, edges


def run_cli(argv):
    """satflip's CLI in this process; returns (exit code, stdout)."""
    from satflip.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def gen_cli(seed, expected, rounds, outdir):
    """Per round, twelve `python -m satflip` commands on files written by
    `satflip gen`: classify on a vertex-cover and a random instance,
    `solve --verify` on two random instances (n = 16), `solve
    --allow-oracle` and `oracle` on vertex-cover and independent-set
    instances (n = 14-20), `dot --format text` on the n = 14 vertex-cover
    instance (its explicit graph stays small, so the largest child is an
    oracle run, not a dense random instance's edge list), and
    `gen random|vc|is` themselves. `gen random` refuses some seeds with
    exit 2 ("no satisfiable draw"); such a draw stays in the stream as an
    op whose expected outcome is that refusal."""
    rng = random.Random(f"cli.{seed}")
    arity3 = expected["arity3"]
    files = {}
    cache = {}

    def write(name, text):
        path = outdir / name
        path.write_text(text)
        files[name] = name
        return str(path)

    def gen_random(gseed):
        argv = ["gen", "random", *GEN_RANDOM_ARGS, "--seed", str(gseed)]
        code, text = run_cli(argv)
        return argv, code, text

    def facts(path):
        if path not in cache:
            cnf, s, t, rels = check.parse_cnfs(Path(path).read_text())
            cache[path] = (cnf, s, t, rels)
        return cache[path]

    def rel_flags(rels):
        """Stored flags of each ternary relation of a `satflip gen` file."""
        return [(name, arity3[check.tuple_mask(tuples)])
                for name, (_, tuples) in rels.items()]

    out = []
    for r in range(rounds):
        graphs = []
        for j, (v, e) in enumerate(GRAPH_SIZES):
            gtext, edges = random_graph(v, e, rng)
            gpath = write(f"g{r}-{j}.graph", gtext)
            code, vc = run_cli(["gen", "vc", gpath])
            code2, is_ = run_cli(["gen", "is", gpath])
            if code or code2:
                raise RuntimeError(f"satflip gen vc/is failed on {gpath}")
            graphs.append({
                "graph": gpath, "edges": edges, "v": v,
                "vc": write(f"vc{r}-{j}.cnfs", vc), "vc_text": vc,
                "is": write(f"is{r}-{j}.cnfs", is_), "is_text": is_,
            })
        randoms = []
        while len(randoms) < 2:
            argv, code, text = gen_random(rng.randrange(10**6))
            if code == 0:
                randoms.append(write(f"rand{r}-{len(randoms)}.cnfs", text))
        gen_argv, gen_code, gen_text = gen_random(rng.randrange(10**6))

        cur = []

        def add(argv, expect, family, path=None):
            n = facts(path)[0].n if path else 0
            m = len(facts(path)[0].clauses) if path else 0
            cur.append({"argv": argv, "expect": expect,
                        "tag": {"family": family, "n": n, "m": m, "arity": 3}})

        def distance(path):
            cnf, s, t, _ = facts(path)
            return cnf.bfs_distance(s, t)

        def vc_length(g):
            return 2 * len(g["edges"]) + 2 * check.min_vertex_cover(g["v"], g["edges"])

        ga, gb, gc = graphs
        r1, r2 = randoms
        add(["classify", ga["vc"]],
            {"type": "lines", "lines": check.classify_lines(rel_flags(facts(ga["vc"])[3]))},
            "classify-vc", ga["vc"])
        add(["classify", r1],
            {"type": "lines", "lines": check.classify_lines(rel_flags(facts(r1)[3]))},
            "classify-random", r1)
        for p in (r1, r2):
            add(["solve", "--verify", p],
                {"type": "path", "file": p, "hard": None, "length": distance(p)},
                "solve-verify", p)
        for g, key, oracle_only in ((gb, "vc", False), (gc, "vc", True),
                                    (ga, "is", False), (gb, "is", True)):
            path = g[key]
            length = vc_length(g) if key == "vc" else distance(path)
            verdict, _ = check.expected_verdict(
                [f for _, f in rel_flags(facts(path)[3])])
            hard = {"tight-not-navigable": "TIGHT_NOT_NAVIGABLE",
                    "not-tight": "NOT_TIGHT"}[verdict]
            if oracle_only:
                add(["oracle", path],
                    {"type": "path", "file": path, "hard": None, "length": length},
                    f"oracle-{key}", path)
            else:
                add(["solve", "--allow-oracle", path],
                    {"type": "path", "file": path, "hard": hard, "length": length},
                    f"solve-oracle-{key}", path)
        states, edges = facts(ga["vc"])[0].count_states_edges()
        add(["dot", "--format", "text", ga["vc"]],
            {"type": "lines", "lines": [f"states {states}", f"edges {edges}"]},
            "dot-vc", ga["vc"])
        add(gen_argv,
            {"type": "gen", "stdout": gen_text if gen_code == 0 else None},
            "gen-random" if gen_code == 0 else "gen-random-refused")
        add(["gen", "vc", gc["graph"]], {"type": "gen", "stdout": gc["vc_text"]},
            "gen-vc")
        add(["gen", "is", ga["graph"]], {"type": "gen", "stdout": ga["is_text"]},
            "gen-is")
        out.append(cur)
    return {"rounds": out, "files": files}


ROUNDS = {"classify": 40, "navigate": 30, "greedy": 14, "cli": 11}


def generate(workload, seed, outdir: Path):
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    rounds = ROUNDS[workload]
    if workload == "classify":
        manifest = gen_classify(seed, expected, rounds)
    elif workload == "navigate":
        manifest = gen_navigate(seed, expected, rounds, outdir)
    elif workload == "greedy":
        manifest = gen_greedy(seed, rounds, outdir)
    else:
        manifest = gen_cli(seed, expected, rounds, outdir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest
