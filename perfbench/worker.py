"""The measured process: one fresh interpreter per use.

    python3 perfbench/worker.py RUNDIR --mode import|setup|measure|trace
                                [--seconds S | --rounds R] [--in-process]

`import` times `import satflip`; `setup` times it plus parsing every
input text of the workload into satflip objects. Both print the seconds
at reference speed (speed.py). `measure` and
`trace` parse the inputs, then run whole rounds of operations in a
closed loop (one client; the next operation starts when the previous one
ends) until S seconds have passed, or for exactly R rounds. Only the
call into satflip is timed; each output is then checked by check.py,
and the speed kernel (speed.py) runs between operations.
`trace` does the same with spans and counters installed (tracing.py).

Each run is a fresh interpreter because satflip's lru_caches (on the
relation predicates, `_effective` and `relation_partial_order`) are
keyed by relation value: equal relations rebuilt inside one process hit
them. Inside a run the caches fill as a long-lived process's would; the
classify stream repeats a quarter of its sets on purpose. A CLI user
pays the cold cost on every invocation, which the cli workload measures.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# Keep going past the time limit until at least this many operations ran,
# so the tail percentile always has ten samples beyond it.
MIN_OPS = 40
CLI_TIMEOUT_S = 120


# ----------------------------------------------------------------- loading


def load(manifest, rundir):
    """Parse every input text with satflip; returns the per-op objects."""
    import satflip

    workload = manifest["workload"]
    if workload == "classify":
        return [[[satflip.parse_relation(r["text"]) for r in op["rels"]]
                 for op in rnd] for rnd in manifest["rounds"]]
    if workload == "cli":
        for name in manifest["files"]:
            text = (rundir / name).read_text()
            if name.endswith(".graph"):
                satflip.parse_graph(text)
            else:
                satflip.parse_instance(text)
        return [[None] * len(rnd) for rnd in manifest["rounds"]]
    formulas = {}
    for key, name in manifest["files"].items():
        text = (rundir / name).read_text()
        if name.endswith(".dimacs"):
            formulas[key] = satflip.parse_dimacs_2cnf(text)
        else:
            formulas[key] = satflip.parse_instance(text)[0]
    out = []
    for rnd in manifest["rounds"]:
        cur = []
        for op in rnd:
            phi = formulas[op["formula"]]
            cur.append((phi,
                        satflip.parse_assignment(op["s"], phi.num_vars),
                        satflip.parse_assignment(op["t"], phi.num_vars)))
        out.append(cur)
    return out


# --------------------------------------------------------------- operations


def flag_string(flags):
    return "".join(
        "1" if v else "0"
        for v in (flags.bijunctive, flags.horn, flags.dual_horn, flags.affine,
                  flags.componentwise_bijunctive, flags.or_free, flags.nand_free,
                  flags.horn_free, flags.dual_horn_free)
    )


class Runner:
    """Runs and checks one operation at a time."""

    def __init__(self, manifest, rundir, tracer=None, in_process=False):
        import check

        self.check = check
        self.workload = manifest["workload"]
        self.rundir = rundir
        self.tracer = tracer
        self.in_process_cli = in_process or tracer is not None
        self.max_child_rss_kb = 0
        self.cnfs = {}
        if self.workload in ("navigate", "greedy"):
            for key, name in manifest["files"].items():
                text = (rundir / name).read_text()
                self.cnfs[key] = (check.parse_dimacs(text) if name.endswith(".dimacs")
                                  else check.parse_cnfs(text)[0])
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cnf_of_file(self, path):
        if path not in self.cnfs:
            self.cnfs[path] = self.check.parse_cnfs(Path(path).read_text())
        return self.cnfs[path]

    def run(self, op, obj):
        """Time one operation, then check its output; returns (seconds,
        error message or None). Each op_* method returns its time and a
        callable that checks the output and returns an error or None."""
        dt, verify = getattr(self, "op_" + self.workload)(op, obj)
        try:
            return dt, verify()
        except self.check.CheckError as exc:
            return dt, str(exc)

    def op_classify(self, op, rels):
        from satflip import classify_set

        t0 = perf_counter()
        cls = classify_set(rels)
        dt = perf_counter() - t0

        def verify():
            want = [r["flags"] for r in op["rels"]]
            got = [flag_string(f) for f in cls.per_relation]
            if got != want:
                return f"flags {got} != expected {want}"
            verdict, kind = self.check.expected_verdict(want)
            got_kind = cls.kind.value if cls.kind else None
            if (cls.verdict.value, got_kind) != (verdict, kind):
                return f"verdict {cls.verdict.value}/{got_kind} != {verdict}/{kind}"
            return None

        return dt, verify

    def op_solve(self, op, obj):
        from satflip import solve

        phi, s, t = obj
        t0 = perf_counter()
        result = solve(phi, s, t)
        dt = perf_counter() - t0

        def verify():
            line = result.protocol_line()
            outcome = line.split()[0]
            flips = self.check.parse_path_line(line) if outcome == "PATH" else None
            self.check.check_outcome(self.cnfs[op["formula"]], s, t, op["expect"],
                                     outcome, flips)

        return dt, verify

    op_navigate = op_greedy = op_solve

    def op_cli(self, op, _):
        if self.in_process_cli:
            dt, code, out, err = self.in_process(op["argv"])
        else:
            dt, code, out, err = self.spawn(op["argv"])
        return dt, lambda: self.check_cli(op["expect"], code, out, err)

    def spawn(self, argv):
        """`python -m satflip ARGV` as a child; its rusage gives its peak RSS."""
        out_path = self.rundir / "cli.stdout"
        err_path = self.rundir / "cli.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "satflip", *argv],
                                    stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return dt, proc.returncode, out_path.read_text(), err_path.read_text()

    def in_process(self, argv):
        from satflip.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            if self.tracer is None:
                code = main(argv)
            else:
                code = self.tracer.call(f"cli.main.{argv[0]}", main, argv)
            dt = perf_counter() - t0
        return dt, code, out.getvalue(), err.getvalue()

    def check_cli(self, expect, code, out, err):
        check = self.check
        if "Traceback" in err:
            return "traceback on stderr"
        lines = out.splitlines()
        kind = expect["type"]
        if kind == "gen":
            if expect["stdout"] is None:
                if code == 2 and not out and "no satisfiable draw" in err:
                    return None
                return f"expected the documented refusal, got exit {code}"
            if code != 0 or out != expect["stdout"]:
                return f"gen output differs (exit {code})"
            cnf, s, t, _ = check.parse_cnfs(out)
            if not (cnf.satisfies(s) and cnf.satisfies(t)):
                return "generated endpoints do not satisfy the formula"
            return None
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        if kind == "lines":
            return None if lines == expect["lines"] else f"output {lines!r}"
        want_lines = 2 if expect["hard"] else 1
        if len(lines) != want_lines:
            return f"expected {want_lines} lines, got {lines!r}"
        if expect["hard"] and lines[0] != f"HARD {expect['hard']}":
            return f"expected HARD {expect['hard']}, got {lines[0]!r}"
        cnf, s, t, _ = self.cnf_of_file(expect["file"])
        outcome = lines[-1].split()[0]
        flips = check.parse_path_line(lines[-1]) if outcome == "PATH" else None
        check.check_outcome(cnf, s, t, expect["length"], outcome, flips)
        return None


# ------------------------------------------------------------------ tracing

FREE = ("is_or_free", "is_nand_free", "is_horn_free", "is_dual_horn_free")
CLOSURE = ("is_bijunctive", "is_horn", "is_dual_horn", "is_affine")
TIMED = {
    "satflip.relation": ("classify_set", "is_componentwise_bijunctive") + FREE + CLOSURE,
    "satflip.formula": ("evaluate", "first_violated_clause", "parse_instance"),
    "satflip.flip_order": ("formula_flip_dag", "relation_partial_order",
                           "smallest_lower_set", "order_respecting_sequence",
                           "apply_sequence"),
    "satflip.navigate": ("shortest_path_navigable", "dualize", "classify_formula",
                         "shortest_path_cwb", "solve"),
    "satflip.recon": ("sat_mask", "bfs_shortest"),
}
COUNTED = {"satflip.relation": ("restrict",),
           "satflip.formula": ("induced", "effective_clause")}


def install_tracer():
    import satflip
    import satflip.cli  # noqa: F401  (binds names that must be wrapped too)
    from satflip import relation
    from tracing import Tracer, install

    tracer = Tracer()
    caches = [getattr(relation, name) for name in
              ("is_componentwise_bijunctive",) + FREE + CLOSURE]
    posts = {
        "formula_flip_dag": lambda dag: (tracer.add("flip_order.dag_nodes", len(dag.nodes)),
                                         tracer.add("flip_order.dag_edges", len(dag.edges))),
        "sat_mask": lambda mask: tracer.add("recon.states", int(mask.sum())),
        "solve": lambda res: (tracer.add("navigate.levels", res.stats.levels),
                              tracer.add("navigate.dag_builds", res.stats.dag_builds),
                              tracer.add("navigate.flips", len(res.flips or ()))),
    }
    for module, names in TIMED.items():
        layer = module.split(".")[1]
        for name in names:
            fn = getattr(sys.modules[module], name)
            wrapper = tracer.timed(f"{layer}.{name}", fn, posts.get(name))
            if name == "shortest_path_cwb":
                wrapper = _greedy_counter(tracer, wrapper)
            install(module, name, wrapper)
    for module, names in COUNTED.items():
        layer = module.split(".")[1]
        for name in names:
            install(module, name,
                    tracer.counted(f"{layer}.{name}.calls", getattr(sys.modules[module], name)))
    return tracer, caches


def _greedy_counter(tracer, wrapper):
    """Count flips and `evaluate` calls inside the greedy walk."""
    def counted(*args, **kwargs):
        before = tracer.ncalls("formula.evaluate")
        result = wrapper(*args, **kwargs)
        tracer.add("navigate.cwb_evaluate_calls", tracer.ncalls("formula.evaluate") - before)
        tracer.add("navigate.cwb_flips", len(result.flips or ()))
        return result
    return counted


def snapshot(tracer, caches):
    snap = dict(tracer.counts)
    for name in ("formula.evaluate", "flip_order.formula_flip_dag"):
        snap[name + ".calls"] = tracer.ncalls(name)
    infos = [c.cache_info() for c in caches]
    snap["cache_hits"] = sum(i.hits for i in infos)
    snap["cache_misses"] = sum(i.misses for i in infos)
    return snap


def coverage_pass(runner):
    """One tiny input per layer, so that every per-layer metric is
    measured on every workload (a layer the workload never reaches would
    otherwise read 0 on every run). Runs after the workload's rounds, so
    it cannot warm the caches they use."""
    import satflip
    from satflip.cli import main

    path5 = satflip.Relation.from_bitstrings(["000", "001", "101", "111", "110"])
    satflip.classify_set([path5])
    gadgets = satflip.Formula(6, (("p", path5),),
                              (satflip.Clause("p", (1, 2, 3)), satflip.Clause("p", (4, 5, 6))))
    satflip.solve(gadgets, 0, 0b110110)
    satflip.solve(*satflip.dualize(gadgets, 0, 0b110110))
    impl = satflip.Relation.from_bitstrings(["00", "01", "11"])
    chain = satflip.Formula(4, (("i", impl),),
                            tuple(satflip.Clause("i", (v, v + 1)) for v in range(1, 4)))
    satflip.solve(chain, 0, 0b1111)
    graph = runner.rundir / "coverage.graph"
    graph.write_text("graph 3\nedge 1 2\nedge 2 3\n")
    vc = runner.rundir / "coverage.cnfs"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(["gen", "vc", str(graph)])
    vc.write_text(out.getvalue())
    for argv in (["classify", str(vc)], ["solve", "--allow-oracle", str(vc)],
                 ["oracle", str(vc)], ["dot", "--format", "text", str(vc)],
                 ["gen", "is", str(graph)]):
        runner.in_process(argv)


def per_layer(tracer, round0, before, after, nops):
    """The per-layer metrics. Times are self seconds per operation of the
    workload; counts and ratios cover round 0 plus the coverage pass, so
    they repeat exactly for a given seed."""
    def count(key):
        return round0.get(key, 0) + after.get(key, 0) - before.get(key, 0)

    def per_op(*names):
        return sum(tracer.self_seconds(n) for n in names) / nops

    hits, misses = count("cache_hits"), count("cache_misses")
    evals = count("navigate.cwb_evaluate_calls")
    m = {
        "relation.classify_set.s": per_op("relation.classify_set"),
        "relation.componentwise_bijunctive.s": per_op("relation.is_componentwise_bijunctive"),
        "relation.free_predicates.s": per_op(*(f"relation.{n}" for n in FREE)),
        "relation.closure_predicates.s": per_op(*(f"relation.{n}" for n in CLOSURE)),
        "relation.restrict.calls": count("relation.restrict.calls"),
        "relation.predicate_cache.hit_ratio": hits / max(hits + misses, 1),
        "formula.evaluate.calls": count("formula.evaluate.calls"),
        "formula.evaluate.s": per_op("formula.evaluate"),
        "formula.first_violated_clause.s": per_op("formula.first_violated_clause"),
        "formula.induced.calls": count("formula.induced.calls"),
        "formula.effective_clause.calls": count("formula.effective_clause.calls"),
        "formula.parse_instance.s": per_op("formula.parse_instance"),
        "flip_order.formula_flip_dag.s": per_op("flip_order.formula_flip_dag"),
        "flip_order.formula_flip_dag.calls": count("flip_order.formula_flip_dag.calls"),
        "flip_order.dag_nodes": count("flip_order.dag_nodes"),
        "flip_order.dag_edges": count("flip_order.dag_edges"),
        "flip_order.relation_partial_order.s": per_op("flip_order.relation_partial_order"),
        "flip_order.smallest_lower_set.s": per_op("flip_order.smallest_lower_set"),
        "flip_order.order_respecting_sequence.s": per_op("flip_order.order_respecting_sequence"),
        "flip_order.apply_sequence.s": per_op("flip_order.apply_sequence"),
        "navigate.shortest_path_navigable.s": per_op("navigate.shortest_path_navigable"),
        "navigate.dualize.s": per_op("navigate.dualize"),
        "navigate.classify_formula.s": per_op("navigate.classify_formula"),
        "navigate.shortest_path_cwb.s": per_op("navigate.shortest_path_cwb"),
        "navigate.greedy_accept_ratio": count("navigate.cwb_flips") / max(evals, 1),
        "navigate.levels": count("navigate.levels"),
        "navigate.dag_builds": count("navigate.dag_builds"),
        "navigate.flips": count("navigate.flips"),
        "recon.sat_mask.s": per_op("recon.sat_mask"),
        "recon.bfs_shortest.s": per_op("recon.bfs_shortest"),
        "recon.states": count("recon.states"),
    }
    for cmd in ("classify", "solve", "oracle", "gen", "dot"):
        m[f"cli.main.{cmd}.s"] = per_op(f"cli.main.{cmd}")
    return m


# --------------------------------------------------------------------- main


def run_rounds(runner, manifest, objs, seconds, rounds, on_round=None):
    """Whole rounds until `seconds` have passed (or exactly `rounds`).
    Each record is [round, family, n, m, arity, seconds, error, scale],
    where scale converts the raw seconds to reference speed (speed.py)."""
    records = []
    start = perf_counter()
    done = 0
    kernel_before = speed.kernel_seconds()
    for r, (ops, rnd_objs) in enumerate(zip(manifest["rounds"], objs)):
        for op, obj in zip(ops, rnd_objs):
            try:
                dt, err = runner.run(op, obj)
            except Exception as exc:  # a failed op is counted, and the run goes on
                dt, err = float("nan"), f"{type(exc).__name__}: {exc}"
            kernel_after = speed.kernel_seconds()
            tag = op["tag"]
            records.append([r, tag["family"], tag.get("n", 0), tag.get("m", 0),
                            tag.get("arity", 0), dt, err,
                            speed.scale(kernel_before, kernel_after)])
            kernel_before = kernel_after
        done = r + 1
        if on_round is not None:
            on_round(r)
        if rounds is not None:
            if done >= rounds:
                break
        elif perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            break
    return records, done, perf_counter() - start


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("rundir", type=Path)
    parser.add_argument("--mode", choices=("import", "setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--in-process", action="store_true",
                        help="cli workload: call satflip.cli.main instead of a child")
    args = parser.parse_args()
    manifest = json.loads((args.rundir / "manifest.json").read_text())

    if args.mode in ("import", "setup"):
        before = speed.kernel_seconds()
        t0 = perf_counter()
        import satflip  # noqa: F401
        if args.mode == "setup":
            load(manifest, args.rundir)
        dt = perf_counter() - t0
        print(json.dumps({"seconds": dt * speed.scale(before, speed.kernel_seconds())}))
        return 0

    tracer = caches = None
    if args.mode == "trace":
        tracer, caches = install_tracer()
    objs = load(manifest, args.rundir)
    runner = Runner(manifest, args.rundir, tracer, args.in_process)
    result = {}
    if tracer is None:
        records, rounds, wall = run_rounds(runner, manifest, objs, args.seconds, args.rounds)
    else:
        round0 = {}

        def on_round(r):
            if r == 0:
                round0.update(snapshot(tracer, caches))

        records, rounds, wall = run_rounds(runner, manifest, objs, args.seconds,
                                           args.rounds, on_round)
        before = snapshot(tracer, caches)
        tracer.call("coverage", coverage_pass, runner)
        after = snapshot(tracer, caches)
        result["per_layer"] = per_layer(tracer, round0, before, after, len(records))
        result["spans"] = len(tracer.span_start)
        result["spans_dropped"] = tracer.dropped
        tracer.dump(args.rundir / "spans.npz")
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if runner.in_process_cli
              or manifest["workload"] != "cli" else runner.max_child_rss_kb)
    result.update({
        "records": records,
        "rounds": rounds,
        "rounds_available": len(manifest["rounds"]),
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024,
    })
    (args.rundir / f"worker-{args.mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
