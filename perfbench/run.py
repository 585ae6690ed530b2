"""Seeded benchmark of satflip.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it builds nothing (satflip is pure
Python and is imported from ./src). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones.
Detailed output (every operation, medians per input tag, the tail
percentile and its sample count, the ROADMAP baseline comparison, and
the spans of a traced run) goes to .bench_build/perfbench/<run>/.

Workloads (inputs built by inputs.py from the seed; see it for the
families and why each was chosen):
  classify  classify_set over relation sets of arity 2-6; restriction
            enumeration in the relation layer does nearly all the work.
  navigate  solve on NAND-free + dual-Horn-free PATH5 formulas, n = 300-600,
            half of them complemented so the dualize route runs too.
  greedy    solve on componentwise bijunctive formulas, n = 60-200; the
            greedy walk spends its time in formula.evaluate.
  cli       one `python -m satflip` process at a time on files written by
            `satflip gen`; the only workload where recon and cli run.

Every measured run is a fresh interpreter (see worker.py for why). This
process generates the inputs and never runs an operation itself.
Reported times are at a fixed reference interpreter speed (speed.py
says why and how); the detailed output keeps the raw times as well.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "navigate", "greedy", "cli")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# ROADMAP baseline points that the size curves overlap: (family, n or
# arity) -> seconds measured when the ROADMAP was written.
BASELINES = {
    ("chain-baseline", 200): (1.8, "reversed implication chain, n = 200"),
    ("gadget-baseline", 600): (0.46, "PATH5 gadget chain 0...0 -> (110)^200, n = 600"),
    ("STAIR.6", 6): (0.8, "staircase relation, arity 6 (0.6-1.0 s)"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def scaled(r):
    """A record's time at reference speed (speed.py)."""
    return r[5] * r[7]


def child(args, timeout=CHILD_TIMEOUT_S) -> str:
    """Run a Python child to completion and return its stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def timed_child(args) -> float:
    """A worker's self-reported seconds (modes import and setup)."""
    return json.loads(child(args))["seconds"]


def tail(values):
    """Value at the highest percentile with at least 10 samples beyond it,
    with that percentile and the sample count."""
    ordered = sorted(values)
    k = max(len(ordered) - 10, 1)  # 1-based rank of the reported sample
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered)


def by_tag(records, time=scaled):
    """Operation times grouped by their (family, n, m, arity) tag."""
    groups = {}
    for r in records:
        if not math.isnan(r[5]):
            groups.setdefault(tuple(r[1:5]), []).append(time(r))
    return groups


def size_curves(records):
    """Median seconds per tag, at reference speed and raw."""
    raw = by_tag(records, time=lambda r: r[5])
    return [{"family": f, "n": n, "m": m, "arity": a, "count": len(v),
             "median_s": statistics.median(v),
             "median_raw_s": statistics.median(raw[(f, n, m, a)])}
            for (f, n, m, a), v in sorted(by_tag(records).items())]


def baseline_notes(curves):
    notes = []
    for row in curves:
        for key in ((row["family"], row["n"]), (row["family"], row["arity"])):
            if key in BASELINES:
                base, label = BASELINES[key]
                ratio = row["median_raw_s"] / base
                notes.append({"point": label, "baseline_s": base,
                              "median_raw_s": row["median_raw_s"], "ratio": ratio,
                              "disagrees_2x": not 0.5 <= ratio <= 2.0})
    return notes


def mix_seconds(records):
    """Time the run's operations take when each input kind (tag) costs
    its median: the count of each tag times its median, summed. Over
    whole rounds the mix of tags is fixed, and a burst of interference
    from other processes on the machine moves a median far less than a
    sum."""
    return math.fsum(len(v) * statistics.median(v) for v in by_tag(records).values())


def end_to_end(work, setup_s):
    times = [scaled(r) for r in work["records"] if not math.isnan(r[5])]
    failed = sum(1 for r in work["records"] if r[6] is not None)
    attempted = len(work["records"])
    tail_s, pct, count = tail(times)
    metrics = {
        "ops_per_s": (len(times) / mix_seconds(work["records"]), "op/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (work["peak_rss_mb"], "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
    }
    detail = {"tail_percentile": pct, "tail_samples": count}
    return metrics, attempted, failed, detail


def per_layer_unit(name):
    """Self times are seconds per operation of the workload."""
    if name.endswith(".s"):
        return "s/op"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "satflip" / "__init__.py").is_file():
        return fail(f"no satflip sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import inputs  # imports satflip lazily, inside the generators

    rundir = ROOT / ".bench_build" / "perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    inputs.generate(args.workload, args.seed, rundir)

    worker = str(HERE / "worker.py")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setups = [timed_child([worker, str(rundir), "--mode", "setup"])
                  for _ in range(SETUP_REPEATS)]
        child([worker, str(rundir), "--mode", "measure", "--seconds", str(args.seconds)])
        work = json.loads((rundir / "worker-measure.json").read_text())
        metrics, attempted, failed, extra = end_to_end(work, statistics.median(setups))
        detail.update(extra, setup_samples_s=setups)
    else:
        child([worker, str(rundir), "--mode", "trace", "--seconds", str(args.seconds)])
        work = json.loads((rundir / "worker-trace.json").read_text())
        # The untraced reference runs the same rounds the same way (for cli,
        # in-process too), so the ratio is the cost of tracing alone.
        child([worker, str(rundir), "--mode", "measure", "--rounds", str(work["rounds"]),
               "--in-process"])
        plain = json.loads((rundir / "worker-measure.json").read_text())
        traced_s = math.fsum(scaled(r) for r in work["records"] if not math.isnan(r[5]))
        plain_s = math.fsum(scaled(r) for r in plain["records"] if not math.isnan(r[5]))
        imports = [timed_child([worker, str(rundir), "--mode", "import"])
                   for _ in range(SETUP_REPEATS)]
        run_scale = statistics.median(r[7] for r in work["records"])
        layers = {name: value * run_scale if name.endswith(".s") else value
                  for name, value in work["per_layer"].items()}
        layers["cli.import_s"] = statistics.median(imports)
        layers["trace_overhead_ratio"] = traced_s / plain_s
        metrics = {name: (value, per_layer_unit(name)) for name, value in layers.items()}
        attempted = len(work["records"])
        failed = sum(1 for r in work["records"] if r[6] is not None)
        detail.update(spans=work["spans"], spans_dropped=work["spans_dropped"],
                      untraced_s=plain_s, traced_s=traced_s)

    curves = size_curves(work["records"])
    detail.update(
        rounds=work["rounds"], rounds_available=work["rounds_available"],
        wall_s=work["wall_s"], size_curves=curves, baselines=baseline_notes(curves),
        failures=[r for r in work["records"] if r[6] is not None],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (rundir / "result.json").write_text(json.dumps(detail, indent=1))

    for note in detail["baselines"]:
        print(f"baseline {note['point']}: {note['median_raw_s']:.3f} s now, "
              f"{note['baseline_s']} s in ROADMAP")
    if args.trace == 0:
        print(f"tail: p{detail['tail_percentile']:.1f} of {detail['tail_samples']} samples")
    for rec in detail["failures"][:20]:
        print(f"FAILED round {rec[0]} {rec[1]} n={rec[2]}: {rec[6]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
