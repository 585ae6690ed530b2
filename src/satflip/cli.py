"""Command-line front end: classify, solve, oracle, gen, dot.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation,
3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import random
import sys

from .errors import ParseError, PreconditionError, TheoryError
from .flip_order import dag_to_dot, formula_flip_dag
from .formula import (
    format_assignment,
    parse_assignment,
    parse_instance,
    serialize_formula,
)
from .gen import (
    gen_independent_set_instance,
    gen_vertex_cover_instance,
    parse_graph,
    random_formula,
    random_navigable_relation,
)
from .navigate import Outcome, classify_formula, solve
from .recon import (
    DEFAULT_STATE_CAP,
    bfs_shortest,
    build_graph,
    check_cap,
    check_graph_vars,
    graph_size,
    graph_to_dot,
)
from .relation import Verdict, classify_set, parse_relation

_VERDICT_LINES = {
    Verdict.TIGHT_NOT_NAVIGABLE: "NP-COMPLETE CLASS (tight, not navigable)",
    Verdict.NOT_TIGHT: "PSPACE CLASS (not tight)",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _load_instance(args):
    phi, embedded_s, embedded_t = parse_instance(_read(args.formula))
    s = t = None
    if getattr(args, "source", None) is not None:
        s = parse_assignment(args.source, phi.num_vars)
    elif embedded_s is not None:
        s = embedded_s
    if getattr(args, "target", None) is not None:
        t = parse_assignment(args.target, phi.num_vars)
    elif embedded_t is not None:
        t = embedded_t
    return phi, s, t


def _require_endpoints(s, t):
    if s is None:
        raise ParseError("no source assignment: pass --from or embed a '# s=' comment")
    if t is None:
        raise ParseError("no target assignment: pass --to or embed a '# t=' comment")


def cmd_classify(args) -> int:
    text = _read(args.formula)
    if args.formula.endswith(".rel"):
        named = (("r1", parse_relation(text)),)
        cls = classify_set([rel for _, rel in named])
    else:
        phi = parse_instance(text)[0]
        named = phi.relations
        cls = classify_formula(phi)
    for (name, _), flags in zip(named, cls.per_relation):
        print(
            f"relation {name}:"
            f" bijunctive={_yesno(flags.bijunctive)}"
            f" horn={_yesno(flags.horn)}"
            f" dual-horn={_yesno(flags.dual_horn)}"
            f" affine={_yesno(flags.affine)}"
            f" componentwise-bijunctive={_yesno(flags.componentwise_bijunctive)}"
            f" or-free={_yesno(flags.or_free)}"
            f" nand-free={_yesno(flags.nand_free)}"
            f" horn-free={_yesno(flags.horn_free)}"
            f" dual-horn-free={_yesno(flags.dual_horn_free)}"
        )
    if cls.verdict is Verdict.NAVIGABLE:
        print(f"NAVIGABLE ({cls.kind.value})")
    else:
        print(_VERDICT_LINES[cls.verdict])
    return 0


def _make_trace(num_vars):
    def trace(level, s, t, lower_s, lower_t, eta):
        fmt = lambda flips: "{" + " ".join(f.token() for f in sorted(flips)) + "}"
        print(
            f"# level {level}: s={format_assignment(s, num_vars)}"
            f" t={format_assignment(t, num_vars)}"
            f" S'={fmt(lower_s)} T'={fmt(lower_t)} eta={eta}",
            file=sys.stderr,
        )

    return trace


def cmd_solve(args) -> int:
    phi, s, t = _load_instance(args)
    _require_endpoints(s, t)
    trace = _make_trace(phi.num_vars) if args.verbose else None
    result = solve(
        phi, s, t, allow_oracle=args.allow_oracle, cap=args.cap, trace=trace
    )
    print(result.protocol_line())
    if result.outcome is Outcome.HARD and result.oracle is not None:
        print(result.oracle.protocol_line())
    if args.verify and result.outcome is not Outcome.HARD:
        if phi.num_vars <= args.cap:
            reference = bfs_shortest(phi.compiled, s, t, cap=args.cap)
            if reference.connected != (result.outcome is Outcome.PATH) or (
                reference.connected and reference.length != result.length
            ):
                print(
                    f"verify: solver said {result.protocol_line()!r}, exact search "
                    f"said {reference.protocol_line()!r}",
                    file=sys.stderr,
                )
                return 3
    return 0


def cmd_oracle(args) -> int:
    phi, s, t = _load_instance(args)
    _require_endpoints(s, t)
    result = bfs_shortest(phi.compiled, s, t, cap=args.cap)
    print(result.protocol_line())
    return 0


def _emit_instance(phi, s, t) -> int:
    print(f"# s={format_assignment(s, phi.num_vars)}")
    print(f"# t={format_assignment(t, phi.num_vars)}")
    sys.stdout.write(serialize_formula(phi))
    return 0


def cmd_gen_vc(args) -> int:
    graph = parse_graph(_read(args.graph))
    return _emit_instance(*gen_vertex_cover_instance(graph))


def cmd_gen_is(args) -> int:
    graph = parse_graph(_read(args.graph))
    return _emit_instance(*gen_independent_set_instance(graph))


def cmd_gen_random(args) -> int:
    rng = random.Random(args.seed)
    relations = [
        random_navigable_relation(args.arity, rng.randrange(2**32))
        for _ in range(args.relations)
    ]
    phi, s, t = random_formula(
        relations, args.vars, args.clauses, rng.randrange(2**32)
    )
    return _emit_instance(phi, s, t)


def cmd_dot(args) -> int:
    phi, s, _ = _load_instance(args)
    check_cap(args.cap)
    if args.what == "recon":
        # before phi.compiled, whose size grows with the variable count
        check_graph_vars(phi.num_vars, args.cap)
        if args.format == "text":
            states, edges = graph_size(phi.compiled, cap=args.cap)
            print(f"states {states}")
            print(f"edges {edges}")
        else:
            sys.stdout.write(graph_to_dot(build_graph(phi.compiled, cap=args.cap)))
        return 0
    if s is None:
        raise ParseError("no assignment: pass --from or embed a '# s=' comment")
    route = phi.route
    dag = formula_flip_dag(route.compiled, s ^ route.mask)
    if args.format == "text":
        print(f"nodes {len(dag.nodes)}")
        print(f"edges {len(dag.edges)}")
    else:
        sys.stdout.write(dag_to_dot(dag, up=not route.mask))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="satflip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[], help="report relation classes and the verdict")
    p.add_argument("formula", help=".cnfs formula file, .rel relation file, or -")
    p.set_defaults(func=cmd_classify)

    def endpoint_flags(p):
        p.add_argument("--from", dest="source", metavar="BITS")
        p.add_argument("--to", dest="target", metavar="BITS")
        p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                       help="exact-search state cap (number of variables)")

    p = sub.add_parser("solve", help="shortest flip sequence via the class dispatcher")
    p.add_argument("formula")
    endpoint_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the exact search when within cap")
    p.add_argument("--allow-oracle", action="store_true",
                   help="fall back to exact search on hard instances")
    p.add_argument("--verbose", action="store_true",
                   help="stream per-level solver state to stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact BFS shortest flip sequence")
    p.add_argument("formula")
    endpoint_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit instances on stdout")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("vc", help="vertex-cover reduction instance")
    g.add_argument("graph", help="graph file or -")
    g.set_defaults(func=cmd_gen_vc)
    g = gensub.add_parser("is", help="independent-set reduction instance")
    g.add_argument("graph", help="graph file or -")
    g.set_defaults(func=cmd_gen_is)
    g = gensub.add_parser("random", help="seeded random solvable instance")
    g.add_argument("--vars", type=int, default=8)
    g.add_argument("--clauses", type=int, default=5)
    g.add_argument("--arity", type=int, default=3)
    g.add_argument("--relations", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("dot", help="export graphs in DOT")
    p.add_argument("formula")
    p.add_argument("--what", choices=("recon", "fliporder"), default="recon")
    p.add_argument("--from", dest="source", metavar="BITS")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"satflip: error: {exc}", file=sys.stderr)
        return 1
    except TheoryError as exc:
        print(f"satflip: internal error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"satflip: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
