"""Command-line front end: classify, solve, oracle, gen, dot.

Exit codes: 0 success, 1 usage or parse error, 2 precondition violation,
3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import re
import sys

from .bits import zeros
from .errors import ParseError, PreconditionError, TheoryError, read_decimal
from .formula import (
    classify_formula,
    format_assignment,
    parse_assignment,
    parse_instance,
    serialize_formula,
)
from .relation import Verdict, classify_set, parse_relation


def _lazy(name: str):
    """The package's module `name`, bound in `sys.modules` and on the
    package as an import binds it, but run only when a command first
    reads one of its attributes (importlib's LazyLoader), so a command
    compiles only the modules it uses. A module imported already is
    returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


flip_order = _lazy("flip_order")
gen = _lazy("gen")
navigate = _lazy("navigate")
recon = _lazy("recon")

_VERDICT_LINES = {
    Verdict.TIGHT_NOT_NAVIGABLE: "NP-COMPLETE CLASS (tight, not navigable)",
    Verdict.NOT_TIGHT: "PSPACE CLASS (not tight)",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _decimal(token: str) -> int:
    """An integer flag's value, read by the token rule of the input files
    (:func:`read_decimal`); argparse reports a bad token as a usage error."""
    try:
        return read_decimal(token, f"invalid int value: {token!r}")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read(path: str) -> str:
    """The file's text, or stdin's for `-`, decoded as strict UTF-8 from
    its bytes, so both report the same errors."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _load_instance(args, text: str):
    phi, embedded_s, embedded_t = parse_instance(text)
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


def _cap(args) -> int:
    """The --cap value or the default cap, checked before any file is read."""
    cap = recon.DEFAULT_STATE_CAP if args.cap is None else args.cap
    recon.check_cap(cap)
    return cap


# The body of one line: everything up to its \r or \n.
_LINE_BODY = re.compile(r"[^\r\n]*")


def _first_line(text: str) -> str:
    """The text's first content line, as :func:`content_lines` reads it
    with `#` comments skipped, or "". Lines are read one at a time, up to
    that one, so the rest of the text is never split. A line ends at
    ``\n``, ``\r\n`` or ``\r``; the ``\n`` of ``\r\n`` is taken as
    the end of one more blank line, which is skipped."""
    pos = 0
    while pos <= len(text):
        end = _LINE_BODY.match(text, pos).end()
        line = text[pos:end].strip()
        if line and not line.startswith("#"):
            return line
        pos = end + 1
    return ""


def _search_gate(text: str, cap: int, use: str) -> None:
    """The exact search's gate (:func:`recon.check_search`) on a .cnfs
    text, before anything else of it is parsed: when its first content
    line is a well-formed `vars N`, a count above the cap is refused
    there. Every other text is parsed as before, and its own errors
    decide. A text that parses starts with that line, so the gate reads
    the count of every formula the exact search gets."""
    parts = _first_line(text).split()
    if len(parts) == 2 and parts[0] == "vars":
        try:
            num_vars = read_decimal(parts[1], "")
        except ParseError:
            return
        recon.check_search(num_vars, cap, use)


def _require_endpoints(s, t):
    if s is None:
        raise ParseError("no source assignment: pass --from or embed a '# s=' comment")
    if t is None:
        raise ParseError("no target assignment: pass --to or embed a '# t=' comment")


def cmd_classify(args) -> int:
    text = _read(args.formula)
    if _first_line(text).split()[:1] == ["arity"]:  # a .rel relation, whatever the file's name
        named = (("r1", parse_relation(text)),)
        cls = classify_set([rel for _, rel in named])
    else:
        phi = parse_instance(text)[0]
        named = phi.relations
        cls = classify_formula(phi)
    for (name, _), flags in zip(named, cls.per_relation):
        print(f"relation {name}:", *(
            f"{field.replace('_', '-')}={_yesno(flag)}"
            for field, flag in zip(flags._fields, flags)
        ))
    if cls.verdict is Verdict.NAVIGABLE:
        print(f"NAVIGABLE ({cls.kind.value})")
    else:
        print(_VERDICT_LINES[cls.verdict])
    return 0


def _print_levels(phi, s, t, stats) -> None:
    """`--verbose`: one stderr line per level of the order-based solver,
    read from `stats.lower_sets`. Each level's pair is rebuilt by xor
    from the formula's own endpoints, and `eta` is that pair's zero
    count on the solver's form (``phi.route.compiled``). The raised
    variables are spelled by `Flip.token`, lowering on the complement
    route, as `dot --what fliporder` spells its nodes."""
    n, mask = phi.num_vars, phi.route.mask
    fmt = lambda vs: "{" + " ".join(navigate.Flip.token((v, not mask)) for v in vs) + "}"
    for level, sides in enumerate(stats.lower_sets, 1):
        lower_s, lower_t = map(sorted, sides)
        eta = zeros(s ^ mask, n) + zeros(t ^ mask, n)
        print(
            f"# level {level}: s={format_assignment(s, n)}"
            f" t={format_assignment(t, n)}"
            f" S'={fmt(lower_s)} T'={fmt(lower_t)} eta={eta}",
            file=sys.stderr,
        )
        s ^= sum(1 << n - v for v in lower_s)
        t ^= sum(1 << n - v for v in lower_t)


def cmd_solve(args) -> int:
    cap = _cap(args)
    phi, s, t = _load_instance(args, _read(args.formula))
    _require_endpoints(s, t)
    result = navigate.solve(phi, s, t)
    if args.verbose:
        _print_levels(phi, s, t, result.stats)
    print(result.protocol_line())
    if result.outcome is navigate.Outcome.HARD:
        if args.allow_oracle and phi.num_vars <= cap:
            print(recon.bfs_shortest(phi.compiled, s, t, cap=cap).protocol_line())
    elif args.verify:
        if phi.num_vars > cap:
            print(f"verify: skipped, n = {phi.num_vars} is above --cap {cap}",
                  file=sys.stderr)
        else:
            reference = recon.bfs_shortest(phi.compiled, s, t, cap=cap)
            if (reference.outcome, reference.length) != (result.outcome, result.length):
                print(
                    f"verify: solver said {result.protocol_line()!r}, exact search "
                    f"said {reference.protocol_line()!r}",
                    file=sys.stderr,
                )
                return 3
    return 0


def cmd_oracle(args) -> int:
    cap = _cap(args)
    text = _read(args.formula)
    _search_gate(text, cap, "oracle")  # before the parse and phi.compiled
    phi, s, t = _load_instance(args, text)
    _require_endpoints(s, t)
    result = recon.bfs_shortest(phi.compiled, s, t, cap=cap)
    print(result.protocol_line())
    return 0


def _emit_instance(phi, s, t) -> int:
    print(f"# s={format_assignment(s, phi.num_vars)}")
    print(f"# t={format_assignment(t, phi.num_vars)}")
    sys.stdout.write(serialize_formula(phi))
    return 0


def cmd_gen_reduction(args) -> int:
    graph = gen.parse_graph(_read(args.graph))
    return _emit_instance(*getattr(gen, args.reduction)(graph))


def cmd_gen_random(args) -> int:
    for flag, count in (("--clauses", args.clauses), ("--relations", args.relations)):
        if count > gen.MAX_RANDOM_COUNT:
            raise PreconditionError(f"{flag} must be at most {gen.MAX_RANDOM_COUNT}, got {count}")
    rng = random.Random(args.seed)
    relations = [
        gen.random_navigable_relation(args.arity, rng.randrange(2**32))
        for _ in range(args.relations)
    ]
    phi, s, t = gen.random_formula(
        relations, args.vars, args.clauses, rng.randrange(2**32)
    )
    return _emit_instance(phi, s, t)


def cmd_dot(args) -> int:
    cap = _cap(args)
    text = _read(args.formula)
    if args.what == "recon":
        # before the parse and phi.compiled, whose sizes grow with the file
        _search_gate(text, cap, "explicit-graph")
    phi, s, _ = _load_instance(args, text)
    if args.what == "recon":
        if args.format == "text":
            states, edges = recon.graph_size(phi.compiled, cap=cap)
            print(f"states {states}")
            print(f"edges {edges}")
        else:
            sys.stdout.write(recon.graph_to_dot(recon.build_graph(phi.compiled, cap=cap)))
        return 0
    if s is None:
        raise ParseError("no assignment: pass --from or embed a '# s=' comment")
    route = phi.route
    dag = flip_order.formula_flip_dag(route.compiled, s ^ route.mask)
    if args.format == "text":
        print(f"nodes {len(dag.nodes)}")
        print(f"edges {len(dag.edges)}")
    else:
        sys.stdout.write(flip_order.dag_to_dot(dag, up=not route.mask))
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
        p.add_argument("--cap", type=_decimal,
                       help="exact-search state cap (number of variables)")

    p = sub.add_parser("solve", help="shortest flip sequence via the class dispatcher")
    p.add_argument("formula")
    endpoint_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the exact search when within cap")
    p.add_argument("--allow-oracle", action="store_true",
                   help="fall back to exact search on hard instances")
    p.add_argument("--verbose", action="store_true",
                   help="print each level's lower sets to stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact BFS shortest flip sequence")
    p.add_argument("formula")
    endpoint_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit instances on stdout")
    gensub = p.add_subparsers(dest="kind", required=True)
    for kind, problem, reduction in (
        ("vc", "vertex-cover", "gen_vertex_cover_instance"),
        ("is", "independent-set", "gen_independent_set_instance"),
    ):
        g = gensub.add_parser(kind, help=f"{problem} reduction instance")
        g.add_argument("graph", help="graph file or -")
        g.set_defaults(func=cmd_gen_reduction, reduction=reduction)
    g = gensub.add_parser("random", help="seeded random solvable instance")
    g.add_argument("--vars", type=_decimal, default=8)
    g.add_argument("--clauses", type=_decimal, default=5)
    g.add_argument("--arity", type=_decimal, default=3)
    g.add_argument("--relations", type=_decimal, default=2)
    g.add_argument("--seed", type=_decimal, default=0)
    g.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("dot", help="export graphs in DOT")
    p.add_argument("formula")
    p.add_argument("--what", choices=("recon", "fliporder"), default="recon")
    p.add_argument("--from", dest="source", metavar="BITS")
    p.add_argument("--cap", type=_decimal)
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
