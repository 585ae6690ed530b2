"""Rebuild perfbench/expected.json, the expected results stored with the
benchmark.

    python3 perfbench/make_expected.py

It records, from satflip's own predicates at the commit it runs on:
- the nine relation flags of every relation the classify generator can
  emit before permuting and complementing (both act on the flags in a
  known way, so `check.py` derives the flags of each variant);
- the flags of all 256 ternary relations (the relations of `satflip gen`
  instances);
- the outcome of every stored stride-2 PATH5 window instance, whose
  flip distance has no closed form.

Each window path is replayed by `check.py` before it is stored, and its
length is checked against the Hamming lower bound. Rerun this only when
a deliberate behaviour change makes the stored values wrong, and say so
in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
from satflip import Relation, relation_flags, solve  # noqa: E402
from satflip.formula import parse_instance  # noqa: E402
from worker import flag_string  # noqa: E402


def flags_of(arity, tuples):
    return flag_string(relation_flags(Relation(arity, frozenset(tuples))))


def window_entries():
    out = []
    for n in inputs.WINDOW_SIZES:
        text, cnf = inputs.path5_formula(n, inputs.window_clauses(n, 2), False)
        phi = parse_instance(text)[0]
        for i in range(inputs.WINDOW_POOL):
            s, t = inputs.window_pool_entry(n, i)
            result = solve(phi, s, t)
            length = result.length
            if length is not None:
                flips = check.parse_path_line(result.protocol_line())
                if cnf.replay(s, flips) != t or length < bin(s ^ t).count("1"):
                    raise SystemExit(f"window {n}/{i}: solver path fails the replay")
            out.append({"n": n, "i": i, "s": f"{s:x}", "t": f"{t:x}",
                        "length": length})
    return out


def main():
    flags = {r: flags_of(*inputs.product(r)) for r in inputs.pool_recipes()}
    arity3 = [flags_of(3, [t for t in range(8) if mask >> t & 1]) for mask in range(256)]
    data = {
        "about": "Built by make_expected.py from satflip's own results; "
                 "see that script for what each table holds.",
        "flags": flags,
        "arity3": arity3,
        "windows": window_entries(),
    }
    (HERE / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
