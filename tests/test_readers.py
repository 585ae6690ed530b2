"""The .cnfs and DIMACS readers against their token-by-token references.

`parse_instance` and `parse_dimacs_2cnf` read each clause line in one
match (the token rule's line patterns in `satflip.errors`) and build the
Formula without checking it again. The references in `helpers` read
every token through `read_decimal` and build the Formula through its
checking constructor. On any text both must return equal results, or
raise ParseErrors with the same message and line.
"""

import io
import pathlib
import re
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from satflip import (
    Clause,
    Formula,
    ParseError,
    parse_dimacs_2cnf,
    parse_graph,
    parse_instance,
    parse_relation,
    serialize_formula,
)
from satflip.cli import main
from satflip.errors import ARGUMENTS, read_decimals

from helpers import (
    NON_DECIMAL_TOKENS,
    mutated,
    reference_parse_dimacs_2cnf,
    reference_parse_instance,
)

DATA = pathlib.Path(__file__).parent / "data"

# One digit past the longest token int() reads (Python 3.11 and later);
# 3.10 has no limit, and there the token is read like any other.
LONG = "7" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1)
# Whitespace that str.split() splits on and that no base text uses;
# str.splitlines() would also end a line at "\x1c", the readers do not.
UNICODE_SPACES = ("\u2003", "\x1c", "\x1f")
# The line ends of str.splitlines() that are not "\n", "\r\n" or "\r":
# inside a line they are whitespace between tokens.
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

CNFS_BASES = [path.read_text() for path in sorted(DATA.glob("*.cnfs"))] + [
    "# s=1010\n# t=0011\nvars 4\nrelation r 3\n000\n011\n101\n110\nend\n"
    "relation u 1\n1\nend\nclause r x1 T x3\nclause u x04\nclause r x2 F x2\n",
]
DIMACS_BASES = [
    "p cnf 3 3\n1 2 0\n-1 3 0\n-2 0\n",
    "c comment\np cnf 4 3\n1 0\n-2 -4 0\n3 -1 0\n",
]
TOKENS = [
    "\n", " ", "\t", *UNICODE_SPACES, "0", "1", "2", "9", "-", "-0", "00", "-1", "x",
    "x0", "x4", "x-1", "x00", "T", "F", "p", "c", "cnf", "p cnf ", "#", "# s=", "# t=",
    "end", "vars", "relation", "clause", "99999999999999999999", "\x00", "\u00e9",
    "\ufeff", "+", "_", LONG, *NON_DECIMAL_TOKENS,
]


def outcome(reader, text):
    """What `reader` returns on `text`, or its ParseError's message and line."""
    try:
        return reader(text)
    except ParseError as exc:
        return str(exc), exc.line


def assert_agree(reader, reference, text):
    got = outcome(reader, text)
    assert got == outcome(reference, text)
    return got


class TestCnfsReader:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(CNFS_BASES).flatmap(lambda text: mutated(text, TOKENS)))
    def test_mutated_text(self, text):
        assert_agree(parse_instance, reference_parse_instance, text)

    @pytest.mark.parametrize("text", [
        f"vars {LONG}\n",
        f"vars 3\nrelation r {LONG}\n",
        f"vars 3\nrelation r 1\n1\nend\nclause r x{LONG}\n",
        f"vars 3\nrelation r 2\n11\nend\nclause r x1 x{LONG}\n",
        "vars 03\nrelation r 01\n1\nend\nclause r x003\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x0 x1\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x1 x-0\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x1 x4\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x1 y\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x1\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x1 T F\n",
        "vars 3\nrelation r 2\n11\nend\nclause r\n",
        "vars 3\nrelation r 2\n11\nend\nclause r x1 xT\n",
    ] + [
        f"vars 3\nrelation r 2\n11\nend\nclause{s}r{s}x1{s}x3\n" for s in UNICODE_SPACES
    ] + [
        text.format(tok=tok) for tok in NON_DECIMAL_TOKENS for text in [
            "vars {tok}\n",
            "vars 3\nrelation r {tok}\n",
            "vars 3\nrelation r 2\n11\nend\nclause r x1 x{tok}\n",
        ]
    ])
    def test_pinned(self, text):
        assert_agree(parse_instance, reference_parse_instance, text)

    @pytest.mark.parametrize("space", UNICODE_SPACES)
    def test_unicode_whitespace_separates_tokens(self, space):
        text = f"vars 3\nrelation r 2\n11\nend\nclause{space}r{space}x1{space}T\n"
        phi = assert_agree(parse_instance, reference_parse_instance, text)[0]
        assert phi.clauses == (Clause("r", (1, "c1")),)


class TestDimacsReader:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(DIMACS_BASES).flatmap(lambda text: mutated(text, TOKENS)))
    @example("p cnf 5 1\n5 0\np cnf 2 1\n")
    def test_mutated_text(self, text):
        assert_agree(parse_dimacs_2cnf, reference_parse_dimacs_2cnf, text)

    @pytest.mark.parametrize("text", [
        f"p cnf {LONG} 1\n1 0\n",
        f"p cnf 3 {LONG}\n1 0\n",
        f"p cnf 3 1\n{LONG} 0\n",
        f"p cnf 3 1\n1 -{LONG} 0\n",
        f"p cnf 3 1\n1 2 {LONG}\n",
        "p cnf 3 2\n1 -0\n2 -3 00\n",
        "p cnf 3 1\n-1 2 -00\n",
        "p cnf 03 01\n-02 003 0\n",
        "p cnf 3 1\n0\n",
        "p cnf 3 1\n1 0 0\n",
        "p cnf 3 1\n1 2 3 0\n",
        "p cnf 3 1\n1 4 0\n",
        "p cnf 3 1\n-4 1 0\n",
        "p cnf 3 1\n1 2 -1\n",
    ] + [
        text.format(tok=tok) for tok in NON_DECIMAL_TOKENS for text in [
            "p cnf {tok} 1\n1 0\n",
            "p cnf 3 {tok}\n1 0\n",
            "p cnf 3 1\n{tok} 0\n",
            "p cnf 3 1\n1 -{tok} 0\n",
            "p cnf 3 1\n1 2 {tok}\n",
        ]
    ])
    def test_pinned(self, text):
        assert_agree(parse_dimacs_2cnf, reference_parse_dimacs_2cnf, text)

    @pytest.mark.parametrize("space", UNICODE_SPACES)
    def test_unicode_whitespace_separates_tokens(self, space):
        text = f"p cnf 3 1\n1{space}-2{space}0\n"
        phi = assert_agree(parse_dimacs_2cnf, reference_parse_dimacs_2cnf, text)
        assert phi.clauses == (Clause("or2_pn", (1, 2)),)


def test_line_patterns_split_on_the_whitespace_str_split_splits_on():
    # one character between two tokens: each line pattern reads two
    # tokens exactly when str.split() does
    chars = list(map(chr, range(sys.maxunicode + 1)))
    spaces = {c for c in chars if len(f"1{c}2".split()) == 2}
    assert len(spaces) == 29
    assert {c for c in chars if read_decimals(f"1{c}2") == [1, 2]} == spaces
    assert {c for c in chars if ARGUMENTS.fullmatch(f"x1{c}T")} == spaces


class TestLineEnds:
    """Every reader ends a line at "\n", "\r\n" and "\r" alone."""

    def test_duplicate_vars_on_one_line_is_refused_on_line_1(self):
        with pytest.raises(ParseError, match="^line 1: expected 'vars <n>'$"):
            parse_instance("vars 3\x1cvars 3\n")

    def test_next_line_character_separates_tokens(self):
        phi = parse_instance("vars 3\nrelation r 1\n1\nend\nclause r\x85x1\n")[0]
        assert phi.clauses == (Clause("r", (1,)),)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=ascii)
    def test_no_other_line_end(self, char):
        # each text is refused on the line that holds the character
        cases = [
            (parse_instance, f"vars 3\nrelation r 2\n11\nend\nclause{char}r{char}x1{char}x4\n",
             "line 5: variable index 'x4' out of range 1..3"),
            (parse_dimacs_2cnf, f"p cnf 3 2\n1 2 0{char}-1 0\n", "line 2: only 1- and 2-literal clauses"),
            (parse_relation, f"arity 2\n00{char}11\n", "line 2: expected a 2-bit tuple"),
            (parse_graph, f"graph 3\nedge 1 2{char}edge 2 3\n", "line 2: expected 'edge <u> <v>'"),
        ]
        for reader, text, message in cases:
            with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
                reader(text)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_keep_results_and_line_numbers(self, newline):
        texts = {
            parse_instance: CNFS_BASES + [
                "vars 3\nrelation r 2\n11\nend\n\n# a comment\nclause r x1 x4\n",
            ],
            parse_dimacs_2cnf: DIMACS_BASES + ["c\n\np cnf 3 1\n1 4 0\n"],
            parse_relation: ["# PATH5\narity 3\n000\n001\n\n101\n111\n110\n",
                             "arity 2\n00\n\n012\n"],
            parse_graph: [path.read_text() for path in sorted(DATA.glob("*.graph"))]
            + ["graph 3\n\n# comment\nedge 1 4\n"],
        }
        for reader, cases in texts.items():
            for text in cases:
                assert outcome(reader, text.replace("\n", newline)) == outcome(reader, text)


def parsed_formulas():
    """(label, formula) for every formula the readers return from the
    test data and from `gen vc`, `gen is` and `gen random` output."""
    texts = {path.name: path.read_text() for path in sorted(DATA.glob("*.cnfs"))}
    for graph in sorted(DATA.glob("*.graph")):
        for kind in ("vc", "is"):
            texts[f"gen-{kind}-{graph.stem}"] = gen_output("gen", kind, str(graph))
    for seed in range(6):
        texts[f"gen-random-{seed}"] = gen_output(
            "gen", "random", "--seed", str(seed), "--vars", "7", "--clauses", "6",
            "--arity", str(seed % 3 + 2))
    formulas = [(label, parse_instance(text)[0]) for label, text in texts.items()]
    formulas += [(f"dimacs-{i}", parse_dimacs_2cnf(text)) for i, text in enumerate(DIMACS_BASES)]
    return formulas


def gen_output(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("label, phi", parsed_formulas())
def test_parsed_formulas_pass_the_checking_constructor(label, phi):
    # the readers skip Formula's checks; the checked rebuild must be equal
    rebuilt = Formula(phi.num_vars, phi.relations, phi.clauses)
    assert rebuilt == phi and hash(rebuilt) == hash(phi)
    assert all(type(clause) is Clause for clause in phi.clauses)
    for name, rel in phi.relations:
        assert phi.relation(name) is rel is rebuilt.relation(name)
    assert parse_instance(serialize_formula(phi))[0] == phi

