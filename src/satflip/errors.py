"""Exception hierarchy shared by the whole package, and the token rule
every input format is read by.

The CLI maps these onto exit codes: ParseError -> 1, PreconditionError
(and subclasses) -> 2, TheoryError -> 3.

The four text formats (.cnfs, .rel, .graph and DIMACS) read their lines
through :func:`content_lines`, which ends a line only at ``\n``,
``\r\n`` or ``\r``, and one token rule holds for every count,
index and literal in them: ASCII digits 0-9 after at most one leading
``-``. Python's ``int()`` would also take ``+``, ``_`` and non-ASCII
digits. The rule is written once, here, as the pattern ``DECIMAL``, and
each reader applies it through this module: :func:`read_decimal` reads
one token, :func:`read_decimals` a whole DIMACS clause line in one
match, and ``ARGUMENTS`` matches the arguments of a .cnfs clause line
in one match. The line patterns split tokens on exactly the whitespace
``str.split()`` splits on. Every count, index, tuple and flip variable
that a Python caller passes in follows one integer rule,
``type(x) is int``: a bool, an int subclass, a float or a str raises
PreconditionError (FlipSequenceError for a flip).
"""

import re

# The token rule. A line pattern joins its tokens with \s+, and \s is
# exactly the whitespace that str.split() splits on.
DECIMAL = "-?[0-9]+"
_decimal = re.compile(DECIMAL).fullmatch
_decimals = re.compile(rf"{DECIMAL}(?:\s+{DECIMAL})*").fullmatch
# The arguments of a .cnfs clause line: x<i>, T or F, at least one.
ARGUMENTS = re.compile(rf"(?:x{DECIMAL}|[TF])(?:\s+(?:x{DECIMAL}|[TF]))*")


class SatFlipError(Exception):
    pass


class ParseError(SatFlipError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def content_lines(text: str, comment: str | None = None):
    """Yield (1-based line number, stripped line) for each line of `text`
    that is neither blank nor starts with `comment`. A line ends only at
    ``\n``, ``\r\n`` or ``\r``. ``str.splitlines()`` would also end one
    at ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``, U+2028 and
    U+2029, which are whitespace between the tokens of a line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if line and not (comment and line.startswith(comment)):
            yield lineno, line


def read_decimal(token: str, message: str, line: int | None = None) -> int:
    """The int `token` spells in ASCII digits after at most one ``-``;
    anything else, or more digits than int() takes, raises ParseError."""
    if _decimal(token):
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(message, line)


def read_decimals(text: str) -> list[int] | None:
    """The ints of `text`, tokens split on whitespace, when every token
    follows the token rule and int() takes it; otherwise None."""
    if _decimals(text):
        try:
            return list(map(int, text.split()))
        except ValueError:
            pass
    return None


class PreconditionError(SatFlipError):
    """An operation was called outside its contract (bad arity, cap
    exceeded, unsatisfying endpoint, wrong relation class, ...)."""


class FlipSequenceError(PreconditionError):
    """A flip sequence is invalid at its start state; `index` is the
    0-based position of the first offending flip."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"flip {index + 1}: {message}")


class GenerationError(PreconditionError):
    """A randomized generator exhausted its retry budget."""


class TheoryError(SatFlipError):
    """An internal guarantee was violated; always a bug, never user error."""
