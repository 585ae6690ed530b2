"""Exception hierarchy shared by the whole package, and the two readers
every input format shares.

The CLI maps these onto exit codes: ParseError -> 1, PreconditionError
(and subclasses) -> 2, TheoryError -> 3.

The four text formats (.cnfs, .rel, .graph and DIMACS) read their lines
through :func:`content_lines` and every count, index and literal
through :func:`read_decimal`, so one token rule holds for all of them:
ASCII digits 0-9 after at most one leading ``-``. Python's ``int()``
would also take ``+``, ``_`` and non-ASCII digits. Every count, index,
tuple and flip variable that a Python caller passes in follows one
integer rule, ``type(x) is int``: a bool, an int subclass, a float or a
str raises PreconditionError (FlipSequenceError for a flip).
"""


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
    that is neither blank nor starts with `comment`."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not (comment and line.startswith(comment)):
            yield lineno, line


def read_decimal(token: str, message: str, line: int | None = None) -> int:
    """The int `token` spells in ASCII digits after at most one ``-``;
    anything else, or more digits than int() takes, raises ParseError."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(message, line)


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
