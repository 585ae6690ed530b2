"""The answer records that the solvers and the exact search return.

:class:`SolveResult` is the one immutable answer to an instance: an
:class:`Outcome`, the :class:`Flip` sequence of a PATH answer and the
solver's :class:`SolveStats`; it prints the protocol line. An answer
holds only what its solve decided: only a HARD answer carries a
classification, since there the class is the answer, and no answer
holds another: the exact search's answer to a HARD instance is its own
record. Of the package it imports only the relation layer, for that
classification, so the exact search, and the CLI commands that run only
it, build answers without compiling the order-based solver.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import NamedTuple

from .relation import Classification


class Flip(NamedTuple):
    var: int
    up: bool

    def token(self) -> str:
        """`x<var>+` or `x<var>-`; it reads a plain (var, up) pair too."""
        var, up = self
        return f"x{var}{'+' if up else '-'}"


class Outcome(Enum):
    PATH = "path"
    NOT_CONNECTED = "not-connected"
    HARD = "hard"


class SolveStats(NamedTuple):
    """What one solve counted: the order-based solver's levels, and one
    `(vars_s, vars_t)` pair per completed level, the variables each side
    raised, in order, in the terms of the form the solver ran on. Every
    other solve leaves both empty."""

    levels: int = 0
    lower_sets: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    @property
    def dag_builds(self) -> int:
        """The backward walks made: two per level."""
        return 2 * self.levels


class SolveResult(NamedTuple):
    """An answer to an instance, from a solver or the exact search: a
    shortest flip sequence (PATH, with `flips`), NOT_CONNECTED (`flips`
    None), or HARD with the formula's `classification`, which no other
    outcome carries."""

    outcome: Outcome
    flips: tuple[Flip, ...] | None = None
    classification: Classification | None = None
    stats: SolveStats = SolveStats()

    @property
    def length(self) -> int | None:
        return None if self.flips is None else len(self.flips)

    def protocol_line(self) -> str:
        """`PATH <length> <flips>`, `NOTCONNECTED` or `HARD <verdict>`."""
        if self.outcome is Outcome.HARD:
            return f"HARD {self.classification.verdict.name}"
        if self.flips is None:
            return "NOTCONNECTED"
        return " ".join(["PATH", str(len(self.flips)), *(f.token() for f in self.flips)])


# A Flip from a (var, up) pair through tuple.__new__, which skips the
# NamedTuple's Python-level __new__: the solvers build flips in bulk.
_make_flip = partial(tuple.__new__, Flip)
