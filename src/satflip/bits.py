"""Bit-vector helpers.

Assignments and relation tuples are plain ints. Variable/position 1 is
the leftmost character of the printed bitstring, i.e. bit ``width - i``
of the integer holds variable ``i``. :func:`from_bitstring` reads that
string back; it is the one reader of every tuple and assignment in
input text. :func:`low_masks` and :func:`index_masks` build the
per-position masks of a truth table.
"""

from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add

# bytes.translate tables between the characters "0" and "1" and bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_BYTE_BITS = bytes.maketrans(b"\0\1", b"01")


def to_bitstring(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def from_bitstring(text: str, width: int) -> int | None:
    """The inverse of :func:`to_bitstring`: a `width`-character string
    of ``0`` and ``1`` as an int, or None for any other string."""
    if len(text) == width and text and not text.strip("01"):
        return int(text, 2)
    return None


def var_bit(value: int, index: int, width: int) -> int:
    return (value >> (width - index)) & 1


def zeros(value: int, width: int) -> int:
    return width - value.bit_count()


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def set_vars(value: int, width: int) -> list[int]:
    """The variables whose bit is 1 in `value`, ascending, in time linear
    in `width`, from one format and C-level passes. A value with fewer
    than one set bit in eight is split at its ones, and the pieces'
    lengths accumulate to the variables; any other is read as bytes 0
    and 1 by one ``itertools.compress`` over the variables 1..width."""
    text = to_bitstring(value, width)
    if value.bit_count() * 8 < width:
        pieces = text.split("1")
        pieces.pop()
        return list(accumulate(map(add, map(len, pieces), repeat(1))))
    return list(compress(range(1, width + 1), text.encode().translate(_BIT_BYTES)))


def low_masks(n: int):
    """Yield, for v = 1..n, the truth table of the n-bit values whose
    variable v is 0. Each comes from the previous one in two operations:
    halving the block width w of a mask m is ``m ^ (m << w/2)``."""
    m = (1 << (1 << (n - 1))) - 1
    yield m
    for v in range(2, n + 1):
        m ^= m << (1 << (n - v))
        yield m


@lru_cache(maxsize=None)
def index_masks(arity: int) -> tuple[int, ...]:
    """Entry i is the truth table of the tuples whose bit i is 1, the
    complement of the low mask of position ``arity - i``, cached."""
    full = (1 << (1 << arity)) - 1
    return tuple(full ^ m for m in reversed(list(low_masks(arity))))
