"""Bit-vector helpers.

Assignments and relation tuples are plain ints. Variable/position 1 is
the leftmost character of the printed bitstring, i.e. bit ``width - i``
of the integer holds variable ``i``. :func:`from_bitstring` reads that
string back; it is the one reader of every tuple and assignment in
input text. :func:`low_masks` and :func:`index_masks` build the
per-position masks of a truth table.
"""

from functools import lru_cache


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


def set_vars(value: int, width: int):
    """Yield the variables whose bit is 1 in `value`, highest index first,
    in time linear in `width`: one format, then a scan from the right."""
    text = to_bitstring(value, width)
    i = text.rfind("1")
    while i >= 0:
        yield i + 1
        i = text.rfind("1", 0, i)


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
