"""Bit-vector helpers.

Assignments and relation tuples are plain ints. Variable/position 1 is
the leftmost character of the printed bitstring, i.e. bit ``width - i``
of the integer holds variable ``i``.
"""


def to_bitstring(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def var_bit(value: int, index: int, width: int) -> int:
    return (value >> (width - index)) & 1


def zeros(value: int, width: int) -> int:
    return width - value.bit_count()


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def set_vars(value: int, width: int):
    """Yield the variables whose bit is 1 in `value`, highest index first;
    costs one step per set bit, not per variable."""
    while value:
        low = value & -value
        yield width + 1 - low.bit_length()
        value ^= low
