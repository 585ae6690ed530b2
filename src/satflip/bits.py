"""Bit-vector helpers.

Assignments and relation tuples are plain ints. Variable/position 1 is
the leftmost character of the printed bitstring, i.e. bit ``width - i``
of the integer holds variable ``i``.
"""


def to_bitstring(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def from_bitstring(text: str) -> int:
    return int(text, 2)


def var_bit(value: int, index: int, width: int) -> int:
    return (value >> (width - index)) & 1


def flip_bit(value: int, index: int, width: int) -> int:
    return value ^ (1 << (width - index))


def zeros(value: int, width: int) -> int:
    return width - value.bit_count()


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()
