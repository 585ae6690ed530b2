"""The per-position masks of a truth table: one doubling builder,
`low_masks`, and the cached tuple of their complements, `index_masks`,
that the relation layer, the flip orders and the exact search share;
and `set_vars`, the lister of a value's set variables."""

import random

from satflip.bits import index_masks, low_masks, set_vars, var_bit
from satflip.recon import members


def test_low_masks():
    for n in range(1, 7):
        masks = list(low_masks(n))
        assert len(masks) == n
        for v, mask in enumerate(masks, 1):
            assert members(mask) == [a for a in range(1 << n) if var_bit(a, v, n) == 0]


def test_index_masks_equal_the_sum_definition():
    for arity in range(1, 9):
        want = tuple(
            sum(1 << t for t in range(1 << arity) if t >> i & 1) for i in range(arity)
        )
        assert index_masks(arity) == want
        assert index_masks(arity) is index_masks(arity)


def test_set_vars_lists_the_set_variables_ascending():
    rng = random.Random(31)
    for n in (1, 2, 7, 8, 9, 64, 65, 300):
        values = [0, 1, 1 << (n - 1), (1 << n) - 1]
        values += [rng.getrandbits(n) for _ in range(10)]  # dense
        values += [(1 << rng.randrange(n)) | (1 << rng.randrange(n)) for _ in range(10)]  # sparse
        # either side of one set bit in eight, where the lister changes method
        values += [sum(1 << v for v in rng.sample(range(n), k))
                   for k in sorted({max(n // 8 - 1, 0), n // 8, n // 8 + 1}) if k <= n]
        for value in values:
            want = [v for v in range(1, n + 1) if var_bit(value, v, n)]
            got = set_vars(value, n)
            assert type(got) is list and got == want
