"""The packed layout, pinned on a small batch worked out by hand."""

import numpy as np

from seqstate.packing import pack


def test_pack_layout_of_three_stays():
    # stays of 2, 3 and 1 steps: rank order 1, 0, 2; step 0 holds all
    # three, step 1 stays 1 and 0, step 2 stay 1 alone
    packed = pack(np.array([2, 3, 1]))
    assert packed.order.tolist() == [1, 0, 2]
    assert packed.sizes.tolist() == [3, 2, 1]
    assert packed.offsets.tolist() == [0, 3, 5, 6]
    assert packed.cells[0].tolist() == [1, 0, 2, 1, 0, 1]
    assert packed.cells[1].tolist() == [0, 0, 0, 1, 1, 2]
    assert packed.prev.tolist() == [0, 1, 3]
    assert packed.first.tolist() == [0, 1, 0]
    assert packed.step(1) == slice(3, 5)

