"""Fixed-seed outputs of the synthetic generator, of every encoder kind and of
BC/BCQ match the arrays committed in tests/data/golden.npz (written by
tests/make_golden.py).

The tolerance is 1e-12 relative to each array's largest entry: tight enough
that any change of arithmetic shows, loose enough for another BLAS build's
summation order. Integer arrays must match exactly.
"""

import numpy as np
import pytest

from make_golden import GOLDEN, encoder_arrays, policy_arrays, synthetic_arrays
from seqstate.encoders import KINDS


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as stored:
        return dict(stored)


def _assert_matches(computed: dict, golden: dict, prefix: str) -> None:
    stored = {k: v for k, v in golden.items() if k.startswith(prefix)}
    assert sorted(computed) == sorted(stored)
    for key, expected in stored.items():
        actual = computed[key]
        assert actual.shape == expected.shape, key
        if expected.dtype.kind in "iub":
            np.testing.assert_array_equal(actual, expected, err_msg=key)
        else:
            scale = float(np.abs(expected).max())
            np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=key)


@pytest.mark.parametrize("kind", KINDS)
def test_encoder_matches_golden(kind, golden):
    _assert_matches(encoder_arrays(kind), golden, f"{kind}.")


def test_policy_matches_golden(golden):
    _assert_matches(policy_arrays(), golden, "policy.")


def test_synthetic_matches_golden(golden):
    _assert_matches(synthetic_arrays(), golden, "synthetic.")
