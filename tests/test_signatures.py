"""Signature transform: closed forms, Chen identity, stream semantics."""

import itertools

import numpy as np
import pytest

from seqstate import autodiff as ad
from seqstate import nn
from seqstate.autodiff import Tensor, grad_check
from seqstate.signatures import (SignatureVector, chen_product, sig2_linear,
                                 sig2_stream, sig_length, signature,
                                 stream_signature)


def _tensor_exp_oracle(delta, depth):
    """Closed form for a single linear segment: level k = delta^(x)k / k!."""
    levels = [np.ones(1)]
    cur = np.array([1.0])
    fact = 1.0
    for k in range(1, depth + 1):
        cur = np.kron(cur, delta)
        fact *= k
        levels.append(cur / fact)
    return np.concatenate(levels)


def test_length_formula_by_word_enumeration():
    # count words of length 0..N over a d-letter alphabet, d <= 3, N <= 3
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            words = sum(len(list(itertools.product(range(d), repeat=k)))
                        for k in range(n + 1))
            assert sig_length(d, n) == words
            if d > 1:
                assert sig_length(d, n) == (d ** (n + 1) - 1) // (d - 1)


def test_level1_is_total_increment():
    rng = np.random.default_rng(0)
    path = rng.normal(size=(7, 3))
    sig = signature(path, 2)
    np.testing.assert_allclose(sig.level(1).data, path[-1] - path[0], atol=1e-12)


def test_linear_path_closed_form_depth2():
    # straight segment with increment (1, 2): level 2 = outer(d, d) / 2
    path = np.array([[0.0, 0.0], [1.0, 2.0]])
    sig = signature(path, 2)
    np.testing.assert_allclose(sig.values.data,
                               [1.0, 1.0, 2.0, 0.5, 1.0, 1.0, 2.0], atol=1e-12)


def test_linear_path_closed_form_general():
    rng = np.random.default_rng(1)
    for depth in (1, 2, 3):
        delta = rng.normal(size=3)
        path = np.stack([np.zeros(3), delta])
        sig = signature(path, depth)
        np.testing.assert_allclose(sig.values.data,
                                   _tensor_exp_oracle(delta, depth), atol=1e-10)


def test_subdivided_line_equals_single_segment():
    # closed form verified against brute-force segment composition
    rng = np.random.default_rng(2)
    delta = rng.normal(size=2)
    direct = signature(np.stack([np.zeros(2), delta]), 3)
    subdivided = signature(np.linspace(np.zeros(2), delta, 9), 3)
    np.testing.assert_allclose(direct.values.data, subdivided.values.data,
                               atol=1e-10)


def test_chen_concatenation_identity():
    rng = np.random.default_rng(3)
    for trial in range(10):
        t_len = rng.integers(4, 9)
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        path = rng.normal(size=(t_len, d))
        split = int(rng.integers(1, t_len - 1))
        full = signature(path, depth)
        left = signature(path[:split + 1], depth)
        right = signature(path[split:], depth)
        prod = chen_product(left, right)
        np.testing.assert_allclose(full.values.data, prod.values.data, atol=1e-9)


def test_reparametrization_invariance():
    # duplicating an interior point inserts a zero increment: a no-op
    rng = np.random.default_rng(4)
    path = rng.normal(size=(6, 3))
    base = signature(path, 3).values.data
    for dup in range(1, 5):
        doubled = np.insert(path, dup, path[dup], axis=0)
        np.testing.assert_allclose(signature(doubled, 3).values.data, base,
                                   atol=1e-12)


def test_stream_rows_match_from_scratch():
    rng = np.random.default_rng(5)
    path = rng.normal(size=(7, 3))
    stream = stream_signature(path, 3).data
    for t in range(1, 7):
        scratch = signature(path[:t + 1], 3).values.data
        assert np.max(np.abs(stream[t] - scratch)) < 1e-10


def test_stream_final_row_is_full_signature():
    rng = np.random.default_rng(6)
    path = rng.normal(size=(5, 2))
    stream = stream_signature(path, 2).data
    np.testing.assert_allclose(stream[-1], signature(path, 2).values.data,
                               atol=1e-12)


def test_stream_row_zero_and_constant_path_trivial():
    const = np.ones((5, 3))
    stream = stream_signature(const, 2).data
    trivial = np.zeros(sig_length(3, 2))
    trivial[0] = 1.0
    for t in range(5):
        np.testing.assert_allclose(stream[t], trivial, atol=1e-12)


def test_signature_rejects_short_paths():
    with pytest.raises(ValueError):
        signature(np.ones((1, 3)), 2)


def test_signature_vector_length_validation():
    with pytest.raises(ValueError):
        SignatureVector(2, 2, Tensor(np.zeros(6)))  # needs 7


def test_fused_batch_stream_matches_general():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 8, 4))
    fused = sig2_stream(x).data
    for b in range(5):
        general = stream_signature(x[b], 2).data
        assert np.max(np.abs(fused[b] - general)) < 1e-12


def test_fused_stream_of_one_point_is_trivial():
    out = sig2_stream(np.ones((3, 1, 4))).data
    trivial = np.zeros(1 + 4 + 16)
    trivial[0] = 1.0
    assert out.shape == (3, 1, 21)
    assert np.array_equal(out, np.broadcast_to(trivial, (3, 1, 21)))


def test_signature_grad_checks():
    rng = np.random.default_rng(8)
    path = rng.normal(size=(4, 2))
    err = grad_check(lambda t: ad.tsum(signature(t, 3).values), path)
    assert err < 1e-8
    x = rng.normal(size=(2, 5, 3))
    err = grad_check(lambda t: ad.tsum(ad.mul(sig2_stream(t), sig2_stream(t))), x)
    assert err < 1e-7


def _sig2_linear_case(rng, bsz, t_len, channels, k_out):
    x = rng.normal(size=(bsz, t_len, channels))
    w = rng.normal(size=(sig_length(channels, 2), k_out))
    b = rng.normal(size=k_out)
    return x, w, b


@pytest.mark.parametrize("t_len,channels,k_out",
                         [(t, c, 4) for t in (1, 2, 5) for c in (1, 3)]
                         + [(19, 66, 24), (19, 32, 64)])
def test_sig2_linear_matches_projected_stream(t_len, channels, k_out):
    # the widths of dst's first GRU input (66 channels, 3H = 24) and of its
    # decoder's first layer (32 channels, 64 units)
    rng = np.random.default_rng(t_len * 100 + channels)
    x, w, b = _sig2_linear_case(rng, 3, t_len, channels, k_out)
    want = nn.dense(sig2_stream(x), Tensor(w), Tensor(b)).data
    got = sig2_linear(x, w, b).data
    assert got.shape == (3, t_len, k_out)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sig2_linear_of_one_point_is_bias_plus_level0_row():
    rng = np.random.default_rng(11)
    x, w, b = _sig2_linear_case(rng, 2, 1, 3, 5)
    out = sig2_linear(x, w, b).data
    assert np.array_equal(out, np.broadcast_to(w[0] + b, (2, 1, 5)))


def test_sig2_linear_grad_checks():
    rng = np.random.default_rng(12)
    x, w, b = _sig2_linear_case(rng, 2, 4, 3, 2)
    weight = Tensor(rng.normal(size=(2, 4, 2)))

    def loss(xt, wt, bt):
        return ad.tsum(ad.mul(sig2_linear(xt, wt, bt), weight))

    assert grad_check(lambda t: loss(t, Tensor(w), Tensor(b)), x) < 1e-6
    assert grad_check(lambda t: loss(Tensor(x), t, Tensor(b)), w) < 1e-6
    assert grad_check(lambda t: loss(Tensor(x), Tensor(w), t), b) < 1e-6


def test_sig2_linear_rejects_mismatched_weights():
    x = np.zeros((2, 3, 3))
    with pytest.raises(ValueError):
        sig2_linear(x, np.zeros((12, 2)), np.zeros(2))  # needs 13 rows
    with pytest.raises(ValueError):
        sig2_linear(x, np.zeros((13, 2)), np.zeros(3))
