"""Losses, statistics, recurrent cells, optimizer, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstate import autodiff as ad
from seqstate import nn
from seqstate.autodiff import Tensor, grad_check
from seqstate.bundle import BundleFormatError, load_bundle, save_bundle
from seqstate.nn import Params
from seqstate.optim import adam_init, adam_step, clip_global_norm

# -- mse ---------------------------------------------------------------------


def test_mse_identity_is_zero():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    assert float(nn.mse(x, x.data).data) == 0.0


def test_mse_constant_offset():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(4, 5))
    assert float(nn.mse(Tensor(t + 0.7), t).data) == pytest.approx(0.49)


def test_mse_hand_example():
    # ((-2)^2 + 1^2) / 2 = 2.5
    val = nn.mse(Tensor([1.0, 2.0]), [3.0, 1.0])
    assert float(val.data) == pytest.approx(2.5)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        nn.mse(Tensor([1.0, 2.0]), [1.0, 2.0, 3.0])


def test_mse_differentiable_wrt_pred():
    rng = np.random.default_rng(1)
    target = rng.normal(size=6)
    err = grad_check(lambda t: nn.mse(t, target), rng.normal(size=6))
    assert err < 1e-8


# -- pearson ------------------------------------------------------------------


def _pearson_reference(x, y):
    # textbook formula, coded independently of the library implementation
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum()))


def _rho(x, y) -> float:
    """column_pearson of the vector x as a one-column matrix."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    return float(nn.column_pearson(Tensor(x), y)[0].data[0])


def test_pearson_self_correlation():
    x = [0.3, 1.9, -4.0, 2.2]
    assert _rho(x, x) == pytest.approx(1.0)


def test_pearson_exact_anticorrelation():
    assert _rho([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def test_pearson_formula_oracle():
    got = _rho([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert got == pytest.approx(_pearson_reference([1, 2, 3], [1, 2, 4]), abs=1e-12)


def test_pearson_degenerate_flag():
    rho, flag = nn.column_pearson(Tensor([[2.0], [2.0], [2.0]]), [1.0, 2.0, 3.0])
    assert flag.tolist() == [True] and float(rho.data[0]) == 0.0


def test_pearson_differentiable():
    rng = np.random.default_rng(2)
    y = rng.normal(size=12)
    err = grad_check(lambda t: ad.tsum(nn.column_pearson(t, y)[0]),
                     rng.normal(size=(12, 1)))
    assert err < 1e-7


def test_column_pearson_differentiable():
    # the training loss takes the mean rho over the latent columns
    rng = np.random.default_rng(5)
    y = rng.normal(size=15)
    x = rng.normal(size=(15, 4))
    weights = rng.normal(size=4)
    err = grad_check(lambda t: ad.tsum(ad.mul(nn.column_pearson(t, y)[0], weights)), x)
    assert err < 1e-7


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=50.0),
    b=st.floats(min_value=-20.0, max_value=20.0),
    seed=st.integers(min_value=0, max_value=999),
)
def test_pearson_affine_invariance(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=10)
    y = rng.normal(size=10)
    base = _rho(x, y)
    scaled = _rho(a * x + b, y)
    negated = _rho(-a * x + b, y)
    assert scaled == pytest.approx(base, abs=1e-9)
    assert negated == pytest.approx(-base, abs=1e-9)


def test_column_pearson_matches_per_column():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    rho, degenerate = nn.column_pearson(Tensor(x), y)
    assert not degenerate.any()
    for j in range(4):
        assert float(rho.data[j]) == pytest.approx(
            _pearson_reference(x[:, j], y), abs=1e-12
        )


def test_column_pearson_degenerate_column_is_zero():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 3))
    x[:, 1] = 5.0
    rho, degenerate = nn.column_pearson(Tensor(x), rng.normal(size=20))
    assert degenerate.tolist() == [False, True, False]
    assert float(rho.data[1]) == 0.0


# -- recurrent cells ------------------------------------------------------------


def _gru_scalar_oracle(x, h, p):
    """Per-unit loop mirroring the documented gate equations."""
    hidden = p.hidden
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    out = np.zeros_like(h)
    for b in range(x.shape[0]):
        gi = x[b] @ p.w_ih.data + p.b_ih.data
        gh = h[b] @ p.w_hh.data + p.b_hh.data
        r_vec = np.array([sig(gi[j] + gh[j]) for j in range(hidden)])
        for j in range(hidden):
            z = sig(gi[hidden + j] + gh[hidden + j])
            hn_pre = (gi[2 * hidden + j]
                      + (r_vec * h[b]) @ p.w_hh.data[:, 2 * hidden + j]
                      + p.b_hh.data[2 * hidden + j])
            cand = np.tanh(hn_pre)
            out[b, j] = (1.0 - z) * h[b, j] + z * cand
    return out


def test_gru_zero_params_zero_state():
    params = Params()
    p = nn.gru_params(params, np.random.default_rng(0), "g", 3, 2)
    for t in params.tensors():
        t.data = np.zeros_like(t.data)
    out = nn.gru_cell(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))), p)
    np.testing.assert_allclose(out.data, 0.0)


def test_gru_saturated_update_gate_keeps_state():
    params = Params()
    rng = np.random.default_rng(1)
    p = nn.gru_params(params, rng, "g", 3, 2)
    # drive the update gate to zero: h' = (1-z) h + z cand -> h
    p.b_ih.data[2:4] = -40.0
    p.b_hh.data[2:4] = -40.0
    h = rng.normal(size=(2, 2))
    out = nn.gru_cell(Tensor(rng.normal(size=(2, 3))), Tensor(h), p)
    np.testing.assert_allclose(out.data, h, atol=1e-12)


def test_gru_matches_scalar_loop():
    rng = np.random.default_rng(2)
    params = Params()
    p = nn.gru_params(params, rng, "g", 4, 3)
    x = rng.normal(size=(5, 4))
    h = rng.normal(size=(5, 3))
    got = nn.gru_cell(Tensor(x), Tensor(h), p).data
    np.testing.assert_allclose(got, _gru_scalar_oracle(x, h, p), atol=1e-12)


def test_gru_dimension_mismatch():
    params = Params()
    p = nn.gru_params(params, np.random.default_rng(0), "g", 4, 3)
    with pytest.raises(ValueError):
        nn.gru_cell(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 3))), p)


def _lstm_scalar_oracle(x, h, c, p):
    hidden = p.hidden
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h_out, c_out = np.zeros_like(h), np.zeros_like(c)
    for b in range(x.shape[0]):
        pre = x[b] @ p.w_ih.data + p.b_ih.data + h[b] @ p.w_hh.data + p.b_hh.data
        for j in range(hidden):
            i = sig(pre[j])
            f = sig(pre[hidden + j])
            g = np.tanh(pre[2 * hidden + j])
            o = sig(pre[3 * hidden + j])
            c_out[b, j] = f * c[b, j] + i * g
            h_out[b, j] = o * np.tanh(c_out[b, j])
    return h_out, c_out


def test_lstm_zero_params_zero_state():
    params = Params()
    p = nn.lstm_params(params, np.random.default_rng(0), "l", 3, 2)
    for t in params.tensors():
        t.data = np.zeros_like(t.data)
    h, c = nn.lstm_cell(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 2))),
                        Tensor(np.zeros((1, 2))), p)
    np.testing.assert_allclose(h.data, 0.0)
    np.testing.assert_allclose(c.data, 0.0)


def test_lstm_saturated_gates_preserve_cell():
    params = Params()
    rng = np.random.default_rng(1)
    p = nn.lstm_params(params, rng, "l", 3, 2)
    p.b_ih.data[0:2] = -40.0   # input gate -> 0
    p.b_hh.data[0:2] = -40.0
    p.b_ih.data[2:4] = 40.0    # forget gate -> 1
    p.b_hh.data[2:4] = 40.0
    c = rng.normal(size=(2, 2))
    _, c_new = nn.lstm_cell(Tensor(rng.normal(size=(2, 3))),
                            Tensor(rng.normal(size=(2, 2))), Tensor(c), p)
    np.testing.assert_allclose(c_new.data, c, atol=1e-12)


def test_grad_check_through_mse_of_gru():
    # composite loss on a 3-unit cell stays under the gradient tolerance
    rng = np.random.default_rng(6)
    params = Params()
    p = nn.gru_params(params, rng, "g", 4, 3)
    h = rng.normal(size=(2, 3))
    target = rng.normal(size=(2, 3))

    def f(x):
        return nn.mse(nn.gru_cell(x, Tensor(h), p), target)

    assert grad_check(f, rng.normal(size=(2, 4)), eps=1e-5) < 1e-4


def test_lstm_matches_scalar_loop():
    rng = np.random.default_rng(2)
    params = Params()
    p = nn.lstm_params(params, rng, "l", 4, 3)
    x, h, c = rng.normal(size=(5, 4)), rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    h2, c2 = nn.lstm_cell(Tensor(x), Tensor(h), Tensor(c), p)
    oh, oc = _lstm_scalar_oracle(x, h, c, p)
    np.testing.assert_allclose(h2.data, oh, atol=1e-12)
    np.testing.assert_allclose(c2.data, oc, atol=1e-12)


# -- optimizer ------------------------------------------------------------------


def test_adam_zero_grad_no_change():
    params = Params()
    t = params.register("x", np.array([1.0, -2.0]))
    state = adam_init(params, lr=0.1)
    adam_step(state, params, {"x": np.zeros(2)})
    np.testing.assert_allclose(t.data, [1.0, -2.0])


def test_adam_first_step_is_lr_sized():
    # bias-corrected first step with g=1 moves by lr/(1+eps)
    params = Params()
    t = params.register("x", np.array(1.0))
    state = adam_init(params, lr=0.1)
    adam_step(state, params, {"x": np.array(1.0)})
    assert float(t.data) == pytest.approx(1.0 - 0.1, abs=1e-8)


def test_adam_monotone_against_gradient_sign():
    params = Params()
    t = params.register("x", np.array(0.5))
    state = adam_init(params, lr=0.05)
    prev = float(t.data)
    for _ in range(2):
        adam_step(state, params, {"x": np.array(2.0)})
        assert float(t.data) < prev
        prev = float(t.data)


def test_adam_shape_mismatch():
    params = Params()
    params.register("x", np.zeros(2))
    state = adam_init(params, lr=0.1)
    with pytest.raises(ValueError):
        adam_step(state, params, {"x": np.zeros(3)})


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total == pytest.approx(1.0)


def test_softmax_cross_entropy_matches_manual():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    got = float(nn.softmax_cross_entropy(Tensor(logits), labels).data)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(6), labels]))
    assert got == pytest.approx(want, abs=1e-12)


# -- parameter bundles --------------------------------------------------------------


def test_bundle_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    arrays = {
        "layer.w": rng.normal(size=(7, 3)),
        "layer.b": rng.normal(size=3),
        "scalar": np.array(np.pi),
    }
    path = tmp_path / "m.bin"
    save_bundle(path, "testarch", arrays)
    tag, loaded = load_bundle(path)
    assert tag == "testarch"
    assert list(loaded.keys()) == list(arrays.keys())
    for k in arrays:
        assert arrays[k].shape == loaded[k].shape
        assert np.array_equal(arrays[k], loaded[k])  # bit-exact


def test_bundle_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a bundle at all")
    with pytest.raises(BundleFormatError):
        load_bundle(path)
