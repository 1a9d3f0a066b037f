"""Engine-level tests: primitives, fan-out accumulation, gradient checks."""

import numpy as np
import pytest

from seqstate import autodiff as ad
from seqstate.autodiff import GradCheckError, Tensor, grad_check


def test_fanout_accumulates_gradients():
    # d/dx of (x*x + x) at x=2 is 5
    x = Tensor(2.0, requires_grad=True)
    y = ad.add(ad.mul(x, x), x)
    y.backward()
    assert x.grad == pytest.approx(5.0)


def test_backward_visits_each_node_once():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    shared = ad.mul(x, 3.0)
    out = ad.tsum(ad.add(shared, shared))
    out.backward()
    np.testing.assert_allclose(x.grad, [6.0, 6.0])


def test_broadcast_add_unbroadcasts_bias_grad():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    ad.tsum(ad.add(x, b)).backward()
    np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])
    np.testing.assert_allclose(x.grad, np.ones((4, 3)))


def test_matmul_2d_and_batched_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))
    err = grad_check(lambda t: ad.tsum(ad.matmul(t, Tensor(w))), a)
    assert err < 1e-8
    err = grad_check(lambda t: ad.tsum(ad.matmul(Tensor(a), t)), w)
    assert err < 1e-8
    batched = rng.normal(size=(2, 5, 4))
    err = grad_check(lambda t: ad.tsum(ad.matmul(t, Tensor(w))), batched)
    assert err < 1e-8
    # 3D @ 2D sums the weight gradient over the batch
    err = grad_check(lambda t: ad.tsum(ad.matmul(Tensor(batched), t)), w)
    assert err < 1e-8


@pytest.mark.parametrize("op", [ad.sqrt, ad.tanh, ad.sigmoid, ad.relu, ad.elu])
def test_elementwise_grads(op):
    rng = np.random.default_rng(1)
    x = rng.uniform(0.2, 2.0, size=(3, 4))  # positive domain works for all ops
    err = grad_check(lambda t: ad.tsum(op(t)), x)
    assert err < 1e-7


def test_reduction_and_shape_grads():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4, 2))
    for f in [
        lambda t: ad.tsum(ad.mul(ad.tsum(t, axis=1), 2.0)),
        lambda t: ad.tsum(ad.tmean(t, axis=0)),
        lambda t: ad.tsum(ad.mul(ad.reshape(t, (12, 2)), 3.0)),
        lambda t: ad.tsum(ad.mul(ad.transpose(t, (2, 0, 1)), 1.5)),
        lambda t: ad.tsum(t[:, 1:, :]),
        lambda t: ad.tsum(ad.concat([t, t], axis=1)),
    ]:
        assert grad_check(f, x) < 1e-8


@pytest.mark.parametrize("shape, index", [
    ((3, 4, 2), (slice(None), 2)),                            # time-axis slice
    ((6, 5), np.array([0, 2, 2, 5])),                         # repeated rows
    ((6, 5), (np.arange(6), np.array([1, 4, 0, 2, 2, 3]))),   # one column per row
], ids=["time-slice", "repeated-rows", "row-col-pick"])
def test_getitem_grad(shape, index):
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape)
    picked = Tensor(x)[index]
    np.testing.assert_array_equal(picked.data, x[index])
    weight = Tensor(rng.normal(size=picked.shape))
    # a repeated row's gradient is the sum of its picks' weights
    err = grad_check(lambda t: ad.tsum(ad.mul(t[index], weight)), x)
    assert err < 1e-8


def test_each_primitive_makes_one_node(monkeypatch):
    """The benchmark counts graph nodes by wrapping ``make_op``, so every
    primitive, ``t[...]`` among them, must build exactly one node through it."""
    made = []
    real_make_op = ad.make_op

    def counting_make_op(out_data, parents, backward):
        made.append(out_data.shape)
        return real_make_op(out_data, parents, backward)

    monkeypatch.setattr(ad, "make_op", counting_make_op)
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    calls = {
        "add": lambda: ad.add(x, y), "sub": lambda: ad.sub(x, y),
        "neg": lambda: ad.neg(x), "mul": lambda: ad.mul(x, y),
        "div": lambda: ad.div(x, y), "matmul": lambda: ad.matmul(x, w),
        "sqrt": lambda: ad.sqrt(x), "tanh": lambda: ad.tanh(x),
        "sigmoid": lambda: ad.sigmoid(x), "relu": lambda: ad.relu(x),
        "elu": lambda: ad.elu(x), "tsum": lambda: ad.tsum(x, axis=0),
        "reshape": lambda: ad.reshape(x, (12,)), "transpose": lambda: ad.transpose(x),
        "getitem": lambda: ad.getitem(x, (slice(None), 1)),
        "concat": lambda: ad.concat([x, y], axis=1),
        "log_softmax": lambda: ad.log_softmax(x),
        "x + y": lambda: x + y, "x * y": lambda: x * y,
        "x[:, 1]": lambda: x[:, 1], "x[rows]": lambda: x[np.array([0, 0, 3])],
        "x[rows, cols]": lambda: x[np.arange(4), np.array([2, 0, 1, 2])],
    }
    not_primitives = {"Tensor", "no_grad", "is_grad_enabled", "make_op", "grad_check",
                      "GradCheckError", "tmean"}
    assert set(ad.__all__) - not_primitives <= set(calls)
    for name, call in calls.items():
        made.clear()
        out = call()
        assert made == [out.shape], name
    made.clear()
    ad.tmean(x)  # a composite: tsum, then mul by 1/count
    assert len(made) == 2


def test_log_softmax_grad_and_normalization():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 7))
    out = ad.log_softmax(Tensor(x))
    np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(4))
    err = grad_check(lambda t: ad.tsum(ad.mul(ad.log_softmax(t), 0.3)), x)
    assert err < 1e-7


def test_no_grad_blocks_graph_construction():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, 2.0)
    assert not y.requires_grad and y._backward is None


def test_grad_check_constant_function_is_zero():
    err = grad_check(lambda t: Tensor(1.5), np.array([1.0, 2.0]))
    assert err == 0.0


def test_grad_check_eps_validation():
    with pytest.raises(ValueError):
        grad_check(lambda t: ad.tsum(t), np.ones(2), eps=1e-2)


def test_grad_check_rejects_non_finite():
    with np.errstate(invalid="ignore"), pytest.raises(GradCheckError):
        grad_check(lambda t: ad.sqrt(t), np.array([-1.0]))


def test_deterministic_forward():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 8))
    a = ad.tanh(ad.matmul(Tensor(x), Tensor(x)))
    b = ad.tanh(ad.matmul(Tensor(x), Tensor(x)))
    assert np.array_equal(a.data, b.data)
