"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array together with the operation record that
produced it (parent tensors plus a backward closure). Calling
:meth:`Tensor.backward` on a scalar output walks the implicit graph in
reverse topological order exactly once, accumulating gradients additively
at fan-out points.

Index a Tensor with ``t[...]`` (``getitem``), the engine's one indexing
primitive: a basic slice accumulates its gradient in place, an
integer-array index through ``np.add.at``, so repeated rows sum. Its
inverse, ``scatter``, writes a tensor into a zero array at an index. A
module with a hand-written backward builds its one node with ``make_op``.

All arithmetic is 64-bit; non-finite values appearing in a forward pass
are treated as an error state by the training code, not silently kept.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "make_op",
    "add", "sub", "neg", "mul", "div", "matmul",
    "sqrt", "tanh", "sigmoid", "relu", "elu",
    "tsum", "tmean", "reshape", "transpose", "getitem", "scatter", "concat",
    "log_softmax",
    "grad_check", "GradCheckError",
]

# per-thread so that inference on shared parameter bundles stays safe
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the context (inference mode)."""
    prev = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


class Tensor:
    """A float64 array plus its reverse-mode operation record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph machinery -----------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 and is only optional for scalar outputs.
        Each node in the graph is visited exactly once (iterative
        topological order, so deep recurrent graphs do not hit the
        recursion limit).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # interior gradients are fully consumed once pushed to the
                # parents; dropping them caps live memory on long graphs
                node.grad = None

    # -- operator sugar --------------------------------------------------------
    # ``+`` and ``*`` let odesolve.rk4_solve step numpy arrays and Tensors
    # alike; ``t[...]`` is the engine's one indexing primitive.

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __getitem__(self, index):
        return getitem(self, index)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def make_op(
    out_data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Create the tensor produced by a custom primitive.

    ``backward`` receives the output gradient and must push gradients into
    the parents via ``Tensor._accumulate``. Graph wiring is skipped when
    gradients are globally disabled or no parent needs them.
    """
    out = Tensor(out_data)
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic primitives ----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return make_op(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return make_op(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = _lift(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return make_op(-a.data, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return make_op(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return make_op(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return make_op(out_data, (a, b), backward)


# -- elementwise nonlinearities -------------------------------------------------


def sqrt(a) -> Tensor:
    a = _lift(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / out_data)

    return make_op(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _lift(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return make_op(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _lift(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return make_op(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = _lift(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return make_op(out_data, (a,), backward)


def elu(a, alpha: float = 1.0) -> Tensor:
    a = _lift(a)
    neg_part = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    out_data = np.where(a.data > 0.0, a.data, neg_part)

    def backward(g):
        a._accumulate(g * np.where(a.data > 0.0, 1.0, neg_part + alpha))

    return make_op(out_data, (a,), backward)


# -- reductions and shape ops ---------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return make_op(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def reshape(a, shape: tuple) -> Tensor:
    a = _lift(a)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return make_op(a.data.reshape(shape), (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = _lift(a)
    out_data = np.transpose(a.data, axes)

    def backward(g):
        a._accumulate(np.transpose(g, None if axes is None else np.argsort(axes)))

    return make_op(out_data, (a,), backward)


def _is_basic_index(index) -> bool:
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)


def getitem(a, index) -> Tensor:
    a = _lift(a)
    out_data = a.data[index]
    basic = _is_basic_index(index)

    def backward(g):
        # write into the parent's gradient buffer in place; a fresh
        # full-size array per slice would dominate long time loops
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if basic:
            a.grad[index] += g
        else:
            np.add.at(a.grad, index, g)

    return make_op(out_data, (a,), backward)


def scatter(a, index, shape: tuple) -> Tensor:
    """A zero array of ``shape`` holding ``a`` at ``index``: the inverse of
    ``t[index]``. ``index`` must not name a position twice."""
    a = _lift(a)
    out_data = np.zeros(shape)
    out_data[index] = a.data

    def backward(g):
        a._accumulate(g[index])

    return make_op(out_data, (a,), backward)


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [_lift(t) for t in tensors]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                part._accumulate(g[tuple(idx)])

    return make_op(out_data, parts, backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsum

    def backward(g):
        softmax = np.exp(out_data)
        a._accumulate(g - softmax * g.sum(axis=axis, keepdims=True))

    return make_op(out_data, (a,), backward)


# -- gradient verification ------------------------------------------------------


class GradCheckError(RuntimeError):
    """Raised when the checked function is non-finite at the probe point."""


def grad_check(f, x, eps: float = 1e-5) -> float:
    """Max relative mismatch between reverse-mode and central finite differences.

    ``f`` maps a Tensor to a scalar Tensor; ``x`` supplies the probe point
    (Tensor or array). Relative error per coordinate is
    ``|ad - fd| / max(1, |ad|, |fd|)``.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ValueError(f"eps must lie in [1e-7, 1e-4], got {eps}")
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    if not np.all(np.isfinite(out.data)):
        raise GradCheckError("function is non-finite at the probe point")
    out.backward()
    grad_ad = probe.grad.copy() if probe.grad is not None else np.zeros_like(base)

    grad_fd = np.zeros_like(base)
    flat = base.reshape(-1)
    fd_flat = grad_fd.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(Tensor(base)).data)
            flat[i] = orig - eps
            f_minus = float(f(Tensor(base)).data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradCheckError("function is non-finite near the probe point")
            fd_flat[i] = (f_plus - f_minus) / (2.0 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(grad_ad), np.abs(grad_fd)))
    return float(np.max(np.abs(grad_ad - grad_fd) / denom))
