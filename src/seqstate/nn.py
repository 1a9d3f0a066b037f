"""Dense and recurrent building blocks on top of the autodiff engine.

Parameters live in a :class:`Params` registry whose insertion order fixes
both the serialization layout and the RNG consumption order, which is what
makes retraining with a fixed seed bit-identical.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Params:
    """Ordered name -> Tensor registry for one model."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def register(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries.keys())

    def tensors(self) -> list[Tensor]:
        return list(self._entries.values())

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def count(self) -> int:
        return sum(t.data.size for t in self._entries.values())

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._entries.items()}

    def load(self, state: dict[str, np.ndarray]) -> None:
        """Copy in ``state``, which must hold exactly this registry's names,
        each with its registered shape."""
        missing = [k for k in self._entries if k not in state]
        extra = [k for k in state if k not in self._entries]
        if missing or extra:
            raise ValueError(f"parameter names do not match: missing {missing}, "
                             f"unexpected {extra}")
        for k, t in self._entries.items():
            src = np.asarray(state[k], dtype=np.float64)
            if src.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {k}: {src.shape} vs {t.data.shape}")
            t.data = src.copy()


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform in +/- 1/sqrt(fan_in); the initializer recorded in run metadata."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def linear_params(params: Params, rng: np.random.Generator, name: str,
                  n_in: int, n_out: int) -> tuple[Tensor, Tensor]:
    w = params.register(f"{name}.w", uniform_init(rng, (n_in, n_out), n_in))
    b = params.register(f"{name}.b", uniform_init(rng, (n_out,), n_in))
    return w, b


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), b)


def mlp_params(params: Params, rng: np.random.Generator, prefix: str,
               sizes: Sequence[int]) -> None:
    """Register dense layers ``{prefix}.l1`` ... for consecutive ``sizes``."""
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
        linear_params(params, rng, f"{prefix}.l{i}", n_in, n_out)


def mlp(x: Tensor, params, prefix: str, acts: Sequence) -> Tensor:
    """Dense layers ``{prefix}.l1`` ... each followed by its entry of
    ``acts``, an autodiff function or None. ``params`` maps names to
    tensors or arrays (a :class:`Params` or a frozen snapshot)."""
    out = x
    for i, act in enumerate(acts, start=1):
        out = dense(out, params[f"{prefix}.l{i}.w"], params[f"{prefix}.l{i}.b"])
        if act is not None:
            out = act(out)
    return out


# -- recurrent cells ------------------------------------------------------------


def _gate_params(params: Params, rng: np.random.Generator, name: str,
                 n_in: int, hidden: int, gates: int) -> None:
    width = gates * hidden
    for key, shape, fan_in in (("w_ih", (n_in, width), n_in),
                               ("w_hh", (hidden, width), hidden),
                               ("b_ih", (width,), n_in),
                               ("b_hh", (width,), hidden)):
        params.register(f"{name}.{key}", uniform_init(rng, shape, fan_in))


def gru_params(params: Params, rng: np.random.Generator, name: str,
               n_in: int, hidden: int) -> None:
    """Register ``{name}.w_ih`` (n_in, 3H), ``.w_hh`` (H, 3H), ``.b_ih`` and
    ``.b_hh`` (3H,), gates laid out as [reset | update | candidate] blocks."""
    _gate_params(params, rng, name, n_in, hidden, 3)


def gru_cell(x: Tensor, h: Tensor, params, name: str) -> Tensor:
    """One GRU step with the weights ``{name}.*`` of ``params``, a
    :class:`Params` or any name -> Tensor mapping.

    r = sigmoid(W_r x + U_r h), z = sigmoid(W_z x + U_z h),
    candidate = tanh(W_n x + U_n (r*h)), h' = (1-z)*h + z*candidate.
    """
    w_ih = params[f"{name}.w_ih"]
    if x.shape[-1] != w_ih.shape[0] or h.shape[-1] != params[f"{name}.w_hh"].shape[0]:
        raise ValueError(
            f"gru_cell dimension mismatch: x {x.shape}, h {h.shape}, "
            f"w_ih {w_ih.shape}"
        )
    return gru_step(dense(x, w_ih, params[f"{name}.b_ih"]), h, params, name)


def gru_step(gi: Tensor, h: Tensor, params, name: str) -> Tensor:
    """The recurrent part of :func:`gru_cell`, given its input projection
    ``gi = x @ w_ih + b_ih`` of width 3H."""
    w_hh, b_hh = params[f"{name}.w_hh"], params[f"{name}.b_hh"]
    hidden = w_hh.shape[0]
    if gi.shape[-1] != 3 * hidden or h.shape[-1] != hidden:
        raise ValueError(f"gru_step dimension mismatch: gi {gi.shape}, h {h.shape}")
    r = ad.sigmoid(ad.add(gi[..., :hidden],
                          dense(h, w_hh[:, :hidden], b_hh[:hidden])))
    z = ad.sigmoid(ad.add(gi[..., hidden:2 * hidden],
                          dense(h, w_hh[:, hidden:2 * hidden], b_hh[hidden:2 * hidden])))
    cand = ad.tanh(ad.add(gi[..., 2 * hidden:],
                          dense(ad.mul(r, h), w_hh[:, 2 * hidden:], b_hh[2 * hidden:])))
    one_minus_z = ad.add(ad.neg(z), 1.0)
    return ad.add(ad.mul(one_minus_z, h), ad.mul(z, cand))


def lstm_params(params: Params, rng: np.random.Generator, name: str,
                n_in: int, hidden: int) -> None:
    """Register ``{name}.w_ih`` (n_in, 4H), ``.w_hh`` (H, 4H), ``.b_ih`` and
    ``.b_hh`` (4H,), gates laid out as [input | forget | cell | output]
    blocks."""
    _gate_params(params, rng, name, n_in, hidden, 4)


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, params, name: str) -> tuple[Tensor, Tensor]:
    """One LSTM step with the weights ``{name}.*`` of ``params``; returns
    (h', c')."""
    w_ih, w_hh = params[f"{name}.w_ih"], params[f"{name}.w_hh"]
    hidden = w_hh.shape[0]
    if x.shape[-1] != w_ih.shape[0] or h.shape[-1] != hidden or c.shape[-1] != hidden:
        raise ValueError(
            f"lstm_cell dimension mismatch: x {x.shape}, h {h.shape}, c {c.shape}"
        )
    pre = ad.add(dense(x, w_ih, params[f"{name}.b_ih"]),
                 dense(h, w_hh, params[f"{name}.b_hh"]))
    i = ad.sigmoid(pre[..., :hidden])
    f = ad.sigmoid(pre[..., hidden:2 * hidden])
    g = ad.tanh(pre[..., 2 * hidden:3 * hidden])
    o = ad.sigmoid(pre[..., 3 * hidden:])
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


# -- losses and statistics --------------------------------------------------------


def mse(pred: Tensor, target) -> Tensor:
    """Mean of squared elementwise differences; differentiable w.r.t. pred."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = ad.sub(pred, target)
    return ad.tmean(ad.mul(diff, diff))


_VAR_FLOOR = 1e-12


def column_pearson(x: Tensor, y) -> tuple[Tensor, np.ndarray]:
    """Pearson of each column of ``x`` (N, D) against the vector ``y`` (N,).

    Returns a length-D tensor; degenerate columns (or a degenerate y)
    contribute exactly 0 and are reported in the boolean mask.
    """
    y = y if isinstance(y, Tensor) else Tensor(y)
    n = x.shape[0]
    if y.shape != (n,):
        raise ValueError("column_pearson expects y with one entry per row of x")
    col_var = np.var(x.data, axis=0)
    degenerate = col_var < _VAR_FLOOR
    if float(np.var(y.data)) < _VAR_FLOOR:
        degenerate = np.ones(x.shape[1], dtype=bool)
    if degenerate.all():
        return Tensor(np.zeros(x.shape[1])), degenerate

    xc = ad.sub(x, ad.tmean(x, axis=0, keepdims=True))
    yc = ad.sub(y, ad.tmean(y))
    num = ad.matmul(ad.transpose(xc), ad.reshape(yc, (n, 1)))
    num = ad.reshape(num, (x.shape[1],))
    ss_x = ad.tsum(ad.mul(xc, xc), axis=0)
    ss_y = ad.tsum(ad.mul(yc, yc))
    # keep degenerate columns out of the graph denominator
    keep = (~degenerate).astype(np.float64)
    den = ad.sqrt(ad.add(ad.mul(ss_x, ss_y), degenerate.astype(np.float64)))
    rho = ad.mul(ad.div(num, den), keep)
    return rho, degenerate


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row-wise softmax."""
    logp = ad.log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(labels)), labels]
    return ad.neg(ad.tmean(picked))
