"""Dense and recurrent building blocks on top of the autodiff engine.

Parameters live in a :class:`Params` registry whose insertion order fixes
both the serialization layout and the RNG consumption order, which is what
makes retraining with a fixed seed bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class GRUParams:
    """Gate weights laid out as [reset | update | candidate] blocks."""

    w_ih: Tensor  # (n_in, 3H)
    w_hh: Tensor  # (H, 3H)
    b_ih: Tensor  # (3H,)
    b_hh: Tensor  # (3H,)

    @property
    def hidden(self) -> int:
        return self.w_hh.shape[0]


def gru_params(params: Params, rng: np.random.Generator, name: str,
               n_in: int, hidden: int) -> GRUParams:
    return GRUParams(
        w_ih=params.register(f"{name}.w_ih", uniform_init(rng, (n_in, 3 * hidden), n_in)),
        w_hh=params.register(f"{name}.w_hh", uniform_init(rng, (hidden, 3 * hidden), hidden)),
        b_ih=params.register(f"{name}.b_ih", uniform_init(rng, (3 * hidden,), n_in)),
        b_hh=params.register(f"{name}.b_hh", uniform_init(rng, (3 * hidden,), hidden)),
    )


def gru_cell(x: Tensor, h: Tensor, p: GRUParams) -> Tensor:
    """One GRU step.

    r = sigmoid(W_r x + U_r h), z = sigmoid(W_z x + U_z h),
    candidate = tanh(W_n x + U_n (r*h)), h' = (1-z)*h + z*candidate.
    """
    if x.shape[-1] != p.w_ih.shape[0] or h.shape[-1] != p.hidden:
        raise ValueError(
            f"gru_cell dimension mismatch: x {x.shape}, h {h.shape}, "
            f"w_ih {p.w_ih.shape}"
        )
    return gru_step(dense(x, p.w_ih, p.b_ih), h, p)


def gru_step(gi: Tensor, h: Tensor, p: GRUParams) -> Tensor:
    """The recurrent part of :func:`gru_cell`, given its input projection
    ``gi = x @ w_ih + b_ih`` of width 3H."""
    hidden = p.hidden
    if gi.shape[-1] != 3 * hidden or h.shape[-1] != hidden:
        raise ValueError(f"gru_step dimension mismatch: gi {gi.shape}, h {h.shape}")
    r = ad.sigmoid(ad.add(gi[..., :hidden],
                          dense(h, p.w_hh[:, :hidden], p.b_hh[:hidden])))
    z = ad.sigmoid(ad.add(gi[..., hidden:2 * hidden],
                          dense(h, p.w_hh[:, hidden:2 * hidden], p.b_hh[hidden:2 * hidden])))
    cand = ad.tanh(ad.add(gi[..., 2 * hidden:],
                          dense(ad.mul(r, h), p.w_hh[:, 2 * hidden:], p.b_hh[2 * hidden:])))
    one_minus_z = ad.add(ad.neg(z), 1.0)
    return ad.add(ad.mul(one_minus_z, h), ad.mul(z, cand))


@dataclass
class LSTMParams:
    """Gate weights laid out as [input | forget | cell | output] blocks."""

    w_ih: Tensor  # (n_in, 4H)
    w_hh: Tensor  # (H, 4H)
    b_ih: Tensor  # (4H,)
    b_hh: Tensor  # (4H,)

    @property
    def hidden(self) -> int:
        return self.w_hh.shape[0]


def lstm_params(params: Params, rng: np.random.Generator, name: str,
                n_in: int, hidden: int) -> LSTMParams:
    return LSTMParams(
        w_ih=params.register(f"{name}.w_ih", uniform_init(rng, (n_in, 4 * hidden), n_in)),
        w_hh=params.register(f"{name}.w_hh", uniform_init(rng, (hidden, 4 * hidden), hidden)),
        b_ih=params.register(f"{name}.b_ih", uniform_init(rng, (4 * hidden,), n_in)),
        b_hh=params.register(f"{name}.b_hh", uniform_init(rng, (4 * hidden,), hidden)),
    )


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, p: LSTMParams) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns (h', c')."""
    hidden = p.hidden
    if x.shape[-1] != p.w_ih.shape[0] or h.shape[-1] != hidden or c.shape[-1] != hidden:
        raise ValueError(
            f"lstm_cell dimension mismatch: x {x.shape}, h {h.shape}, c {c.shape}"
        )
    pre = ad.add(dense(x, p.w_ih, p.b_ih), dense(h, p.w_hh, p.b_hh))
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
    picked = ad.take_columns(logp, labels)
    return ad.neg(ad.tmean(picked))
