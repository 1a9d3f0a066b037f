"""Adam optimizer and gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import Params


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: Params, lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, t in params.items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adam_step(state: AdamState, params: Params) -> None:
    """Standard Adam update with bias correction, in place on ``params``,
    from each parameter's ``grad``; a parameter without one is skipped."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for name, t in params.items():
        g = t.grad
        if g is None:
            continue
        if g.shape != t.data.shape:
            raise ValueError(f"adam_step shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        t.data = t.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_global_norm(params: Params, max_norm: float) -> float:
    """Scale the gradients of ``params`` in place so their joint L2 norm is
    at most ``max_norm``; returns the norm before clipping."""
    grads = [t.grad for t in params.tensors() if t.grad is not None]
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
