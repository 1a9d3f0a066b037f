"""Truncated path signatures, batch and stream-preserving.

A depth-N signature of a d-channel path is stored flat, ordered by level
and then lexicographically by word, with the level-0 constant 1 included,
so its length is (d^(N+1) - 1) / (d - 1).

Signatures of piecewise-linear paths are computed segment by segment: each
segment contributes the tensor exponential of its increment, and segments
combine through Chen's identity (the truncated tensor-algebra product).
Everything is built from autodiff primitives, so signatures are
differentiable with respect to the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .packing import Packed


def sig_length(channels: int, depth: int) -> int:
    if channels == 1:
        return depth + 1
    return (channels ** (depth + 1) - 1) // (channels - 1)


@dataclass
class SignatureVector:
    """Flat truncated signature: level 0 first, then level 1, 2, ..."""

    depth: int
    channels: int
    values: Tensor

    def __post_init__(self):
        expected = sig_length(self.channels, self.depth)
        if self.values.shape[-1] != expected:
            raise ValueError(
                f"signature length {self.values.shape[-1]} != expected {expected}"
            )

    def level(self, k: int) -> Tensor:
        lo = sig_length(self.channels, k - 1) if k > 0 else 0
        hi = sig_length(self.channels, k)
        return self.values[..., lo:hi]


def _outer_flat(u: Tensor, v: Tensor) -> Tensor:
    m = u.shape[0]
    n = v.shape[0]
    prod = ad.mul(ad.reshape(u, (m, 1)), ad.reshape(v, (1, n)))
    return ad.reshape(prod, (m * n,))


def _segment_exp(delta: Tensor, depth: int) -> list[Tensor]:
    """Tensor exponential of one linear segment: level k = delta^(x)k / k!."""
    levels = [Tensor(np.ones(1))]
    cur = delta
    levels.append(cur)
    for k in range(2, depth + 1):
        cur = ad.mul(_outer_flat(cur, delta), 1.0 / k)
        levels.append(cur)
    return levels


def _chen(a: list[Tensor], b: list[Tensor], depth: int) -> list[Tensor]:
    """Truncated tensor-algebra product of two signatures given as levels."""
    out = []
    for k in range(depth + 1):
        acc = None
        for i in range(k + 1):
            term = _outer_flat(a[i], b[k - i])
            acc = term if acc is None else ad.add(acc, term)
        out.append(acc)
    return out


def _trivial_levels(channels: int, depth: int) -> list[Tensor]:
    levels = [Tensor(np.ones(1))]
    for k in range(1, depth + 1):
        levels.append(Tensor(np.zeros(channels**k)))
    return levels


def _flatten_levels(levels: list[Tensor]) -> Tensor:
    return ad.concat(levels, axis=0)


def _check_path(path: Tensor, depth: int) -> tuple[int, int]:
    if path.ndim != 2:
        raise ValueError("signature expects a (T, d) path")
    t_len, channels = path.shape
    if t_len < 2:
        raise ValueError(f"signature needs at least 2 path points, got {t_len}")
    if channels < 1 or depth < 1:
        raise ValueError("signature needs d >= 1 and depth >= 1")
    return t_len, channels


def signature(path, depth: int) -> SignatureVector:
    """Truncated signature of a piecewise-linear path of shape (T, d)."""
    path = path if isinstance(path, Tensor) else Tensor(path)
    t_len, channels = _check_path(path, depth)
    levels = _segment_exp(ad.sub(path[1], path[0]), depth)
    for t in range(2, t_len):
        seg = _segment_exp(ad.sub(path[t], path[t - 1]), depth)
        levels = _chen(levels, seg, depth)
    return SignatureVector(depth, channels, _flatten_levels(levels))


def chen_product(a: SignatureVector, b: SignatureVector) -> SignatureVector:
    """Combine signatures of two concatenated paths (Chen's identity)."""
    if a.channels != b.channels or a.depth != b.depth:
        raise ValueError("chen_product needs matching channels and depth")
    a_levels = [a.level(k) for k in range(a.depth + 1)]
    b_levels = [b.level(k) for k in range(b.depth + 1)]
    out = _chen(a_levels, b_levels, a.depth)
    return SignatureVector(a.depth, a.channels, _flatten_levels(out))


def stream_signature(path, depth: int) -> Tensor:
    """Expanding-window signature rows: row t is signature(path[0..t]).

    Row 0 is the trivial signature (1, 0, ..., 0). Rows are produced
    incrementally through Chen's identity and match from-scratch
    recomputation.
    """
    path = path if isinstance(path, Tensor) else Tensor(path)
    t_len, channels = _check_path(path, depth)
    levels = _trivial_levels(channels, depth)
    rows = [_flatten_levels(levels)]
    for t in range(1, t_len):
        seg = _segment_exp(ad.sub(path[t], path[t - 1]), depth)
        levels = _chen(levels, seg, depth)
        rows.append(_flatten_levels(levels))
    stacked = ad.concat([ad.reshape(r, (1, -1)) for r in rows], axis=0)
    return stacked


def sig2_stream(x) -> Tensor:
    """Fused depth-2 stream signature of a batch of paths (B, T, C).

    Returns (B, T, 1 + C + C^2) with the same row convention as
    :func:`stream_signature`; a one-point path gives the trivial row, so a
    one-step stay encodes like any other. One primitive with an analytic
    backward pass, so no (B, T, C, C) intermediates are kept alive in the
    graph.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 3:
        raise ValueError("sig2_stream expects (B, T, C)")
    bsz, t_len, channels = x.shape
    if t_len < 1:
        raise ValueError("sig2_stream needs at least 1 path point")

    data = x.data
    d_x = data[:, 1:] - data[:, :-1]                      # (B, T-1, C)
    s1 = np.cumsum(d_x, axis=1)                           # level 1 at t >= 1

    # stream level 2 with per-step temporaries; materializing the
    # (B, T, C, C) outer products at once thrashes the allocator
    out = np.zeros((bsz, t_len, 1 + channels + channels * channels))
    out[:, :, 0] = 1.0
    out[:, 1:, 1:1 + channels] = s1
    acc = np.zeros((bsz, channels, channels))
    for t in range(t_len - 1):
        dxt = d_x[:, t]
        acc += 0.5 * (dxt[:, :, None] * dxt[:, None, :])
        if t > 0:
            acc += s1[:, t - 1][:, :, None] * dxt[:, None, :]
        out[:, t + 1, 1 + channels:] = acc.reshape(bsz, -1)

    def backward(g):
        g1 = np.array(g[:, 1:, 1:1 + channels])
        g_dx = np.empty_like(d_x)
        gacc = np.zeros((bsz, channels, channels))
        for t in range(t_len - 2, -1, -1):
            gacc += g[:, t + 1, 1 + channels:].reshape(bsz, channels, channels)
            dxt = d_x[:, t]
            g_dx[:, t] = 0.5 * (
                np.einsum("bcd,bc->bd", gacc, dxt)
                + np.einsum("bcd,bd->bc", gacc, dxt)
            )
            if t > 0:
                g_dx[:, t] += np.einsum("bcd,bc->bd", gacc, s1[:, t - 1])
                g1[:, t - 1] += np.einsum("bcd,bd->bc", gacc, dxt)
        run = np.zeros((bsz, channels))
        for t in range(t_len - 2, -1, -1):
            run += g1[:, t]
            g_dx[:, t] += run
        if x.grad is None:
            x.grad = np.zeros_like(data)
        x.grad[:, 1:] += g_dx
        x.grad[:, :-1] -= g_dx

    return ad.make_op(out, (x,), backward)


def sig2_linear(x, w, b, packed: Packed) -> Tensor:
    """``sig2_stream @ w + b`` for paths laid out as :class:`Packed` rows,
    without building the (N, 1 + C + C^2) stream.

    Row i of ``x`` (N, C) is a point of one path, and row i of the output
    is the projected stream row of that path up to that point.

    With dx_s the increment of segment s and m_s = S1_s + dx_s / 2 the
    level-1 value at its midpoint, the level-2 row at step t is
    sum_{s<t} m_s (x) dx_s. Its projection through the (C, C*K) level-2
    block W2 of w is the running sum over s of dx_s . (m_s @ W2): one
    (S, C) @ (C, C*K) GEMM forward and two backward, over the S = N - B
    segments that lie inside a path. One primitive with an analytic
    backward pass; a one-point path gives w[0] + b.
    """
    x, w, b = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, w, b))
    n_rows, channels = x.shape
    width = 1 + channels + channels * channels
    if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
        raise ValueError(
            f"sig2_linear of {channels} channels needs w of shape ({width}, K) "
            f"and b of shape (K,); got {w.shape} and {b.shape}"
        )
    k_out = w.shape[1]
    sizes, prev, first = packed.sizes, packed.prev, packed.first
    n0 = int(sizes[0])
    seg = packed.offsets[:-1] - n0  # where step t >= 1 starts among the segment rows

    data = x.data
    w1 = w.data[1:1 + channels]                                   # (C, K)
    w2 = w.data[1 + channels:].reshape(channels, channels * k_out)
    d_x = data[n0:] - data[prev]
    # m_s = S1_s + dx_s / 2 = (x_s + x_{s+1}) / 2 - x_0
    mid = 0.5 * (data[n0:] + data[prev]) - data[first]

    proj = (mid @ w2).reshape(-1, channels, k_out)  # [s, d] = sum_c m_sc W2[c, d]
    step = d_x @ w1 + np.einsum("nd,ndk->nk", d_x, proj)
    for t in range(2, sizes.size):  # running sum over each path's segments
        n = sizes[t]
        step[seg[t]:seg[t] + n] += step[seg[t - 1]:seg[t - 1] + n]
    out = np.empty((n_rows, k_out))
    out[:n0] = w.data[0] + b.data
    out[n0:] = step + out[:1]

    def backward(g):
        # step s reaches every later output row of its path
        g_step = np.array(g[n0:])
        for t in range(sizes.size - 2, 0, -1):
            n = sizes[t + 1]
            g_step[seg[t]:seg[t] + n] += g_step[seg[t + 1]:seg[t + 1] + n]
        outer = (d_x[:, :, None] * g_step[:, None, :]).reshape(-1, channels * k_out)
        g_sum = g.sum(axis=0)
        if b.requires_grad:
            b._accumulate(g_sum)
        if w.requires_grad:
            g_w = np.empty_like(w.data)
            g_w[0] = g_sum
            g_w[1:1 + channels] = d_x.T @ g_step
            g_w[1 + channels:] = (mid.T @ outer).reshape(channels * channels, k_out)
            w._accumulate(g_w)
        if x.requires_grad:
            g_dx = g_step @ w1.T + np.einsum("ndk,nk->nd", proj, g_step)
            g_mid = outer @ w2.T
            g_x = np.zeros_like(data)
            g_x[n0:] += g_dx + 0.5 * g_mid
            g_x[prev] += 0.5 * g_mid - g_dx
            g_first = np.zeros((n0, channels))  # every m_s is measured from x_0
            for t in range(1, sizes.size):
                g_first[:sizes[t]] += g_mid[seg[t]:seg[t] + sizes[t]]
            g_x[:n0] -= g_first
            x._accumulate(g_x)

    return ad.make_op(out, (x, w, b), backward)
