"""The packed layout of a batch of stays of different lengths.

A batch's real (patient, step) cells become rows, time-major: the stays
are sorted by length, longest first (a stable sort), so the stays live at
step t are a prefix of that order, step t's rows are one contiguous slice,
and a recurrent state carries on from step t - 1 as its prefix. This is
the layout of PyTorch's ``pack_padded_sequence``. Every index into it is
derived here, once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class Packed:
    """A batch's real cells as rows: step t's rows are ``step(t)``, the
    ``sizes[t]`` live stays in rank order."""

    order: np.ndarray    # (B,) batch rows, longest stay first
    sizes: np.ndarray    # (T,) live stays per step, non-increasing
    offsets: np.ndarray  # (T + 1,) first row of each step
    cells: tuple[np.ndarray, np.ndarray]  # (batch row, step) of each packed row
    prev: np.ndarray     # row of the same stay's previous step, per row past step 0
    first: np.ndarray    # row of the same stay's step 0, per row past step 0

    def step(self, t: int) -> slice:
        return slice(self.offsets[t], self.offsets[t + 1])

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """The packed rows of a (B, T, ...) array."""
        return grid[self.cells]

    def scatter(self, rows: Tensor) -> Tensor:
        """Packed rows back on the (B, T, ...) grid, each padded cell 0."""
        shape = (self.order.size, self.sizes.size) + rows.shape[1:]
        return ad.scatter(rows, self.cells, shape)


def pack(lengths: np.ndarray) -> Packed:
    """The packed layout of stays with these step counts (each at least 1)."""
    order = np.argsort(-lengths, kind="stable")
    sizes = (lengths[None, :] > np.arange(lengths.max())[:, None]).sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    cells = (np.concatenate([order[:n] for n in sizes]),
             np.repeat(np.arange(sizes.size), sizes))
    rows = np.arange(sizes[0], offsets[-1])
    prev = rows - np.repeat(sizes[:-1], sizes[1:])
    first = rows - np.repeat(offsets[1:-1], sizes[1:])
    return Packed(order, sizes, offsets, cells, prev, first)
