"""Selection rules: which coordinates get intervals, and in what order.

Each rule is written once, along the last axis, so the intervals and the
coverage engine's (reps, m) replicate blocks select the same coordinates.
The block functions return selected sets; `select_top_k` orders its one
vector's pick best-first.
"""

from __future__ import annotations

import numpy as np

from .dist import _check_mk, _check_real_array

__all__ = ["select_top_k", "select_abs_max", "top_k_indices", "abs_max_index"]


def top_k_indices(y: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, in no particular
    order; a tie for the k-th place breaks toward the smaller index.

    Each row's set equals the first k of a stable descending argsort.  A
    partition finds it; only rows where the k-th and (k+1)-th largest values
    tie, whose set the partition leaves open, are sorted.
    """
    m = y.shape[-1]
    rows = y.reshape(-1, m)
    if k == m:
        chosen = np.broadcast_to(np.arange(m), rows.shape).copy()
    else:
        part = np.argpartition(rows, m - k - 1, axis=-1)
        chosen = part[:, m - k:]
        tail = np.take_along_axis(rows, part[:, m - k - 1:], axis=-1)
        tied = tail[:, 1:].min(axis=-1) == tail[:, 0]
        if tied.any():
            # stable keeps index order among equal values
            chosen[tied] = np.argsort(-rows[tied], axis=-1, kind="stable")[:, :k]
    return chosen.reshape(y.shape[:-1] + (k,))


def abs_max_index(y: np.ndarray) -> np.ndarray:
    """Index (0 or 1) of the larger |y| along the last axis of length 2; ties
    pick index 0."""
    return (np.abs(y[..., 1]) > np.abs(y[..., 0])).astype(np.intp)


def _check_values(y) -> np.ndarray:
    y = _check_real_array(y, "y")
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a non-empty 1-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y


def select_top_k(y, k: int) -> tuple[int, ...]:
    """0-based indices of the k largest coordinates of y, largest first; ties
    break toward the smaller index so the result is deterministic."""
    y = _check_values(y)
    _check_mk(y.size, k)
    return tuple(sorted(top_k_indices(y, k).tolist(), key=lambda i: (-y[i], i)))


def select_abs_max(y) -> int:
    """0-based index of the coordinate of a pair with the larger |y|; ties
    pick index 0."""
    y = _check_values(y)
    if y.size != 2:
        raise ValueError(f"abs-max selection needs exactly 2 coordinates, got {y.size}")
    return int(abs_max_index(y))
