"""Selection rules: which coordinates get intervals, and in what order.

Each rule is written once, along the last axis, so the intervals and the
coverage engine's (reps, m) replicate blocks select the same coordinates.
The block functions return selected sets; `select_top_k` orders its one
vector's pick best-first.
"""

from __future__ import annotations

import numpy as np

from .dist import _check_mk, _check_real_array

__all__ = ["select_top_k", "select_abs_max", "top_k_indices", "abs_max_index",
           "selected_entries"]


def top_k_indices(y: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, in increasing
    order; a tie for the k-th place breaks toward the smaller index.

    Each row's set equals the first k of a stable descending argsort, so a
    NaN ranks below every number.
    """
    m = y.shape[-1]
    flat = _top_k_flat(y.reshape(-1, m), k)
    return (flat % m).reshape(y.shape[:-1] + (k,))


def _top_k_flat(rows: np.ndarray, k: int) -> np.ndarray:
    # flat indices into the 2-d `rows` of each row's top k, k per row in
    # row-major order.  Column m-k-1 of a value partition is each row's
    # (k+1)-th largest value, and only the k entries above it can exceed it;
    # all k do unless the row ties for the k-th place or holds a NaN (which
    # the partition ranks above every number), and only such rows are sorted.
    n, m = rows.shape
    if k == m:
        return np.arange(n * m)
    edge = np.partition(rows, m - k - 1, axis=-1)[:, m - k - 1]
    keep = rows > edge[:, None]
    flat = np.flatnonzero(keep)
    if flat.size != n * k:
        short = np.flatnonzero(keep.sum(axis=-1) != k)
        # stable keeps index order among equal values
        order = np.argsort(-rows[short], axis=-1, kind="stable")[:, :k]
        keep[short] = False
        keep[short[:, None], order] = True
        flat = np.flatnonzero(keep)
    return flat


def abs_max_index(y: np.ndarray) -> np.ndarray:
    """Index (0 or 1) of the larger |y| along the last axis of length 2; ties
    pick index 0."""
    return (np.abs(y[..., 1]) > np.abs(y[..., 0])).astype(np.intp)


def selected_entries(y: np.ndarray, rule: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where a rule's pick lies in a 2-d (rows, m) block: `(flat, cols)`, both
    (rows, k), with each selected entry's row-major index into `y` and its
    column.  `rule` is "top_k" (`top_k_indices`' sets, columns in increasing
    order) or "abs_max" (`abs_max_index`, m = 2 and k = 1)."""
    n, m = y.shape
    if rule == "abs_max":
        cols = abs_max_index(y)[:, None]
        return np.arange(0, n * m, m)[:, None] + cols, cols
    flat = _top_k_flat(y, k).reshape(n, k)
    return flat, flat % m


def _check_values(y) -> np.ndarray:
    y = _check_real_array(y, "y")
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a non-empty 1-d array")
    if not np.isfinite(y).all():
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
    return int(abs(y.item(1)) > abs(y.item(0)))  # abs_max_index's comparison, on floats
