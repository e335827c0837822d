"""Small deterministic float64 vector kernels used by every other module.

Vectors are 1-D numpy float64 arrays (array-likes are coerced);
``l2_normalize`` also takes a 2-D block of row vectors. Probability
vectors additionally have non-negative entries summing to one within 1e-9.
All functions are pure, never mutate their input, and never return NaN/Inf.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVector

_ZERO_NORM = 1e-300
_PROB_TOL = 1e-9


def as_vec(v) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    return arr


def l2_normalize(v) -> np.ndarray:
    """Scale a vector, or each row of a 2-D block, to unit Euclidean norm.
    Each squared norm is ``row @ row`` from one stacked (1, m) @ (m, 1) matmul,
    so a row's bytes depend only on that row; a vector is the one-row case."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in (1, 2) or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected a finite vector or 2-D block, got shape {arr.shape}")
    rows = np.atleast_2d(arr)
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))[:, 0]
    if np.any(norms < _ZERO_NORM):
        raise ZeroVector("cannot normalize a zero vector")
    return (rows / norms).reshape(arr.shape)


def softmax(v) -> np.ndarray:
    """Numerically stable softmax (max-subtraction); output sums to 1."""
    arr = as_vec(v)
    if arr.size == 0:
        raise ValueError("softmax of an empty vector")
    e = np.exp(arr - arr.max())
    return e / e.sum()


def entropy(p) -> float:
    """Shannon entropy in nats with the 0*ln(0) := 0 convention."""
    arr = as_vec(p)
    if arr.size == 0:
        raise ValueError("entropy of an empty vector")
    if np.any(arr < 0.0) or abs(float(arr.sum()) - 1.0) > _PROB_TOL:
        raise ValueError("entropy expects a probability vector")
    nz = arr[arr > 0.0]
    return max(0.0, float(-(nz * np.log(nz)).sum()))
