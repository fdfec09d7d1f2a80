"""Dense vector arithmetic and reductions shared by every other module.

Everything here works on float64 numpy arrays and is pure: no learning
logic, no hidden state. Squared distances are an elementwise difference,
square, and sum, so row-wise, pairwise and the distances that knn's
kernel returns are bit-identical (each reduces a contiguous run of the
same values). The Gram form |a|^2 + |b|^2 - 2 a.b is faster but not
bit-identical; knn uses it only to choose which pairs to recompute.
"""
from __future__ import annotations

import numpy as np


def as_sample_matrix(values) -> np.ndarray:
    """Coerce to a finite (n, d) float64 matrix with n, d >= 1."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"bad_matrix: expected non-empty 2-D data, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("bad_matrix: non-finite entries")
    return m


def sq_dists_rowwise(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of `points` to `q`.

    Row i is bit-identical to np.sum(d * d) over d = points[i] - q, knn's
    pinned arithmetic: the reduction runs over the same contiguous values
    with the same pairwise summation.
    """
    points = np.asarray(points, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if points.ndim != 2 or q.ndim != 1 or points.shape[1] != q.shape[0]:
        raise ValueError(f"dim_mismatch: {points.shape} vs {q.shape}")
    d = points - q
    return np.sum(d * d, axis=1)


def pairwise_sq_dists(points: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Exact (n, n) squared-distance matrix, row chunks to bound memory."""
    points = as_sample_matrix(points)
    n = points.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d = points[lo:hi, None, :] - points[None, :, :]
        out[lo:hi] = np.sum(d * d, axis=2)
    return out


def pairwise_sq_dists_gram(points: np.ndarray) -> np.ndarray:
    """(n, n) squared distances via the Gram matrix.

    Faster than the exact path for large n but subject to cancellation
    noise around zero; results are clamped at 0. Not bit-identical to the
    exact arithmetic. knn.screen computes the same form blockwise on
    mean-centred points, only to pick candidates within a rounding bound of
    each order statistic, and recomputes those with the exact arithmetic;
    no neighbor result comes from this function.
    """
    points = as_sample_matrix(points)
    sq_norms = np.sum(points * points, axis=1)
    d = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (points @ points.T)
    np.maximum(d, 0.0, out=d)
    return d


def mean_and_var(xs) -> tuple[float, float]:
    """Population mean and population variance (divide by N)."""
    x = np.asarray(xs, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("empty_sample: need at least one value")
    m = float(np.mean(x))
    c = x - m
    return m, float(np.mean(c * c))
