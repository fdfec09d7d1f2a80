"""Independent oracles shared across the test suite.

Kept deliberately dumb: scalar loops, exhaustive scans, and central
finite differences, so the implementations under test never share code
paths with their checks beyond the public distance arithmetic the
contracts pin down.
"""
from __future__ import annotations

import math

import numpy as np


def scalar_sq_dist(a, b) -> float:
    """Sequential scalar-loop squared distance."""
    total = 0.0
    for x, y in zip(a, b):
        total += (float(x) - float(y)) ** 2
    return total


def scalar_mean_var(xs) -> tuple[float, float]:
    """Two-pass scalar mean and population variance."""
    n = len(xs)
    mean = sum(float(x) for x in xs) / n
    var = sum((float(x) - mean) ** 2 for x in xs) / n
    return mean, var


def brute_knn(points, q, k, metric="euclidean", exclude=None):
    """Exhaustive scan with ascending (distance, index) ordering.

    Distances are computed with the library's pinned arithmetic (an
    elementwise difference reduced by numpy) so equality with the index
    is exact; the *selection* logic here is an independent full sort.
    """
    points = np.asarray(points, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    scored = []
    for i in range(points.shape[0]):
        if i == exclude:
            continue
        d = points[i] - q
        dist = float(np.sum(d * d))
        if metric == "euclidean":
            dist = math.sqrt(dist)
        scored.append((dist, i))
    scored.sort()
    return [(i, dist) for dist, i in scored[:k]]


def brute_classify(points, labels, q, k):
    """Majority vote over the exhaustive k nearest, ties to the class of
    the nearest tied neighbor."""
    neighbors = brute_knn(points, q, k)
    counts: dict[int, int] = {}
    for i, _ in neighbors:
        counts[int(labels[i])] = counts.get(int(labels[i]), 0) + 1
    best = max(counts.values())
    tied = {c for c, m in counts.items() if m == best}
    for i, _ in neighbors:
        if int(labels[i]) in tied:
            return int(labels[i])
    raise AssertionError("unreachable")


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_gradient_at(f, x, coords, h=1e-4):
    """Central differences at selected flat coordinates only."""
    out = {}
    for i in coords:
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        out[i] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def rel_err(a, b, floor=1.0):
    """|a-b| / max(|a|, |b|, floor), elementwise maximum."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# Scalar reference samplers: one anchor per call, O(n) scans, draws in the
# fixed per-anchor order (uniform: positive then negative; local: negative
# then positive). Each returns the (anchor, positive, negative) ids.

def _scalar_positives(labels, anchor):
    pos = np.flatnonzero(labels == labels[anchor])
    return pos[pos != anchor]


def _scalar_choice(rng, candidates):
    return int(candidates[rng.integers(candidates.size)])


def scalar_sample_uniform(labels, anchor, rng):
    labels = np.asarray(labels)
    pos = _scalar_positives(labels, anchor)
    if pos.size == 0:
        raise ValueError(f"no_positive: class of anchor {anchor} has a single sample")
    neg = np.flatnonzero(labels != labels[anchor])
    if neg.size == 0:
        raise ValueError("no_negative: dataset has a single class")
    return anchor, _scalar_choice(rng, pos), _scalar_choice(rng, neg)


def scalar_sample_local(neighbor_ids, labels, anchor, rng):
    labels = np.asarray(labels)
    pos = _scalar_positives(labels, anchor)
    if pos.size == 0:
        raise ValueError(f"no_positive: class of anchor {anchor} has a single sample")
    neg = np.flatnonzero(labels != labels[anchor])
    if neg.size == 0:
        raise ValueError("no_negative: dataset has a single class")
    hood = np.asarray(neighbor_ids)[anchor]
    local_neg = hood[labels[hood] != labels[anchor]]
    n = _scalar_choice(rng, local_neg) if local_neg.size else _scalar_choice(rng, neg)
    nonlocal_pos = pos[~np.isin(pos, hood)]
    p = _scalar_choice(rng, nonlocal_pos) if nonlocal_pos.size else _scalar_choice(rng, pos)
    return anchor, p, n


def scalar_sample_hard(embeddings, labels, anchor):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    d = embeddings - embeddings[anchor]
    sq = np.sum(d * d, axis=1)
    pos_mask = labels == labels[anchor]
    pos_mask[anchor] = False
    if not np.any(pos_mask):
        raise ValueError(f"no_positive: batch holds no same-class sample for row {anchor}")
    neg_mask = labels != labels[anchor]
    if not np.any(neg_mask):
        raise ValueError(f"no_negative: batch holds no different-class sample for row {anchor}")
    # np.argmax/argmin return the first (lowest-index) extremum
    p = int(np.argmax(np.where(pos_mask, sq, -np.inf)))
    n = int(np.argmin(np.where(neg_mask, sq, np.inf)))
    return anchor, p, n
