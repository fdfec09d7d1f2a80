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


# Reference layer kernels: the straightforward numpy forms the network's
# kernels replaced. Same arithmetic, same order of additions, so the fast
# kernels must match them bit for bit.

LEAKY_SLOPE = 0.01


def leaky_relu_backward_by_mask(g, z):
    """g times a float derivative mask: 1 where z > 0, else the slope."""
    return g * np.where(z > 0.0, z.dtype.type(1.0), z.dtype.type(LEAKY_SLOPE))


def im2col_by_concat(x, f):
    """Zero-padded same-size windows of an (n, H, W, C) batch, one row per
    output pixel, columns in (dy, dx, c) order, built from f*f slices."""
    n, h, w, cin = x.shape
    p = f // 2
    xp = np.zeros((n, h + 2 * p, w + 2 * p, cin), dtype=x.dtype)
    xp[:, p:p + h, p:p + w, :] = x
    cols = [xp[:, dy:dy + h, dx:dx + w, :] for dy in range(f) for dx in range(f)]
    return np.concatenate(cols, axis=3).reshape(n * h * w, f * f * cin)


def conv2d_reference(x, w, b, f, activation):
    """Forward of a same-padding stride-1 conv: (y, z) with z the
    pre-activation (None without an activation) and the im2col matrix."""
    n, h, wd, _ = x.shape
    cols = im2col_by_concat(x, f)
    z = (cols @ w + b).reshape(n, h, wd, w.shape[1])
    if activation == "none":
        return z, None, cols
    return np.maximum(LEAKY_SLOPE * z, z), z, cols


def conv2d_backward_reference(cols, z, w, g, f, in_shape):
    """(input gradient, [grad_w, grad_b]) of conv2d_reference, the input
    gradient summed back over the f*f window offsets in row-major order."""
    n, (h, wd, cin), p = g.shape[0], in_shape, f // 2
    if z is not None:
        g = leaky_relu_backward_by_mask(g, z)
    g_flat = g.reshape(n * h * wd, w.shape[1])
    grads = [cols.T @ g_flat, g_flat.sum(axis=0)]
    g_cols = (g_flat @ w.T).reshape(n, h, wd, f * f, cin)
    g_pad = np.zeros((n, h + 2 * p, wd + 2 * p, cin), dtype=g.dtype)
    for i, (dy, dx) in enumerate((dy, dx) for dy in range(f) for dx in range(f)):
        g_pad[:, dy:dy + h, dx:dx + wd, :] += g_cols[:, :, :, i, :]
    return g_pad[:, p:p + h, p:p + wd, :], grads


def maxpool2_by_argmax(x):
    """2x2 stride-2 max pooling by argmax over the transposed window view:
    (y, arg) with arg the first maximum's index in row-major window order."""
    n, h, w, c = x.shape
    win = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    win = win.reshape(n, h // 2, w // 2, 4, c)
    arg = np.argmax(win, axis=3)
    return np.take_along_axis(win, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :], arg


def maxpool2_backward_reference(arg, g):
    """Route each pooled gradient to its window's recorded position."""
    n, h2, w2, c = g.shape
    g_win = np.zeros((n, h2, w2, 4, c), dtype=g.dtype)
    np.put_along_axis(g_win, arg[:, :, :, None, :], g[:, :, :, None, :], axis=3)
    g_in = g_win.reshape(n, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    return g_in.reshape(n, h2 * 2, w2 * 2, c)


# Exhaustive neighbor reference: the blocked full scan that the screened
# kernel in localtriplet.knn replaced. Every pair's distance is computed
# with the pinned arithmetic and every statistic is taken over full rows,
# so the screen must reproduce these results bit for bit.

REFERENCE_BLOCK = 1 << 18   # query rows * points * dim float64s per block


def distance_blocks(q, p, metric="euclidean", exclude=None):
    """Yield (lo, hi, dist): the (hi - lo, n) distances from rows lo:hi of
    q to every row of p, each np.sum(d * d) over d = query - point,
    square-rooted for the euclidean metric before any ranking. exclude
    holds one point id per query row; that entry is NaN, which every
    comparison rejects and every sort puts last."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    m, (n, dim) = q.shape[0], p.shape
    rows = max(1, REFERENCE_BLOCK // (n * dim))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        d = q[lo:hi, None, :] - p[None, :, :]
        dist = np.sum(d * d, axis=2)
        if metric == "euclidean":
            dist = np.sqrt(dist)
        if exclude is not None:
            dist[np.arange(hi - lo), np.asarray(exclude)[lo:hi]] = np.nan
        yield lo, hi, dist


def select_k(dist, k):
    """(ids, dists): each row's k smallest entries in ascending (distance,
    id) order, ties at the kth boundary resolved by a full lexsort of every
    entry at or below the row's kth value."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(dist <= kth)
    vals = dist[rows, cols]
    order = np.lexsort((cols, vals, rows))
    starts = np.searchsorted(rows, np.arange(dist.shape[0]))
    take = order[starts[:, None] + np.arange(k)]
    return cols[take], vals[take]


def exhaustive_topk(queries, points, k, exclude=None, metric="euclidean"):
    q = np.asarray(queries, dtype=np.float64)
    ids = np.empty((q.shape[0], k), dtype=np.int64)
    dists = np.empty((q.shape[0], k))
    for lo, hi, dist in distance_blocks(q, points, metric, exclude):
        ids[lo:hi], dists[lo:hi] = select_k(dist, k)
    return ids, dists


def exhaustive_snapshot(points, labels, k):
    """(neighbor_ids, d_ak, d_ak_pos, has_positive) of a snapshot: d_ak_pos
    is the kth same-class distance, or the farthest peer's when the class
    has k or fewer other members, NaN without a peer."""
    labels = np.asarray(labels)
    n = labels.size
    neighbor_ids, d_ak = exhaustive_topk(points, points, k, exclude=np.arange(n))
    d_ak_pos = np.full(n, np.nan)
    for lo, hi, dist in distance_blocks(points, points, exclude=np.arange(n)):
        for i in range(lo, hi):
            peers = np.flatnonzero(labels == labels[i])
            within = np.sort(dist[i - lo, peers[peers != i]])
            if within.size:
                d_ak_pos[i] = within[min(k, within.size) - 1]
    return neighbor_ids, d_ak[:, -1], d_ak_pos, ~np.isnan(d_ak_pos)


def exhaustive_condition_terms(x, labels, k):
    """(d_ak, max_pos, min_neg) of the optimal-condition check: the kth
    nearest distance, the largest finite same-class distance (-inf without
    one) and the smallest other-class distance (inf without one)."""
    labels = np.asarray(labels)
    n = labels.size
    d_ak, max_pos, min_neg = np.empty((3, n))
    for lo, hi, dist in distance_blocks(x, x, exclude=np.arange(n)):
        same = labels[lo:hi, None] == labels[None, :]
        d_ak[lo:hi] = np.partition(dist, k - 1, axis=1)[:, k - 1]
        max_pos[lo:hi] = np.max(np.where(same & np.isfinite(dist), dist, -np.inf), axis=1)
        min_neg[lo:hi] = np.min(np.where(same, np.inf, dist), axis=1)
    return d_ak, max_pos, min_neg


def exhaustive_mine_hard(embeddings, labels, anchors):
    """(anchor, positive, negative) rows: the largest peer and the smallest
    other-class squared distance, each the first (lowest-index) extremum."""
    labels = np.asarray(labels)
    anchors = np.asarray(anchors, dtype=np.int64)
    out = np.empty((anchors.size, 3), dtype=np.int64)
    out[:, 0] = anchors
    for lo, hi, sq in distance_blocks(embeddings[anchors], embeddings, "sq_euclidean"):
        a = anchors[lo:hi]
        same = labels[a][:, None] == labels
        peer = same.copy()
        peer[np.arange(hi - lo), a] = False
        out[lo:hi, 1] = np.argmax(np.where(peer, sq, -np.inf), axis=1)
        out[lo:hi, 2] = np.argmin(np.where(same, np.inf, sq), axis=1)
    return out
