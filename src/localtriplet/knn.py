"""Exact nearest-neighbor search, KNN classification, and the per-epoch
neighborhood snapshot used by margin computation and local mining.

Every neighbor computation goes through one blocked brute-force kernel,
``topk``: distances are computed for a block of query rows at a time with
the pinned diff-square-sum arithmetic, so each pair's distance is
bit-identical to ``mathops.sq_dist``, and the k nearest are selected per
row in ascending (distance, id) order, ties broken by ascending point
index. The result equals an exhaustive sorted scan for every n.

Neighborhood snapshots always measure Euclidean (unsquared) distance so
that triangle-inequality reasoning about neighborhood radii is sound;
orderings are identical under both metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mathops import as_sample_matrix

# scratch budget of one distance block: query rows * points * dim float64s
BLOCK_ELEMENTS = 1 << 18


def choose_k(n: int) -> int:
    """Neighbor count ceil(sqrt(n)), computed in exact integer arithmetic."""
    if n < 1:
        raise ValueError(f"bad_n: {n}")
    return math.isqrt(n - 1) + 1


@dataclass(frozen=True)
class NeighborIndex:
    """Immutable search index over an embedded, labeled point set."""

    points: np.ndarray          # (n, dim) float64
    labels: np.ndarray          # (n,) int64
    metric: str                 # "euclidean" | "sq_euclidean"

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def build_index(points, labels, metric: str = "euclidean") -> NeighborIndex:
    """Validate and freeze a labeled point set for exact search."""
    if metric not in ("euclidean", "sq_euclidean"):
        raise ValueError(f"bad_metric: {metric}")
    pts = as_sample_matrix(points).copy()
    lab = np.asarray(labels, dtype=np.int64).copy()
    if lab.ndim != 1 or lab.shape[0] != pts.shape[0]:
        raise ValueError(f"label_mismatch: {pts.shape[0]} points vs {lab.shape} labels")
    pts.setflags(write=False)
    lab.setflags(write=False)
    return NeighborIndex(points=pts, labels=lab, metric=metric)


def distance_blocks(q: np.ndarray, p: np.ndarray, metric: str = "euclidean", exclude=None):
    """Yield (lo, hi, dist): the (hi - lo, n) distances from rows lo:hi of
    the float64 matrix q to every row of p, each np.sum(d * d) over
    d = query - point as in mathops.sq_dist, square-rooted for the
    euclidean metric before any ranking (sqrt can merge squared distances
    an ulp apart into exact ties, which then break by id). exclude holds
    one point id per query row; that entry is NaN, which every comparison
    rejects and every sort puts last.
    """
    m, (n, dim) = q.shape[0], p.shape
    rows = max(1, BLOCK_ELEMENTS // (n * dim))
    scratch = np.empty((min(rows, m), n, dim), dtype=np.float64)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        d = np.subtract(q[lo:hi, None, :], p[None, :, :], out=scratch[:hi - lo])
        dist = np.sum(np.multiply(d, d, out=d), axis=2)
        if metric == "euclidean":
            np.sqrt(dist, out=dist)
        if exclude is not None:
            dist[np.arange(hi - lo), exclude[lo:hi]] = np.nan
        yield lo, hi, dist


def _select_k(dist: np.ndarray, k: int):
    """(ids, dists), both (rows, k): each row's k smallest entries in
    ascending (distance, id) order. Every column at or below the row's kth
    value is a candidate; sorting candidates by (row, distance, id) and
    keeping each row's first k resolves ties at the kth boundary exactly.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(dist <= kth)
    vals = dist[rows, cols]
    order = np.lexsort((cols, vals, rows))
    starts = np.searchsorted(rows, np.arange(dist.shape[0]))
    take = order[starts[:, None] + np.arange(k)]
    return cols[take], vals[take]


def topk(queries, points, k: int, exclude=None, metric: str = "euclidean"):
    """Exact k nearest points of every query row.

    exclude, if given, is one point id per query row left out of that
    row's candidates. Returns (ids, dists), both (m, k), each row in
    ascending (distance, id) order; dists are in the given metric.
    """
    if metric not in ("euclidean", "sq_euclidean"):
        raise ValueError(f"bad_metric: {metric}")
    q = as_sample_matrix(queries)
    p = as_sample_matrix(points)
    if q.shape[1] != p.shape[1]:
        raise ValueError(f"dim_mismatch: queries {q.shape} vs points {p.shape}")
    avail = p.shape[0] - (1 if exclude is not None else 0)
    if k < 1 or k > avail:
        raise ValueError(f"k_exceeds_n: k={k}, available={avail}")
    ids = np.empty((q.shape[0], k), dtype=np.int64)
    dists = np.empty((q.shape[0], k), dtype=np.float64)
    for lo, hi, dist in distance_blocks(q, p, metric, exclude):
        ids[lo:hi], dists[lo:hi] = _select_k(dist, k)
    return ids, dists


def query_knn(
    index: NeighborIndex, q, k: int, exclude: int | None = None
) -> list[tuple[int, float]]:
    """The k nearest points to q: (point id, distance) ascending, ties by id."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise ValueError(f"dim_mismatch: query {q.shape} vs index dim {index.dim}")
    ids, dists = topk(q[None, :], index.points, k,
                      exclude=None if exclude is None else [exclude], metric=index.metric)
    return [(int(i), float(d)) for i, d in zip(ids[0], dists[0])]


def knn_classify(index: NeighborIndex, q, k: int):
    """Predict by neighbor vote.

    Returns (predicted class, posterior map). Posteriors are exact
    fractions count/k so they always sum to 1; argmax ties go to the
    class of the nearest neighbor among the tied classes.
    """
    votes = [int(index.labels[i]) for i, _ in query_knn(index, q, k)]
    counts = {c: votes.count(c) for c in votes}    # keys nearest first
    best = max(counts.values())
    pred = next(c for c, m in counts.items() if m == best)
    return pred, {c: Fraction(m, k) for c, m in counts.items()}


@dataclass(frozen=True)
class NeighborhoodSnapshot:
    """Per-anchor neighborhood geometry frozen at the start of an epoch.

    d_ak[a] is the Euclidean distance from anchor a to its kth nearest
    neighbor of any class (self excluded); neighbor_ids[a] are those k
    indices; d_ak_pos[a] is the distance to the kth nearest same-class
    neighbor, falling back to the farthest available same-class peer when
    the class holds fewer than k+1 samples. Anchors whose class has no
    other sample get has_positive False and NaN d_ak_pos.
    """

    epoch: int
    k: int
    d_ak: np.ndarray          # (n,) float64, Euclidean
    d_ak_pos: np.ndarray      # (n,) float64, Euclidean; NaN if no positive
    neighbor_ids: np.ndarray  # (n, k) int64, ascending (distance, id)
    has_positive: np.ndarray  # (n,) bool

    @property
    def n(self) -> int:
        return self.d_ak.shape[0]

    def mean_d_ak(self) -> float:
        return float(np.mean(self.d_ak))

    def max_d_ak(self) -> float:
        return float(np.max(self.d_ak))

    def mean_d_ak_pos(self) -> float:
        usable = self.d_ak_pos[self.has_positive]
        return float(np.mean(usable)) if usable.size else float("nan")


def take_snapshot(index: NeighborIndex, k: int, epoch: int = 0) -> NeighborhoodSnapshot:
    """Freeze every anchor's neighborhood at the start of an epoch."""
    n = index.n
    if k < 1 or k > n - 1:
        raise ValueError(f"k_exceeds_n: k={k}, n={n} (self excluded)")
    labels = index.labels
    # per class with a peer: its sorted members and the order statistic of
    # the kth same-class neighbor, or of the farthest peer when m <= k
    classes = []
    has_positive = np.zeros(n, dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.size >= 2:
            classes.append((members, min(k, members.size - 1) - 1))
            has_positive[members] = True

    neighbor_ids = np.empty((n, k), dtype=np.int64)
    d_ak = np.empty(n, dtype=np.float64)
    d_ak_pos = np.full(n, np.nan, dtype=np.float64)
    for lo, hi, dist in distance_blocks(index.points, index.points, exclude=np.arange(n)):
        neighbor_ids[lo:hi], dists = _select_k(dist, k)
        d_ak[lo:hi] = dists[:, -1]
        for members, col in classes:
            rows = members[np.searchsorted(members, lo):np.searchsorted(members, hi)]
            if rows.size:
                within = dist[np.ix_(rows - lo, members)]
                d_ak_pos[rows] = np.partition(within, col, axis=1)[:, col]

    for arr in (d_ak, d_ak_pos, neighbor_ids, has_positive):
        arr.setflags(write=False)
    return NeighborhoodSnapshot(epoch=epoch, k=k, d_ak=d_ak, d_ak_pos=d_ak_pos,
                                neighbor_ids=neighbor_ids, has_positive=has_positive)


def is_outlier(snapshot: NeighborhoodSnapshot, index: NeighborIndex, q) -> bool:
    """True iff q lies beyond the neighborhood radius of its nearest anchor."""
    q = np.asarray(q, dtype=np.float64)
    (a, _), = query_knn(index, q, 1)
    d_aq = math.sqrt(float(np.sum((index.points[a] - q) ** 2)))
    return d_aq > float(snapshot.d_ak[a])
