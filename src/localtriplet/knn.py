"""Exact nearest-neighbor search, KNN classification, and the per-epoch
neighborhood snapshot used by margin computation and local mining.

Every neighbor computation goes through one blocked kernel, a Gram screen
followed by an exact re-rank (the GEMM-plus-selection design of exact
brute-force search in Johnson et al., *Billion-scale similarity search
with GPUs*, arXiv 1702.08734, with the re-rank added):

1. For a block of query rows, one GEMM on mean-centred points gives an
   estimate e_ij of every squared distance, with a per-row rounding bound
   |e_ij - s_ij| <= B_i, where s_ij is the pinned value below.
2. For each order statistic asked for (the kth smallest, the kth smallest
   same-class, the largest same-class, the smallest other-class), the row's
   statistic E_i is taken over the estimates, and every column with
   e_ij <= E_i + 2*B_i (>= E_i - 2*B_i for the largest) is a candidate.
   The k columns at or below E_i have s <= E_i + B_i, so the exact kth
   value is at most E_i + B_i and every column that can rank at or before
   it has e <= E_i + 2*B_i. An estimate, statistic or bound that is not
   finite keeps every column it touches.
3. Candidates are recomputed with the pinned diff-square-sum arithmetic,
   np.sum(d * d) over d = query - point, so each distance is bit-identical
   to ``mathops.sq_dist``, and ranked in ascending (distance, id) order.

The results equal an exhaustive sorted scan for every n, ties included.

The bound. Let u = 2^-53, gamma_m = m*u / (1 - m*u), c the points' mean,
a_i = fl(q_i - c), b_j = fl(p_j - c), S_i = |a_i|^2 + max_j |b_j|^2 and
D = |q_i - p_j|^2 <= 2*S_i (1 + 2u) in real arithmetic. Without overflow:

* the pinned path rounds each of its dim terms twice and sums them in any
  order: |s - D| <= gamma_(dim+2) * D <= 2(dim + 2) u S_i;
* centring moves each coordinate of a_i - b_j off q_i - p_j by at most
  u (|a_il| + |b_jl|), so |a_i - b_j|^2 is within 2u (|a_i| + |b_j|)^2
  <= 4u S_i of D;
* the Gram estimate fl(fl(na_i - 2 g_ij) + nb_j): the computed norms are
  within gamma_dim of |a_i|^2 and |b_j|^2, a GEMM dot product in any
  summation order (blocked, threaded or fused) within gamma_dim *
  sum_l |a_il b_jl| <= gamma_dim S_i / 2, and each of the two additions
  errs by at most 2u S_i: (2 dim + 4) u S_i in all;
* the euclidean ranking compares fl(sqrt(s)), and fl(sqrt(x)) = fl(sqrt(y))
  with x <= y needs y <= x (1 + u)^2 / (1 - u)^2 <= x + 10u S_i, so a
  column that sqrt merges into a tie at the kth value stays a candidate.

That is (4 dim + 22) u S_i. B_i = 8 (dim + 6) u (S_i + tiny) doubles it,
which covers the second-order terms, the computed S_i and the rounding of
E_i + 2*B_i; the smallest normal number ``tiny`` covers underflow, since a
subnormal result errs by at most u * tiny. A row with S_i >= 2^1020, where
a sum of squares could overflow (or a non-finite S_i), gets B_i = inf and
keeps every column.

A block holds BLOCK_ELEMENTS query rows x points of estimates, and the
exact recomputation gathers at most that many floats at a time.

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

# query rows * points of one screened block: 512 KB of float64 estimates,
# about 2 MB of scratch with the block's partition copy and masks
BLOCK_ELEMENTS = 1 << 16
_U = 2.0 ** -53                      # float64 unit roundoff
_TINY = np.finfo(np.float64).tiny    # smallest normal float64


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


class ScreenBlock:
    """Query rows lo:hi of a screen.

    est[r, j] is the Gram estimate of the squared distance from query
    lo + r to point j, within window[r] / 2 of its pinned value (see the
    module docstring). The next block of the same screen overwrites est.
    """

    def __init__(self, q, p, lo, est, window):
        self.q, self.p, self.lo, self.hi = q, p, lo, lo + est.shape[0]
        self.est, self.window = est, window

    def smallest(self, nth, allowed=None):
        """Candidate mask for each row's nth smallest allowed distance (nth
        0-based, one int or one per row): the allowed columns whose estimate
        is not above the row's nth smallest allowed estimate plus the window.
        A non-finite estimate, statistic or window keeps the column."""
        e = self.est.copy() if allowed is None else np.where(allowed, self.est, np.inf)
        e.partition(np.unique(nth), axis=1)
        stat = e[np.arange(e.shape[0]), nth]
        keep = ~(self.est > (stat + self.window)[:, None])
        return keep if allowed is None else keep & allowed

    def largest(self, allowed):
        """Candidate mask for each row's largest allowed distance."""
        stat = np.max(np.where(allowed, self.est, -np.inf), axis=1)
        return allowed & ~(self.est < (stat - self.window)[:, None])

    def ranked(self, keep, metric: str):
        """(ids, dists), both (rows, w): each row's kept entries recomputed
        exactly, in ascending (distance, id) order, padded with (n, inf) up
        to the widest row."""
        rows, cols = _entries(keep)
        counts = np.bincount(rows, minlength=keep.shape[0])
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        dists = np.full((keep.shape[0], counts.max(initial=0)), np.inf)
        dists[rows, slot] = _pinned(self.q, self.p, self.lo + rows, cols, metric)
        ids = np.full(dists.shape, keep.shape[1])
        ids[rows, slot] = cols
        # a stable sort keeps ascending ids among equal distances, and real
        # infinite distances ahead of the padding
        order = np.argsort(dists, axis=1, kind="stable")
        return np.take_along_axis(ids, order, axis=1), np.take_along_axis(dists, order, axis=1)

    def exact(self, keep, fill: float, metric: str) -> np.ndarray:
        """(rows, n): the kept entries recomputed exactly, fill elsewhere."""
        out = np.full(keep.shape, fill)
        rows, cols = _entries(keep)
        out[rows, cols] = _pinned(self.q, self.p, self.lo + rows, cols, metric)
        return out

    def nearest(self, k: int, own=None, metric: str = "euclidean"):
        """(ids, dists), both (rows, k): each row's k nearest points in
        ascending (distance, id) order. own, if given, indexes one (row,
        column) entry per row that is left out; its estimate becomes inf."""
        if own is not None:
            self.est[own] = np.inf
        keep = self.smallest(k - 1)
        if own is not None:
            keep[own] = False
        ids, dists = self.ranked(keep, metric)
        return ids[:, :k], dists[:, :k]


def _entries(keep):
    """(rows, cols) of the True entries of a 2-D mask, in row-major order."""
    flat = np.flatnonzero(keep)
    rows = flat // keep.shape[1]
    return rows, flat - rows * keep.shape[1]


def _pinned(q, p, qi, pj, metric: str) -> np.ndarray:
    """Distances of the pairs (q[qi], p[pj]): np.sum(d * d) over
    d = query - point as in mathops.sq_dist, square-rooted for the
    euclidean metric, gathered at most BLOCK_ELEMENTS floats at a time."""
    out = np.empty(qi.size)
    step = max(1, BLOCK_ELEMENTS // q.shape[1])
    for lo in range(0, qi.size, step):
        d = np.take(q, qi[lo:lo + step], axis=0)
        d -= np.take(p, pj[lo:lo + step], axis=0)
        out[lo:lo + step] = np.sum(np.multiply(d, d, out=d), axis=1)
    return np.sqrt(out, out=out) if metric == "euclidean" else out


def screen(q: np.ndarray, p: np.ndarray):
    """Yield a ScreenBlock for each block of at most BLOCK_ELEMENTS query
    rows x points of the float64 matrices q and p."""
    (m, dim), n = q.shape, p.shape[0]
    centre = np.mean(p, axis=0)
    b = p - centre
    a = b if q is p else q - centre
    na, nb = (np.einsum("ij,ij->i", v, v) for v in (a, b))
    scale = na + np.max(nb)
    # 2 * B_i
    window = np.where(scale < 2.0 ** 1020, 16 * (dim + 6) * _U * (scale + _TINY), np.inf)
    rows = max(1, BLOCK_ELEMENTS // n)
    buf = np.empty((min(rows, m), n))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        est = np.matmul(a[lo:hi], b.T, out=buf[:hi - lo])
        est *= -2.0
        est += na[lo:hi, None]
        est += nb
        yield ScreenBlock(q, p, lo, est, window[lo:hi])


def topk(queries, points, k: int, exclude=None, metric: str = "euclidean"):
    """Exact k nearest points of every query row.

    exclude, if given, is one point id per query row left out of that
    row's candidates. Returns (ids, dists), both (m, k), each row in
    ascending (distance, id) order; dists are in the given metric, each
    bit-identical to mathops.sq_dist (square-rooted for euclidean).

    Per block of query rows, one GEMM screens the points: only those whose
    Gram estimate is within 2*B_i of the row's kth smallest estimate are
    recomputed exactly and ranked, B_i being the rounding bound derived in
    the module docstring, so the result equals an exhaustive sorted scan.
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
    for blk in screen(q, p):
        own = None if exclude is None else (
            np.arange(blk.hi - blk.lo), np.asarray(exclude)[blk.lo:blk.hi])
        ids[blk.lo:blk.hi], dists[blk.lo:blk.hi] = blk.nearest(k, own, metric)
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
    # rank among its peers of each anchor's kth same-class neighbor, or of
    # its farthest peer when the class has k or fewer; -1 without a peer
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    nth_pos = np.minimum(k, counts[inverse] - 1) - 1
    has_positive = nth_pos >= 0

    neighbor_ids = np.empty((n, k), dtype=np.int64)
    d_ak = np.empty(n, dtype=np.float64)
    d_ak_pos = np.full(n, np.nan, dtype=np.float64)
    for blk in screen(index.points, index.points):
        rows = np.arange(blk.lo, blk.hi)
        own = (rows - blk.lo, rows)
        neighbor_ids[rows], dists = blk.nearest(k, own)
        d_ak[rows] = dists[:, -1]
        peers = labels[rows, None] == labels
        peers[own] = False
        nth = nth_pos[rows]
        _, dists = blk.ranked(blk.smallest(np.maximum(nth, 0), peers), "euclidean")
        ok = nth >= 0
        d_ak_pos[rows[ok]] = dists[ok, nth[ok]]

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
