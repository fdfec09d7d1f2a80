"""Executable checks of the neighborhood-purity guarantee.

Given trained embeddings, these verifiers measure:

* the per-anchor optimal condition min_n D_an >= max_p D_ap + c_b*d_ak + eps,
* query purity: whether each non-outlier query's k nearest training
  points all share the class of its nearest anchor,
* the fixed-margin sufficiency condition m > 3 * max_a d_ak,

plus a PCA reduction for scatter exports. All distances here are
Euclidean (unsquared) so the triangle-inequality steps behind the purity
argument are sound.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .data import Classes
from .knn import class_screen, topk
from .mathops import as_sample_matrix


@dataclass(frozen=True)
class Violation:
    anchor: int
    residual: float     # RHS - min_n D_an; positive means the condition fails
    d_ak: float
    max_pos_dist: float
    min_neg_dist: float


@dataclass(frozen=True)
class OptimalConditionReport:
    violations: list[Violation]
    skipped_anchors: list[int]   # anchors whose class has < k+1 samples
    n_checked: int
    # (n,) each anchor's distance to its kth nearest other point
    d_ak: np.ndarray | None = field(default=None, compare=False, repr=False)
    # (n,) each anchor's largest finite same-class distance, -inf for none
    max_pos: np.ndarray | None = field(default=None, compare=False, repr=False)
    # an infinite d_ak, or no finite positive where the class has another member
    overflowed: bool = False

    @property
    def worst_residual(self) -> float:
        return max((v.residual for v in self.violations), default=0.0)


@dataclass(frozen=True)
class PurityReport:
    """Outcome of a purity scan; pure + impure + outlier == n_queries."""

    n_queries: int
    pure_count: int
    impure_count: int
    outlier_count: int
    query_status: list[str]          # per query: "pure" | "impure" | "outlier"
    nearest_anchor: np.ndarray       # (n_queries,) anchor id per query

    @property
    def purity(self) -> float:
        """Pure fraction among non-outlier queries."""
        considered = self.n_queries - self.outlier_count
        return self.pure_count / considered if considered else 1.0


def check_optimal_condition(embeddings, labels, k: int, c_b: float, eps: float
                            ) -> OptimalConditionReport:
    """Per-anchor residuals of min_n D_an >= max_p D_ap + c_b*d_ak + eps.

    Anchors whose class holds fewer than k+1 samples are skipped and
    reported rather than failed; overflowing distances set overflowed.
    """
    x = as_sample_matrix(embeddings)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if not (1 <= k <= n - 1):
        raise ValueError(f"k_exceeds_n: k={k}, n={n}")
    classes = Classes(labels)
    d_ak, max_pos, min_neg = np.empty((3, n))

    def block(blk):
        rows = blk.layout.ids[blk.lo:blk.hi]
        keep, below = blk.condition_keep(k)
        cols, dists = blk.candidates(keep, "euclidean")
        # the (k - below)-th smallest kept distance
        d_ak[rows] = np.sort(dists, axis=1)[np.arange(rows.size), k - 1 - below]
        peer = blk.peers(cols)
        # an overflowed (infinite) distance counts as no positive
        max_pos[rows] = np.max(np.where(peer & np.isfinite(dists), dists, -np.inf), axis=1)
        min_neg[rows] = np.min(np.where(peer, np.inf, dists), axis=1)

    class_screen(x, classes).each(block)
    checked = classes.count[classes.of] >= k + 1
    no_positive = (classes.count[classes.of] > 1) & (max_pos == -np.inf)
    overflowed = bool(np.any(~np.isfinite(d_ak) | no_positive))
    # an infinite (overflowed) d_ak beside no finite positive gives NaN,
    # which fails every comparison; overflowed reports it
    with np.errstate(invalid="ignore"):
        rhs = max_pos + c_b * d_ak + eps
    violations = [Violation(anchor=int(a), residual=float(rhs[a] - min_neg[a]),
                            d_ak=float(d_ak[a]), max_pos_dist=float(max_pos[a]),
                            min_neg_dist=float(min_neg[a]))
                  for a in np.flatnonzero(checked & (min_neg < rhs))]
    return OptimalConditionReport(violations=violations,
                                  skipped_anchors=np.flatnonzero(~checked).tolist(),
                                  n_checked=int(np.sum(checked)), d_ak=d_ak, max_pos=max_pos,
                                  overflowed=overflowed)


def _d_ak(x: np.ndarray, k: int) -> np.ndarray:
    """Each point's distance to its kth nearest other point."""
    return topk(x, x, k, exclude=np.arange(x.shape[0]))[1][:, -1]


def purity_check(train_embeddings, train_labels, query_embeddings, k: int,
                 d_ak=None) -> PurityReport:
    """Classify each query as outlier, pure, or impure.

    A query is an outlier when it lies farther from its nearest anchor
    than that anchor's kth-neighbor radius; otherwise it is pure iff its
    k nearest training points all carry the nearest anchor's label.
    d_ak, if given, holds those radii for the same k (as computed by
    check_optimal_condition), so the training points are not scanned again.
    """
    x = as_sample_matrix(train_embeddings)
    q = as_sample_matrix(query_embeddings)
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise ValueError(f"label_mismatch: {x.shape[0]} points vs {labels.shape} labels")
    d_ak = _d_ak(x, k) if d_ak is None else np.asarray(d_ak, dtype=np.float64)
    if d_ak.shape != (x.shape[0],):
        raise ValueError(f"shape_mismatch: d_ak {d_ak.shape} for {x.shape[0]} points")
    ids, dists = topk(q, x, k)
    anchors = ids[:, 0]              # ties resolved to the lowest id
    outlier = dists[:, 0] > d_ak[anchors]
    pure = np.all(labels[ids] == labels[anchors][:, None], axis=1)
    status = np.where(outlier, "outlier", np.where(pure, "pure", "impure")).tolist()
    return PurityReport(n_queries=q.shape[0], pure_count=status.count("pure"),
                        impure_count=status.count("impure"),
                        outlier_count=status.count("outlier"),
                        query_status=status, nearest_anchor=anchors)


def corollary_margin_check(embeddings, labels, k: int, m: float
                           ) -> tuple[bool, float]:
    """Whether a fixed margin m clears 3 * max_a d_ak.

    Together with every fixed-margin hinge being inactive, a sufficient
    margin implies full neighborhood purity for non-outlier queries.
    Returns (sufficient, max_a d_ak).
    """
    x = as_sample_matrix(embeddings)
    if np.shape(labels) != (x.shape[0],):
        raise ValueError(f"label_mismatch: {x.shape[0]} points vs {np.shape(labels)} labels")
    max_d_ak = float(np.max(_d_ak(x, k)))
    return m > 3.0 * max_d_ak, max_d_ak


def pca_reduce(vectors, out_dim: int):
    """Project onto the top principal components of the covariance.

    Returns (projected, components, explained_variance) with eigenvalues
    descending. Sign convention: each component's largest-magnitude entry
    is positive.
    """
    x = as_sample_matrix(vectors)
    n, d = x.shape
    if not (1 <= out_dim <= min(d, n)):
        raise ValueError(f"bad_out_dim: {out_dim} for {n}x{d} data")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:out_dim]
    components = eigvecs[:, order].T
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    explained = np.maximum(eigvals[order], 0.0)
    return centered @ components.T, components, explained


def write_scatter_csv(path, xy: np.ndarray, labels, status=None) -> None:
    """CSV export (query_id: the row number, x, y, label, status) for external plotting."""
    xy = np.asarray(xy, dtype=np.float64)
    labels = np.asarray(labels)
    n = xy.shape[0]
    if status is None:
        status = [""] * n
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["query_id", "x", "y", "label", "status"])
        for qid, (row, lab, st) in enumerate(zip(xy, labels, status)):
            w.writerow([qid, repr(float(row[0])), repr(float(row[1])), int(lab), st])


def write_violations_csv(path, report: OptimalConditionReport) -> None:
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["anchor", "residual", "d_ak", "max_pos_dist", "min_neg_dist"])
        for v in report.violations:
            w.writerow([v.anchor, repr(v.residual), repr(v.d_ak),
                        repr(v.max_pos_dist), repr(v.min_neg_dist)])
