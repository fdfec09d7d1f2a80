"""Triplet mining.

Epoch-level miners take an array of anchor ids and return an (m, 3) int64
array of (anchor, positive, negative) rows in anchor order:

* ``mine_uniform``: positive uniform over the anchor's class, negative
  uniform over the rest.
* ``mine_local``: negative among the different-class entries of the
  anchor's snapshot neighborhood, positive among its class members outside
  it (LMNN's impostors and target neighbors), each falling back to its
  uniform pool when the local set is empty so every anchor stays trainable.
* ``mine_hard``: batch-hard; the farthest in-batch positive and the nearest
  in-batch negative by squared distance, ties to the lower row.

The random miners make one ``Generator.integers(0, highs)`` call with the
bounds in per-anchor draw order (local: negative, positive; uniform:
positive, negative). numpy draws an array of bounds exactly as the same
scalar draws in sequence, so an epoch mined at once equals its anchors
mined one by one, generator state included. Each draw r picks the r-th
candidate arithmetically from per-class sorted members: O(m * k) work, no
scan of all n ids per anchor. ``sample_uniform``, ``sample_local`` and
``sample_hard`` are one-anchor calls into the same miners.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Classes
from .knn import NeighborhoodSnapshot, class_screen


@dataclass(frozen=True)
class Triplet:
    """Index triple into the current training set: same-class positive,
    different-class negative, p != a."""

    a: int
    p: int
    n: int


def _skip_ranks(excluded: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row, the r-th class rank not in that row of excluded (ascending
    ranks, padded past any real rank): r plus the excluded ranks below it,
    which are those with rank - position <= r."""
    return r + np.sum(excluded - np.arange(excluded.shape[1]) <= r[:, None], axis=1)


def _anchor_array(anchors) -> np.ndarray:
    return np.asarray(anchors, dtype=np.int64).reshape(-1)


def trainable_anchors(labels) -> np.ndarray:
    """Ascending ids of the samples that have both a positive and a negative."""
    classes = Classes(labels)
    size = classes.count[classes.of]
    return np.flatnonzero((size >= 2) & (size < classes.n))


def mine_uniform(labels, anchors, rng: np.random.Generator) -> np.ndarray:
    """Uniform positive and negative for each anchor."""
    classes = Classes(labels)
    anchors = _anchor_array(anchors)
    c = classes.check(anchors)
    highs = np.empty(2 * anchors.size, dtype=np.int64)
    highs[0::2] = classes.count[c] - 1
    highs[1::2] = classes.n - classes.count[c]
    r = rng.integers(0, highs)
    pos = classes.member(c, _skip_ranks(classes.rank[anchors][:, None], r[0::2]))
    return np.stack([anchors, pos, classes.outsider(c, r[1::2])], axis=1)


def mine_local(neighbor_ids, labels, anchors, rng: np.random.Generator) -> np.ndarray:
    """Negative from inside each anchor's neighborhood, positive from outside.

    neighbor_ids is the snapshot's (n, k) neighbor array. A local negative
    is the r-th different-class entry of the neighborhood in neighborhood
    order; a non-local positive is the r-th class member, ascending, that is
    neither the anchor nor a neighbor. An empty local set falls back to the
    uniform pool of that side.
    """
    classes = Classes(labels)
    anchors = _anchor_array(anchors)
    c = classes.check(anchors)
    hood = np.asarray(neighbor_ids, dtype=np.int64)[anchors]
    is_neg = classes.of[hood] != c[:, None]
    is_peer = ~is_neg & (hood != anchors[:, None])
    n_neg = np.sum(is_neg, axis=1)
    n_far = classes.count[c] - 1 - np.sum(is_peer, axis=1)
    highs = np.empty(2 * anchors.size, dtype=np.int64)
    highs[0::2] = np.where(n_neg > 0, n_neg, classes.n - classes.count[c])
    highs[1::2] = np.where(n_far > 0, n_far, classes.count[c] - 1)
    r = rng.integers(0, highs)
    r_neg, r_pos = r[0::2], r[1::2]

    neg = classes.outsider(c, r_neg)
    local = n_neg > 0
    neg[local] = hood[is_neg][(np.cumsum(n_neg) - n_neg + r_neg)[local]]

    # class ranks a positive may not take: the anchor's own, and its
    # neighbors' unless every other class member is a neighbor
    pad = classes.n + hood.shape[1] + 1
    peers = np.where(is_peer & (n_far > 0)[:, None], classes.rank[hood], pad)
    excluded = np.sort(np.concatenate([classes.rank[anchors][:, None], peers], axis=1), axis=1)
    pos = classes.member(c, _skip_ranks(excluded, r_pos))
    return np.stack([anchors, pos, neg], axis=1)


def mine_hard(embeddings, labels, anchors) -> np.ndarray:
    """Hardest in-batch positive (largest squared distance) and negative
    (smallest) for each anchor row of a batch, ties to the lower row."""
    emb = np.asarray(embeddings, dtype=np.float64)
    anchors = _anchor_array(anchors)
    classes = Classes(labels)
    classes.check(anchors)
    screen = class_screen(emb, classes)   # checks the label count, with or without anchors
    if anchors.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    hardest = np.empty((classes.n, 2), dtype=np.int64)   # (positive, negative) per row

    def block(blk):
        at = blk.layout.ids[blk.lo:blk.hi]
        cols, sq = blk.candidates(blk.extreme_keep(np.zeros(blk.est.shape, dtype=bool)),
                                  "sq_euclidean")
        peer = blk.peers(cols)
        # np.argmax/argmin on a full row return the first (lowest-id)
        # extremum, the first NaN if there is one. Columns ascend with ids
        # inside a class slab, but not across slabs: the negative is the
        # lowest id among the hits, and row 0 when every negative distance
        # is infinite, as np.argmin would give on an all-inf row.
        ids = blk.point_ids(cols)
        hardest[at, 0] = ids[np.arange(at.size), np.argmax(np.where(peer, sq, -np.inf), axis=1)]
        neg = np.where(peer, np.inf, sq)
        least = np.min(neg, axis=1, keepdims=True)      # NaN if the row has one
        hits = np.where(np.isnan(least), np.isnan(neg), neg == least)
        first = np.min(np.where(hits, ids, classes.n), axis=1)
        hardest[at, 1] = np.where(least[:, 0] == np.inf, 0, first)

    screen.each(block)
    return np.column_stack([anchors, hardest[anchors]])


def _one(rows: np.ndarray) -> Triplet:
    return Triplet(*rows[0].tolist())


def sample_uniform(labels, anchor: int, rng: np.random.Generator) -> Triplet:
    """Uniform positive/negative draw for one anchor."""
    return _one(mine_uniform(labels, [anchor], rng))


def sample_local(
    snapshot: NeighborhoodSnapshot,
    labels,
    anchor: int,
    rng: np.random.Generator,
) -> Triplet:
    """Negative from inside the anchor's neighborhood, positive from outside,
    each falling back to its uniform pool when the local set is empty."""
    return _one(mine_local(snapshot.neighbor_ids, labels, [anchor], rng))


def sample_hard(embeddings, labels, anchor: int) -> Triplet:
    """Hardest in-batch positive and negative for a batch-row anchor."""
    return _one(mine_hard(embeddings, labels, [anchor]))
