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

from .knn import NeighborhoodSnapshot, screen


@dataclass(frozen=True)
class Triplet:
    """Index triple into the current training set: same-class positive,
    different-class negative, p != a."""

    a: int
    p: int
    n: int


class _Classes:
    """Sample ids grouped by class.

    members[start[c]:start[c] + count[c]] are the ascending ids of class
    position c; of[i] is the class position of id i and rank[i] its place
    among its class's members.
    """

    def __init__(self, labels):
        labels = np.asarray(labels).reshape(-1)
        self.n = n = labels.size
        self.members = np.argsort(labels, kind="stable")
        grouped = labels[self.members]
        edges = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1], [True])))
        self.start, self.count = edges[:-1], np.diff(edges)
        position = np.repeat(np.arange(self.count.size), self.count)   # of members[i]
        self.of = np.empty(n, dtype=np.int64)
        self.of[self.members] = position
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.members] = np.arange(n) - self.start[position]

    def check(self, anchors: np.ndarray) -> np.ndarray:
        """Class positions of the anchors; ValueError if one lacks a
        positive or a negative."""
        c = self.of[anchors]
        alone = self.count[c] < 2
        if np.any(alone):
            raise ValueError(f"no_positive: class of anchor {anchors[alone][0]} "
                             "has a single sample")
        if np.any(self.count[c] == self.n):
            raise ValueError("no_negative: the samples hold a single class")
        return c

    def member(self, c: np.ndarray, rank: np.ndarray) -> np.ndarray:
        return self.members[self.start[c] + rank]

    def outsider(self, c: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The r-th id, ascending, outside class c: r plus the number of
        class members below it, which are those with id - rank <= r."""
        stride = self.n + 1
        gaps = self.of[self.members] * stride + self.members - self.rank[self.members]
        return r + np.searchsorted(gaps, c * stride + r, side="right") - self.start[c]


def _skip_ranks(excluded: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row, the r-th class rank not in that row of excluded (ascending
    ranks, padded past any real rank): r plus the excluded ranks below it,
    which are those with rank - position <= r."""
    return r + np.sum(excluded - np.arange(excluded.shape[1]) <= r[:, None], axis=1)


def _anchor_array(anchors) -> np.ndarray:
    return np.asarray(anchors, dtype=np.int64).reshape(-1)


def trainable_anchors(labels) -> np.ndarray:
    """Ascending ids of the samples that have both a positive and a negative."""
    classes = _Classes(labels)
    size = classes.count[classes.of]
    return np.flatnonzero((size >= 2) & (size < classes.n))


def mine_uniform(labels, anchors, rng: np.random.Generator) -> np.ndarray:
    """Uniform positive and negative for each anchor."""
    classes = _Classes(labels)
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
    classes = _Classes(labels)
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
    labels = np.asarray(labels)
    anchors = _anchor_array(anchors)
    _Classes(labels).check(anchors)
    out = np.empty((anchors.size, 3), dtype=np.int64)
    out[:, 0] = anchors
    for blk in screen(emb[anchors], emb):
        a = anchors[blk.lo:blk.hi]
        same = labels[a][:, None] == labels
        peer = same.copy()
        peer[np.arange(a.size), a] = False
        # np.argmax/argmin return the first (lowest-index) extremum
        pos = blk.exact(blk.largest(peer), -np.inf, "sq_euclidean")
        neg = blk.exact(blk.smallest(0, ~same), np.inf, "sq_euclidean")
        out[blk.lo:blk.hi, 1] = np.argmax(pos, axis=1)
        out[blk.lo:blk.hi, 2] = np.argmin(neg, axis=1)
    return out


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
