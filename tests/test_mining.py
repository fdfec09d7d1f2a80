import numpy as np
import pytest

from localtriplet.knn import build_index, take_snapshot
from localtriplet.mining import (Triplet, mine_local, mine_uniform, sample_hard, sample_local,
                                 sample_uniform)


# ----------------------------------------------------------------- uniform

def test_uniform_singleton_class_errors():
    with pytest.raises(ValueError, match="no_positive"):
        sample_uniform(np.array([0, 1]), 0, np.random.default_rng(0))


def test_uniform_single_class_errors():
    with pytest.raises(ValueError, match="no_negative"):
        sample_uniform(np.array([3, 3, 3]), 0, np.random.default_rng(0))


def test_uniform_unique_valid_triplet():
    labels = np.array([0, 0, 1])
    t = sample_uniform(labels, 0, np.random.default_rng(0))
    assert t == Triplet(a=0, p=1, n=2)


def test_uniform_triplet_invariants_random():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=60)
    for _ in range(500):
        a = int(rng.integers(60))
        if np.sum(labels == labels[a]) < 2:
            continue
        t = sample_uniform(labels, a, rng)
        assert t.a == a and t.p != a
        assert labels[t.p] == labels[a]
        assert labels[t.n] != labels[a]


def test_uniform_frequencies_within_3_sigma():
    rng = np.random.default_rng(2)
    labels = np.repeat(np.arange(10), 10)   # balanced, 100 points
    anchor = 0
    draws = 100_000
    # one epoch of the same anchor draws what its anchors draw one by one
    # (test_integers_array_bounds_equal_sequential_scalar_draws)
    _, p, n = mine_uniform(labels, np.full(draws, anchor), rng).T
    p_counts = np.bincount(p, minlength=100)
    n_counts = np.bincount(n, minlength=100)
    pos = np.flatnonzero((labels == labels[anchor]) & (np.arange(100) != anchor))
    neg = np.flatnonzero(labels != labels[anchor])
    for cands, counts in ((pos, p_counts), (neg, n_counts)):
        q = 1.0 / cands.size
        sigma = np.sqrt(draws * q * (1 - q))
        assert np.all(np.abs(counts[cands] - draws * q) <= 3 * sigma)
        # chi-square statistic stays within dof + 4 sqrt(2 dof)
        chi2 = np.sum((counts[cands] - draws * q) ** 2 / (draws * q))
        dof = cands.size - 1
        assert chi2 <= dof + 4 * np.sqrt(2 * dof)


def test_uniform_determinism():
    labels = np.repeat(np.arange(3), 5)
    seq1 = [sample_uniform(labels, a % 15, np.random.default_rng(9)) for a in range(5)]
    seq2 = [sample_uniform(labels, a % 15, np.random.default_rng(9)) for a in range(5)]
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    stream1 = [sample_uniform(labels, a, rng1) for a in range(15)]
    stream2 = [sample_uniform(labels, a, rng2) for a in range(15)]
    assert seq1 == seq2
    assert stream1 == stream2


# ------------------------------------------------------------------- local

def _snapshot_for(points, labels, k):
    index = build_index(np.asarray(points, dtype=float), labels)
    return take_snapshot(index, k)


def test_local_negative_fallback_when_hood_all_same_class():
    # anchor 0's 2-neighborhood is all class 0; negative falls back to uniform
    pts = [[0.0], [0.1], [0.2], [50.0], [51.0]]
    labels = np.array([0, 0, 0, 1, 1])
    snap = _snapshot_for(pts, labels, 2)
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(200):
        t = sample_local(snap, labels, 0, rng)
        assert labels[t.n] != 0
        seen.add(t.n)
    assert seen == {3, 4}


def test_local_unique_negative_neighbor_always_chosen():
    pts = [[0.0], [0.1], [0.3], [50.0]]
    labels = np.array([0, 0, 1, 1])
    snap = _snapshot_for(pts, labels, 2)
    # anchor 0's neighborhood = {1, 2}; the only local negative is 2
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert sample_local(snap, labels, 0, rng).n == 2


def test_local_containment_on_blobs():
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.standard_normal((80, 3)),
                          rng.standard_normal((80, 3)) + 2.0])
    labels = np.repeat([0, 1], 80)
    snap = _snapshot_for(pts, labels, 12)
    draw = np.random.default_rng(6)
    a, p, n = mine_local(snap.neighbor_ids, labels, draw.integers(160, size=10_000), draw).T
    row = np.arange(a.size)
    hood = snap.neighbor_ids[a]
    # per anchor row, over all 160 ids: its local negatives, and its class
    # members outside the neighborhood other than itself
    local_neg = np.zeros((a.size, 160), dtype=bool)
    local_neg[row[:, None], hood] = labels[hood] != labels[a][:, None]
    nonlocal_pos = labels == labels[a][:, None]
    nonlocal_pos[row[:, None], hood] = False
    nonlocal_pos[row, a] = False
    has_neg, has_pos = local_neg.any(axis=1), nonlocal_pos.any(axis=1)
    assert has_neg.any() and has_pos.all()
    assert np.all(local_neg[row, n][has_neg])
    assert np.all(nonlocal_pos[row, p][has_pos])
    assert np.all(labels[p] == labels[a]) and np.all(p != a)
    assert np.all(labels[n] != labels[a])


def test_local_positive_fallback_when_all_positives_local():
    # both positives sit inside the anchor's 3-neighborhood
    pts = [[0.0], [0.1], [0.2], [0.3], [90.0]]
    labels = np.array([0, 0, 0, 1, 1])
    snap = _snapshot_for(pts, labels, 3)
    rng = np.random.default_rng(7)
    seen = {sample_local(snap, labels, 0, rng).p for _ in range(100)}
    assert seen == {1, 2}


# -------------------------------------------------------------------- hard

def test_hard_single_choice():
    emb = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([0, 0, 1])
    assert sample_hard(emb, labels, 0) == Triplet(a=0, p=1, n=2)


def test_hard_picks_extremes():
    # positives at squared distances 1 and 4; negatives at 2 and 9
    emb = np.array([[0.0], [1.0], [2.0], [np.sqrt(2.0)], [3.0]])
    labels = np.array([0, 0, 0, 1, 1])
    t = sample_hard(emb, labels, 0)
    assert t == Triplet(a=0, p=2, n=3)


def test_hard_tie_breaks_to_lower_index():
    emb = np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0]])
    labels = np.array([0, 0, 0, 1, 1])
    t = sample_hard(emb, labels, 0)
    assert t.p == 1 and t.n == 3


def test_hard_matches_exhaustive_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        emb = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, size=20)
        a = int(rng.integers(20))
        sq = np.sum((emb - emb[a]) ** 2, axis=1)
        pos = [i for i in range(20) if labels[i] == labels[a] and i != a]
        neg = [i for i in range(20) if labels[i] != labels[a]]
        if not pos or not neg:
            continue
        t = sample_hard(emb, labels, a)
        assert t.p == max(pos, key=lambda i: (sq[i], -i))
        assert t.n == min(neg, key=lambda i: (sq[i], i))


def test_hard_errors():
    emb = np.zeros((2, 1))
    with pytest.raises(ValueError, match="no_positive"):
        sample_hard(emb, np.array([0, 1]), 0)
    with pytest.raises(ValueError, match="no_negative"):
        sample_hard(emb, np.array([0, 0]), 0)
