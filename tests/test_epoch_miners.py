"""The epoch-level miners against the scalar per-anchor reference samplers.

A miner must return exactly the oracle's triplets for the same anchors and
leave the generator in the same state, checked by one further draw.
"""
import numpy as np
import pytest

from localtriplet.knn import build_index, take_snapshot
from localtriplet.mining import mine_hard, mine_local, mine_uniform, trainable_anchors
from oracles import scalar_sample_hard, scalar_sample_local, scalar_sample_uniform

# non-contiguous class ids, a class of two and a singleton class (never an
# anchor, but a negative for everyone else)
LABELS = np.array([9, 3, 7, 9, 3, 9, 7, 7, 9, 11, 7, 9, 7, 9, 9, 7, 9, 7, 9, 9])


def _shuffled_anchors(labels, seed):
    anchors = trainable_anchors(labels)
    return anchors[np.random.default_rng(seed).permutation(anchors.size)]


def _same_stream(rng_a, rng_b):
    return rng_a.integers(1 << 62) == rng_b.integers(1 << 62)


def test_integers_array_bounds_equal_sequential_scalar_draws():
    # mine_local/mine_uniform rely on this numpy property for bit-identity
    # with per-anchor mining; fail loudly if a numpy release changes it
    picker = np.random.default_rng(0)
    for trial in range(200):
        cap = (2, 3, 1000, 2 ** 40)[trial % 4]
        highs = picker.integers(1, cap, size=int(picker.integers(0, 40)))
        batched, scalar = np.random.default_rng(trial), np.random.default_rng(trial)
        drawn = batched.integers(0, highs)
        expected = [scalar.integers(int(h)) for h in highs]
        assert drawn.tolist() == expected
        assert _same_stream(batched, scalar)


def test_trainable_anchors_need_a_positive_and_a_negative():
    assert trainable_anchors(LABELS).tolist() == [i for i in range(LABELS.size) if i != 9]
    assert trainable_anchors(np.array([4, 4, 4])).size == 0
    assert trainable_anchors(np.array([0, 1, 1])).tolist() == [1, 2]


@pytest.mark.parametrize("labels", [
    LABELS,
    np.array([5, 5, 2, 2]),
    np.random.default_rng(3).integers(0, 6, size=90),
], ids=["sparse-ids", "two-pairs", "random"])
def test_mine_uniform_matches_scalar_oracle(labels):
    anchors = np.concatenate([_shuffled_anchors(labels, 1), _shuffled_anchors(labels, 2)])
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    rows = mine_uniform(labels, anchors, rng)
    assert rows.dtype == np.int64 and rows.shape == (anchors.size, 3)
    assert rows.tolist() == [list(scalar_sample_uniform(labels, int(a), ref)) for a in anchors]
    assert _same_stream(rng, ref)


def test_mine_local_matches_scalar_oracle_for_every_k():
    n = LABELS.size
    points = np.round(np.random.default_rng(4).standard_normal((n, 2)), 1)   # distance ties
    index = build_index(points, LABELS)
    fallbacks = {"negative": 0, "positive": 0}
    for k in range(1, n):
        hoods = take_snapshot(index, k).neighbor_ids
        anchors = _shuffled_anchors(LABELS, k)
        rng, ref = np.random.default_rng(k), np.random.default_rng(k)
        rows = mine_local(hoods, LABELS, anchors, rng)
        assert rows.tolist() == [list(scalar_sample_local(hoods, LABELS, int(a), ref))
                                 for a in anchors]
        assert _same_stream(rng, ref)
        for a in anchors:
            same = LABELS[hoods[a]] == LABELS[a]
            fallbacks["negative"] += bool(np.all(same))
            fallbacks["positive"] += int(np.sum(same)) == int(np.sum(LABELS == LABELS[a])) - 1
    assert fallbacks["negative"] > 0 and fallbacks["positive"] > 0


@pytest.mark.parametrize("dim", [1, 7, 16, 128])
def test_mine_hard_matches_scalar_oracle_with_ties(dim):
    rng = np.random.default_rng(dim)
    for trial in range(20):
        size = int(rng.integers(3, 40))
        emb = rng.integers(-2, 3, size=(size, dim)).astype(np.float64)   # many equal distances
        if trial % 2:
            emb = (emb + rng.standard_normal((size, dim))).astype(np.float32)
        labels = rng.integers(0, 3, size=size) * 4 + 1
        anchors = trainable_anchors(labels)
        rows = mine_hard(emb, labels, anchors)
        assert rows.tolist() == [list(scalar_sample_hard(emb, labels, int(a))) for a in anchors]


@pytest.mark.parametrize("miner", ["uniform", "local", "hard"])
def test_epoch_miners_reject_anchors_without_positive_or_negative(miner):
    def mine(labels, anchors):
        if miner == "uniform":
            return mine_uniform(labels, anchors, np.random.default_rng(0))
        if miner == "local":
            hoods = np.tile(np.arange(1, 3), (len(labels), 1))
            return mine_local(hoods, labels, anchors, np.random.default_rng(0))
        return mine_hard(np.zeros((len(labels), 2)), labels, anchors)

    with pytest.raises(ValueError, match="no_positive: class of anchor 2 "):
        mine(np.array([0, 0, 1, 0]), [0, 2, 1])
    with pytest.raises(ValueError, match="no_negative"):
        mine(np.array([6, 6, 6, 6]), [3, 0])
    assert mine(np.array([0, 0, 1, 1]), []).shape == (0, 3)
