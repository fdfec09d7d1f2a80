"""The class-stratified draws (data.split, data.stratified_subset,
training._hardmin_batches and the largest-remainder allocation behind the
first two) against the loop references in tests/oracles.py: same ids, same
batches, same generator state afterwards."""
import numpy as np
import pytest

from localtriplet.data import Classes, Dataset, _largest_remainder, split, stratified_subset
from localtriplet.training import _hardmin_batches
from localtriplet.verify import check_optimal_condition
from oracles import (
    loop_hardmin_batches,
    loop_largest_remainder,
    loop_split_ids,
    loop_subset_ids,
)

LABEL_VALUES = np.array([42, -3, 7, 1000, 5, 0, 19])


def _random_labels(rng):
    """Unsorted labels drawn from non-contiguous values, 2 to 7 classes of
    uneven size (some of a single sample)."""
    values = rng.choice(LABEL_VALUES, size=rng.integers(2, LABEL_VALUES.size + 1),
                        replace=False)
    labels = np.repeat(values, rng.integers(1, 12, size=values.size))
    return labels[rng.permutation(labels.size)]


def _id_dataset(labels):
    """A dataset whose one feature is each sample's id."""
    return Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, (1,))


def _ids(ds):
    return ds.samples[:, 0].astype(np.int64)


def test_largest_remainder_matches_loop():
    rng = np.random.default_rng(801)
    signs, clamped = set(), 0
    for _ in range(3000):
        counts = rng.integers(0, 9, size=rng.integers(1, 8))
        frac = rng.uniform(0.0, 1.6)       # above 1 floors past a class's count
        base = np.minimum(np.floor(counts * frac).astype(np.int64), counts)
        # shortfalls past every class's room included
        target = int(base.sum()) + int(rng.integers(-counts.size - 2, counts.size + 3))
        signs.add(int(np.sign(target - base.sum())))
        clamped += bool(np.any(counts * frac > counts))
        got = _largest_remainder(counts, frac, target)
        assert np.array_equal(got, loop_largest_remainder(counts, frac, target))
        assert got.dtype == np.int64
    assert signs == {-1, 0, 1} and clamped > 100


def test_split_matches_loop():
    rng = np.random.default_rng(802)
    for trial in range(300):
        labels = _random_labels(rng)
        train_frac = rng.uniform(0.05, 0.95)
        val_frac = rng.uniform(0.01, 1.0 - train_frac)
        parts = split(_id_dataset(labels), train_frac, val_frac, seed=trial)
        expected = loop_split_ids(labels, train_frac, val_frac, seed=trial)
        for got, want in zip(parts, expected):
            assert np.array_equal(_ids(got), want)
            assert np.array_equal(got.labels, labels[want])


def test_stratified_subset_matches_loop():
    rng = np.random.default_rng(803)
    for trial in range(300):
        labels = _random_labels(rng)
        n = int(rng.integers(1, labels.size + 1))
        got = stratified_subset(_id_dataset(labels), n, seed=trial)
        assert np.array_equal(_ids(got), loop_subset_ids(labels, n, seed=trial))


@pytest.mark.parametrize("batch_size", [1, 4, 16, 128])
def test_hardmin_batches_match_loop(batch_size):
    rng = np.random.default_rng(804)
    for trial in range(100):
        labels = _random_labels(rng)
        got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        got = list(_hardmin_batches(labels, batch_size, got_rng))
        want = list(loop_hardmin_batches(labels, batch_size, want_rng))
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)


def test_classes_group_unsorted_noncontiguous_labels():
    labels = np.array([7, -3, 42, 7, 7, -3])
    classes = Classes(labels)
    assert classes.count.tolist() == [2, 3, 1]          # -3, 7, 42
    assert classes.members.tolist() == [1, 5, 0, 3, 4, 2]
    assert classes.of.tolist() == [1, 0, 2, 1, 1, 0]
    assert classes.rank.tolist() == [0, 0, 0, 1, 2, 1]


def test_classes_of_no_labels_is_empty():
    classes = Classes(np.array([], dtype=np.int64))
    assert classes.n == 0
    for arr in (classes.start, classes.count, classes.members, classes.of, classes.rank):
        assert arr.shape == (0,) and arr.dtype == np.int64


def test_classes_reject_labels_that_are_not_1d():
    labels = np.array([0, 1] * 5)
    with pytest.raises(ValueError, match="label_mismatch"):
        Classes(labels.reshape(5, 2))
    with pytest.raises(ValueError, match="label_mismatch"):
        Classes(np.int64(3))
    x = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(ValueError, match="label_mismatch"):
        check_optimal_condition(x, labels.reshape(5, 2), 2, 0.0, 0.0)
