import gzip
import struct

import numpy as np
import pytest

from localtriplet.data import (
    Dataset,
    load_dataset,
    load_mnist_idx,
    make_blobs,
    save_dataset,
    split,
    stratified_subset,
)
from localtriplet.knn import build_index, query_knn


def write_idx_images(path, images: np.ndarray) -> None:
    """Independent IDX writer: header fields packed one by one."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">i", 0x00000803))
        f.write(struct.pack(">i", n))
        f.write(struct.pack(">i", rows))
        f.write(struct.pack(">i", cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">i", 0x00000801))
        f.write(struct.pack(">i", labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 4, 5), dtype=np.uint8)
    labels = np.array([3, 9], dtype=np.uint8)
    ipath = tmp_path / "images-idx3-ubyte"
    lpath = tmp_path / "labels-idx1-ubyte"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return ipath, lpath, images, labels


# ---------------------------------------------------------------------- idx

def test_idx_fixture_roundtrip(idx_pair):
    ipath, lpath, images, labels = idx_pair
    ds = load_mnist_idx(ipath, lpath)
    assert ds.n == 2
    assert ds.sample_shape == (4, 5, 1)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.samples, images.reshape(2, 20) / 255.0)
    assert ds.normalization == {"divisor": 255.0, "offset": 0.0}


def test_idx_gzip_roundtrip(tmp_path, idx_pair):
    ipath, lpath, images, labels = idx_pair
    gz_i = tmp_path / "images-idx3-ubyte.gz"
    gz_l = tmp_path / "labels-idx1-ubyte.gz"
    gz_i.write_bytes(gzip.compress(ipath.read_bytes()))
    gz_l.write_bytes(gzip.compress(lpath.read_bytes()))
    ds = load_mnist_idx(gz_i, gz_l)
    assert np.array_equal(ds.samples, images.reshape(2, 20) / 255.0)
    assert np.array_equal(ds.labels, labels)


def test_idx_bad_magic(idx_pair):
    ipath, lpath, _, _ = idx_pair
    with pytest.raises(ValueError, match="bad_magic"):
        load_mnist_idx(lpath, lpath)   # labels magic where images expected


def test_idx_truncated(tmp_path, idx_pair):
    ipath, lpath, _, _ = idx_pair
    cut = tmp_path / "cut-idx3-ubyte"
    cut.write_bytes(ipath.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated_file"):
        load_mnist_idx(cut, lpath)


def test_idx_trailing_garbage(tmp_path, idx_pair):
    ipath, lpath, _, _ = idx_pair
    fat = tmp_path / "fat-idx3-ubyte"
    fat.write_bytes(ipath.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="truncated_file"):
        load_mnist_idx(fat, lpath)


def test_idx_count_mismatch(tmp_path, idx_pair):
    ipath, _, _, _ = idx_pair
    lpath3 = tmp_path / "three-idx1-ubyte"
    write_idx_labels(lpath3, np.array([1, 2, 3], dtype=np.uint8))
    with pytest.raises(ValueError, match="count_mismatch"):
        load_mnist_idx(ipath, lpath3)


# -------------------------------------------------------------------- split

def _balanced_dataset(n, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n // classes)
    samples = rng.standard_normal((n, 3))
    return Dataset(samples, labels, (3,))


def test_split_mnist_style_sizes():
    ds = _balanced_dataset(60_000)
    train, val, test = split(ds, 0.9, 0.1, seed=5)
    assert (train.n, val.n, test.n) == (54_000, 6_000, 0)
    assert (train.split, val.split, test.split) == ("train", "val", "test")


def test_split_deterministic():
    ds = _balanced_dataset(1000)
    a = split(ds, 0.6, 0.2, seed=9)
    b = split(ds, 0.6, 0.2, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)
        assert np.array_equal(x.labels, y.labels)


def test_split_stratification_within_one_sample():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 7, size=5000)
    ds = Dataset(rng.standard_normal((5000, 2)), labels, (2,))
    train, val, test = split(ds, 0.9, 0.1, seed=2)
    for c in range(7):
        m = int(np.sum(labels == c))
        got = int(np.sum(val.labels == c))
        assert abs(got - 0.1 * m) <= 1.0


def test_split_disjoint_exhaustive():
    ds = _balanced_dataset(900, classes=3, seed=3)
    train, val, test = split(ds, 0.5, 0.25, seed=4)
    assert train.n + val.n + test.n == 900
    key = lambda d: {tuple(row) for row in d.samples}
    all_rows = key(train) | key(val) | key(test)
    assert len(all_rows) == 900   # continuous samples: collision-free w.p. 1


def test_split_bad_fractions():
    ds = _balanced_dataset(100)
    with pytest.raises(ValueError, match="bad_fraction"):
        split(ds, 0.0, 0.5, seed=0)
    with pytest.raises(ValueError, match="bad_fraction"):
        split(ds, 0.8, 0.4, seed=0)


def test_stratified_subset_counts():
    ds = _balanced_dataset(1000)
    sub = stratified_subset(ds, 200, seed=7)
    assert sub.n == 200
    for c in range(10):
        assert int(np.sum(sub.labels == c)) == 20


# -------------------------------------------------------------------- blobs

def test_blobs_separated_1nn_perfect():
    ds = make_blobs(2, 50, 4, spacing=100.0, std=0.1, seed=11)
    train, test, _ = split(ds, 0.7, 0.3, seed=12)
    index = build_index(train.samples, train.labels)
    hits = 0
    for i in range(test.n):
        (j, _), = query_knn(index, test.samples[i], 1)
        hits += int(train.labels[j] == test.labels[i])
    assert hits == test.n


def test_blobs_std_zero_collapses_to_centers():
    ds = make_blobs(3, 10, 5, spacing=4.0, std=0.0, seed=13)
    for c in range(3):
        rows = ds.samples[ds.labels == c]
        assert np.all(rows == rows[0])


def test_blobs_means_near_centers():
    per_class = 400
    ds = make_blobs(3, per_class, 4, spacing=4.0, std=1.0, seed=14)
    centers = make_blobs(3, 1, 4, spacing=4.0, std=0.0, seed=14)
    for c in range(3):
        mean = ds.samples[ds.labels == c].mean(axis=0)
        center = centers.samples[centers.labels == c][0]
        assert np.linalg.norm(mean - center) <= 3.0 * 1.0 / np.sqrt(per_class) * np.sqrt(4)


def test_blobs_packing_failure():
    with pytest.raises(ValueError, match="packing_failed"):
        make_blobs(50, 1, 1, spacing=10.0, std=0.1, seed=15)


def test_blobs_rejects_single_class():
    with pytest.raises(ValueError, match="bad_classes"):
        make_blobs(1, 10, 2, spacing=1.0, std=0.1, seed=0)


# -------------------------------------------------------------------- cache

def test_dataset_cache_roundtrip(tmp_path):
    ds = make_blobs(3, 20, 6, spacing=5.0, std=0.7, seed=16)
    ds.split = "val"
    path = tmp_path / "cache.npz"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert np.array_equal(back.samples, ds.samples)
    assert np.array_equal(back.labels, ds.labels)
    assert back.sample_shape == ds.sample_shape
    assert back.split == "val"
    assert back.fingerprint() == ds.fingerprint()


def test_dataset_validation():
    with pytest.raises(ValueError, match="count_mismatch"):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), (2,))
    with pytest.raises(ValueError, match="shape_mismatch"):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), (5,))
