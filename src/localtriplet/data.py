"""Dataset ingestion and generation.

Readers for the big-endian IDX image/label format (gzip transparently
supported), the class grouping `Classes` that every per-class computation
shares, deterministic stratified splitting, isotropic Gaussian blob
generation for desk-scale experiments, and a versioned npz cache.

Samples are stored flat (n, d) in float64 with the original tensor shape
kept alongside; image pixels are scaled to [0, 1].
"""
from __future__ import annotations

import gzip
import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CACHE_FORMAT_VERSION = 1
BLOB_CENTER_TRIES = 200     # make_blobs' draws per center before packing_failed


@dataclass
class Dataset:
    """Flat samples with integer class labels and a split tag."""

    samples: np.ndarray                 # (n, d) float64
    labels: np.ndarray                  # (n,) int64
    sample_shape: tuple[int, ...]       # original tensor shape per sample
    split: str = "train"
    normalization: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2 or self.samples.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"count_mismatch: {self.samples.shape} samples vs {self.labels.shape} labels")
        if int(np.prod(self.sample_shape)) != self.samples.shape[1]:
            raise ValueError(
                f"shape_mismatch: sample_shape {self.sample_shape} vs flat {self.samples.shape[1]}")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def subset(self, ids, split: str | None = None) -> "Dataset":
        ids = np.asarray(ids, dtype=np.int64)
        return Dataset(self.samples[ids], self.labels[ids], self.sample_shape,
                       split if split is not None else self.split, dict(self.normalization))

    def fingerprint(self) -> str:
        """Content hash over sample bytes, labels, and shape."""
        h = hashlib.sha256()
        h.update(str(self.sample_shape).encode())
        h.update(self.samples.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()


class Classes:
    """Sample ids grouped by class.

    members[start[c]:start[c] + count[c]] are the ascending ids of class
    position c (classes in ascending label order); of[i] is the class
    position of id i and rank[i] its place among its class's members.
    """

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError(f"label_mismatch: labels must be 1-D, got shape {labels.shape}")
        self.n = n = labels.size
        self.members = np.argsort(labels, kind="stable")
        grouped = labels[self.members]
        self.start = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1]))[:n])
        self.count = np.diff(np.append(self.start, n))
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


def shuffled_members(classes: Classes, rng: np.random.Generator) -> np.ndarray:
    """classes.members with each class's ids shuffled by one
    rng.permutation, classes in ascending label order."""
    ids = classes.members.copy()
    for lo, size in zip(classes.start, classes.count):
        ids[lo:lo + size] = ids[lo:lo + size][rng.permutation(size)]
    return ids


def _open_maybe_gz(path):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, count: int, path) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"truncated_file: {path} ended after {len(data)} of {count} bytes")
    return data


def _read_idx(path, expected_magic: int, expected_dims: int) -> np.ndarray:
    try:
        with _open_maybe_gz(path) as f:
            (magic,) = struct.unpack(">i", _read_exact(f, 4, path))
            if magic != expected_magic:
                raise ValueError(f"bad_magic: {path} has magic {magic:#010x}, "
                                 f"expected {expected_magic:#010x}")
            dims = struct.unpack(f">{expected_dims}i", _read_exact(f, 4 * expected_dims, path))
            total = int(np.prod(dims))
            raw = _read_exact(f, total, path)
            if f.read(1):
                raise ValueError(f"truncated_file: {path} has trailing bytes beyond header count")
    except EOFError as err:     # a gzip stream cut short
        raise ValueError(f"truncated_file: {path} ({err})") from err
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair, pixels scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(f"count_mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    n, rows, cols = images.shape
    samples = images.reshape(n, rows * cols).astype(np.float64) / 255.0
    return Dataset(samples, labels.astype(np.int64), (rows, cols, 1),
                   split="train", normalization={"divisor": 255.0, "offset": 0.0})


def _largest_remainder(counts: np.ndarray, frac: float, target: int) -> np.ndarray:
    """Per-class allocation summing exactly to `target`, each within one
    sample of frac * count: the |short| classes with room that come first by
    remainder (largest first to add, smallest to remove) take one step."""
    exact = counts * frac
    base = np.minimum(np.floor(exact).astype(np.int64), counts)
    short = target - int(base.sum())
    step = np.sign(short)
    order = np.lexsort((np.arange(counts.size), step * (base - exact)))
    room = base < counts if short > 0 else base > 0
    base[order[room[order]][:abs(short)]] += step
    return base


def _deal(classes: Classes, rng: np.random.Generator, *cuts) -> list[np.ndarray]:
    """The ascending ids of len(cuts) + 1 parts: each class's ids in
    shuffled_members order, cut at place cuts[p][class] for each p."""
    ids = shuffled_members(classes, rng)
    place, cls = classes.rank[classes.members], classes.of[classes.members]
    part = sum(place >= cut[cls] for cut in cuts)
    return [np.sort(ids[part == p]) for p in range(len(cuts) + 1)]


def split(dataset: Dataset, train_frac: float, val_frac: float, seed: int):
    """Deterministic stratified partition into (train, val, test).

    Global split sizes are round(frac * n); per-class allocations use
    largest remainders, so every class lands within one sample of its
    overall proportion. Index sets are disjoint and exhaustive.
    """
    if not (0.0 < train_frac < 1.0) or not (0.0 < val_frac < 1.0):
        raise ValueError(f"bad_fraction: train={train_frac}, val={val_frac} must be in (0,1)")
    if train_frac + val_frac > 1.0 + 1e-12:
        raise ValueError(f"bad_fraction: train+val = {train_frac + val_frac} > 1")

    classes = Classes(dataset.labels)
    n_train = _largest_remainder(classes.count, train_frac, round(train_frac * dataset.n))
    remaining = classes.count - n_train
    n_val_target = min(round(val_frac * dataset.n), int(remaining.sum()))
    # allocate val proportionally out of what train left per class
    val_share = val_frac / max(1.0 - train_frac, 1e-12)
    n_val = _largest_remainder(remaining, val_share, n_val_target)
    parts = _deal(classes, np.random.default_rng(seed), n_train, n_train + n_val)
    return tuple(dataset.subset(ids, name) for ids, name in zip(parts, ("train", "val", "test")))


def stratified_subset(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Class-proportional random subset of exactly n samples."""
    if not (1 <= n <= dataset.n):
        raise ValueError(f"bad_subset: n={n} of {dataset.n}")
    if n == dataset.n:
        return dataset
    classes = Classes(dataset.labels)
    take = _largest_remainder(classes.count, n / dataset.n, n)
    ids, _rest = _deal(classes, np.random.default_rng(seed), take)
    return dataset.subset(ids)


def check_blob_config(classes: int, per_class: int, dim: int, spacing: float,
                      std: float) -> None:
    """ValueError naming the first make_blobs setting out of its range."""
    for name, value, low in (("classes", classes, 2), ("per_class", per_class, 1),
                             ("dim", dim, 1), ("std", std, 0)):
        if value < low:
            raise ValueError(f"bad_{name}: {name}={value} must be >= {low}")
    if spacing <= 0:
        raise ValueError(f"bad_spacing: spacing={spacing} must be > 0")


def make_blobs(classes: int, per_class: int, dim: int, spacing: float,
               std: float, seed: int) -> Dataset:
    """Isotropic Gaussian clusters with pairwise center distance >= spacing.

    Centers are drawn uniformly in a box of side spacing * classes and
    rejected until far enough apart; impossible packings raise after
    BLOB_CENTER_TRIES draws per center.
    """
    check_blob_config(classes, per_class, dim, spacing, std)
    rng = np.random.default_rng(seed)
    side = spacing * classes
    centers = []
    for _ in range(classes):
        for _attempt in range(BLOB_CENTER_TRIES):
            cand = rng.uniform(0.0, side, size=dim)
            if all(np.linalg.norm(cand - c) >= spacing for c in centers):
                centers.append(cand)
                break
        else:
            raise ValueError(
                f"packing_failed: could not place {classes} centers >= {spacing} apart in dim {dim}")
    samples = np.concatenate([
        c + std * rng.standard_normal((per_class, dim)) for c in centers])
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return Dataset(samples, labels, (dim,), split="train")


def save_dataset(path, dataset: Dataset) -> None:
    """Versioned npz cache written atomically to path; reload is bit-identical."""
    meta = {
        "cache_format_version": CACHE_FORMAT_VERSION,
        "sample_shape": list(dataset.sample_shape),
        "split": dataset.split,
        "normalization": dataset.normalization,
    }
    text = json.dumps(meta, sort_keys=True, allow_nan=False)
    with atomic_open(path) as f:
        np.savez(f, samples=dataset.samples, labels=dataset.labels,
                 meta=np.frombuffer(text.encode(), dtype=np.uint8))


def load_dataset(path) -> Dataset:
    """A save_dataset cache; meta it cannot interpret raises
    ValueError("bad_cache: ...")."""
    # np.load(path) leaks the file it opens when one that starts as a zip is cut short
    with open(path, "rb") as f, np.load(f) as z:
        meta = json.loads(bytes(z["meta"]).decode())
        version = meta.get("cache_format_version") if isinstance(meta, dict) else None
        if version != CACHE_FORMAT_VERSION:
            raise ValueError(f"bad_cache: version {version}")
        try:
            return Dataset(z["samples"], z["labels"], tuple(meta["sample_shape"]),
                           meta["split"], meta["normalization"])
        except TypeError as err:     # a value of the wrong JSON type
            raise ValueError(f"bad_cache: {err}") from err
