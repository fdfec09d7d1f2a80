"""Training loops.

One epoch of the neighborhood-margin methods re-embeds the training set,
freezes a NeighborhoodSnapshot, mines one triplet per anchor in shuffled
order, and optimizes the combined loss batch by batch; snapshot values
stay fixed for the whole epoch. Fixed-margin baselines run the same loop
without the snapshot, batch-hard mining draws its triplets inside
class-balanced sample batches, and the softmax baseline trains the
extractor end to end through a linear head.

Runs are reproducible bit for bit: a single Generator seeded from the
config drives every shuffle and draw in a fixed order.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .knn import build_index, choose_k, take_snapshot, topk
from .losses import LossWeights, combined_loss
from .mining import sample_hard, sample_local, sample_uniform
from .network import Adam, EmbeddingNet, SoftmaxHead, softmax_head_loss

METHODS = ("lm", "lm_mining", "mm", "mm_hardmin", "softmax")
_SNAPSHOT_METHODS = ("lm", "lm_mining")


class DivergedError(RuntimeError):
    """Raised when a batch loss or embedding is non-finite; carries partial reports."""

    def __init__(self, message: str, reports=None):
        super().__init__(message)
        self.reports = list(reports or [])


@dataclass(frozen=True)
class TrainConfig:
    method: str
    k: int | None = None            # None: choose_k(n_train) at run time
    weights: LossWeights = field(default_factory=LossWeights)
    batch_size: int = 128
    e_max: int = 50
    convergence_eps: float = 1e-4
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"bad_method: {self.method!r}, expected one of {METHODS}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"bad_k: {self.k}")
        if self.batch_size < 1 or self.e_max < 0 or self.lr <= 0 or self.convergence_eps < 0:
            raise ValueError("bad_config: batch_size >= 1, e_max >= 0, lr > 0, eps >= 0")


@dataclass(frozen=True)
class EpochReport:
    """Per-epoch observability record.

    Snapshot fields and hinge fraction are None for methods that do not
    produce them; wall_time is excluded from serialized logs so reruns
    stay byte-identical.
    """

    epoch: int
    mean_batch_loss: float
    n_triplets: int
    hinge_active_fraction: float | None = None
    mean_d_ak: float | None = None
    max_d_ak: float | None = None
    mean_d_ak_pos: float | None = None
    val_accuracy: float | None = None
    wall_time: float = field(default=0.0, compare=False)

    def to_json_line(self, include_wall_time: bool = False) -> str:
        d = {k: v for k, v in self.__dict__.items() if v is not None}
        if not include_wall_time:
            d.pop("wall_time", None)
        return json.dumps(d, sort_keys=True)


def resolve_k(config: TrainConfig, n_train: int) -> int:
    return config.k if config.k is not None else choose_k(n_train)


def _batched(seq, size):
    for lo in range(0, len(seq), size):
        yield seq[lo:lo + size]


def _apply_triplet_batch(net, samples, triplets, d_ak_pos, weights, margin, adam):
    """Forward the unique samples of a triplet batch, push combined-loss
    gradients back, and take one optimizer step.

    Returns (loss value, number of active hinges).
    """
    a_ids = np.array([t.a for t in triplets])
    p_ids = np.array([t.p for t in triplets])
    n_ids = np.array([t.n for t in triplets])
    ids = np.unique(np.concatenate([a_ids, p_ids, n_ids]))
    emb, caches = net.forward(samples[ids])
    ra = np.searchsorted(ids, a_ids)
    rp = np.searchsorted(ids, p_ids)
    rn = np.searchsorted(ids, n_ids)
    value, ga, gp, gn, _, active = combined_loss(
        emb[ra], emb[rp], emb[rn], weights, d_ak_pos=d_ak_pos, margin=margin)
    if not np.isfinite(value):
        raise DivergedError(f"diverged: non-finite batch loss {value}")
    grad_emb = np.zeros_like(emb)
    np.add.at(grad_emb, ra, ga)
    np.add.at(grad_emb, rp, gp)
    np.add.at(grad_emb, rn, gn)
    adam.step(net.params, net.backward(caches, grad_emb))
    return value, int(np.sum(active))


def _hardmin_batches(labels, batch_size, rng):
    """Class-balanced batches: ceil(batch/classes) anchors per class per
    batch, drawn without replacement from per-class shuffled pools."""
    classes = np.unique(labels)
    per = max(1, -(-batch_size // classes.size))
    pools = [list(rng.permutation(np.flatnonzero(labels == c))) for c in classes]
    while any(pools):
        batch = []
        for pool in pools:
            batch.extend(pool[:per])
            del pool[:per]
        yield np.array(sorted(batch), dtype=np.int64)


def run_epoch(net: EmbeddingNet, config: TrainConfig, dataset: Dataset,
              epoch: int, rng: np.random.Generator, adam: Adam,
              head: SoftmaxHead | None = None) -> EpochReport:
    """One pass over the training set with the configured method."""
    t0 = time.perf_counter()
    labels = dataset.labels
    samples = dataset.samples
    k = resolve_k(config, dataset.n)
    method = config.method

    snapshot = None
    if method in _SNAPSHOT_METHODS:
        embedded = net.embed(samples)
        if not np.all(np.isfinite(embedded)):
            raise DivergedError(f"diverged: non-finite embedding at the start of epoch {epoch}")
        index = build_index(embedded, labels, metric="euclidean")
        snapshot = take_snapshot(index, k, epoch)

    batch_losses: list[float] = []
    n_triplets = 0
    n_active = 0

    if method == "softmax":
        if head is None:
            raise ValueError("bad_config: softmax method needs a head")
        order = rng.permutation(dataset.n)
        for batch in _batched(order, config.batch_size):
            emb, caches = net.forward(samples[batch])
            value, grad_emb, head_grads = softmax_head_loss(emb, labels[batch], head)
            if not np.isfinite(value):
                raise DivergedError(f"diverged: non-finite batch loss {value}")
            grads = net.backward(caches, grad_emb)
            adam.step(net.params + head.params, grads + head_grads)
            batch_losses.append(value)
    elif method == "mm_hardmin":
        for batch in _hardmin_batches(labels, config.batch_size, rng):
            emb, caches = net.forward(samples[batch])
            triplets = []
            for row in range(batch.size):
                try:
                    triplets.append(sample_hard(emb, labels[batch], row))
                except ValueError:
                    continue   # tail batch without an in-batch positive/negative
            if not triplets:
                continue
            ra = np.array([t.a for t in triplets])
            rp = np.array([t.p for t in triplets])
            rn = np.array([t.n for t in triplets])
            value, ga, gp, gn, _, active = combined_loss(
                emb[ra], emb[rp], emb[rn], config.weights, margin="fixed")
            if not np.isfinite(value):
                raise DivergedError(f"diverged: non-finite batch loss {value}")
            grad_emb = np.zeros_like(emb)
            np.add.at(grad_emb, ra, ga)
            np.add.at(grad_emb, rp, gp)
            np.add.at(grad_emb, rn, gn)
            adam.step(net.params, net.backward(caches, grad_emb))
            batch_losses.append(value)
            n_triplets += len(triplets)
            n_active += int(np.sum(active))
    else:
        # lm / lm_mining / mm: one triplet per eligible anchor per pass
        class_count = {c: int(np.sum(labels == c)) for c in dataset.classes}
        eligible = np.array([i for i in range(dataset.n) if class_count[int(labels[i])] >= 2],
                            dtype=np.int64)
        anchors = eligible[rng.permutation(eligible.size)]
        triplets = []
        for a in anchors:
            if method == "lm_mining":
                triplets.append(sample_local(snapshot, labels, int(a), rng))
            else:
                triplets.append(sample_uniform(labels, int(a), rng))
        margin = "local" if method in _SNAPSHOT_METHODS else "fixed"
        for chunk in _batched(triplets, config.batch_size):
            d_pos = snapshot.d_ak_pos[[t.a for t in chunk]] if snapshot is not None else None
            value, active_count = _apply_triplet_batch(
                net, samples, chunk, d_pos, config.weights, margin, adam)
            batch_losses.append(value)
            n_triplets += len(chunk)
            n_active += active_count

    mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
    return EpochReport(
        epoch=epoch,
        mean_batch_loss=mean_loss,
        n_triplets=n_triplets,
        hinge_active_fraction=(n_active / n_triplets) if n_triplets else
                              (None if method == "softmax" else 0.0),
        mean_d_ak=snapshot.mean_d_ak() if snapshot is not None else None,
        max_d_ak=snapshot.max_d_ak() if snapshot is not None else None,
        mean_d_ak_pos=snapshot.mean_d_ak_pos() if snapshot is not None else None,
        wall_time=time.perf_counter() - t0,
    )


def evaluate_knn(net: EmbeddingNet, train: Dataset, queries: Dataset, k: int):
    """KNN accuracy of the embedding: returns (accuracy, predictions, confusion).

    Each query takes the majority class of its k nearest training points;
    a tie goes to the class of the nearest neighbor among the tied classes.
    """
    ids, _ = topk(net.embed(queries.samples), net.embed(train.samples), k)
    classes = np.unique(np.concatenate([train.labels, queries.labels]))
    votes = np.searchsorted(classes, train.labels)[ids]      # (m, k) class positions
    counts = np.sum(votes[:, :, None] == np.arange(classes.size), axis=1)
    tied = np.take_along_axis(counts, votes, axis=1) == counts.max(axis=1, keepdims=True)
    pred_pos = votes[np.arange(queries.n), np.argmax(tied, axis=1)]
    preds = classes[pred_pos]
    confusion = np.zeros((classes.size, classes.size), dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(classes, queries.labels), pred_pos), 1)
    accuracy = float(np.mean(preds == queries.labels))
    return accuracy, preds, confusion


def train(net: EmbeddingNet, config: TrainConfig, dataset: Dataset,
          val: Dataset | None = None, head: SoftmaxHead | None = None,
          log_fn=None):
    """Run up to e_max epochs; stop early once the mean batch loss moves by
    less than convergence_eps between consecutive epochs.

    Returns (net, reports, stop_reason) with stop_reason "converged" or
    "max_epochs". When a validation set is given, per-epoch KNN accuracy
    is tracked and the best-validation parameters are restored at the
    end. Divergence raises DivergedError carrying the partial reports.
    """
    if dataset.classes.size < 2 and config.method != "softmax":
        raise ValueError("no_negative: training needs at least two classes")
    if config.method == "softmax" and head is None:
        head = SoftmaxHead(net.out_dim, int(dataset.classes.max()) + 1,
                           seed=config.seed + 1)
    rng = np.random.default_rng(config.seed)
    opt_params = net.params + (head.params if config.method == "softmax" and head else [])
    adam = Adam(opt_params, lr=config.lr)
    k = resolve_k(config, dataset.n)

    reports: list[EpochReport] = []
    best_val = None
    best_params = None
    prev_loss = None
    reason = "max_epochs"
    for epoch in range(config.e_max):
        try:
            report = run_epoch(net, config, dataset, epoch, rng, adam, head=head)
        except DivergedError as err:
            err.reports = reports
            raise
        if val is not None and val.n:
            acc, _, _ = evaluate_knn(net, dataset, val, k)
            report = replace(report, val_accuracy=acc)
            if best_val is None or acc > best_val:
                best_val = acc
                best_params = [p.copy() for p in net.params]
        reports.append(report)
        if log_fn is not None:
            log_fn(report)
        if prev_loss is not None and abs(report.mean_batch_loss - prev_loss) < config.convergence_eps:
            reason = "converged"
            break
        prev_loss = report.mean_batch_loss
    if best_params is not None:
        net.set_params(best_params)
    return net, reports, reason
