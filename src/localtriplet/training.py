"""Training loops.

One epoch of the neighborhood-margin methods re-embeds the training set,
freezes a NeighborhoodSnapshot, mines one triplet per anchor in shuffled
order in one pass, and optimizes the combined loss batch by batch;
snapshot values stay fixed for the whole epoch. Fixed-margin baselines run
the same loop without the snapshot, batch-hard mining draws its triplets
inside class-balanced sample batches, and every triplet method takes its
optimizer steps through the same batch step. The softmax baseline trains
the extractor end to end through a linear head.

Runs are reproducible bit for bit: a single Generator seeded from the
config drives every shuffle and draw in a fixed order.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Classes, Dataset, shuffled_members
from .knn import build_index, choose_k, take_snapshot, topk
from .losses import LossWeights, combined_loss
from .mining import mine_hard, mine_local, mine_uniform, trainable_anchors
from .network import Adam, EmbeddingNet, SoftmaxHead, softmax_head_loss

METHODS = ("lm", "lm_mining", "mm", "mm_hardmin", "softmax")
_SNAPSHOT_METHODS = ("lm", "lm_mining")
# run_epoch's phases: re-embedding the training set, the neighborhood
# snapshot, triplet mining, and the rest (forward/backward passes and steps)
PHASES = ("embed", "snapshot", "mine", "optimize")


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
    produce them. wall_time, phase_times (seconds per PHASES entry),
    peak_rss_mb (the process's peak resident memory at the end of the
    epoch) and snapshot_candidates (the snapshot's exact distance
    recomputations per anchor) are excluded from comparison and from
    to_json_line, so logs of reruns stay byte-identical.
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
    phase_times: dict | None = field(default=None, compare=False)
    peak_rss_mb: float | None = field(default=None, compare=False)
    snapshot_candidates: float | None = field(default=None, compare=False)

    def to_json_line(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return json.dumps({k: v for k, v in d.items() if v is not None}, sort_keys=True)

    def timing_json_line(self) -> str:
        """The epoch's wall and per-phase seconds, peak memory and, for the
        snapshot methods, snapshot_candidates as one JSON line."""
        d = {"epoch": self.epoch, "wall_s": self.wall_time, "peak_rss_mb": self.peak_rss_mb}
        d.update((f"{phase}_s", s) for phase, s in (self.phase_times or {}).items())
        if self.snapshot_candidates is not None:
            d["snapshot_candidates"] = self.snapshot_candidates
        return json.dumps(d, sort_keys=True)


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB (ru_maxrss is
    KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def resolve_k(config: TrainConfig, n_train: int) -> int:
    return config.k if config.k is not None else choose_k(n_train)


def _batched(seq, size):
    for lo in range(0, len(seq), size):
        yield seq[lo:lo + size]


def _triplet_step(net, emb, caches, rows, d_ak_pos, weights, margin, adam):
    """One optimizer step on a triplet batch.

    emb and caches come from the caller's forward pass; rows is an (m, 3)
    array of (anchor, positive, negative) row indices into emb. The
    combined-loss gradients are summed per embedding row, pushed back
    through the network, and Adam takes one step. Returns (loss value,
    number of active hinges).
    """
    ra, rp, rn = rows.T
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
    classes = Classes(labels)
    per = max(1, -(-batch_size // classes.count.size))
    pools = np.split(shuffled_members(classes, rng), classes.start[1:])
    for lo in range(0, classes.count.max(), per):
        yield np.sort(np.concatenate([pool[lo:lo + per] for pool in pools]))


def embed_finite(net: EmbeddingNet, dataset: Dataset, where: str = "") -> np.ndarray:
    """net.embed of the dataset's samples; a non-finite embedding raises
    DivergedError, which says where (by default, of which split)."""
    emb = net.embed(dataset.samples)
    if not np.all(np.isfinite(emb)):
        where = where or f"of the {dataset.split} split"
        raise DivergedError(f"diverged: non-finite embedding {where}")
    return emb


def run_epoch(net: EmbeddingNet, config: TrainConfig, dataset: Dataset,
              epoch: int, rng: np.random.Generator, adam: Adam,
              head: SoftmaxHead | None = None) -> EpochReport:
    """One pass over the training set with the configured method.

    Each batch loop deletes its batch's embeddings and caches before the
    next batch's forward allocates its own, so one batch of caches is alive
    at a time.
    """
    clock = time.perf_counter
    t0 = clock()
    phases = dict.fromkeys(PHASES, 0.0)
    labels = dataset.labels
    samples = dataset.samples
    k = resolve_k(config, dataset.n)
    method = config.method

    snapshot = None
    if method in _SNAPSHOT_METHODS:
        embedded = embed_finite(net, dataset, f"at the start of epoch {epoch}")
        t1 = clock()
        snapshot = take_snapshot(build_index(embedded, labels, metric="euclidean"), k, epoch)
        phases["embed"], phases["snapshot"] = t1 - t0, clock() - t1

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
            del emb, caches
            adam.step(net.params + head.params, grads + head_grads)
            batch_losses.append(value)
    elif method == "mm_hardmin":
        # mining needs the embeddings of the whole class-balanced batch
        for batch in _hardmin_batches(labels, config.batch_size, rng):
            emb, caches = net.forward(samples[batch])
            t1 = clock()
            # a tail batch may hold anchors without an in-batch positive or negative
            rows = mine_hard(emb, labels[batch], trainable_anchors(labels[batch]))
            phases["mine"] += clock() - t1
            if rows.size:
                value, active = _triplet_step(net, emb, caches, rows, None, config.weights,
                                              "fixed", adam)
                batch_losses.append(value)
                n_triplets += len(rows)
                n_active += active
            del emb, caches
    else:
        # lm / lm_mining / mm: one triplet per anchor that has a positive and a negative
        t1 = clock()
        anchors = trainable_anchors(labels)
        anchors = anchors[rng.permutation(anchors.size)]
        if method == "lm_mining":
            triplets = mine_local(snapshot.neighbor_ids, labels, anchors, rng)
        else:
            triplets = mine_uniform(labels, anchors, rng)
        phases["mine"] = clock() - t1
        margin = "local" if method in _SNAPSHOT_METHODS else "fixed"
        for chunk in _batched(triplets, config.batch_size):
            ids, rows = np.unique(chunk, return_inverse=True)
            emb, caches = net.forward(samples[ids])
            d_pos = snapshot.d_ak_pos[chunk[:, 0]] if snapshot is not None else None
            value, active = _triplet_step(net, emb, caches, rows.reshape(chunk.shape), d_pos,
                                          config.weights, margin, adam)
            del emb, caches
            batch_losses.append(value)
            n_triplets += len(chunk)
            n_active += active

    mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
    wall_time = clock() - t0
    phases["optimize"] = wall_time - phases["embed"] - phases["snapshot"] - phases["mine"]
    return EpochReport(
        epoch=epoch,
        mean_batch_loss=mean_loss,
        n_triplets=n_triplets,
        hinge_active_fraction=(n_active / n_triplets) if n_triplets else
                              (None if method == "softmax" else 0.0),
        mean_d_ak=snapshot.mean_d_ak() if snapshot is not None else None,
        max_d_ak=snapshot.max_d_ak() if snapshot is not None else None,
        mean_d_ak_pos=snapshot.mean_d_ak_pos() if snapshot is not None else None,
        wall_time=wall_time,
        phase_times=phases,
        peak_rss_mb=_peak_rss_mb(),
        snapshot_candidates=snapshot.candidates if snapshot is not None else None,
    )


def evaluate_knn(net: EmbeddingNet, train: Dataset, queries: Dataset, k: int):
    """KNN accuracy of the embedding: returns (accuracy, predictions, confusion).

    Each query takes the majority class of its k nearest training points;
    a tie goes to the class of the nearest neighbor among the tied classes.
    """
    ids, _ = topk(embed_finite(net, queries), embed_finite(net, train), k)
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
          val: Dataset | None = None, log_fn=None):
    """Run up to e_max epochs; stop early once the mean batch loss moves by
    less than convergence_eps between consecutive epochs.

    Returns (net, reports, stop_reason) with stop_reason "converged" or
    "max_epochs". When a validation set is given, per-epoch KNN accuracy
    is tracked and the best-validation parameters are restored at the
    end. Divergence raises DivergedError carrying the partial reports.
    """
    if np.unique(dataset.labels).size < 2 and config.method != "softmax":
        raise ValueError("no_negative: training needs at least two classes")
    head = None
    if config.method == "softmax":
        head = SoftmaxHead(net.out_dim, int(dataset.labels.max()) + 1,
                           seed=config.seed + 1)
    rng = np.random.default_rng(config.seed)
    adam = Adam(net.params + (head.params if head else []), lr=config.lr)
    k = resolve_k(config, dataset.n)

    reports: list[EpochReport] = []
    best_val = None
    best_params = None
    prev_loss = None
    reason = "max_epochs"
    for epoch in range(config.e_max):
        try:
            report = run_epoch(net, config, dataset, epoch, rng, adam, head=head)
            if val is not None and val.n:
                acc, _, _ = evaluate_knn(net, dataset, val, k)
                report = replace(report, val_accuracy=acc)
                if best_val is None or acc > best_val:
                    best_val = acc
                    best_params = [p.copy() for p in net.params]
        except DivergedError as err:
            err.reports = reports
            raise
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
