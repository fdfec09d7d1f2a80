"""Training loops.

One epoch of the neighborhood-margin methods re-embeds the training set,
freezes a NeighborhoodSnapshot, mines one triplet per anchor in shuffled
order in one pass, and optimizes the combined loss batch by batch;
snapshot values stay fixed for the whole epoch. Fixed-margin baselines mine
the same way without the snapshot, batch-hard mining draws its triplets
inside class-balanced sample batches, and the softmax baseline trains the
extractor end to end through a linear head. Every method, softmax
included, runs one batch loop; a method only chooses its batches.

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
from .knn import build_index, choose_k, majority_vote, take_snapshot, topk
from .losses import LossWeights, combined_loss
from .mining import mine_hard, mine_local, mine_uniform, trainable_anchors
from .network import Adam, EmbeddingNet, SoftmaxHead, softmax_head_loss

METHODS = ("lm", "lm_mining", "mm", "mm_hardmin", "softmax")
_SNAPSHOT_METHODS = ("lm", "lm_mining")
# run_epoch's phases: re-embedding the training set, the neighborhood
# snapshot, triplet mining, and the rest (forward/backward passes and steps)
PHASES = ("embed", "snapshot", "mine", "optimize")


class DivergedError(RuntimeError):
    """Raised when a batch loss, embedding or parameter is non-finite; carries
    partial reports."""

    exit_code = 4

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
        # each range check is `not x >= low`, which NaN fails too
        if self.k is not None and not self.k >= 1:
            raise ValueError(f"bad_k: {self.k}")
        for name, low in (("batch_size", 1), ("e_max", 0), ("convergence_eps", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"bad_{name}: {name}={getattr(self, name)} must be >= {low}")
        if not self.lr > 0:
            raise ValueError(f"bad_lr: lr={self.lr} must be > 0")


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
        return json.dumps({k: v for k, v in d.items() if v is not None}, sort_keys=True,
                          allow_nan=False)

    def timing_json_line(self) -> str:
        """The epoch's wall and per-phase seconds, peak memory and, for the
        snapshot methods, snapshot_candidates as one JSON line."""
        d = {"epoch": self.epoch, "wall_s": self.wall_time, "peak_rss_mb": self.peak_rss_mb}
        d.update((f"{phase}_s", s) for phase, s in (self.phase_times or {}).items())
        if self.snapshot_candidates is not None:
            d["snapshot_candidates"] = self.snapshot_candidates
        return json.dumps(d, sort_keys=True, allow_nan=False)


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


def _triplet_grad(emb, rows, d_ak_pos, weights):
    """(loss value, gradient with respect to emb, number of active hinges)
    of the combined loss on a triplet batch; rows is an (m, 3) array of
    (anchor, positive, negative) row indices into emb."""
    ra, rp, rn = rows.T
    value, ga, gp, gn, _, active = combined_loss(
        emb[ra], emb[rp], emb[rn], weights, d_ak_pos=d_ak_pos)
    grad_emb = np.zeros_like(emb)
    np.add.at(grad_emb, ra, ga)
    np.add.at(grad_emb, rp, gp)
    np.add.at(grad_emb, rn, gn)
    return value, grad_emb, int(np.sum(active))


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
              head: SoftmaxHead | None = None, embedded=None) -> EpochReport:
    """One pass over the training set with the configured method.

    Each method only chooses its batches, and one loop runs every batch:
    forward, loss, backward, then the Adam step. The batch's embeddings and
    caches are deleted before the step, so one batch of caches is alive at
    a time; the image stage's whole-batch arrays are views of the net's
    buffers, kept from batch to batch and, outside `train`, after the epoch
    (EmbeddingNet.release_buffers drops them). `adam` steps the arrays it
    was built with: the net's parameters, then the head's for softmax.
    embedded, if given, is embed_finite of the dataset with the net's present
    parameters; the snapshot methods use it in place of embedding it again.
    """
    clock = time.perf_counter
    t0 = clock()
    phases = dict.fromkeys(PHASES, 0.0)
    labels = dataset.labels
    k = resolve_k(config, dataset.n)
    method = config.method

    snapshot = None
    if method in _SNAPSHOT_METHODS:
        if embedded is None:
            embedded = embed_finite(net, dataset, f"at the start of epoch {epoch}")
        t1 = clock()
        snapshot = take_snapshot(build_index(embedded, labels, metric="euclidean"), k)
        phases["embed"], phases["snapshot"] = t1 - t0, clock() - t1
        # finite embeddings can still overflow their squared distances
        if not (np.all(np.isfinite(snapshot.d_ak))
                and np.all(np.isfinite(snapshot.d_ak_pos[snapshot.has_positive]))):
            raise DivergedError(f"diverged: snapshot distances overflow in epoch {epoch}")

    if method == "softmax":
        if head is None:
            raise ValueError("bad_config: softmax method needs a head")
        batches = _batched(rng.permutation(dataset.n), config.batch_size)
    elif method == "mm_hardmin":
        # rows are mined in the loop from the whole class-balanced batch's embeddings
        batches = _hardmin_batches(labels, config.batch_size, rng)
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
        batches = _batched(triplets, config.batch_size)

    batch_losses: list[float] = []
    n_triplets = 0
    n_active = 0
    for batch in batches:
        grads = None    # frees the last step's gradients; stays None for a batch without triplets
        ids, rows = batch, None
        if batch.ndim == 2:     # a chunk of triplets: its distinct ids, and rows into them
            ids, rows = np.unique(batch, return_inverse=True)
            rows = rows.reshape(len(batch), 3)     # its shape differs between numpy versions
        emb, caches = net.forward(dataset.samples[ids])
        if method == "mm_hardmin":
            t1 = clock()
            # a tail batch may hold anchors without an in-batch positive or negative
            rows = mine_hard(emb, labels[ids], trainable_anchors(labels[ids]))
            phases["mine"] += clock() - t1
        if method == "softmax":
            value, grad_emb, grads = softmax_head_loss(emb, labels[ids], head)
        elif rows.size:
            d_pos = snapshot.d_ak_pos[ids[rows[:, 0]]] if snapshot is not None else None
            value, grad_emb, active = _triplet_grad(emb, rows, d_pos, config.weights)
            grads = []
            n_triplets += len(rows)
            n_active += active
        if grads is not None:
            if not np.isfinite(value):
                raise DivergedError(f"diverged: non-finite batch loss {value}")
            grads = net.backward(caches, grad_emb) + grads
        del emb, caches
        if grads is not None:
            adam.step(grads)
            batch_losses.append(value)

    with np.errstate(over="ignore"):   # finite batch losses whose sum overflows
        mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
    if not np.isfinite(mean_loss):
        raise DivergedError(f"diverged: non-finite mean batch loss in epoch {epoch}")
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

    Each query takes the majority_vote of its k nearest training points.
    """
    return _evaluate_knn(net, train, queries, k)[:3]


def _evaluate_knn(net: EmbeddingNet, train: Dataset, queries: Dataset, k: int):
    """evaluate_knn's (accuracy, predictions, confusion), then the training
    set's embedding it made."""
    query_emb = embed_finite(net, queries)      # a query failure is reported first
    train_emb = embed_finite(net, train)
    ids, _ = topk(query_emb, train_emb, k)
    classes = np.unique(np.concatenate([train.labels, queries.labels]))
    votes = np.searchsorted(classes, train.labels)[ids]      # (m, k) class positions
    pred_pos, _ = majority_vote(votes)
    preds = classes[pred_pos]
    confusion = np.zeros((classes.size, classes.size), dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(classes, queries.labels), pred_pos), 1)
    accuracy = float(np.mean(preds == queries.labels))
    return accuracy, preds, confusion, train_emb


def train(net: EmbeddingNet, config: TrainConfig, dataset: Dataset,
          val: Dataset | None = None, log_fn=None):
    """Run up to e_max epochs; stop early once the mean batch loss moves by
    less than convergence_eps between consecutive epochs.

    Returns (net, reports, stop_reason) with stop_reason "converged" or
    "max_epochs". When a validation set is given, per-epoch KNN accuracy
    is tracked and the best-validation parameters are restored at the
    end. Divergence (a non-finite batch loss, embedding, or parameter
    after an epoch) raises DivergedError carrying the earlier epochs' reports.
    A triplet method on a training set without an anchor that has both a
    positive and a negative, or mm_hardmin with batches of one sample per
    class, raises ValueError: it would train nothing. The net's whole-batch
    buffers live for the run: train releases them when it returns or raises.
    """
    if config.method != "softmax" and not trainable_anchors(dataset.labels).size:
        if np.unique(dataset.labels).size < 2:
            raise ValueError("no_negative: training needs at least two classes")
        raise ValueError("no_positive: no class holds two samples, so no anchor has a "
                         "positive and no triplet can be formed")
    if config.method == "mm_hardmin" and config.batch_size <= np.unique(dataset.labels).size:
        raise ValueError(f"no_positive: mm_hardmin batches of {config.batch_size} samples "
                         "hold at most one sample of each class, so no anchor has an "
                         "in-batch positive; use a batch size above the class count")
    head = None
    if config.method == "softmax":
        head = SoftmaxHead(net.out_dim, int(dataset.labels.max()) + 1,
                           seed=config.seed + 1)
    rng = np.random.default_rng(config.seed)
    adam = Adam(net.params + (head.params if head else []), lr=config.lr)
    k = resolve_k(config, dataset.n)

    reports: list[EpochReport] = []
    embedded = None     # the validation pass's training embedding, for the next snapshot
    best_val = None
    best_params = None
    prev_loss = None
    reason = "max_epochs"
    try:
        for epoch in range(config.e_max):
            try:
                report = run_epoch(net, config, dataset, epoch, rng, adam, head=head,
                                   embedded=embedded)
                if val is not None and val.n:
                    acc, _, _, embedded = _evaluate_knn(net, dataset, val, k)
                    report = replace(report, val_accuracy=acc)
                    if best_val is None or acc > best_val:
                        best_val = acc
                        best_params = [p.copy() for p in net.params]
                # a step that makes a parameter non-finite shows in the next
                # step's loss or embedding, except the last step of the run
                if not all(np.all(np.isfinite(p)) for p in adam.params):
                    raise DivergedError(f"diverged: non-finite parameters after epoch {epoch}")
            except DivergedError as err:
                err.reports = reports
                raise
            reports.append(report)
            if log_fn is not None:
                log_fn(report)
            if (prev_loss is not None
                    and abs(report.mean_batch_loss - prev_loss) < config.convergence_eps):
                reason = "converged"
                break
            prev_loss = report.mean_batch_loss
    finally:
        net.release_buffers()
    if best_params is not None:
        net.set_params(best_params)
    return net, reports, reason
