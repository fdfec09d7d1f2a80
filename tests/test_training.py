import warnings
import weakref

import numpy as np
import pytest

import localtriplet.training as training_mod
from localtriplet import network
from localtriplet.data import Dataset, make_blobs, split
from localtriplet.knn import build_index, take_snapshot, topk
from localtriplet.losses import LossWeights
from localtriplet.mining import mine_hard, mine_local, trainable_anchors
from localtriplet.network import (
    Adam,
    EmbeddingNet,
    SoftmaxHead,
    dense,
    mlp,
    mnist_cnn,
    softmax_head_loss,
)
from localtriplet.training import (
    PHASES,
    DivergedError,
    EpochReport,
    TrainConfig,
    evaluate_knn,
    train,
)
from oracles import brute_classify


def _blob_setup(classes=2, per_class=150, dim=6, spacing=0.6, std=0.06,
                seed=7, net_seed=9):
    ds = make_blobs(classes, per_class, dim, spacing=spacing, std=std, seed=seed)
    train_ds, test_ds, _ = split(ds, 0.7, 0.3, seed=seed + 1)
    net = EmbeddingNet((dim,), mlp(32, 16), seed=net_seed)
    return net, train_ds, test_ds


def test_lm_smoke_hinge_fraction_decays():
    net, train_ds, _ = _blob_setup()
    cfg = TrainConfig(method="lm", e_max=5, convergence_eps=0.0, seed=10, lr=5e-3)
    net, reports, _ = train(net, cfg, train_ds)
    fractions = [r.hinge_active_fraction for r in reports]
    assert len(fractions) == 5
    assert fractions[0] > 0.5                       # starts genuinely active
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] < 0.05


def test_softmax_builds_no_snapshot(monkeypatch):
    calls = []
    original = training_mod.take_snapshot

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training_mod, "take_snapshot", counting)
    net, train_ds, _ = _blob_setup()
    cfg = TrainConfig(method="softmax", e_max=2, convergence_eps=0.0, seed=1, lr=1e-3)
    net, reports, _ = train(net, cfg, train_ds)
    assert calls == []
    for r in reports:
        assert r.mean_d_ak is None
        assert r.max_d_ak is None
        assert r.mean_d_ak_pos is None
        assert r.hinge_active_fraction is None


def test_mm_methods_never_read_snapshot(monkeypatch):
    calls = []
    monkeypatch.setattr(training_mod, "take_snapshot",
                        lambda *a, **k: calls.append(1))
    for method in ("mm", "mm_hardmin"):
        net, train_ds, _ = _blob_setup()
        cfg = TrainConfig(method=method, e_max=2, convergence_eps=0.0, seed=2,
                          lr=1e-3, batch_size=32)
        net, reports, _ = train(net, cfg, train_ds)
        assert calls == []
        assert all(r.mean_d_ak is None for r in reports)
        assert all(r.hinge_active_fraction is not None for r in reports)


def test_e_max_zero_no_reports_no_change():
    net, train_ds, _ = _blob_setup()
    before = [p.copy() for p in net.params]
    cfg = TrainConfig(method="lm", e_max=0, seed=3)
    net, reports, reason = train(net, cfg, train_ds)
    assert reports == []
    assert reason == "max_epochs"
    assert all(np.array_equal(a, b) for a, b in zip(before, net.params))


def test_huge_convergence_eps_stops_after_first_comparison():
    net, train_ds, _ = _blob_setup()
    cfg = TrainConfig(method="lm", e_max=50, convergence_eps=1e300, seed=4, lr=1e-3)
    net, reports, reason = train(net, cfg, train_ds)
    assert reason == "converged"
    assert len(reports) == 2


def test_e_max_reached_with_zero_eps():
    net, train_ds, _ = _blob_setup()
    cfg = TrainConfig(method="lm", e_max=3, convergence_eps=0.0, seed=5, lr=1e-3)
    net, reports, reason = train(net, cfg, train_ds)
    assert reason == "max_epochs"
    assert len(reports) == 3


def test_lm_mining_converges_with_bounded_loss_weights():
    # with the mean-difference push disabled the loss plateaus, so the
    # delta-loss rule fires within the reference 60-epoch budget
    net, train_ds, _ = _blob_setup()
    weights = LossWeights(w_lm=1000.0, w_ms=1.0, w_md=0.0, w_ss=0.0, w_sd=0.0)
    cfg = TrainConfig(method="lm_mining", e_max=60, seed=6, lr=1e-3, weights=weights)
    net, reports, reason = train(net, cfg, train_ds)
    assert reason == "converged"
    assert len(reports) <= 60


def test_bit_for_bit_reproducibility():
    results = []
    for _ in range(2):
        net, train_ds, _ = _blob_setup()
        cfg = TrainConfig(method="lm_mining", e_max=3, convergence_eps=0.0,
                          seed=8, lr=1e-3)
        net, reports, _ = train(net, cfg, train_ds)
        results.append((reports, [p.copy() for p in net.params]))
    (r1, p1), (r2, p2) = results
    assert r1 == r2
    assert [r.to_json_line() for r in r1] == [r.to_json_line() for r in r2]
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


@pytest.mark.parametrize("method", ["lm", "lm_mining", "mm", "mm_hardmin", "softmax"])
def test_all_methods_run_and_report(method):
    net, train_ds, _ = _blob_setup()
    cfg = TrainConfig(method=method, e_max=2, convergence_eps=0.0, seed=11,
                      lr=1e-3, batch_size=32)
    net, reports, _ = train(net, cfg, train_ds)
    assert [r.epoch for r in reports] == [0, 1]
    assert all(np.isfinite(r.mean_batch_loss) for r in reports)
    assert all(r.wall_time >= 0 for r in reports)
    for r in reports:
        assert set(r.phase_times) == set(PHASES)
        assert sum(r.phase_times.values()) == pytest.approx(r.wall_time)
        assert (r.phase_times["snapshot"] > 0) == (method in ("lm", "lm_mining"))
        assert (r.phase_times["mine"] > 0) == (method != "softmax")


def test_diverged_raises_with_partial_reports():
    rng = np.random.default_rng(12)
    from localtriplet.data import Dataset
    samples = np.concatenate([rng.standard_normal((20, 4)) * 1e200,
                              rng.standard_normal((20, 4)) * 1e200 + 1e200])
    ds = Dataset(samples, np.repeat([0, 1], 20), (4,))
    net = EmbeddingNet((4,), mlp(8, 4), seed=13)
    cfg = TrainConfig(method="mm", e_max=5, convergence_eps=0.0, seed=14)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergedError) as exc_info:
            train(net, cfg, ds)
    assert isinstance(exc_info.value.reports, list)


def test_non_finite_embedding_raises_diverged():
    net, train_ds, _ = _blob_setup()
    net.params[0][0, 0] = np.nan
    cfg = TrainConfig(method="lm", e_max=2, convergence_eps=0.0, seed=16)
    with pytest.raises(DivergedError, match="non-finite embedding") as exc_info:
        train(net, cfg, train_ds)
    assert exc_info.value.reports == []


def test_non_finite_validation_embedding_raises_diverged(monkeypatch):
    net, train_ds, val_ds = _blob_setup()
    run_epoch = training_mod.run_epoch

    def poisoned(net, config, dataset, epoch, *args, **kwargs):
        report = run_epoch(net, config, dataset, epoch, *args, **kwargs)
        if epoch == 1:
            net.params[0][0, 0] = np.nan
        return report

    monkeypatch.setattr(training_mod, "run_epoch", poisoned)
    cfg = TrainConfig(method="mm", e_max=3, convergence_eps=0.0, seed=16)
    with pytest.raises(DivergedError, match="non-finite embedding of the val split") as exc_info:
        train(net, cfg, train_ds, val=val_ds)
    assert [r.epoch for r in exc_info.value.reports] == [0]


@pytest.mark.parametrize("method", ["lm", "lm_mining"])
def test_overflowing_snapshot_distances_raise_diverged(method):
    # embeddings up to ~5.8e161 are finite, but their squared distances
    # overflow, so the snapshot's d_ak and d_ak_pos come out non-finite
    net = EmbeddingNet((8,), mlp(16, 8), seed=0)
    for p in net.params:
        p *= 1e80
    ds = make_blobs(3, 30, 8, 12.0, 1.0, 1)
    assert np.all(np.isfinite(net.embed(ds.samples)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError,
                           match="snapshot distances overflow in epoch 0") as exc_info:
            train(net, TrainConfig(method=method, e_max=1), ds)
    assert exc_info.value.reports == []


@pytest.mark.parametrize("method", ["lm", "lm_mining"])
def test_overflowing_snapshot_distances_warn_nothing(method):
    # the same run with every warning an error: the snapshot's overflow is
    # reported by DivergedError alone, not by numpy's RuntimeWarnings first
    net = EmbeddingNet((8,), mlp(16, 8), seed=0)
    for p in net.params:
        p *= 1e80
    ds = make_blobs(3, 30, 8, 12.0, 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError, match="snapshot distances overflow in epoch 0"):
            train(net, TrainConfig(method=method, e_max=1), ds)


def test_overflowing_mean_batch_loss_raises_diverged(monkeypatch):
    # every batch loss is finite, but their mean overflows: the epoch log
    # could not hold it as JSON, and the run has diverged
    grad = training_mod._triplet_grad

    def huge(*args):
        _, grad_emb, active = grad(*args)
        return 1.5e308, grad_emb, active

    monkeypatch.setattr(training_mod, "_triplet_grad", huge)
    net, train_ds, _ = _blob_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError, match="non-finite mean batch loss in epoch 0"):
            train(net, TrainConfig(method="mm", batch_size=64, e_max=1), train_ds)


def _one_class_tail_blobs():
    """48 12x12 images in classes of 12, 12 and 24. At batch_size 12,
    mm_hardmin draws 4 samples per class into each of 6 batches, and the
    last 3 batches of an epoch hold class 2 alone."""
    from localtriplet.data import Dataset
    ds = make_blobs(4, 12, 144, spacing=0.5, std=0.3, seed=17)
    return Dataset(ds.samples, np.minimum(ds.labels, 2), (12, 12, 1))


def test_hardmin_batches_of_one_class_take_no_step(monkeypatch):
    steps = []
    step = training_mod.Adam.step

    def counting(self, grads):
        steps.append(1)
        step(self, grads)

    monkeypatch.setattr(training_mod.Adam, "step", counting)
    net = EmbeddingNet((12, 12, 1), mnist_cnn(), seed=18)
    cfg = TrainConfig(method="mm_hardmin", e_max=2, convergence_eps=0.0, seed=19, lr=1e-3,
                      batch_size=12)
    net, reports, _ = train(net, cfg, _one_class_tail_blobs())
    assert len(steps) == 6
    assert [r.n_triplets for r in reports] == [36, 36]


def test_single_class_dataset_rejected():
    from localtriplet.data import Dataset
    ds = Dataset(np.random.default_rng(0).standard_normal((10, 3)),
                 np.zeros(10, dtype=int), (3,))
    net = EmbeddingNet((3,), mlp(4), seed=0)
    with pytest.raises(ValueError, match="no_negative"):
        train(net, TrainConfig(method="lm", e_max=1), ds)


@pytest.mark.parametrize("method", ["lm", "lm_mining", "mm", "mm_hardmin"])
def test_dataset_without_a_positive_rejected(method):
    # two classes, but none with a second sample: no anchor has a positive
    from localtriplet.data import Dataset
    ds = Dataset(np.random.default_rng(0).standard_normal((2, 3)), np.arange(2), (3,))
    net = EmbeddingNet((3,), mlp(4), seed=0)
    with pytest.raises(ValueError, match="no_positive"):
        train(net, TrainConfig(method=method, k=1, e_max=1), ds)
    # softmax needs no triplet
    assert len(train(net, TrainConfig(method="softmax", e_max=1), ds)[1]) == 1


def test_bad_method_rejected():
    with pytest.raises(ValueError, match="bad_method"):
        TrainConfig(method="adversarial")


@pytest.mark.parametrize("cls, field, code", [
    (TrainConfig, "k", "bad_k"),
    (TrainConfig, "batch_size", "bad_batch_size"),
    (TrainConfig, "e_max", "bad_e_max"),
    (TrainConfig, "convergence_eps", "bad_convergence_eps"),
    (TrainConfig, "lr", "bad_lr"),
    *[(LossWeights, name, "bad_weight")
      for name in ("w_lm", "w_ms", "w_md", "w_ss", "w_sd", "fixed_margin_m")],
    (LossWeights, "c_b", "c_b_too_small"),
    (LossWeights, "eps", "bad_eps"),
])
def test_nan_fails_every_range_check(cls, field, code):
    kwargs = {"method": "mm"} if cls is TrainConfig else {}
    with pytest.raises(ValueError, match=code):
        cls(**kwargs, **{field: float("nan")})


def test_val_tracking_restores_best_checkpoint():
    net, train_ds, test_ds = _blob_setup()
    cfg = TrainConfig(method="lm", e_max=4, convergence_eps=0.0, seed=15, lr=5e-3)
    net, reports, _ = train(net, cfg, train_ds, val=test_ds)
    accs = [r.val_accuracy for r in reports]
    assert all(a is not None for a in accs)
    k = training_mod.resolve_k(cfg, train_ds.n)
    final_acc, _, _ = evaluate_knn(net, train_ds, test_ds, k)
    assert final_acc == max(accs)


@pytest.mark.parametrize("method", training_mod.METHODS)
def test_one_training_set_embedding_per_epoch_with_validation(method, monkeypatch):
    # the validation pass's training embedding serves the next epoch's
    # snapshot: lm_mining embeds 3 times in its first epoch (snapshot, then
    # the queries and the training set) and 2 times in each later one
    calls = []
    embed = EmbeddingNet.embed

    def counting(self, x):
        calls.append(x.shape[0])
        return embed(self, x)

    def run(**patches):
        with monkeypatch.context() as mp:
            mp.setattr(EmbeddingNet, "embed", counting)
            for name, value in patches.items():
                mp.setattr(training_mod, name, value)
            net, train_ds, val_ds = _blob_setup()
            cfg = TrainConfig(method=method, e_max=3, convergence_eps=0.0, seed=4, lr=5e-3)
            ends = []
            net, reports, _ = train(net, cfg, train_ds, val=val_ds,
                                    log_fn=lambda r: ends.append(len(calls)))
        calls.clear()
        return np.diff(ends, prepend=0).tolist(), reports, net.params

    snapshot = method in ("lm", "lm_mining")
    counts, reports, params = run()
    assert counts == ([3, 2, 2] if snapshot else [2, 2, 2])
    # the same run with every snapshot embedding the set itself, the bytes
    # of its log and parameters included
    run_epoch = training_mod.run_epoch
    counts, alone, alone_params = run(
        run_epoch=lambda *args, embedded=None, **kwargs: run_epoch(*args, **kwargs))
    assert counts == ([3, 3, 3] if snapshot else [2, 2, 2])
    assert [r.to_json_line() for r in reports] == [r.to_json_line() for r in alone]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params, alone_params))


def test_evaluate_knn_on_separable_blobs():
    net, train_ds, test_ds = _blob_setup(spacing=50.0, std=0.5)
    acc, preds, confusion = evaluate_knn(net, train_ds, test_ds, 5)
    assert acc == 1.0
    assert int(confusion.sum()) == test_ds.n
    assert np.array_equal(preds, test_ds.labels)


def test_evaluate_knn_vote_matches_the_oracle_under_ties():
    # points on a 0.1 grid tie distances and, with even k, class votes; an
    # identity dense layer hands them to the vote unchanged. Class 7 occurs
    # only among the queries, so it has a confusion row but no votes.
    rng = np.random.default_rng(21)
    classes = np.array([0, 3, 5, 7])
    train_ds = Dataset(np.round(rng.uniform(0, 1, (60, 2)), 1),
                       rng.choice(classes[:3], 60), (2,))
    queries = Dataset(np.round(rng.uniform(0, 1, (80, 2)), 1),
                      rng.choice(classes, 80), (2,), split="test")
    net = EmbeddingNet((2,), [dense(2, activation="none")],
                       params=[np.eye(2), np.zeros(2)])
    assert np.array_equal(net.embed(queries.samples), queries.samples)
    ties = 0
    for k in (1, 2, 4, 5, 6, 9):
        acc, preds, confusion = evaluate_knn(net, train_ds, queries, k)
        want = np.array([brute_classify(train_ds.samples, train_ds.labels, q, k)
                         for q in queries.samples])
        assert np.array_equal(preds, want)
        expected = np.zeros((4, 4), dtype=np.int64)
        np.add.at(expected, (np.searchsorted(classes, queries.labels),
                             np.searchsorted(classes, want)), 1)
        assert np.array_equal(confusion, expected)
        assert acc == np.mean(want == queries.labels)
        for q in queries.samples:
            ids, _ = topk(q[None, :], train_ds.samples, k)
            _, votes = np.unique(train_ds.labels[ids[0]], return_counts=True)
            ties += np.count_nonzero(votes == votes.max()) > 1
    assert ties > 50


def test_epoch_report_json_line_excludes_wall_time():
    r = EpochReport(epoch=3, mean_batch_loss=1.5, n_triplets=10,
                    hinge_active_fraction=0.25, wall_time=123.4,
                    phase_times={"mine": 1.0})
    line = r.to_json_line()
    assert "wall_time" not in line
    assert "phase_times" not in line
    assert r == EpochReport(epoch=3, mean_batch_loss=1.5, n_triplets=10,
                            hinge_active_fraction=0.25)
    assert "mean_d_ak" not in line          # None fields dropped
    assert '"epoch": 3' in line


def _arrays(cache):
    """Every array a forward's caches hold, in nested tuples and lists."""
    if isinstance(cache, np.ndarray):
        return [cache]
    if isinstance(cache, (tuple, list)):
        return [a for c in cache for a in _arrays(c)]
    return []


@pytest.mark.parametrize("method, one_class_tail", [
    pytest.param("softmax", False, id="softmax"),
    pytest.param("mm_hardmin", False, id="mm_hardmin"),
    pytest.param("lm_mining", False, id="lm_mining"),
    # batches without a triplet take no step but must free their caches too
    pytest.param("mm_hardmin", True, id="mm_hardmin-one-class-tail"),
])
def test_one_batch_of_caches_alive_at_a_time(method, one_class_tail):
    # a batch's caches (conv im2col columns and activation masks, pooling
    # argmax, dense inputs) must be freed before the next batch's forward
    # allocates its own; refcounting frees them, no gc pass is run
    ds = (_one_class_tail_blobs() if one_class_tail else
          make_blobs(3, 12, 144, spacing=0.5, std=0.3, seed=17))
    net = EmbeddingNet((12, 12, 1), mnist_cnn(), seed=18)
    forward = net.forward
    held = []        # weak references to the previous cached forward's arrays
    alive = []       # per cached forward: how many of the previous one's arrays live

    def tracked(x, want_cache=True):
        if want_cache:
            alive.append(sum(ref() is not None for ref in held))
            held.clear()
        emb, caches = forward(x, want_cache)
        if want_cache:
            held.extend(weakref.ref(a) for a in [emb] + _arrays(caches))
        return emb, caches

    net.forward = tracked
    cfg = TrainConfig(method=method, e_max=2, convergence_eps=0.0, seed=19, lr=1e-3,
                      batch_size=12)
    train(net, cfg, ds)
    assert len(alive) > 4
    assert alive == [0] * len(alive)


# ------------------------------------------------------------- buffer reuse
# In run_epoch the image stage's whole-batch arrays are leading-row views of
# the net's buffers, kept from batch to batch. The same epoch written out
# through the public forward, backward and Adam.step, with the buffers
# released before every batch so that each batch's arrays are new, must give
# the same bits.

def _epoch_in_new_arrays(net, config, ds, rng, adam, head):
    """run_epoch(net, config, ds, 0, rng, adam, head) for mm_hardmin,
    lm_mining and softmax, releasing the net's buffers before every batch:
    its report's JSON line."""
    labels, method, snapshot = ds.labels, config.method, None
    if method == "softmax":
        batches = [(ids, None) for ids in training_mod._batched(rng.permutation(ds.n),
                                                                config.batch_size)]
    elif method == "mm_hardmin":
        batches = [(ids, None) for ids in
                   training_mod._hardmin_batches(labels, config.batch_size, rng)]
    else:
        k = training_mod.resolve_k(config, ds.n)
        snapshot = take_snapshot(build_index(net.embed(ds.samples), labels,
                                             metric="euclidean"), k)
        anchors = trainable_anchors(labels)
        anchors = anchors[rng.permutation(anchors.size)]
        triplets = mine_local(snapshot.neighbor_ids, labels, anchors, rng)
        batches = []
        for chunk in training_mod._batched(triplets, config.batch_size):
            ids, rows = np.unique(chunk, return_inverse=True)
            batches.append((ids, rows.reshape(-1, 3)))
    losses, n_triplets, n_active = [], 0, 0
    for ids, rows in batches:
        net.release_buffers()
        emb, caches = net.forward(ds.samples[ids])
        if method == "softmax":
            value, grad_emb, head_grads = softmax_head_loss(emb, labels[ids], head)
        else:
            if method == "mm_hardmin":
                rows = mine_hard(emb, labels[ids], trainable_anchors(labels[ids]))
            if not rows.size:
                continue
            d_pos = snapshot.d_ak_pos[ids[rows[:, 0]]] if snapshot else None
            value, grad_emb, active = training_mod._triplet_grad(
                emb, rows, d_pos, config.weights)
            head_grads = []
            n_triplets += len(rows)
            n_active += active
        adam.step(net.backward(caches, grad_emb) + head_grads)
        losses.append(value)
    return EpochReport(
        epoch=0, mean_batch_loss=float(np.mean(losses)), n_triplets=n_triplets,
        hinge_active_fraction=n_active / n_triplets if n_triplets else None,
        mean_d_ak=snapshot.mean_d_ak() if snapshot else None,
        max_d_ak=snapshot.max_d_ak() if snapshot else None,
        mean_d_ak_pos=snapshot.mean_d_ak_pos() if snapshot else None).to_json_line()


@pytest.mark.parametrize("pool", [1, 2])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("method", ["mm_hardmin", "lm_mining", "softmax"])
def test_epoch_in_reused_buffers_matches_one_outside_them(method, dtype, pool, monkeypatch):
    monkeypatch.setattr(network, "STAGE_THREADS", pool)
    # tiles of 4 float64 or 8 float32 12x12 images: every batch spans several
    monkeypatch.setattr(network, "TILE_BYTES", 4 * 8 * 6 * 6 * 288)
    # 3 classes of 14: mm_hardmin takes 4 per class, so each epoch ends in a
    # batch of 2 per class
    ds = make_blobs(3, 14, 144, spacing=0.5, std=0.3, seed=21)
    config = TrainConfig(method=method, seed=22, lr=1e-3, batch_size=12)
    results = []
    for reused in (True, False):
        net = EmbeddingNet((12, 12, 1), mnist_cnn(), seed=23, dtype=dtype)
        head = SoftmaxHead(net.out_dim, 3, seed=24) if method == "softmax" else None
        params = net.params + (head.params if head else [])
        adam, rng = Adam(params, lr=config.lr), np.random.default_rng(config.seed)
        if reused:
            forward, seen = net.forward, []     # (batch images, buffer images)

            def tracked(x, want_cache=True):
                out = forward(x, want_cache)
                if want_cache:
                    seen.append((len(x), net._buffers.images))
                return out

            net.forward = tracked
            line = training_mod.run_epoch(net, config, ds, 0, rng, adam, head).to_json_line()
        else:
            line = _epoch_in_new_arrays(net, config, ds, rng, adam, head)
        results.append((line, params))
    (line, params), (want_line, want_params) = results
    assert line == want_line
    for got, want in zip(params, want_params, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    batch_images, buffer_images = zip(*seen)
    assert buffer_images == tuple(np.maximum.accumulate(batch_images))
    if method == "mm_hardmin":
        assert batch_images[-1] < batch_images[0]       # the short tail batch
    if method == "lm_mining":
        assert len(set(buffer_images)) > 1              # the buffers grew


def _buffer_refs(net):
    """Wrap net.forward and net.backward to collect weak references to the
    buffers the net holds after each call."""
    refs = []
    for name in ("forward", "backward"):
        def tracked(*args, _call=getattr(net, name), **kwargs):
            out = _call(*args, **kwargs)
            refs.extend(weakref.ref(a) for a in net._buffers.arrays.values())
            return out
        setattr(net, name, tracked)
    return refs


@pytest.mark.parametrize("diverge", [False, True], ids=["returns", "diverges"])
def test_no_buffer_outlives_train(diverge, monkeypatch):
    if diverge:     # a non-finite loss in the third batch, its caches alive
        grad, calls = training_mod._triplet_grad, []

        def nan_third(*args):
            calls.append(1)
            value, grad_emb, active = grad(*args)
            return (np.nan if len(calls) == 3 else value), grad_emb, active

        monkeypatch.setattr(training_mod, "_triplet_grad", nan_third)
    net = EmbeddingNet((12, 12, 1), mnist_cnn(), seed=25)
    refs = _buffer_refs(net)
    config = TrainConfig(method="mm_hardmin", e_max=2, convergence_eps=0.0, seed=26,
                         batch_size=12)
    raised = False
    try:
        train(net, config, make_blobs(3, 12, 144, spacing=0.5, std=0.3, seed=27))
    except DivergedError:
        raised = True
    assert raised == diverge
    assert not net._buffers.arrays
    # refcounting alone frees them, no gc pass is run
    assert refs and all(ref() is None for ref in refs)


def test_mm_hardmin_batches_without_a_positive_rejected():
    # batches of at most one sample per class: no anchor has an in-batch positive
    net, train_ds, _ = _blob_setup(classes=4, per_class=20)
    for batch_size in (2, 4):
        cfg = TrainConfig(method="mm_hardmin", batch_size=batch_size, e_max=3)
        with pytest.raises(ValueError, match="no_positive: mm_hardmin batches of"):
            train(net, cfg, train_ds)
    cfg = TrainConfig(method="mm_hardmin", batch_size=5, e_max=1)
    assert train(net, cfg, train_ds)[1][0].n_triplets > 0
