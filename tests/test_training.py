import numpy as np
import pytest

import localtriplet.training as training_mod
from localtriplet.data import make_blobs, split
from localtriplet.losses import LossWeights
from localtriplet.network import EmbeddingNet, mlp
from localtriplet.training import (
    PHASES,
    DivergedError,
    EpochReport,
    TrainConfig,
    evaluate_knn,
    train,
)


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


def test_single_class_dataset_rejected():
    from localtriplet.data import Dataset
    ds = Dataset(np.random.default_rng(0).standard_normal((10, 3)),
                 np.zeros(10, dtype=int), (3,))
    net = EmbeddingNet((3,), mlp(4), seed=0)
    with pytest.raises(ValueError, match="no_negative"):
        train(net, TrainConfig(method="lm", e_max=1), ds)


def test_bad_method_rejected():
    with pytest.raises(ValueError, match="bad_method"):
        TrainConfig(method="adversarial")


def test_val_tracking_restores_best_checkpoint():
    net, train_ds, test_ds = _blob_setup()
    cfg = TrainConfig(method="lm", e_max=4, convergence_eps=0.0, seed=15, lr=5e-3)
    net, reports, _ = train(net, cfg, train_ds, val=test_ds)
    accs = [r.val_accuracy for r in reports]
    assert all(a is not None for a in accs)
    k = training_mod.resolve_k(cfg, train_ds.n)
    final_acc, _, _ = evaluate_knn(net, train_ds, test_ds, k)
    assert final_acc == max(accs)


def test_evaluate_knn_on_separable_blobs():
    net, train_ds, test_ds = _blob_setup(spacing=50.0, std=0.5)
    acc, preds, confusion = evaluate_knn(net, train_ds, test_ds, 5)
    assert acc == 1.0
    assert int(confusion.sum()) == test_ds.n
    assert np.array_equal(preds, test_ds.labels)


def test_epoch_report_json_line_excludes_wall_time():
    r = EpochReport(epoch=3, mean_batch_loss=1.5, n_triplets=10,
                    hinge_active_fraction=0.25, wall_time=123.4,
                    phase_times={"mine": 1.0})
    line = r.to_json_line()
    assert "wall_time" not in line
    assert "phase_times" not in line and "phase_times" not in r.to_json_line(True)
    assert r == EpochReport(epoch=3, mean_batch_loss=1.5, n_triplets=10,
                            hinge_active_fraction=0.25)
    assert "mean_d_ak" not in line          # None fields dropped
    assert '"epoch": 3' in line
    assert "wall_time" in r.to_json_line(include_wall_time=True)
