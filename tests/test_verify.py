import warnings

import numpy as np
import pytest

from localtriplet.knn import topk
from localtriplet.verify import (
    check_optimal_condition,
    corollary_margin_check,
    pca_reduce,
    purity_check,
    write_scatter_csv,
)


def _tight_clusters(rng, classes=3, per_class=12, dim=4, gap=60.0, radius=0.2):
    """Clusters so compact relative to their separation that the optimal
    condition holds for every anchor."""
    centers = np.zeros((classes, dim))
    for c in range(classes):
        centers[c, c % dim] = gap * (1 + c)
    pts = np.concatenate([
        centers[c] + radius * rng.standard_normal((per_class, dim))
        for c in range(classes)])
    labels = np.repeat(np.arange(classes), per_class)
    return pts, labels


# -------------------------------------------------------- optimal condition

def test_two_collapsed_clusters_zero_violations():
    pts = np.array([[0.0, 0.0]] * 5 + [[9.0, 0.0]] * 5)
    labels = np.array([0] * 5 + [1] * 5)
    report = check_optimal_condition(pts, labels, k=1, c_b=3.0, eps=1e-3)
    assert report.violations == []
    assert report.n_checked == 10


def test_single_mixed_cluster_has_violations():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 3)) * 0.5
    labels = rng.integers(0, 2, size=40)
    report = check_optimal_condition(pts, labels, k=3, c_b=3.0, eps=1e-3)
    assert len(report.violations) > 0
    assert all(v.residual > 0 for v in report.violations)


def test_small_classes_skipped_not_failed():
    pts = np.array([[0.0], [0.1], [5.0], [5.1], [5.2], [5.3], [5.4]])
    labels = np.array([0, 0, 1, 1, 1, 1, 1])
    report = check_optimal_condition(pts, labels, k=3, c_b=3.0, eps=1e-3)
    # class 0 has 2 < k+1 samples: both anchors skipped
    assert set(report.skipped_anchors) == {0, 1}
    assert report.n_checked == 5


def test_optimal_condition_k_bounds():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="k_exceeds_n"):
        check_optimal_condition(pts, [0, 1, 2], k=3, c_b=3.0, eps=1e-3)


def test_overflowing_positives_read_as_none_without_a_warning():
    # each anchor's only positive lies at an overflowing distance, its
    # nearest negative close by: d_ak (k = 1) stays finite and max_pos is
    # -inf, "no positive"; the screen's inf - inf keeps its columns quietly
    pts = np.array([[0.0, 0.0], [1e155, 1e155], [1.0, 0.0], [1e155 + 1e140, 1e155]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_optimal_condition(pts, np.array([0, 0, 1, 1]), 1, 1.0, 0.0)
    assert np.all(np.isfinite(report.d_ak))
    assert np.array_equal(report.max_pos, np.full(4, -np.inf))
    assert report.violations == [] and report.n_checked == 4


def test_overflow_is_reported():
    # no finite positive, as above; then every pair at an overflowing
    # distance, so d_ak (k = 1) is infinite; then ordinary clusters
    labels = np.array([0, 0, 1, 1])
    no_positive = np.array([[0.0, 0.0], [1e155, 1e155], [1.0, 0.0], [1e155 + 1e140, 1e155]])
    far = np.array([[0.0, 0.0], [1e155, 1e155], [-1e155, 1e155], [1e155, -1e155]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [check_optimal_condition(pts, labels, 1, 1.0, 0.0) for pts in (no_positive, far)]
    assert np.all(np.isfinite(reports[0].d_ak)) and not np.any(np.isfinite(reports[1].d_ak))
    assert reports[0].overflowed and reports[1].overflowed
    pts, labels = _tight_clusters(np.random.default_rng(3))
    assert not check_optimal_condition(pts, labels, 5, 3.0, 1e-3).overflowed


# ------------------------------------------------------------------- purity

def test_query_at_anchor_in_single_class_neighborhood_is_pure():
    rng = np.random.default_rng(1)
    pts, labels = _tight_clusters(rng)
    report = purity_check(pts, labels, pts[3:4], k=5)
    assert report.query_status == ["pure"]
    assert report.purity == 1.0


def test_far_query_is_outlier_and_excluded_from_denominator():
    rng = np.random.default_rng(2)
    pts, labels = _tight_clusters(rng)
    radius = np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1))
    far = pts.mean(axis=0) + 10.0 * radius
    near = pts[0]
    report = purity_check(pts, labels, np.stack([far, near]), k=5)
    assert report.query_status == ["outlier", "pure"]
    assert report.outlier_count == 1
    assert report.purity == 1.0
    assert report.pure_count + report.impure_count + report.outlier_count == 2


def test_zero_violations_imply_full_purity():
    # randomized configurations that satisfy the optimal condition must
    # show 100% purity for every non-outlier query
    for seed in range(8):
        rng = np.random.default_rng(seed)
        pts, labels = _tight_clusters(rng, classes=4, per_class=10, dim=5)
        k = 4
        report = check_optimal_condition(pts, labels, k, c_b=3.0, eps=1e-3)
        assert report.violations == [], "construction must satisfy the condition"
        queries = pts + 0.05 * rng.standard_normal(pts.shape)
        purity = purity_check(pts, labels, queries, k)
        non_outliers = purity.n_queries - purity.outlier_count
        assert purity.pure_count == non_outliers


def test_impure_when_neighborhoods_mix():
    pts = np.array([[0.0], [0.5], [1.0], [1.5], [2.0], [2.5]])
    labels = np.array([0, 1, 0, 1, 0, 1])
    report = purity_check(pts, labels, np.array([[1.1]]), k=3)
    assert report.query_status == ["impure"]
    assert report.purity == 0.0


# ---------------------------------------------------------------- corollary

def test_purity_reuses_the_condition_check_radii():
    # ties: coarse grid points make many kth distances coincide
    rng = np.random.default_rng(5)
    pts = np.round(rng.standard_normal((90, 3)), 0)
    labels = rng.integers(0, 3, size=90)
    queries = np.round(rng.standard_normal((40, 3)) * 1.5, 1)
    for k in (1, 4, 9):
        report = check_optimal_condition(pts, labels, k=k, c_b=3.0, eps=1e-3)
        kth = topk(pts, pts, k, exclude=np.arange(90))[1][:, -1]
        assert report.d_ak.tobytes() == kth.tobytes()
        fresh = purity_check(pts, labels, queries, k)
        reused = purity_check(pts, labels, queries, k, d_ak=report.d_ak)
        assert reused.query_status == fresh.query_status
        assert np.array_equal(reused.nearest_anchor, fresh.nearest_anchor)
        assert 0 < fresh.outlier_count < 40
    with pytest.raises(ValueError, match="shape_mismatch"):
        purity_check(pts, labels, queries, 4, d_ak=report.d_ak[:-1])


def test_corollary_large_margin_sufficient():
    rng = np.random.default_rng(3)
    pts, labels = _tight_clusters(rng)
    ok, max_d_ak = corollary_margin_check(pts, labels, k=5, m=1_000_000.0)
    assert ok
    assert max_d_ak < 10.0


def test_corollary_zero_margin_insufficient():
    rng = np.random.default_rng(4)
    pts, labels = _tight_clusters(rng)
    ok, max_d_ak = corollary_margin_check(pts, labels, k=5, m=0.0)
    assert not ok
    assert max_d_ak > 0.0


def test_corollary_rejects_labels_of_another_length():
    pts, labels = _tight_clusters(np.random.default_rng(4), per_class=4)
    for bad in (labels[:3], labels.reshape(3, 4), np.int64(0)):
        with pytest.raises(ValueError, match="label_mismatch"):
            corollary_margin_check(pts, bad, k=2, m=1.0)


# --------------------------------------------------------------------- pca

def test_pca_line_explains_everything():
    rng = np.random.default_rng(5)
    t = rng.standard_normal(60)
    direction = np.array([1.0, 2.0, -0.5])
    x = np.outer(t, direction)
    proj, components, ev = pca_reduce(x, 1)
    assert ev[0] > 0
    total_var = np.sum(np.var(x, axis=0))
    assert ev[0] == pytest.approx(total_var, rel=1e-9)


def test_pca_isotropic_eigenvalues_close():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20_000, 3))
    _, _, ev = pca_reduce(x, 3)
    assert np.max(ev) / np.min(ev) < 1.1


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 10))
    proj, components, _ = pca_reduce(x, 10)
    recon = proj @ components + x.mean(axis=0)
    assert np.max(np.abs(recon - x)) <= 1e-8


def test_pca_preserves_distances_at_full_dim():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 6))
    proj, _, _ = pca_reduce(x, 6)
    for i in range(0, 30, 5):
        for j in range(1, 30, 7):
            orig = np.linalg.norm(x[i] - x[j])
            new = np.linalg.norm(proj[i] - proj[j])
            assert new == pytest.approx(orig, rel=1e-9, abs=1e-9)


def test_pca_eigenvalues_descending_and_sign_convention():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((80, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    _, components, ev = pca_reduce(x, 5)
    assert np.all(np.diff(ev) <= 1e-12)
    for row in components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_out_dim_too_large():
    with pytest.raises(ValueError, match="bad_out_dim"):
        pca_reduce(np.zeros((4, 3)), 4)


# --------------------------------------------------------------------- csv

def test_scatter_csv_format(tmp_path):
    path = tmp_path / "scatter.csv"
    xy = np.array([[1.5, -2.0], [0.0, 3.25]])
    write_scatter_csv(path, xy, labels=[4, 7], status=["pure", "outlier"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "query_id,x,y,label,status"
    assert lines[1] == "0,1.5,-2.0,4,pure"
    assert lines[2] == "1,0.0,3.25,7,outlier"
