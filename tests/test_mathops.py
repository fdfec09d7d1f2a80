import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtriplet.knn import topk
from localtriplet.mathops import mean_and_var, pairwise_sq_dists, sq_dists_rowwise
from oracles import scalar_mean_var, scalar_sq_dist


def _dist(a, b, metric="sq_euclidean"):
    """The library's distance of one pair: a one-query, one-point topk."""
    return float(topk(np.atleast_2d(a), np.atleast_2d(b), 1, metric=metric)[1][0, 0])


def _all_dists(points, metric):
    """(n, n) distances of every pair of points, from one topk over all."""
    ids, dists = topk(points, points, len(points), metric=metric)
    out = np.empty_like(dists)
    np.put_along_axis(out, ids, dists, axis=1)
    return out


def test_sq_dist_identity():
    assert _dist([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_sq_dist_unit_square_diagonal():
    assert _dist([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_sq_dist_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal(128)
        b = rng.standard_normal(128)
        got = _dist(a, b)
        want = scalar_sq_dist(a, b)
        assert abs(got - want) <= 1e-12 * max(want, 1e-300)


def test_sq_dist_dim_mismatch():
    with pytest.raises(ValueError, match="dim_mismatch"):
        _dist([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="dim_mismatch"):
        sq_dists_rowwise([[1.0, 2.0]], [1.0, 2.0, 3.0])


def test_euclid_345():
    assert _dist([0.0, 0.0], [3.0, 4.0], "euclidean") == 5.0


def test_euclid_self_zero():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(16)
    assert _dist(a, a, "euclidean") == 0.0


def test_euclid_triangle_inequality_random_triples():
    rng = np.random.default_rng(11)
    a, b, c = (np.arange(0, 30, 3) + i for i in range(3))
    for _ in range(1000):
        # 10 triples a scale each, as rows 3t, 3t + 1, 3t + 2
        triples = rng.standard_normal((10, 3, 6)) * rng.uniform(0.1, 100, (10, 1, 1))
        d = _all_dists(triples.reshape(30, 6), "euclidean")
        assert np.all(d[a, c] <= d[a, b] + d[b, c] + 1e-9)


def test_sq_dist_is_square_of_euclid():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((40, 32))
    s = _all_dists(points, "sq_euclidean")
    e = _all_dists(points, "euclidean")
    assert np.all(np.abs(s - e * e) <= 1e-10 * np.maximum(s, 1e-300))


def test_order_equivalence_of_metrics():
    rng = np.random.default_rng(13)
    points = rng.standard_normal((60, 8))
    s = _all_dists(points, "sq_euclidean")
    e = _all_dists(points, "euclidean")
    assert np.array_equal(s[:, :, None] < s[:, None, :], e[:, :, None] < e[:, None, :])


def test_rowwise_matches_pairwise_calls_bitwise():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((40, 33))
    q = rng.standard_normal(33)
    row = sq_dists_rowwise(pts, q)
    for i in range(40):
        # the pinned arithmetic on one row: knn's distance of the one pair
        assert row[i] == _dist(pts[i], q)


def test_pairwise_matrix_matches_rowwise():
    rng = np.random.default_rng(19)
    pts = rng.standard_normal((70, 5))
    full = pairwise_sq_dists(pts, chunk=16)
    for i in range(70):
        assert np.array_equal(full[i], sq_dists_rowwise(pts, pts[i]))


def test_mean_and_var_constant_sample():
    assert mean_and_var([2.0, 2.0, 2.0]) == (2.0, 0.0)


def test_mean_and_var_two_points():
    assert mean_and_var([0.0, 2.0]) == (1.0, 1.0)


def test_mean_and_var_matches_two_pass_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        xs = rng.standard_normal(rng.integers(1, 200)) * 10
        m, v = mean_and_var(xs)
        om, ov = scalar_mean_var(xs)
        assert abs(m - om) <= 1e-12 * max(abs(om), 1.0)
        assert abs(v - ov) <= 1e-12 * max(ov, 1.0)


def test_mean_and_var_empty_errors():
    with pytest.raises(ValueError, match="empty_sample"):
        mean_and_var([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
def test_variance_never_negative(xs):
    _, v = mean_and_var(xs)
    assert v >= 0.0
