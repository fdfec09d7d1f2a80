from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtriplet.knn import (
    build_index,
    choose_k,
    knn_classify,
    query_knn,
    take_snapshot,
    topk,
)
from localtriplet.mathops import pairwise_sq_dists
from oracles import brute_knn, exhaustive_topk, is_outlier


def _random_labeled(rng, n, dim, classes=3):
    pts = rng.standard_normal((n, dim)) * rng.uniform(0.5, 5.0)
    labels = rng.integers(0, classes, size=n)
    return pts, labels


# ---------------------------------------------------------------- queries

def test_three_points_nearest_by_hand():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    index = build_index(pts, [0, 0, 1])
    assert query_knn(index, pts[0], 1, exclude=0)[0][0] == 1
    assert query_knn(index, pts[1], 1, exclude=1)[0][0] == 0
    assert query_knn(index, pts[2], 1, exclude=2)[0][0] == 1


@pytest.mark.parametrize("metric", ["euclidean", "sq_euclidean"])
def test_500_random_points_match_oracle_kdtree_path(metric):
    rng = np.random.default_rng(42)
    pts, labels = _random_labeled(rng, 500, 16)
    index = build_index(pts, labels, metric=metric)
    for qi in range(40):
        q = rng.standard_normal(16)
        assert query_knn(index, q, 10) == brute_knn(pts, q, 10, metric=metric)


def test_random_points_match_oracle_brute_path():
    rng = np.random.default_rng(43)
    pts, labels = _random_labeled(rng, 300, 32)
    index = build_index(pts, labels)
    for qi in range(30):
        q = rng.standard_normal(32)
        assert query_knn(index, q, 7) == brute_knn(pts, q, 7)


def test_1000_points_k31_match_oracle():
    rng = np.random.default_rng(44)
    pts, labels = _random_labeled(rng, 1000, 12)
    index = build_index(pts, labels)
    for qi in range(100):
        q = rng.standard_normal(12)
        assert query_knn(index, q, 31) == brute_knn(pts, q, 31)


def test_duplicate_points_tie_break_by_index():
    pts = np.array([[3.0, 3.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    index = build_index(pts, [0, 1, 1, 1])
    got = query_knn(index, np.array([1.0, 1.0]), 3)
    assert [i for i, _ in got] == [1, 2, 3]
    assert all(d == 0.0 for _, d in got)


def test_query_equal_to_indexed_point_with_exclude():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    index = build_index(pts, [0, 0, 1])
    got = query_knn(index, pts[1], 2, exclude=1)
    assert [i for i, _ in got] == [0, 2]


def test_k_exceeds_n_errors():
    pts = np.array([[0.0], [1.0]])
    index = build_index(pts, [0, 1])
    with pytest.raises(ValueError, match="k_exceeds_n"):
        query_knn(index, np.array([0.0]), 3)
    with pytest.raises(ValueError, match="k_exceeds_n"):
        query_knn(index, np.array([0.0]), 2, exclude=0)


def test_build_index_rejects_empty_and_mismatched():
    with pytest.raises(ValueError, match="bad_matrix"):
        build_index(np.empty((0, 3)), [])
    with pytest.raises(ValueError, match="label_mismatch"):
        build_index(np.zeros((3, 2)), [0, 1])
    with pytest.raises(ValueError, match="bad_metric"):
        build_index(np.zeros((3, 2)), [0, 1, 2], metric="cosine")


def test_exactness_property_random_sets_and_k():
    rng = np.random.default_rng(45)
    for trial in range(30):
        n = int(rng.integers(2, 120))
        dim = int(rng.integers(1, 26))
        pts = np.round(rng.standard_normal((n, dim)), 1)  # induce ties
        index = build_index(pts, np.zeros(n, dtype=int))
        k = int(rng.integers(1, n + 1))
        q = np.round(rng.standard_normal(dim), 1)
        assert query_knn(index, q, k) == brute_knn(pts, q, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 10_000))
def test_exactness_property_hypothesis(n, dim, seed):
    rng = np.random.default_rng(seed)
    # coarse grid coordinates make exact ties common
    pts = rng.integers(-3, 4, size=(n, dim)).astype(float)
    index = build_index(pts, np.zeros(n, dtype=int))
    k = int(rng.integers(1, n + 1))
    q = rng.integers(-3, 4, size=dim).astype(float)
    assert query_knn(index, q, k) == brute_knn(pts, q, k)


def test_exactness_at_contract_bound_n2000():
    rng = np.random.default_rng(99)
    pts = rng.standard_normal((2000, 24))
    index = build_index(pts, np.zeros(2000, dtype=int))
    q = rng.standard_normal(24)
    assert query_knn(index, q, 50) == brute_knn(pts, q, 50)


# ----------------------------------------------------------- classification

def test_classify_two_to_one_vote():
    # neighbor classes [A, A, B] at increasing distance
    pts = np.array([[0.0], [1.0], [2.0], [50.0]])
    labels = [0, 0, 1, 1]
    index = build_index(pts, labels)
    pred, post = knn_classify(index, np.array([0.1]), 3)
    assert pred == 0
    assert post == {0: Fraction(2, 3), 1: Fraction(1, 3)}
    assert sum(post.values()) == 1


def test_classify_k1_posterior_one():
    pts = np.array([[0.0], [4.0]])
    index = build_index(pts, [7, 9])
    pred, post = knn_classify(index, np.array([0.5]), 1)
    assert pred == 7
    assert post == {7: Fraction(1, 1)}


def test_classify_tie_breaks_to_nearest_tied_class():
    pts = np.array([[1.0], [2.0], [3.0], [4.0]])
    labels = [5, 3, 5, 3]
    index = build_index(pts, labels)
    pred, post = knn_classify(index, np.array([0.0]), 4)
    assert post[5] == post[3] == Fraction(1, 2)
    assert pred == 5  # nearest neighbor belongs to the tied class 5


def test_classify_matches_brute_oracle_accuracy():
    rng = np.random.default_rng(46)
    pts, labels = _random_labeled(rng, 400, 8, classes=4)
    queries = rng.standard_normal((60, 8))
    index = build_index(pts, labels)
    k = choose_k(400)
    from oracles import brute_classify
    for q in queries:
        pred, post = knn_classify(index, q, k)
        assert pred == brute_classify(pts, labels, q, k)
        assert sum(post.values()) == 1


# ------------------------------------------------------------------ choose_k

@pytest.mark.parametrize("n,k", [(54000, 233), (45000, 213), (273, 17), (180, 14),
                                 (1, 1), (2, 2), (4, 2), (5, 3)])
def test_choose_k_values(n, k):
    assert choose_k(n) == k


# ----------------------------------------------------------------- snapshot

def test_snapshot_collinear_by_hand():
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    index = build_index(pts, [0, 0, 1, 1])
    snap = take_snapshot(index, 2)
    assert snap.d_ak[0] == 2.0
    assert set(snap.neighbor_ids[0]) == {1, 2}


def test_snapshot_consistency_on_blobs():
    rng = np.random.default_rng(47)
    pts = np.concatenate([rng.standard_normal((60, 4)),
                          rng.standard_normal((60, 4)) + 6.0])
    labels = np.repeat([0, 1], 60)
    index = build_index(pts, labels)
    snap = take_snapshot(index, 7)
    for a in range(pts.shape[0]):
        hood = set(int(i) for i in snap.neighbor_ids[a])
        for j in range(pts.shape[0]):
            if j == a:
                continue
            d = float(np.sqrt(np.sum((pts[a] - pts[j]) ** 2)))
            if j in hood:
                assert d <= snap.d_ak[a]
            else:
                assert d >= snap.d_ak[a]


def test_snapshot_d_ak_pos_exact_k_positives():
    # anchor 0 has exactly 2 same-class peers; k = 2
    pts = np.array([[0.0], [1.0], [3.0], [0.5], [0.6]])
    labels = np.array([0, 0, 0, 1, 1])
    index = build_index(pts, labels)
    snap = take_snapshot(index, 2)
    assert snap.d_ak_pos[0] == 3.0  # farthest of the two same-class peers


def test_snapshot_d_ak_pos_fallback_fewer_than_k():
    pts = np.array([[0.0], [2.0], [10.0], [11.0], [12.0], [13.0]])
    labels = np.array([0, 0, 1, 1, 1, 1])
    index = build_index(pts, labels)
    snap = take_snapshot(index, 4)
    # class 0 has a single peer: falls back to that distance
    assert snap.d_ak_pos[0] == 2.0
    assert snap.has_positive[0]


def test_snapshot_singleton_class_skipped():
    pts = np.array([[0.0], [5.0], [6.0]])
    labels = np.array([0, 1, 1])
    index = build_index(pts, labels)
    snap = take_snapshot(index, 1)
    assert not snap.has_positive[0]
    assert np.isnan(snap.d_ak_pos[0])
    assert snap.has_positive[1] and snap.has_positive[2]


def test_snapshot_k_too_large():
    pts = np.array([[0.0], [1.0]])
    index = build_index(pts, [0, 1])
    with pytest.raises(ValueError, match="k_exceeds_n"):
        take_snapshot(index, 2)


def test_d_ak_pos_at_least_d_ak_when_a_neighbor_is_negative():
    rng = np.random.default_rng(48)
    pts, labels = _random_labeled(rng, 150, 3, classes=3)
    index = build_index(pts, labels)
    snap = take_snapshot(index, 6)
    for a in range(150):
        if not snap.has_positive[a]:
            continue
        hood_labels = labels[snap.neighbor_ids[a]]
        same_count = int(np.sum(labels == labels[a])) - 1
        if np.any(hood_labels != labels[a]) and same_count >= 6:
            assert snap.d_ak_pos[a] >= snap.d_ak[a]


def test_snapshot_above_old_gram_bound_matches_exhaustive_sort():
    # n = 2100 was past the old 2048 cut-over to inexact Gram distances
    rng = np.random.default_rng(49)
    n, k = 2100, 7
    pts = np.round(rng.standard_normal((n, 3)), 1)   # ties are common
    labels = rng.integers(0, 3, size=n)
    snap = take_snapshot(build_index(pts, labels), k)
    dist = np.sqrt(pairwise_sq_dists(pts))
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    assert np.array_equal(snap.neighbor_ids, order)
    assert np.array_equal(snap.d_ak, np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0])
    d_ak_pos = np.empty(n)
    for c in range(3):
        members = np.flatnonzero(labels == c)
        within = np.sort(dist[np.ix_(members, members)], axis=1, kind="stable")
        d_ak_pos[members] = within[:, k - 1]
    assert np.array_equal(snap.d_ak_pos, d_ak_pos)


# -------------------------------------------------------------- batched topk
# a small block budget splits the queries into several blocks of 7 or 13
# rows with a shorter last block

@pytest.mark.parametrize("metric", ["euclidean", "sq_euclidean"])
def test_topk_batched_matches_rowwise_oracle_on_ties(metric, monkeypatch):
    monkeypatch.setattr("localtriplet.knn.BLOCK_ELEMENTS", 1900)
    rng = np.random.default_rng(54)
    pts = np.round(rng.standard_normal((90, 3)), 1)
    queries = np.concatenate([np.round(rng.standard_normal((40, 3)), 1), pts[:20]])
    for k in (1, 9, 89, 90):
        ids, dists = topk(queries, pts, k, metric=metric)
        assert ids.shape == dists.shape == (60, k)
        for i, q in enumerate(queries):
            expected = brute_knn(pts, q, k, metric=metric)
            assert list(zip(ids[i].tolist(), dists[i].tolist())) == expected


@pytest.mark.parametrize("metric", ["euclidean", "sq_euclidean"])
def test_topk_self_excluded_matches_rowwise_oracle_on_ties(metric, monkeypatch):
    monkeypatch.setattr("localtriplet.knn.BLOCK_ELEMENTS", 1900)
    rng = np.random.default_rng(55)
    pts = np.round(rng.standard_normal((70, 2)), 1)
    n = pts.shape[0]
    for k in (1, 6, n - 1):
        ids, dists = topk(pts, pts, k, exclude=np.arange(n), metric=metric)
        for i in range(n):
            expected = brute_knn(pts, pts[i], k, metric=metric, exclude=i)
            assert list(zip(ids[i].tolist(), dists[i].tolist())) == expected
    with pytest.raises(ValueError, match="k_exceeds_n"):
        topk(pts, pts, n, exclude=np.arange(n))


@pytest.mark.parametrize("metric", ["euclidean", "sq_euclidean"])
def test_topk_random_exclude_matches_exhaustive_scan(metric, monkeypatch):
    # queries apart from the points, each leaving out a random point id;
    # every other row leaves out its true nearest point
    monkeypatch.setattr("localtriplet.knn.BLOCK_ELEMENTS", 1900)
    rng = np.random.default_rng(56)
    pts = np.round(rng.standard_normal((90, 3)), 1)
    queries = np.round(rng.standard_normal((60, 3)), 1)
    exclude = rng.integers(0, pts.shape[0], size=queries.shape[0])
    nearest = exhaustive_topk(queries, pts, 1, metric=metric)[0][:, 0]
    exclude[::2] = nearest[::2]
    assert np.any(exclude != nearest)
    for k in (1, 9, 89):
        ids, dists = topk(queries, pts, k, exclude=exclude, metric=metric)
        expected = exhaustive_topk(queries, pts, k, exclude=exclude, metric=metric)
        assert np.array_equal(ids, expected[0]) and np.array_equal(dists, expected[1])


@pytest.mark.parametrize("case", ["minus-one", "n", "short", "long"])
def test_bad_exclude_rejected(case):
    pts = np.random.default_rng(57).standard_normal((12, 2))
    with pytest.raises(ValueError, match="bad_exclude"):
        if case == "minus-one":
            query_knn(build_index(pts, np.zeros(12)), pts[9], 2, exclude=-1)
        elif case == "n":
            query_knn(build_index(pts, np.zeros(12)), pts[9], 2, exclude=12)
        else:
            topk(pts[:3], pts, 2, exclude=[0, 1] if case == "short" else [0, 1, 2, 3])


# ---------------------------------------------------------------- is_outlier

def test_is_outlier_coincident_false():
    rng = np.random.default_rng(50)
    pts, labels = _random_labeled(rng, 50, 4)
    index = build_index(pts, labels)
    snap = take_snapshot(index, 5)
    assert not is_outlier(snap, index, pts[3])


def test_is_outlier_far_point_true():
    rng = np.random.default_rng(51)
    pts, labels = _random_labeled(rng, 50, 4)
    index = build_index(pts, labels)
    snap = take_snapshot(index, 5)
    radius = float(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    assert is_outlier(snap, index, pts.mean(axis=0) + 10 * radius)


def test_is_outlier_matches_direct_check():
    rng = np.random.default_rng(52)
    pts, labels = _random_labeled(rng, 80, 5)
    index = build_index(pts, labels)
    snap = take_snapshot(index, 6)
    queries = rng.standard_normal((60, 5)) * 3
    for q in queries:
        d = np.sqrt(np.sum((pts - q) ** 2, axis=1))
        a = int(np.argmin(d))
        assert is_outlier(snap, index, q) == (d[a] > snap.d_ak[a])


def test_outlier_monotone_d_ak_nondecreasing_in_k():
    rng = np.random.default_rng(53)
    pts, labels = _random_labeled(rng, 60, 4)
    index = build_index(pts, labels)
    previous = None
    for k in range(1, 20):
        snap = take_snapshot(index, k)
        if previous is not None:
            assert np.all(snap.d_ak >= previous)
        previous = snap.d_ak
