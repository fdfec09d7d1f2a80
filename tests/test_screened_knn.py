"""The Gram-screened neighbor kernel against the exhaustive reference scan.

Every caller of the screen (topk, take_snapshot, check_optimal_condition,
purity_check, mine_hard) must match the full pinned-arithmetic scan in
oracles.py bit for bit, on point sets chosen to break a screen whose
rounding window is too narrow: heavy cancellation, exact duplicates and
ties at the kth boundary, squared distances that sqrt merges into ties,
and norms large enough that the Gram estimate overflows. Since a window
wider than needed passes those comparisons too, the rounding bound itself
is checked on the same point sets.
"""
import itertools

import numpy as np
import pytest

from localtriplet.knn import build_index, class_screen, screen, take_snapshot, topk
from localtriplet.mining import mine_hard, trainable_anchors
from localtriplet.verify import check_optimal_condition, purity_check
from oracles import (
    distance_blocks,
    exhaustive_condition_terms,
    exhaustive_mine_hard,
    exhaustive_snapshot,
    exhaustive_topk,
)

N = 40
DIMS = (1, 2, 16, 128, 784)
KINDS = ("offset", "grid", "sphere", "huge", "overflow")


def _points(kind, dim, seed=0):
    rng = np.random.default_rng(seed + dim)
    if kind == "offset":       # common offset 1e6, spread 1e-3
        return 1e6 + 1e-3 * rng.standard_normal((N, dim))
    if kind == "grid":         # exact duplicates and many distance ties
        pts = rng.integers(0, 3, size=(N, dim)).astype(np.float64)
        pts[N - 6:] = pts[:6]
        return pts
    if kind == "sphere":       # the origin, and unit vectors an ulp or so off radius 1
        v = rng.standard_normal((N, dim))
        pts = v / np.sqrt(np.sum(v * v, axis=1, keepdims=True))
        pts[0] = 0.0
        return pts
    if kind == "huge":         # norms near 1e150: the screen works at extreme exponents
        return 1e150 * rng.standard_normal((N, dim))
    # squared norms near the float64 maximum: Gram estimates and some
    # pinned distances overflow
    return np.sqrt(1e308 / (2 * dim)) * rng.standard_normal((N, dim))


def _labels():
    labels = np.arange(N) % 3
    labels[0] = 7              # a singleton: no positive
    labels[1:3] = 5            # a class of two: the farthest-peer fallback
    return labels


def _ks(dim):
    return range(1, N) if dim <= 16 else (1, 2, 3, 7, 13, N // 2, N - 2, N - 1)


def _assert_same(actual, expected):
    for a, e in zip(actual, expected):
        assert np.array_equal(a, e, equal_nan=a.dtype.kind == "f")


@pytest.fixture(params=["one block", "many blocks"])
def blocks(request, monkeypatch):
    if request.param == "many blocks":
        monkeypatch.setattr("localtriplet.knn.BLOCK_ELEMENTS", 7 * N + 3)


def test_sphere_set_has_sqrt_merged_ties():
    # the set exercises what it claims: distinct squared distances from the
    # origin that sqrt rounds to the same value
    for dim in (2, 16, 128, 784):
        d = _points("sphere", dim)[1:]
        sq = np.sum(d * d, axis=1)
        merged = np.unique(np.sqrt(sq)).size < np.unique(sq).size
        assert merged, dim


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_estimates_within_half_the_window(kind, dim, blocks):
    # every estimate of a row with a finite window lies within B_i, half the
    # window, of its pinned squared distance; the own column's -inf is left out
    pts = _points(kind, dim)
    queries = np.concatenate([_points(kind, dim, seed=1)[:9], pts[:4], np.zeros((1, dim))])
    checked = 0
    for blk in itertools.chain(screen(queries, pts), screen(pts, pts, np.arange(N)),
                               class_screen(pts, _labels())):
        pinned = np.concatenate([d for _lo, _hi, d in distance_blocks(
            blk.q[blk.lo:blk.hi], blk.p, metric="sq_euclidean")])
        rows = np.isfinite(blk.window)
        keep = np.repeat(rows[:, None], N, axis=1)
        if blk.own is not None:
            keep[blk.own] = False
        half = np.broadcast_to(blk.window[:, None] / 2, keep.shape)
        assert np.all(np.abs(blk.est - pinned)[keep] <= half[keep])
        checked += np.count_nonzero(rows)
    # squared norms near the float64 maximum give every row an infinite window
    assert checked == 0 if kind == "overflow" else checked == 2 * N + 14


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_topk_matches_exhaustive_scan(kind, dim, blocks):
    pts = _points(kind, dim)
    queries = np.concatenate([_points(kind, dim, seed=1)[:9], pts[:4], np.zeros((1, dim))])
    for k in _ks(dim):
        for metric in ("euclidean", "sq_euclidean"):
            _assert_same(topk(queries, pts, k, metric=metric),
                         exhaustive_topk(queries, pts, k, metric=metric))
            _assert_same(topk(pts, pts, k, exclude=np.arange(N), metric=metric),
                         exhaustive_topk(pts, pts, k, exclude=np.arange(N), metric=metric))
    _assert_same(topk(queries, pts, N), exhaustive_topk(queries, pts, N))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_matches_exhaustive_scan(kind, dim, blocks):
    pts, labels = _points(kind, dim), _labels()
    index = build_index(pts, labels)
    for k in _ks(dim):
        snap = take_snapshot(index, k)
        _assert_same((snap.neighbor_ids, snap.d_ak, snap.d_ak_pos, snap.has_positive),
                     exhaustive_snapshot(pts, labels, k))


def _violation_rows(report):
    return [(v.anchor, repr(v.residual), repr(v.d_ak), repr(v.max_pos_dist),
             repr(v.min_neg_dist)) for v in report.violations]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_optimal_condition_matches_exhaustive_scan(kind, dim, blocks):
    pts, labels = _points(kind, dim), _labels()
    checked = np.bincount(labels)[labels]
    for k in _ks(dim):
        report = check_optimal_condition(pts, labels, k, c_b=3.0, eps=1e-3)
        d_ak, max_pos, min_neg = exhaustive_condition_terms(pts, labels, k)
        assert np.array_equal(report.d_ak, d_ak)
        rhs = max_pos + 3.0 * d_ak + 1e-3
        expected = [(int(a), repr(float(rhs[a] - min_neg[a])), repr(float(d_ak[a])),
                     repr(float(max_pos[a])), repr(float(min_neg[a])))
                    for a in np.flatnonzero((checked >= k + 1) & (min_neg < rhs))]
        assert _violation_rows(report) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_purity_matches_exhaustive_scan(kind, dim, blocks):
    pts, labels = _points(kind, dim), _labels()
    queries = np.concatenate([_points(kind, dim, seed=2)[:12], pts[::5]])
    for k in (1, 5, N - 1):
        report = purity_check(pts, labels, queries, k)
        d_ak = exhaustive_topk(pts, pts, k, exclude=np.arange(N))[1][:, -1]
        ids, dists = exhaustive_topk(queries, pts, k)
        anchors = ids[:, 0]
        outlier = dists[:, 0] > d_ak[anchors]
        pure = np.all(labels[ids] == labels[anchors][:, None], axis=1)
        assert np.array_equal(report.nearest_anchor, anchors)
        assert report.query_status == np.where(
            outlier, "outlier", np.where(pure, "pure", "impure")).tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_mine_hard_matches_exhaustive_scan(kind, dim, blocks):
    pts, labels = _points(kind, dim), _labels()
    anchors = trainable_anchors(labels)
    assert np.array_equal(mine_hard(pts, labels, anchors),
                          exhaustive_mine_hard(pts, labels, anchors))
    # a batch with a non-finite embedding: both pick the first NaN extremum
    pts = pts.copy()
    pts[5, 0] = np.nan
    assert np.array_equal(mine_hard(pts, labels, anchors),
                          exhaustive_mine_hard(pts, labels, anchors))
