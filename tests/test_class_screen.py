"""The class-sorted screen against the exhaustive reference scan.

take_snapshot, check_optimal_condition and mine_hard sort the points by
(label, id), so that each class is one contiguous slab of columns, and
must still match the full scan in oracles.py bit for bit: with labels that
are neither sorted nor contiguous, classes too small for the slab bound,
exact cross-class ties at the kth boundary where the class-sorted order
and the id order disagree, blocks that span several classes and classes
that span several blocks, and with both the slab bound (well-separated
classes) and the full-row fallback (overlapping classes) at work. The
optimal-condition check's band, which counts the columns that surely rank
before the kth instead of recomputing them, is checked by its
recomputations per anchor and on integer-grid sets with duplicates.

Every caller runs the screen's row blocks on the stage pool
(network.STAGE_THREADS threads). The block edges depend on n and
knn.BLOCK_ELEMENTS alone and each block writes only its own rows, so every
result, and every file of a CLI run, must keep its bits at any pool size;
and since each block sets its own error state, points whose squared norms
overflow must give no warning on any thread.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localtriplet import knn, network
from localtriplet.cli import main
from localtriplet.data import Classes
from localtriplet.knn import build_index, class_screen, take_snapshot, topk
from localtriplet.mining import mine_hard, trainable_anchors
from localtriplet.verify import check_optimal_condition, purity_check
from oracles import (
    exhaustive_condition_terms,
    exhaustive_mine_hard,
    exhaustive_snapshot,
    exhaustive_topk,
)


@pytest.fixture
def pools(monkeypatch):
    """The stage pools made during the test, shut down after it."""
    monkeypatch.setattr(network, "_pools", {})
    yield
    for pool in network._pools.values():
        pool.shutdown()


def _assert_same(actual, expected):
    for a, e in zip(actual, expected):
        assert np.array_equal(a, e, equal_nan=a.dtype.kind == "f")


def _assert_all_match(pts, labels, k):
    """Snapshot, optimal-condition terms and batch-hard rows all equal the
    exhaustive scan's."""
    snap = take_snapshot(build_index(pts, labels), k)
    _assert_same((snap.neighbor_ids, snap.d_ak, snap.d_ak_pos, snap.has_positive),
                 exhaustive_snapshot(pts, labels, k))
    report = check_optimal_condition(pts, labels, k, c_b=1.5, eps=1e-3)
    d_ak, max_pos, min_neg = exhaustive_condition_terms(pts, labels, k)
    assert np.array_equal(report.d_ak, d_ak)
    rhs = max_pos + 1.5 * d_ak + 1e-3
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    checked = counts[inverse]
    expected = [(int(a), float(rhs[a] - min_neg[a]), float(max_pos[a]), float(min_neg[a]))
                for a in np.flatnonzero((checked >= k + 1) & (min_neg < rhs))]
    assert [(v.anchor, v.residual, v.max_pos_dist, v.min_neg_dist)
            for v in report.violations] == expected
    anchors = trainable_anchors(labels)
    assert np.array_equal(mine_hard(pts, labels, anchors),
                          exhaustive_mine_hard(pts, labels, anchors))
    return snap


def _shuffled_labels(sizes, values, seed):
    labels = np.repeat(np.asarray(values), sizes)
    return np.random.default_rng(seed).permutation(labels)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("kind", ["normal", "grid"])
def test_unsorted_labels_and_classes_around_k(kind, k):
    # labels {3, 7, 9, 11} in shuffled id order: a singleton and classes of
    # exactly k - 1, k and k + 1 members; and a larger class 5
    labels = _shuffled_labels([1, k - 1, k, k + 1, 3 * k], [11, 3, 9, 7, 5], seed=k)
    rng = np.random.default_rng(10 + k)
    if kind == "normal":
        pts = rng.standard_normal((labels.size, 3))
    else:
        pts = rng.integers(0, 3, size=(labels.size, 2)).astype(np.float64)
    assert sorted(np.unique(labels, return_counts=True)[1]) == sorted([1, k - 1, k, k + 1, 3 * k])
    _assert_all_match(pts, labels, k)


def _grid_ties(seed):
    """Points on a 1-d integer line whose labels fall as ids rise, so that
    the class-sorted order reverses the id order across classes."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 8, size=(48, 1)).astype(np.float64)
    labels = 3 - np.arange(48) // 12 + 4 * (np.arange(48) % 2)
    return pts, labels


def test_tie_set_has_cross_class_ties_against_sorted_order():
    # the set exercises what it claims: for some anchor, two points of
    # different classes tie at the kth distance, and the lower id sorts
    # after the higher one in the class-sorted layout
    for seed in range(3):
        pts, labels = _grid_ties(seed)
        position = np.empty(labels.size, dtype=np.int64)
        position[np.argsort(labels, kind="stable")] = np.arange(labels.size)
        found = False
        for a in range(labels.size):
            d = np.abs(pts[:, 0] - pts[a, 0])
            d[a] = np.inf
            kth = np.sort(d)[4]           # k = 5
            tied = np.flatnonzero(d == kth)
            lo, hi = tied.min(), tied.max()
            found |= bool(np.sum(d < kth) < 5 < np.sum(d <= kth)
                          and labels[lo] != labels[hi] and position[lo] > position[hi])
        assert found, seed


@pytest.mark.parametrize("k", [1, 5, 9])
@pytest.mark.parametrize("seed", range(3))
def test_cross_class_ties_rank_by_id(seed, k):
    pts, labels = _grid_ties(seed)
    _assert_all_match(pts, labels, k)
    # and reversed, where the class-sorted order agrees with the id order
    _assert_all_match(pts[::-1].copy(), labels[::-1].copy(), k)


# rows per block: one-row blocks are one run each, and 60 rows put every
# class in one block; the 14-row cases keep their plain k ids
@pytest.mark.parametrize("k, rows", [
    pytest.param(k, rows, id=str(k) if rows == 14 else f"{k}-rows{rows}")
    for rows in (14, 1, 60) for k in (1, 3, 6)])
def test_blocks_span_classes_and_classes_span_blocks(monkeypatch, k, rows):
    rng = np.random.default_rng(5)
    labels = _shuffled_labels([4, 5, 3, 48], [2, 3, 5, 8], seed=5)
    pts = rng.standard_normal((labels.size, 4))
    monkeypatch.setattr("localtriplet.knn.BLOCK_ELEMENTS", rows * labels.size)
    blocks = class_screen(pts, Classes(labels)).each(
        lambda blk: np.unique(labels[blk.layout.ids[blk.lo:blk.hi]]))
    assert len(blocks) == -(-labels.size // rows)
    assert max(b.size for b in blocks) >= min(rows, 3)
    assert sum(8 in b for b in blocks) >= min(len(blocks), 3)
    _assert_all_match(pts, labels, k)


def _blobs(spacing, seed=3, per_class=40):
    rng = np.random.default_rng(seed)
    centres = spacing * rng.standard_normal((5, 6))
    labels = _shuffled_labels([per_class] * 5, [4, 0, 3, 1, 2], seed=seed)
    return centres[labels] + rng.standard_normal((labels.size, 6)), labels


@pytest.mark.parametrize("k", [3, 14])
def test_separated_classes_keep_only_the_slab_candidates(k):
    pts, labels = _blobs(spacing=50.0)
    snap = _assert_all_match(pts, labels, k)
    # the slab bound alone: each anchor recomputes just its k nearest
    assert snap.candidates == k


@pytest.mark.parametrize("k", [3, 14])
def test_overlapping_classes_take_the_full_row_fallback(k):
    pts, labels = _blobs(spacing=0.05)
    snap = _assert_all_match(pts, labels, k)
    # the slab bound alone would keep every column up to the kth same-class
    # distance, about 5k a row here; the fallback keeps at most its k
    # nearest and its k nearest peers
    within = [np.sum(np.linalg.norm(pts - p, axis=1) <= r)
              for p, r in zip(pts, snap.d_ak_pos)]
    assert np.mean(within) > 3 * k
    assert k < snap.candidates <= 2 * k


def _recomputed_per_anchor(monkeypatch, pts, labels, k):
    """Exact distance recomputations per anchor of check_optimal_condition,
    whose terms must equal the exhaustive scan's."""
    pinned, pairs = knn._pinned, []

    def counting(q, p, qi, pj, metric):
        pairs.append(qi.size)
        return pinned(q, p, qi, pj, metric)

    monkeypatch.setattr(knn, "_pinned", counting)
    report = check_optimal_condition(pts, labels, k, c_b=1.5, eps=1e-3)
    terms = exhaustive_condition_terms(pts, labels, k)
    assert np.array_equal(report.d_ak, terms[0])
    assert np.array_equal(report.max_pos, terms[1])
    return sum(pairs) / labels.size


@pytest.mark.parametrize("k", [3, 14, 39])
def test_separated_classes_recompute_only_the_band(monkeypatch, k):
    # each anchor's kth nearest, farthest peer and nearest other-class
    # point, and no column that surely ranks before the kth; a block
    # without the band recomputes the k nearest, about k + 2 a row
    pts, labels = _blobs(spacing=50.0)
    assert _recomputed_per_anchor(monkeypatch, pts, labels, k) <= 3
    _assert_all_match(pts, labels, k)


@pytest.mark.parametrize("k", [3, 14])
def test_overlapping_and_mixed_classes_keep_every_term(monkeypatch, k):
    # overlapping classes leave every block on the rules without the band
    pts, labels = _blobs(spacing=0.05)
    assert _recomputed_per_anchor(monkeypatch, pts, labels, k) > k
    _assert_all_match(pts, labels, k)
    # two classes overlap and three lie far off: in one block, the overlap
    # keeps every row off the band; in blocks of 20 rows, blocks of both
    # kinds meet in one call
    far = labels >= 2
    pts[far] += 1e3 * labels[far, None]
    whole = _recomputed_per_anchor(monkeypatch, pts, labels, k)
    monkeypatch.setattr(knn, "BLOCK_ELEMENTS", 20 * labels.size)
    assert 3 < _recomputed_per_anchor(monkeypatch, pts, labels, k) < whole
    _assert_all_match(pts, labels, k)


@st.composite
def _grid_sets(draw):
    """(points, labels, k, rows per block): integer-grid points with
    duplicates, in classes of about k members that overlap, touch or lie far
    apart, with 1 <= k <= n - 1."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(max(1, k - 1), k + 1), min_size=1, max_size=4))
    n = sum(sizes)
    assume(n >= 2)
    k = draw(st.sampled_from([min(k, n - 1), n - 1]))
    dim = draw(st.integers(1, 3))
    pts = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)), dtype=np.float64)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n // 2)):
        pts[b] = pts[a]
    classes = draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
    labels = 2 * np.array(classes) + 1
    pts[:, 0] += draw(st.sampled_from([0.0, 2.0, 100.0])) * labels
    return pts, labels, k, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(_grid_sets())
def test_condition_terms_on_grid_sets_match_exhaustive_scan(case):
    pts, labels, k, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "BLOCK_ELEMENTS", rows * labels.size)
        report = check_optimal_condition(pts, labels, k, c_b=1.5, eps=1e-3)
    d_ak, max_pos, min_neg = exhaustive_condition_terms(pts, labels, k)
    assert np.array_equal(report.d_ak, d_ak)
    assert np.array_equal(report.max_pos, max_pos)
    rhs = max_pos + 1.5 * d_ak + 1e-3
    checked = np.bincount(labels)[labels] >= k + 1
    assert [(v.anchor, v.min_neg_dist) for v in report.violations] == [
        (int(a), float(min_neg[a])) for a in np.flatnonzero(checked & (min_neg < rhs))]


@pytest.mark.parametrize("caller", ["mine_hard", "check_optimal_condition"])
def test_label_count_must_match_points(caller):
    pts = np.random.default_rng(6).standard_normal((10, 3))
    labels = np.array([0, 1] * 4)
    with pytest.raises(ValueError, match="label_mismatch"):
        if caller == "mine_hard":
            mine_hard(pts, labels, np.arange(8))
        else:
            check_optimal_condition(pts, labels, 2, c_b=1.0, eps=0.0)


def _kernel_results(pts, labels, queries, k):
    """Every result of the kernel's callers on one set: topk's ids and
    dists (queries, and the set without each point itself), the snapshot's
    arrays and candidates, the optimal-condition check's d_ak, max_pos and
    violations, purity's anchors and statuses, and the batch-hard rows."""
    n = labels.size
    snap = take_snapshot(build_index(pts, labels), k)
    report = check_optimal_condition(pts, labels, k, c_b=1.5, eps=1e-3)
    purity = purity_check(pts, labels, queries, k)
    return [*topk(queries, pts, k), *topk(pts, pts, k, exclude=np.arange(n)),
            snap.neighbor_ids, snap.d_ak, snap.d_ak_pos, snap.has_positive, snap.candidates,
            report.d_ak, report.max_pos,
            [(v.anchor, v.residual, v.d_ak, v.max_pos_dist, v.min_neg_dist)
             for v in report.violations],
            purity.nearest_anchor, purity.query_status,
            mine_hard(pts, labels, trainable_anchors(labels))]


def _exhaustive_results(pts, labels, queries, k):
    """_kernel_results from the exhaustive scans of oracles.py, with None
    for the snapshot's candidates, which the scan does not count."""
    n = labels.size
    d_ak, max_pos, min_neg = exhaustive_condition_terms(pts, labels, k)
    rhs = max_pos + 1.5 * d_ak + 1e-3
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    checked = counts[inverse] >= k + 1
    ids, dists = exhaustive_topk(queries, pts, k)
    radius = exhaustive_topk(pts, pts, k, exclude=np.arange(n))[1][:, -1]
    anchors = ids[:, 0]
    pure = np.all(labels[ids] == labels[anchors][:, None], axis=1)
    status = np.where(dists[:, 0] > radius[anchors], "outlier",
                      np.where(pure, "pure", "impure")).tolist()
    return [ids, dists, *exhaustive_topk(pts, pts, k, exclude=np.arange(n)),
            *exhaustive_snapshot(pts, labels, k), None, d_ak, max_pos,
            [(int(a), float(rhs[a] - min_neg[a]), float(d_ak[a]), float(max_pos[a]),
              float(min_neg[a])) for a in np.flatnonzero(checked & (min_neg < rhs))],
            anchors, status,
            exhaustive_mine_hard(pts, labels, trainable_anchors(labels))]


def _assert_equal(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        if isinstance(e, np.ndarray):
            assert np.array_equal(a, e, equal_nan=e.dtype.kind == "f")
        elif e is not None:
            assert a == e


def _assert_bits_at_pools_1_2_3(monkeypatch, pts, labels, queries, k):
    """Every caller's results at pools of 1, 2 and 3 threads equal each
    other and the exhaustive scan's. Returns each block's (rows, classes),
    the same at every pool size."""
    results, blocks = [], []
    for threads in (1, 2, 3):
        monkeypatch.setattr(network, "STAGE_THREADS", threads)
        blocks.append(class_screen(pts, Classes(labels)).each(
            lambda blk: (blk.hi - blk.lo, np.unique(labels[blk.layout.ids[blk.lo:blk.hi]]).size)))
        results.append(_kernel_results(pts, labels, queries, k))
    assert list(network._pools) == [2, 3]
    assert blocks[0] == blocks[1] == blocks[2]
    _assert_equal(results[0], _exhaustive_results(pts, labels, queries, k))
    for other in results[1:]:
        _assert_equal(other, results[0])
    return blocks[0]


def _overlapping_and_far(per_class):
    """(points, labels, queries): two overlapping blob classes beside three
    far ones, so that blocks with and without the band, and with the
    full-row fallback, meet in one call, and queries near a quarter of the
    points."""
    pts, labels = _blobs(spacing=0.05, per_class=per_class)
    far = labels >= 2
    pts[far] += 1e3 * labels[far, None]
    return pts, labels, np.concatenate([pts[::4] + 0.01, pts[:7]])


@pytest.mark.parametrize("k", [3, 14])
def test_results_keep_their_bits_at_every_pool_size(monkeypatch, pools, k):
    shipped = knn.BLOCK_ELEMENTS
    # 40 points a class in 13-row blocks: 16 of them, the last of 5 rows,
    # each class over several
    monkeypatch.setattr(knn, "BLOCK_ELEMENTS", 13 * 200 + 7)
    blocks = _assert_bits_at_pools_1_2_3(monkeypatch, *_overlapping_and_far(40), k)
    assert [rows for rows, _ in blocks] == [13] * 15 + [5]
    assert max(classes for _, classes in blocks) == 2
    # 200 points a class at the shipped BLOCK_ELEMENTS: three blocks or
    # more, and classes over two or more, so counted in each
    monkeypatch.setattr(knn, "BLOCK_ELEMENTS", shipped)
    blocks = _assert_bits_at_pools_1_2_3(monkeypatch, *_overlapping_and_far(200), k)
    assert len(blocks) >= 3
    assert [rows for rows, _ in blocks[:-1]] == [shipped // 1000] * (len(blocks) - 1)
    assert sum(classes for _, classes in blocks) > 5


# each caller on points and labels at k
CALLERS = {
    "topk": lambda pts, labels, k: topk(pts, pts, k, exclude=np.arange(labels.size)),
    "take_snapshot": lambda pts, labels, k: take_snapshot(build_index(pts, labels), k),
    "check_optimal_condition":
        lambda pts, labels, k: check_optimal_condition(pts, labels, k, c_b=3.0, eps=1e-3),
    "mine_hard": lambda pts, labels, k: mine_hard(pts, labels, trainable_anchors(labels)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("caller", list(CALLERS))
def test_overflowing_points_warn_on_no_thread(monkeypatch, pools, caller, dim, rows, threads):
    # squared norms near the float64 maximum (the overflow kind of
    # test_screened_knn.py): estimates, windows and some pinned distances
    # overflow, and every block's arithmetic runs in the block's error
    # state; in one block, or in 7-row blocks
    n = 40
    pts = np.sqrt(1e308 / (2 * dim)) * np.random.default_rng(dim).standard_normal((n, dim))
    labels = np.arange(n) % 3
    labels[0], labels[1:3] = 7, 5
    monkeypatch.setattr(network, "STAGE_THREADS", threads)
    if rows is not None:
        monkeypatch.setattr(knn, "BLOCK_ELEMENTS", rows * n + 3)
    for k in (1, 2, 3):
        CALLERS[caller](pts, labels, k)


# three overlapping blob classes, so that verify finds violations
CLI_ARGS = ["--data", "blobs", "--classes", "3", "--per-class", "60", "--dim", "6",
            "--spacing", "1", "--std", "0.5", "--data-seed", "5", "--val-fraction", "0.2",
            "--epochs", "3", "--convergence-eps", "0", "--seed", "6", "--lr", "0.001"]
CLI_FILES = ["epochs.jsonl", "checkpoint.npz", "eval_report.json", "verify_summary.json",
             "violations.csv", "purity.csv"]


def test_cli_files_keep_their_bytes_at_every_pool_size(tmp_path, monkeypatch, pools):
    # lm_mining takes a snapshot every epoch and scores its validation
    # split; eval and verify run topk, the check and purity. In blocks of
    # about 8 rows at pool sizes 1 and 2, and in whole-set blocks
    files = {}
    for name, threads, elements in (("one", 1, 1000), ("two", 2, 1000),
                                    ("whole", 2, knn.BLOCK_ELEMENTS)):
        monkeypatch.setattr(network, "STAGE_THREADS", threads)
        monkeypatch.setattr(knn, "BLOCK_ELEMENTS", elements)
        out = tmp_path / name
        assert main(["train", "--method", "lm_mining", *CLI_ARGS, "--out-dir", str(out)]) == 0
        assert main(["eval", "--run-dir", str(out)]) == 0
        assert main(["verify", "--run-dir", str(out)]) == 0
        files[name] = {f: (out / f).read_bytes() for f in CLI_FILES}
    assert list(network._pools) == [2]
    assert files["one"]["violations.csv"].count(b"\n") > 1
    assert files["one"] == files["two"] == files["whole"]
