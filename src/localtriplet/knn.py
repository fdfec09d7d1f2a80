"""Exact nearest-neighbor search, KNN classification, and the per-epoch
neighborhood snapshot used by margin computation and local mining.

Every neighbor computation goes through one blocked kernel, a Gram screen
followed by an exact re-rank (the GEMM-plus-selection design of exact
brute-force search in Johnson et al., *Billion-scale similarity search
with GPUs*, arXiv 1702.08734, with the re-rank added):

1. For a block of query rows, one GEMM on mean-centred points gives an
   estimate e_ij of every squared distance, with a per-row rounding bound
   |e_ij - s_ij| <= B_i, where s_ij is the pinned value below.
2. For each order statistic asked for, the row's statistic E_i is taken
   over the estimates, and every column with e_ij <= E_i + 2*B_i
   (>= E_i - 2*B_i for a largest value) is a candidate. The k columns at
   or below E_i have s <= E_i + B_i, so the exact kth value is at most
   E_i + B_i and every column that can rank at or before it has
   e <= E_i + 2*B_i. An estimate, statistic or bound that is not finite
   keeps every column it touches.
3. Candidates are recomputed with the pinned diff-square-sum arithmetic of
   ``_pinned``, np.sum(d * d) over d = query - point, and ranked in
   ascending (distance, id) order.

The results equal an exhaustive sorted scan for every n, ties included.

The own-column rule. A query row may leave out one column, its own (the
excluded id of ``topk``, or the point itself in the class-sorted layout):
its estimate is -inf, so it comes first in every partition (the kth
smallest other column is at partition index k) and is never a largest
value, and it is dropped from the candidates before the exact re-rank.

Class-conditioned statistics (the snapshot's kth nearest and kth nearest
same-class, the optimal-condition check's largest same-class and smallest
other-class distance, batch-hard mining) use a class-sorted layout: the
points are sorted once per call by (label, id) and screened against
themselves, so each class is one contiguous slab of columns, the rows of
a class are adjacent and row r's own column is r. A block splits its rows
into runs of one class and reads each run's slab in place, as a view of
its estimates.

* The slab bound. S_i, the kth smallest estimate over row i's slab, is the
  statistic of its kth same-class neighbor, and since the slab is a subset
  of the row it is at least E_i, the kth smallest over all columns. The
  exact kth value of either is at most S_i + B_i, so one compare,
  e_ij <= S_i + 2*B_i over the row, keeps every candidate of both.
* The fallback rule. With overlapping classes S_i lies far above E_i and
  that compare keeps many other-class columns. Where a block keeps more
  than 2k columns a row, E_i is taken over the full rows and the columns
  kept are e_ij <= E_i + 2*B_i together with the slab's e_ij <= S_i +
  2*B_i. A class with k or fewer members has no S_i: its rows take E_i and
  keep their whole slab, since their d_ak_pos is the farthest peer.
* The largest same-class value is read as a max over the slab, the
  smallest other-class value as a min over the columns outside it.
* The band. The optimal-condition check needs the kth nearest distance's
  value, not its id, so the columns that surely rank before it are
  counted, not recomputed: with below_i the count of columns with
  e_ij < E_i - 2*B_i, the kth value is the (k - below_i)-th smallest exact
  distance of the band E_i - 2*B_i <= e_ij <= E_i + 2*B_i. A block takes
  the band where every row's smallest estimate outside its slab lies above
  S_i + 2*B_i, so that E_i = S_i and the band lies in the slab; any other
  block keeps the rules above (ScreenBlock.condition_keep).
* The tie rule. Candidates are recomputed once per block, over the union
  of every statistic's candidates, and ranked by (distance, original id),
  never by sorted position: a row is sorted by distance, and where two of
  its first k + 1 distances are equal the block is sorted again by
  (distance, point id). A first extremum is the one of lowest point id.

The bound. Let u = 2^-53, gamma_m = m*u / (1 - m*u), c the points' mean,
a_i = fl(q_i - c), b_j = fl(p_j - c), S_i = |a_i|^2 + max_j |b_j|^2 and
D = |q_i - p_j|^2 <= 2*S_i (1 + 2u) in real arithmetic. Without overflow:

* the pinned path rounds each of its dim terms twice and sums them in any
  order: |s - D| <= gamma_(dim+2) * D <= 2(dim + 2) u S_i;
* centring moves each coordinate of a_i - b_j off q_i - p_j by at most
  u (|a_il| + |b_jl|), so |a_i - b_j|^2 is within 2u (|a_i| + |b_j|)^2
  <= 4u S_i of D;
* the Gram estimate, the GEMM's dot product of [-2 a_i | na_i | 1] and
  [b_j | 1 | nb_j]: the computed norms na_i and nb_j are within
  gamma_dim |a_i|^2 and gamma_dim |b_j|^2 of |a_i|^2 and |b_j|^2, together
  within dim u S_i, and its dim + 2 terms, summed in any order (blocked,
  threaded or fused), err by at most gamma_(dim+2) times the sum of their
  magnitudes, 2 sum_l |a_il b_jl| + na_i + nb_j <= (2 + gamma_dim) S_i:
  (3 dim + 4) u S_i in all;
* the euclidean ranking compares fl(sqrt(s)), and fl(sqrt(x)) = fl(sqrt(y))
  with x <= y needs y <= x (1 + u)^2 / (1 - u)^2 <= x + 10u S_i, so a
  column that sqrt merges into a tie at the kth value stays a candidate.

That is (5 dim + 22) u S_i. B_i = 8 (dim + 6) u (S_i + tiny) is at least
1.6 times it, and the (3 dim + 26) u S_i to spare covers the second-order
terms, the computed S_i and the rounding of E_i + 2*B_i; the smallest
normal number ``tiny`` covers underflow, since a subnormal result errs by
at most u * tiny. A row with S_i >= 2^1020, where a sum of squares could
overflow (or a non-finite S_i), gets B_i = inf and keeps every column.

The band's lower side. At most k - 1 other columns have e < E_i, so at
least n - k have s >= E_i - B_i, and the exact kth value s_(k) is at least
E_i - B_i. A column with e < E_i - 2*B_i has s <= e + B_i < E_i - B_i <=
s_(k), so it ranks strictly before the kth; a column above the band has
s > E_i + B_i >= s_(k). So s_(k) is the (k - below_i)-th smallest of any
kept set that holds the band and no column below it, and since sqrt is
monotone the same holds for the euclidean values. The computed E_i - 2*B_i
errs by at most u |E_i - 2*B_i|, as much as the rounding of E_i + 2*B_i,
so the same spare in B_i covers it. A non-finite window gives a lower end
of -inf or NaN, below which no column lies. The own column, at -inf,
is below the lower end only where E_i - 2*B_i > -inf, and is then taken
off below_i, since it is never one of the k.

The norms ride in the GEMM's operands, so that its output is the finished
estimate with no broadcast pass after it; -2 a_i is an exact power-of-two
scaling, and the terms na_i * 1 and 1 * nb_j are exact products.

Blocks and threads. A screen's row blocks hold BLOCK_ELEMENTS // n query
rows each (one at least, the last the rest), so their edges depend on n and
BLOCK_ELEMENTS alone. Screen.each runs them on the image stage's pool,
network._each: STAGE_THREADS threads, the caller's included, and none
started for one block or a pool of one. Each block makes its estimates
with its own GEMM into its thread's buffer and writes only its own rows of
the caller's outputs.

* Scratch. A thread's buffer holds one block's estimates, BLOCK_ELEMENTS
  floats (1 MB); a block adds its partition copies, a few rows at a time
  (BLOCK_ELEMENTS / 8 floats), its masks (BLOCK_ELEMENTS bytes each) and
  the recomputation's gathers (two of BLOCK_ELEMENTS / 4 floats), about
  2 MB in all. A call holds at most STAGE_THREADS times that (128 MB on
  64 CPUs), besides the screen's operands, O((m + n) * dim).
* The error state. numpy keeps it per thread (a context variable in numpy
  2, which pool threads do not inherit), so each block sets its own, the
  same on every thread (_QUIET): infinite and NaN values keep their
  columns, and the callers report infinite distances.
* The bits. Each result is exact whatever the blocks: the bound above
  holds for any GEMM summation order, so a block keeps every column that
  can rank where a statistic asks, and the result is the kept columns'
  pinned distances in (distance, id) order. The blocks move only which
  other columns are kept (the GEMM's last bits, the fallback's 2k count
  and the band's every-row test are per block), so of the outputs only
  snapshot.candidates can depend on BLOCK_ELEMENTS. With fixed edges, a
  block runs the same operations on the same operands on any thread (and
  one BLAS thread), so nothing depends on the pool size, snapshot.candidates
  included.

Neighborhood snapshots always measure Euclidean (unsquared) distance so
that triangle-inequality reasoning about neighborhood radii is sound;
orderings are identical under both metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .data import Classes
from .mathops import as_sample_matrix
from .network import _each, _Job

# query rows * points of one screened block: 1 MB of float64 estimates, in
# a buffer each thread reuses, about 2 MB of scratch a thread with the
# block's partition copies, masks and gathers. On a pool of two, 2^16 ran
# slower than one thread at 2^16, and 2^18 raised the peak memory 2 MB more
BLOCK_ELEMENTS = 1 << 17
# a block's error state, whichever thread runs it: overflowing points give
# infinite windows, estimates and pinned distances, and inf - inf NaN, all
# of which keep their columns
_QUIET = {"divide": "warn", "over": "ignore", "under": "ignore", "invalid": "ignore"}
_U = 2.0 ** -53                      # float64 unit roundoff
_TINY = np.finfo(np.float64).tiny    # smallest normal float64


def choose_k(n: int) -> int:
    """Neighbor count ceil(sqrt(n)), computed in exact integer arithmetic."""
    if n < 1:
        raise ValueError(f"bad_n: {n}")
    return math.isqrt(n - 1) + 1


@dataclass(frozen=True)
class NeighborIndex:
    """Immutable search index over an embedded, labeled point set."""

    points: np.ndarray          # (n, dim) float64
    labels: np.ndarray          # (n,) int64
    metric: str                 # "euclidean" | "sq_euclidean"

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def build_index(points, labels, metric: str = "euclidean") -> NeighborIndex:
    """Validate and freeze a labeled point set for exact search."""
    if metric not in ("euclidean", "sq_euclidean"):
        raise ValueError(f"bad_metric: {metric}")
    pts = as_sample_matrix(points).copy()
    lab = np.asarray(labels, dtype=np.int64).copy()
    if lab.ndim != 1 or lab.shape[0] != pts.shape[0]:
        raise ValueError(f"label_mismatch: {pts.shape[0]} points vs {lab.shape} labels")
    pts.setflags(write=False)
    lab.setflags(write=False)
    return NeighborIndex(points=pts, labels=lab, metric=metric)


class ClassLayout:
    """Points in (label, id) order, so that each class is one contiguous slab
    of columns; the screen's rows are the same points in the same order, so
    row r's own column is r and the rows of a class are adjacent.

    ids[j] is the point id of column j and start[j]:stop[j] the slab of its
    class; ids[n] = n, the id of the column n that fills the short rows of
    ScreenBlock.candidates.
    """

    def __init__(self, classes: Classes):
        self.ids = np.append(classes.members, classes.n)
        self.start = np.repeat(classes.start, classes.count)
        self.stop = self.start + np.repeat(classes.count, classes.count)


class ScreenBlock:
    """Query rows lo:hi of a screen.

    est[r, j] is the Gram estimate of the squared distance from query
    lo + r to point j, as the block's GEMM wrote it (the norms are in its
    operands), within window[r] / 2 of its pinned value (see the module
    docstring). own, if the screen has it, is every query row's own column
    (the own-column rule): the block sets its estimate to -inf, and
    candidates drops it. With a ClassLayout, rows and columns are in its
    order, row r's class slab is columns start[r]:stop[r], and runs holds
    one (rows, slab) pair of slices per maximal run of adjacent rows of one
    class, so that est[rows, slab] is the run's slab estimates as a view.
    est lies in the buffer of the thread that runs the block, which that
    thread's next block overwrites.
    """

    def __init__(self, screen: Screen, lo: int, buf: np.ndarray):
        hi = min(lo + screen.rows, screen.q.shape[0])
        self.q, self.p, self.lo, self.hi = screen.q, screen.p, lo, hi
        self.est = est = np.matmul(screen.a[lo:hi], screen.b, out=buf[:hi - lo])
        self.window, self.layout = screen.window[lo:hi], screen.layout
        # (rows, own columns): the own entries of est
        self.own = None if screen.own is None else (np.arange(hi - lo), screen.own[lo:hi])
        if self.own is not None:
            est[self.own] = -np.inf
        if self.layout is not None:
            self.start, self.stop = self.layout.start[lo:hi], self.layout.stop[lo:hi]
            edges = [0, *(np.flatnonzero(np.diff(self.start)) + 1).tolist(), hi - lo]
            self.runs = [(slice(a, b), slice(int(self.start[a]), int(self.stop[a])))
                         for a, b in zip(edges, edges[1:])]

    def smallest(self, k: int, rows=slice(None)):
        """Candidate mask for the k nearest other points of each row (of
        rows, if given): the columns whose estimate is not above the row's
        kth smallest estimate, its own column not counted, plus the window.
        A non-finite estimate, statistic or window keeps the column."""
        est = self.est[rows]
        nth = k if self.own is not None else k - 1
        kth = _nth_smallest(est, nth)
        return ~(est > (kth + self.window[rows])[:, None])

    def peers(self, cols):
        """Which entries of cols, a (rows, w) array of columns, lie in their
        row's own class slab."""
        return (cols >= self.start[:, None]) & (cols < self.stop[:, None])

    def slab_kth(self, k: int):
        """S_i: each row's kth smallest slab estimate, its own column not
        counted; inf for the rows of a class with k or fewer other members."""
        kth = np.full(self.est.shape[0], np.inf)
        for rows, slab in self.runs:
            if slab.stop - slab.start > k:
                kth[rows] = _nth_smallest(self.est[rows, slab], k)
        return kth

    def outside_min(self):
        """Each row's smallest estimate outside its slab; inf where the slab
        is the whole row."""
        low = np.empty(self.est.shape[0])
        for rows, slab in self.runs:
            low[rows] = np.minimum(self.est[rows, :slab.start].min(axis=1, initial=np.inf),
                                   self.est[rows, slab.stop:].min(axis=1, initial=np.inf))
        return low

    def kth_keep(self, k: int, kth=None):
        """Candidate mask for each row's k nearest other points of any class
        and for the statistic its d_ak_pos takes: its kth nearest same-class
        point when the class has k other members or more, else every
        same-class column (the farthest peer decides). kth, if given, is
        slab_kth(k).

        S_i, the kth smallest estimate of the row's slab, bounds the kth
        smallest of the whole row, so one compare est <= S_i + window keeps
        the candidates of both. Where that keeps more than 2k columns a
        row in the block (overlapping classes), or the class is too small
        for S_i, those rows take smallest(k) over the full row together
        with the slab's est <= S_i + window (every slab column without
        S_i)."""
        est = self.est
        bound = ((self.slab_kth(k) if kth is None else kth) + self.window)[:, None]
        keep = ~(est > bound)
        # the fallback rule, and the rows of classes too small for S_i
        wide = (np.count_nonzero(keep) > 2 * k * keep.shape[0]) | (self.stop - self.start <= k)
        if np.any(wide):
            at = slice(None) if np.all(wide) else np.flatnonzero(wide)
            keep[at] = self.smallest(k, at)
            for rows, slab in self.runs:
                if wide[rows.start]:
                    keep[rows, slab] |= ~(est[rows, slab] > bound[rows])
        return keep

    def extreme_keep(self, keep, low=None):
        """Add to keep the candidates for each row's largest same-class and
        smallest other-class distance: the slab columns whose estimate is
        not below the slab's largest estimate minus the window, and the
        columns outside it not above their smallest estimate (low, if given,
        is outside_min()) plus the window. A non-finite estimate, statistic
        or window keeps the column. Overwrites the slab estimates with inf,
        so it comes last."""
        est, w = self.est, self.window[:, None]
        # inf - inf (an overflowed statistic and window) is NaN, whose
        # comparison keeps the column
        for rows, slab in self.runs:
            at = est[rows, slab]
            keep[rows, slab] |= ~(at < at.max(axis=1, keepdims=True) - w[rows])
            at[...] = np.inf
        low = np.min(est, axis=1) if low is None else low
        keep |= ~(est > low[:, None] + w)
        return keep

    def condition_keep(self, k: int):
        """(keep, below): the candidate mask of each row's kth nearest
        distance, largest same-class and smallest other-class distance (the
        optimal-condition check's three statistics), and each row's count of
        other columns that rank before its kth nearest without being kept,
        so that the kth nearest distance is the (k - below)-th smallest kept
        one.

        The band path, for a block whose every row has its smallest outside
        estimate above S_i + window: there E_i = S_i, and the kth nearest's
        candidates are its band, the slab columns with S_i - window <= est
        <= S_i + window; the columns below the band are counted, not kept
        (the band, in the module docstring). The extremes keep extreme_keep's
        bands. Any other block keeps kth_keep's and extreme_keep's columns
        and counts none (below is None); both paths share S_i and the outside
        minimum. May overwrite the slab estimates, so it comes last."""
        est, w = self.est, self.window
        kth, low = self.slab_kth(k), self.outside_min()
        if not np.all(low > kth + w):       # -inf + inf (NaN): an overflowed row
            return self.extreme_keep(self.kth_keep(k, kth), low), None
        # every window, S_i and estimate here is finite (an infinite low
        # means no column outside the slab), save the own column's -inf
        lower, upper = kth - w, kth + w
        keep = est <= (low + w)[:, None]
        below = np.empty(est.shape[0], np.int64)
        for rows, slab in self.runs:
            at = est[rows, slab]
            under = at < lower[rows, None]
            below[rows] = np.count_nonzero(under, axis=1)
            keep[rows, slab] = ((~under & (at <= upper[rows, None]))
                                | (at >= at.max(axis=1, keepdims=True) - w[rows, None]))
        # the own column, at -inf, counted where the band's lower end is above it
        return keep, below - (lower > -np.inf)

    def point_ids(self, cols):
        """Point ids of the columns cols; the padding column n maps to n."""
        return cols if self.layout is None else self.layout.ids[cols]

    def candidates(self, keep, metric: str):
        """(cols, dists), both (rows, w): every row's kept columns in
        ascending order and their distances recomputed exactly, padded with
        (n, inf) up to the widest row. A row's own column is never an
        entry."""
        if self.own is not None:
            keep[self.own] = False
        rows, cols = _entries(keep)
        counts = np.bincount(rows, minlength=keep.shape[0])
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        shape = (keep.shape[0], counts.max(initial=0))
        padded = np.full(shape, keep.shape[1])
        padded[rows, slot] = cols
        dists = np.full(shape, np.inf)
        dists[rows, slot] = _pinned(self.q, self.p, self.lo + rows, cols, metric)
        return padded, dists

    def ranked(self, keep, k: int, metric: str):
        """candidates(keep, metric) with each row in ascending distance
        order, its first k entries in ascending (distance, point id) order.

        Rows are sorted by distance alone; only where two of a row's first
        k + 1 distances are equal (an exact tie, or real infinite distances
        beside the padding) is the block sorted by (distance, point id)."""
        cols, dists = self.candidates(keep, metric)
        order = np.argsort(dists, axis=1)
        dists = np.take_along_axis(dists, order, axis=1)
        head = dists[:, :k + 1]
        if np.any(head[:, 1:] == head[:, :-1]):
            cols = np.take_along_axis(cols, order, axis=1)
            order = np.lexsort((self.point_ids(cols), dists))
            dists = np.take_along_axis(dists, order, axis=1)
        return np.take_along_axis(cols, order, axis=1), dists


def _nth_smallest(x, nth: int) -> np.ndarray:
    """Each row's nth smallest entry (from 0) of the 2-D array x, partitioned
    a few rows at a time, so that the copy a partition makes stays at most
    BLOCK_ELEMENTS / 8 floats."""
    out = np.empty(x.shape[0])
    step = max(1, BLOCK_ELEMENTS // (8 * x.shape[1]))
    for lo in range(0, x.shape[0], step):
        out[lo:lo + step] = np.partition(x[lo:lo + step], nth, axis=1)[:, nth]
    return out


def _entries(keep):
    """(rows, cols) of the True entries of a 2-D mask, in row-major order."""
    flat = np.flatnonzero(keep)
    rows = flat // keep.shape[1]
    return rows, flat - rows * keep.shape[1]


def _pinned(q, p, qi, pj, metric: str) -> np.ndarray:
    """Distances of the pairs (q[qi], p[pj]): the pinned arithmetic
    np.sum(d * d) over d = query - point, square-rooted for the
    euclidean metric, gathered at most BLOCK_ELEMENTS / 4 floats at a time
    (gathers of 2^16 and 2^17 floats took 1.2-1.8x as long as 2^15). Run
    in a block's error state, an overflow gives an infinite distance, which
    the callers report."""
    out = np.empty(qi.size)
    step = max(1, BLOCK_ELEMENTS // (4 * q.shape[1]))
    for lo in range(0, qi.size, step):
        d = np.take(q, qi[lo:lo + step], axis=0)
        d -= np.take(p, pj[lo:lo + step], axis=0)
        out[lo:lo + step] = np.sum(np.multiply(d, d, out=d), axis=1)
    return np.sqrt(out, out=out) if metric == "euclidean" else out


@dataclass(frozen=True, eq=False)
class Screen:
    """The operands of a screen of query rows q against points p, and its
    row blocks: rows query rows each (the last may be shorter), their edges
    fixed by n and BLOCK_ELEMENTS alone."""

    q: np.ndarray
    p: np.ndarray
    own: np.ndarray | None      # each query row's own column, or None
    layout: ClassLayout | None
    a: np.ndarray               # (m, dim + 2) GEMM rows [-2a | na | 1]
    b: np.ndarray               # (dim + 2, n) GEMM columns [b | 1 | nb]
    window: np.ndarray          # (m,) 2 * B_i
    rows: int

    def _buffer(self) -> np.ndarray:
        """Estimates for one block: a thread's scratch, reused by its blocks."""
        return np.empty((min(self.rows, self.q.shape[0]), self.p.shape[0]))

    def __iter__(self):
        """The ScreenBlocks in order, in one estimate buffer that each block
        overwrites; the caller's error state holds between blocks, not the
        block's."""
        buf = self._buffer()
        for lo in range(0, self.q.shape[0], self.rows):
            with np.errstate(**_QUIET):
                blk = ScreenBlock(self, lo, buf)
            yield blk

    def each(self, fn) -> list:
        """[fn(blk) for blk in self], the blocks run on the stage pool
        (network._each: the caller and STAGE_THREADS - 1 helpers, inline for
        one block). Each block makes its estimates in its thread's buffer and
        runs, GEMM and fn alike, under the block error state; fn writes only
        its block's rows of its outputs. The first error of any block is
        raised here, and no block starts after it."""
        starts = range(0, self.q.shape[0], self.rows)
        out = [None] * len(starts)
        free = []   # buffers between blocks: at most one per thread is made

        def run(i):
            try:
                buf = free.pop()
            except IndexError:
                buf = self._buffer()
            with np.errstate(**_QUIET):
                out[i] = fn(ScreenBlock(self, starts[i], buf))
            free.append(buf)

        _each(_Job(partial(run, i)) for i in range(len(starts)))
        return out


def screen(q: np.ndarray, p: np.ndarray, own=None, layout: ClassLayout | None = None
           ) -> Screen:
    """The Screen of the float64 matrices q (query rows) and p (points), in
    layout order if given. own, if given, is the column each query row
    leaves out."""
    (m, dim), n = q.shape, p.shape[0]
    with np.errstate(**_QUIET):
        centre = np.mean(p, axis=0)
        b = p - centre
        a = b if q is p else q - centre
        na, nb = (np.einsum("ij,ij->i", v, v) for v in (a, b))
        scale = na + np.max(nb)
        # 2 * B_i
        window = np.where(scale < 2.0 ** 1020, 16 * (dim + 6) * _U * (scale + _TINY), np.inf)
        # [-2a | na | 1] @ [b | 1 | nb].T is the finished estimate
        a = np.column_stack((-2.0 * a, na, np.ones(m)))
        b = np.vstack((b.T, np.ones(n), nb))
    return Screen(q, p, own, layout, a, b, window, max(1, BLOCK_ELEMENTS // n))


def class_screen(x: np.ndarray, labels) -> Screen:
    """The Screen of x against itself in ClassLayout order, each row leaving
    out its own column; blk.layout.ids[blk.lo:blk.hi] are a block's rows'
    point ids. labels may be given as their Classes grouping. The label
    count is checked at the call, before any block is drawn."""
    classes = labels if isinstance(labels, Classes) else Classes(labels)
    if classes.n != x.shape[0]:
        raise ValueError(f"label_mismatch: {x.shape[0]} points vs {classes.n} labels")
    layout = ClassLayout(classes)
    p = x[layout.ids[:-1]]
    return screen(p, p, np.arange(classes.n), layout)


def topk(queries, points, k: int, exclude=None, metric: str = "euclidean"):
    """Exact k nearest points of every query row.

    exclude, if given, is one point id per query row left out of that
    row's candidates. Returns (ids, dists), both (m, k), each row in
    ascending (distance, id) order; dists are in the given metric, each
    the pinned np.sum(d * d) of _pinned (square-rooted for euclidean).

    Per block of query rows, one GEMM screens the points: only those whose
    Gram estimate is within 2*B_i of the row's kth smallest estimate are
    recomputed exactly and ranked, B_i being the rounding bound derived in
    the module docstring, so the result equals an exhaustive sorted scan.
    """
    if metric not in ("euclidean", "sq_euclidean"):
        raise ValueError(f"bad_metric: {metric}")
    q = as_sample_matrix(queries)
    p = as_sample_matrix(points)
    (m, _), n = q.shape, p.shape[0]
    if q.shape[1] != p.shape[1]:
        raise ValueError(f"dim_mismatch: queries {q.shape} vs points {p.shape}")
    if exclude is not None:
        exclude = np.asarray(exclude)
        if (exclude.shape != (m,) or exclude.dtype.kind not in "iu"
                or exclude.min() < 0 or exclude.max() >= n):
            raise ValueError(f"bad_exclude: expected {m} point ids in [0, {n}), "
                             f"got {exclude.dtype} array of shape {exclude.shape}")
    avail = n - (1 if exclude is not None else 0)
    if k < 1 or k > avail:
        raise ValueError(f"k_exceeds_n: k={k}, available={avail}")
    ids = np.empty((m, k), dtype=np.int64)
    dists = np.empty((m, k), dtype=np.float64)

    def block(blk):
        cols, d = blk.ranked(blk.smallest(k), k, metric)
        ids[blk.lo:blk.hi], dists[blk.lo:blk.hi] = cols[:, :k], d[:, :k]

    screen(q, p, exclude).each(block)
    return ids, dists


def query_knn(
    index: NeighborIndex, q, k: int, exclude: int | None = None
) -> list[tuple[int, float]]:
    """The k nearest points to q: (point id, distance) ascending, ties by id."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise ValueError(f"dim_mismatch: query {q.shape} vs index dim {index.dim}")
    ids, dists = topk(q[None, :], index.points, k,
                      exclude=None if exclude is None else [exclude], metric=index.metric)
    return [(int(i), float(d)) for i, d in zip(ids[0], dists[0])]


def majority_vote(votes):
    """Each row's majority class: votes is (m, k) class positions, nearest
    first. Returns (winning position per row, (m, max + 1) vote counts); a
    tie goes to the class of the nearest neighbor among the tied classes."""
    counts = np.sum(votes[:, :, None] == np.arange(votes.max() + 1), axis=1)
    tied = np.take_along_axis(counts, votes, axis=1) == counts.max(axis=1, keepdims=True)
    return votes[np.arange(votes.shape[0]), np.argmax(tied, axis=1)], counts


def knn_classify(index: NeighborIndex, q, k: int):
    """Predict by majority_vote of q's k nearest points: returns (class,
    posterior map of exact fractions count/k, which sum to 1)."""
    labels = index.labels[[i for i, _ in query_knn(index, q, k)]]
    classes, votes = np.unique(labels, return_inverse=True)
    (won,), (counts,) = majority_vote(votes[None, :])
    return int(classes[won]), {int(c): Fraction(int(counts[v]), k) for c, v in zip(labels, votes)}


@dataclass(frozen=True)
class NeighborhoodSnapshot:
    """Per-anchor neighborhood geometry frozen at the start of an epoch.

    d_ak[a] is the Euclidean distance from anchor a to its kth nearest
    neighbor of any class (self excluded); neighbor_ids[a] are those k
    indices; d_ak_pos[a] is the distance to the kth nearest same-class
    neighbor, falling back to the farthest available same-class peer when
    the class holds fewer than k+1 samples. Anchors whose class has no
    other sample get has_positive False and NaN d_ak_pos.
    """

    epoch: int
    k: int
    d_ak: np.ndarray          # (n,) float64, Euclidean
    d_ak_pos: np.ndarray      # (n,) float64, Euclidean; NaN if no positive
    neighbor_ids: np.ndarray  # (n, k) int64, ascending (distance, id)
    has_positive: np.ndarray  # (n,) bool
    # exact distance recomputations per anchor: how tight the screen was
    candidates: float = field(default=0.0, compare=False)

    @property
    def n(self) -> int:
        return self.d_ak.shape[0]

    def mean_d_ak(self) -> float:
        return float(np.mean(self.d_ak))

    def max_d_ak(self) -> float:
        return float(np.max(self.d_ak))

    def mean_d_ak_pos(self) -> float | None:
        """The mean d_ak_pos of the anchors with a positive; None without one."""
        usable = self.d_ak_pos[self.has_positive]
        return float(np.mean(usable)) if usable.size else None


def take_snapshot(index: NeighborIndex, k: int, epoch: int = 0) -> NeighborhoodSnapshot:
    """Freeze every anchor's neighborhood at the start of an epoch.

    Per block of the class-sorted screen, one compare keeps the candidates
    of both statistics (ScreenBlock.kth_keep) and one exact recomputation
    ranks them; the snapshot records how many it recomputed per anchor."""
    n = index.n
    if k < 1 or k > n - 1:
        raise ValueError(f"k_exceeds_n: k={k}, n={n} (self excluded)")
    # rank among its peers of each anchor's kth same-class neighbor, or of
    # its farthest peer when the class has k or fewer; -1 without a peer
    classes = Classes(index.labels)
    nth_pos = np.minimum(k, classes.count[classes.of] - 1) - 1
    has_positive = nth_pos >= 0

    neighbor_ids = np.empty((n, k), dtype=np.int64)
    d_ak = np.empty(n, dtype=np.float64)
    d_ak_pos = np.full(n, np.nan, dtype=np.float64)

    def block(blk):
        rows = blk.layout.ids[blk.lo:blk.hi]
        cols, dists = blk.ranked(blk.kth_keep(k), k, "euclidean")
        neighbor_ids[rows] = blk.point_ids(cols[:, :k])
        d_ak[rows] = dists[:, k - 1]
        # the (nth + 1)-th same-class entry of each ranked row
        nth = nth_pos[rows]
        at = np.argmax(np.cumsum(blk.peers(cols), axis=1) > nth[:, None], axis=1)
        ok = nth >= 0
        d_ak_pos[rows[ok]] = dists[ok, at[ok]]
        return np.count_nonzero(cols < n)

    recomputed = sum(class_screen(index.points, classes).each(block))
    for arr in (d_ak, d_ak_pos, neighbor_ids, has_positive):
        arr.setflags(write=False)
    return NeighborhoodSnapshot(epoch=epoch, k=k, d_ak=d_ak, d_ak_pos=d_ak_pos,
                                neighbor_ids=neighbor_ids, has_positive=has_positive,
                                candidates=recomputed / n)
