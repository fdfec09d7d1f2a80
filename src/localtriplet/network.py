"""The embedding network f(I; theta): a configurable stack of conv/pool/
dense layers with hand-derived backward passes, plus the softmax
classification head for the end-to-end baseline and the Adam optimizer,
which steps the arrays it is built with in place, one pass per array.

Layout conventions: image batches are (n, H, W, C) float64, flat batches
are (n, d). Convolutions are 3x3-style odd square filters, stride 1,
zero "same" padding, realized as im2col + one matrix multiply; max
pooling is 2x2 stride 2 and routes gradients to the first maximum in
row-major window order (windows holding a NaN route to their last
position). Leaky ReLU is max(0.01x, x) with derivative 0.01 at exactly 0.
The first layer computes no gradient with respect to the network input.

The image stage, the leading conv/pool layers, runs in tiles of a few
images, each tile through every layer of the stage before the next, so
its activations, im2col columns, pooling masks and col2im pad stay in
cache. A tile holds as many images as fit the stage's largest per-image
tensor into TILE_BYTES; flatten and dense layers run on the whole batch
(`embed`: 512-row chunks). Tiles split only work whose rows are computed
independently, so every output keeps its bits:
- the element-wise steps (activations, pooling and its gradient routing,
  the col2im adds into a zeroed pad, in the same order) and the conv
  GEMMs `cols @ w` and `g @ w.T` run per tile. A GEMM of fewer than
  MIN_GEMM_ROWS rows takes another BLAS path with other bits, so a tile
  has at least that many, and a last tile with fewer joins the one before;
- the parameter gradients `cols.T @ g` and the bias sums reduce over the
  batch, and per-tile sums would reorder their additions: the tiles fill
  whole-batch caches (`cols`, the activation mask, the pooling argmax) and
  a whole-batch activation gradient, reduced by one GEMM over the batch.
The split is exact for the `mnist_cnn` shapes (OpenBLAS on one
thread). It need not be where a BLAS switches kernels at a size
threshold: with OpenBLAS 0.3.31, a float64 conv of 4 output channels over
27 inputs changes its last bits as its GEMM crosses the small-matrix
threshold, for a tile as for a smaller whole batch.

A weight gradient `x.T @ g` (x: a layer's input rows or im2col columns,
g: its pre-activation gradient rows) is one GEMM whose sum runs over the
batch rows. When x has more columns than g it is computed as
`(g.T @ x).T`, with the narrower operand first, which OpenBLAS runs
faster (conv2 of `mnist_cnn`, 288 vs 64 columns: 25.5 against 34.5 ms per
128 images). Each entry is still the dot product of the same two columns
over the batch rows, and OpenBLAS sums it in the same order in both
forms, so the result keeps its bits; tests/test_stage_threads.py pins the
two forms against each other over the shapes `--arch` builds, so a BLAS
on which they differ fails there.

The stage's backward runs segment by segment from the last layer. A
segment is one parameter layer and the parameter-free layers after it
(the stage's first segment may have no parameter layer). A segment's
tiles fill its parameter layer's whole-batch activation gradient and one
whole-batch gradient at its input, the boundary the next segment's tiles
read; so its weight-gradient GEMM can start as soon as its last tile has
finished, alongside the next segment's tiles. For `mnist_cnn` conv2's GEMM
overlaps the pool1/conv1 tiles and conv1's GEMM, for one boundary array of
n x 14 x 14 x 32 values.

The stage's forward and backward jobs (tiles, and then weight gradients
in the backward) run on STAGE_THREADS threads: the caller and a pool of
helper threads, started by the first stage of more than one tile or the
first neighbor screen of more than one block, pull them from one list.
Importing this module sets numpy's OpenBLAS to one thread for the
process, so the pool is the one source of parallelism: STAGE_THREADS is
the usable CPUs, and 1 where numpy's BLAS has no OpenBLAS thread setter
and may run threads of its own. Every GEMM then runs on one BLAS thread
whatever the core count or OPENBLAS_NUM_THREADS, and a run's bits follow
from its inputs alone. Only forward_tile, pooled_tile, backward_tile and
param_grads, and the row blocks of the neighbor kernel (knn.Screen.each:
topk, take_snapshot, the optimal-condition check and batch-hard mining),
run on a helper; the net's and the layers' forward/backward and Adam
stay on the calling thread. The bits do not depend on the pool size or
on which thread runs what: a tile runs the same operations on the same
rows as on one thread and writes only its own rows of the output, the
caches, the activation gradient and the segment's input gradient, a job
that reads a whole-batch gradient starts only after every tile that
writes it, and each parameter gradient is still one whole-batch GEMM on
one thread.

A layer caches only what its backward reads: a conv its im2col columns
and the leaky ReLU mask z > 0 (the backward reads only z's sign), a pool
its argmax, a dense layer its input and mask, a flatten nothing; `embed`
caches nothing. A cached `mnist_cnn` forward holds 580,288 bytes per
float64 image, 451,584 of them conv2's im2col columns; 313,728 in float32.

Cache-free forwards (`embed`, forward(want_cache=False): eval, verify,
export-scatter, validation KNN and the snapshot methods' re-embedding) run
a conv and the max pool after it as one step: they pool the GEMM output
z = cols @ w, then add the bias and apply the activation to a quarter of
the values. Round-to-nearest is monotone, so v = fl(z + b) and
a = max(fl(0.01 v), v) are non-decreasing in z, and the largest a of a
window equals the a of its largest z in value. The bits agree as well
unless the window's maximum is a zero met in both signs: a negative v
whose 0.01 v underflows (|v| at most 50 times the smallest subnormal)
activates to -0.0, which pools ahead of a later +0.0, where pooling first
gives +0.0. A bias that is finite and at least sqrt(tiny) in magnitude
rules that out: fl(z + b) is then +0.0 (z = -b) or a normal number (near
0, z + b is exact, a multiple of a spacing above tiny), whose activation
is not zero, and -0.0 would need b = -0.0. So a conv pools first only
when every bias is such (_Conv2d.pools_first); a new net's zero biases
keep activation-then-pool. A NaN stays NaN in both orders, and a
non-finite embedding exits 4 either way. The cached (training) forward
always activates first: its mask needs every pre-activation, and its
argmax must be the first maximum of the activated values, which two
pre-activations rounding to one activated value would move.

im2col copies a one-channel input's f*f shifted views one at a time,
since a single window copy's innermost run would be one element; with
more channels it makes that one window copy. Both write the same bytes.
Per 4-image float64 tile (2 vCPUs, numpy 2.4.6): 28x28x1, 0.06 ms against
0.09-0.13 ms for the window copy; 14x14x32, the window copy 0.16 ms
against 0.22-0.26 ms for nine copies.

Buffer lifetimes. The image stage's whole-batch arrays (the caches:
im2col columns, activation masks, pooling argmax; and the backward's
activation gradients and segment-boundary gradients) are the leading rows
of buffers the net keeps per (layer, role). For `mnist_cnn` they hold
906,304 bytes per float64 image (476,672 in float32), sized for the
largest batch so far; a larger batch drops every buffer before any larger
one is allocated. A leading-row view is as contiguous as a new array, so
each GEMM sees the same operands and every bit is kept. A cached forward
overwrites the previous one's caches, so those go stale: caches carry the
net's count of cached forwards, and backward of older ones raises
stale_cache. The net keeps its buffers until EmbeddingNet.release_buffers
or until it is dropped. `training.train` releases them when it returns or
raises, so they live for the run and a batch's views of them for the
batch; a caller that runs cached forwards outside `train` holds them as
long as the net unless it releases them, the price of not allocating them
per batch. Forwards without caches (`embed`) and the stage output, which a
dense layer caches as its input, are allocated per call.
"""
from __future__ import annotations

import ctypes
import json
import os
import threading
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_open

LEAKY_SLOPE = 0.01
CHECKPOINT_FORMAT_VERSION = 1
TILE_BYTES = 1 << 21   # largest per-image tensor of an image-stage tile, in bytes
MIN_GEMM_ROWS = 4      # fewer rows take another BLAS path, with other bits
EMBED_ROWS = 512       # embed runs the stack on chunks of this many samples
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _pin_blas() -> int | None:
    """Set numpy's bundled OpenBLAS to one thread for the process and return
    1, or None where numpy's BLAS has no scipy_openblas_set_num_threads64_
    (another BLAS or build), whose thread count is then left as it is."""
    try:
        from numpy.linalg import _umath_linalg   # an extension linked to numpy's BLAS
        set_threads = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return 1


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = _pin_blas()
# threads that run an image stage's jobs, the caller's included; one where
# the BLAS may run threads of its own
STAGE_THREADS = CPUS if BLAS_THREADS else 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack.

    kind is one of "conv2d", "maxpool2", "dense", "flatten". Optional
    in_channels / in_dim pin the expected input and are validated against
    the inferred shape chain at construction.
    """

    kind: str
    out_channels: int | None = None   # conv2d
    filter_size: int = 3              # conv2d, odd
    in_channels: int | None = None    # conv2d, optional check
    out_dim: int | None = None        # dense
    in_dim: int | None = None         # dense, optional check
    activation: str = "none"          # "leaky_relu" | "none"

    def __post_init__(self):
        if self.activation not in ("leaky_relu", "none"):
            raise ValueError(f"bad_activation: {self.activation}")


def conv2d(out_channels: int, filter_size: int = 3, activation: str = "leaky_relu",
           in_channels: int | None = None) -> LayerSpec:
    return LayerSpec(kind="conv2d", out_channels=out_channels, filter_size=filter_size,
                     in_channels=in_channels, activation=activation)


def maxpool2() -> LayerSpec:
    return LayerSpec(kind="maxpool2")


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten")


def dense(out_dim: int, activation: str = "leaky_relu", in_dim: int | None = None) -> LayerSpec:
    return LayerSpec(kind="dense", out_dim=out_dim, in_dim=in_dim, activation=activation)


def mnist_cnn() -> list[LayerSpec]:
    """Digit-image reference stack: two 3x3 conv+pool blocks into a 128-d
    embedding (28x28x1 -> 14x14x32 -> 7x7x64 -> 3136 -> 128)."""
    return [conv2d(32), maxpool2(), conv2d(64), maxpool2(), flatten(), dense(128)]


def mlp(*dims: int) -> list[LayerSpec]:
    """Feed-forward embedding stack, leaky ReLU on every layer."""
    return [dense(d) for d in dims]


def _he_normal(rng, shape, dtype) -> np.ndarray:
    """(fan_in, fan_out) He-normal weights drawn from rng; without an rng an
    uninitialized array, for parameters set afterwards."""
    if rng is None:
        return np.empty(shape, dtype=dtype)
    return (rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])).astype(dtype)


def _activation_forward(kind: str, z: np.ndarray, mask) -> np.ndarray:
    """The activation of z; a leaky ReLU writes z > 0 into mask unless it
    is None."""
    if kind == "none":
        return z
    if mask is not None:
        np.greater(z, 0.0, out=mask)
    # max(0.01z, z), written into the 0.01z temporary
    y = z * LEAKY_SLOPE
    return np.maximum(y, z, out=y)


def _activation_backward(g: np.ndarray, mask) -> np.ndarray:
    """The gradient through the activation from its mask z > 0; None is no
    activation."""
    if mask is None:
        return g
    # the derivative (z > 0) * (1 - slope) + slope is exactly 1 or the
    # slope, built without a data-dependent branch per element
    one, slope = g.dtype.type(1.0), g.dtype.type(LEAKY_SLOPE)
    grad = np.multiply(mask, one - slope, dtype=g.dtype)
    grad += slope
    grad *= g
    return grad


class _ImageLayer:
    """A conv or pool layer of the image stage. It runs a batch as a
    one-layer stage; the stage calls new_cache, forward_tile and
    backward_tile itself, and a conv's param_grads."""

    params: list = []

    def forward(self, x: np.ndarray, want_cache: bool):
        y, (cache,) = _stage_forward([self], x, want_cache, _Buffers())
        return y, cache

    def backward(self, cache, g: np.ndarray, input_grad: bool = True):
        return _stage_backward([self], [cache], g, input_grad, _Buffers())

    def grad_buffer(self, n: int, dtype, alloc):
        """The whole-batch array backward_tile fills for param_grads."""
        return None


class _Conv2d(_ImageLayer):
    """Same-padding stride-1 convolution via im2col."""

    def __init__(self, spec: LayerSpec, in_shape, rng, dtype):
        f = spec.filter_size
        if f % 2 != 1 or f < 1:
            raise ValueError(f"shape_mismatch: conv filter_size {f} must be odd")
        if len(in_shape) != 3:
            raise ValueError(f"shape_mismatch: conv2d needs (H, W, C) input, got {in_shape}")
        h, w, cin = in_shape
        if spec.in_channels is not None and spec.in_channels != cin:
            raise ValueError(f"shape_mismatch: conv in_channels {spec.in_channels} != {cin}")
        if not spec.out_channels or spec.out_channels < 1:
            raise ValueError("shape_mismatch: conv2d needs out_channels >= 1")
        if cin < 1:
            raise ValueError(f"shape_mismatch: conv2d needs a fan-in >= 1, got input {in_shape}")
        cout = spec.out_channels
        self.spec = spec
        self.f = f
        self.pad = f // 2
        self.in_shape = (h, w, cin)
        self.out_shape = (h, w, cout)
        self.image_elements = h * w * max(f * f * cin, cout)   # im2col rows or output
        self.w = _he_normal(rng, (f * f * cin, cout), dtype)
        self.b = np.zeros(cout, dtype=dtype)

    @property
    def params(self):
        return [self.w, self.b]

    def new_cache(self, n: int, dtype, alloc):
        h, w, cin = self.in_shape
        k = self.f * self.f * cin
        cols = alloc((self, "cols"), n, (h * w, k), dtype).reshape(n * h * w, k)
        mask = (None if self.spec.activation == "none"
                else alloc((self, "mask"), n, self.out_shape, np.bool_))
        return cols, mask

    def grad_buffer(self, n: int, dtype, alloc):
        h, w, cout = self.out_shape
        return alloc((self, "g_z"), n, (h * w, cout), dtype).reshape(n * h * w, cout)

    def pools_first(self) -> bool:
        """Whether pooling the GEMM output before bias and activation keeps
        the bits: every bias finite and at least sqrt(tiny) in magnitude."""
        b = np.abs(self.b)
        info = np.finfo(b.dtype)
        return bool(np.all((b >= np.sqrt(info.tiny)) & (b <= info.max)))

    def linear_tile(self, x: np.ndarray, cols) -> np.ndarray:
        """The GEMM output cols @ w of a tile of images, (t, h, w, cout),
        its im2col columns written into cols (a new array when None)."""
        (h, w, cin), f, p, t = self.in_shape, self.f, self.pad, x.shape[0]
        xp = np.zeros((t, h + 2 * p, w + 2 * p, cin), dtype=x.dtype)
        xp[:, p:p + h, p:p + w, :] = x
        if cols is None:
            cols = np.empty((t * h * w, f * f * cin), dtype=x.dtype)
        if cin == 1:
            # one copy per (dy, dx) shift: a window copy's innermost run
            # would be a single element
            shifted = cols.reshape(t, h, w, f * f)
            for i, (dy, dx) in enumerate((dy, dx) for dy in range(f) for dx in range(f)):
                shifted[..., i] = xp[:, dy:dy + h, dx:dx + w, 0]
        else:
            # one copy of the (dy, dx, cin)-ordered windows
            win = sliding_window_view(xp, (f, f), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
            cols.reshape(win.shape)[...] = win
        return (cols @ self.w).reshape(t, h, w, -1)

    def activate(self, z: np.ndarray, mask) -> np.ndarray:
        """The activation of GEMM outputs z plus the bias, added in place."""
        z += self.b
        return _activation_forward(self.spec.activation, z, mask)

    def forward_tile(self, x: np.ndarray, cache, lo: int, hi: int):
        hw = self.in_shape[0] * self.in_shape[1]
        z = self.linear_tile(x, None if cache is None else cache[0][lo * hw:hi * hw])
        return self.activate(z, None if cache is None or cache[1] is None else cache[1][lo:hi])

    def pooled_tile(self, x: np.ndarray, pool: _MaxPool2, lo: int, hi: int):
        """forward_tile and then pool's, without caches: the GEMM output is
        pooled before bias and activation, with the same bits where
        pools_first holds."""
        return self.activate(pool.forward_tile(self.linear_tile(x, None), None, lo, hi), None)

    def backward_tile(self, cache, g: np.ndarray, g_z: np.ndarray, lo: int, hi: int,
                      input_grad: bool):
        # the activation gradient goes into this tile's rows of g_z, the
        # whole batch's, which param_grads reduces
        mask = None if cache[1] is None else cache[1][lo:hi]
        (h, w, cin), f, p, t = self.in_shape, self.f, self.pad, hi - lo
        g_flat = g_z[lo * h * w:hi * h * w]
        g_flat.reshape(g.shape)[...] = _activation_backward(g, mask)
        if not input_grad:
            return None
        g_cols = (g_flat @ self.w.T).reshape(t, h, w, f * f, cin)
        g_pad = np.zeros((t, h + 2 * p, w + 2 * p, cin), dtype=g_cols.dtype)
        for i, (dy, dx) in enumerate((dy, dx) for dy in range(f) for dx in range(f)):
            g_pad[:, dy:dy + h, dx:dx + w, :] += g_cols[:, :, :, i, :]
        return g_pad[:, p:p + h, p:p + w, :]

    def param_grads(self, cache, g_z: np.ndarray):
        return [_weight_grad(cache[0], g_z), g_z.sum(axis=0)]


class _MaxPool2(_ImageLayer):
    def __init__(self, spec: LayerSpec, in_shape, rng, dtype):
        if len(in_shape) != 3:
            raise ValueError(f"shape_mismatch: maxpool2 needs (H, W, C) input, got {in_shape}")
        h, w, c = in_shape
        if h % 2 or w % 2:
            raise ValueError(f"shape_mismatch: maxpool2 needs even spatial dims, got {h}x{w}")
        self.spec = spec
        self.in_shape = in_shape
        self.out_shape = (h // 2, w // 2, c)
        self.image_elements = h * w * c   # input, and its gradient
        # flat offset, within one input sample, of each window's (0,0)
        # element, and of the four window positions relative to it
        self._corner = (np.arange(0, h * w * c, 2 * w * c)[:, None, None]
                        + np.arange(0, w * c, 2 * c)[:, None] + np.arange(c))
        self._step = np.array([0, c, w * c, w * c + c])

    def new_cache(self, n: int, dtype, alloc):
        return alloc((self, "argmax"), n, self.out_shape, np.int8)

    def forward_tile(self, x: np.ndarray, cache, lo: int, hi: int):
        # the window in row-major order: (0,0), (0,1), (1,0), (1,1)
        win = (x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2])
        # operands in reverse window order: numpy's SIMD maximum returns its
        # second operand on equal values, so 0.0 tied with -0.0 pools to the
        # first of them, as argmax picks it
        y = np.maximum(np.maximum(win[3], win[2]), np.maximum(win[1], win[0]))
        if cache is None:
            return y
        # index of the first maximum in window order, as argmax picks it:
        # the count of leading positions that differ from the maximum
        arg = cache[lo:hi]
        before = win[0] != y
        arg[...] = before
        for i in (1, 2):
            before &= win[i] != y
            arg += before
        return y

    def backward_tile(self, cache, g: np.ndarray, g_z, lo: int, hi: int, input_grad: bool):
        if not input_grad:
            return None
        h, w, c = self.in_shape
        t = hi - lo
        # one scatter of each pooled gradient to its window's chosen element
        pos = self._step[cache[lo:hi]]
        pos += self._corner
        pos += np.arange(0, t * h * w * c, h * w * c)[:, None, None, None]
        g_in = np.zeros((t, h, w, c), dtype=g.dtype)
        g_in.reshape(-1)[pos] = g
        return g_in


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x.T @ g as one GEMM, the narrower operand first: (g.T @ x).T when x
    has more columns than g, with the same bits; C-contiguous either way."""
    if x.shape[1] > g.shape[1]:
        return np.ascontiguousarray((g.T @ x).T)
    return x.T @ g


def _tiles(layers, n: int, itemsize: int):
    """[lo, hi) image ranges of an image stage's tiles.

    A tile holds as many images as fit their largest per-image tensor of
    the stage in TILE_BYTES, and at least enough that every layer's output
    has MIN_GEMM_ROWS pixels (a conv's GEMM rows); a last tile with fewer
    joins the one before it.
    """
    least = -(-MIN_GEMM_ROWS // min(h * w for h, w, _ in (lay.out_shape for lay in layers)))
    size = max(TILE_BYTES // (itemsize * max(lay.image_elements for lay in layers)), least)
    edges = list(range(0, n, size)) + [n]
    if len(edges) > 2 and n - edges[-2] < least:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


class _Job(NamedTuple):
    """One call for _each. Jobs that wait for a group come after every job
    of that group in the list."""

    run: Callable[[], None]
    group: int | None = None   # the group whose finishing this job counts toward
    after: int | None = None   # the group that must have finished before it starts


_pools: dict = {}   # STAGE_THREADS -> executor of its helper threads, made on first use
os.register_at_fork(after_in_child=_pools.clear)   # a forked child has no helper threads


def _each(jobs, inline: bool = False) -> None:
    """job.run() for every job: the calling thread and STAGE_THREADS - 1
    helper threads pull the jobs in list order, and one that pulls a job
    whose `after` group has not finished waits for it; with inline, or
    fewer than two jobs, the calling thread runs them all in order. The
    helpers have finished when this returns, and the first exception of any
    job is raised here; no job starts after it."""
    jobs = list(jobs)
    helpers = 0 if inline else min(STAGE_THREADS, len(jobs)) - 1
    if helpers < 1:
        for job in jobs:
            job.run()
        return
    pool = _pools.get(STAGE_THREADS)
    if pool is None:
        # imported here, so that a run without a multi-tile stage or a
        # multi-block screen does not load it and its imports (about 1 MB)
        from concurrent.futures import ThreadPoolExecutor
        pool = _pools[STAGE_THREADS] = ThreadPoolExecutor(STAGE_THREADS - 1, "localtriplet-stage")
    left = Counter(job.group for job in jobs if job.group is not None)   # unfinished, per group
    pending = iter(jobs)
    state = threading.Condition()
    errors = []

    def work():
        while True:
            with state:
                job = None if errors else next(pending, None)
                # the group's jobs were pulled before this one: each is
                # running, finished or failed, so the wait ends
                while job is not None and not errors and left[job.after]:
                    state.wait()
                if job is None or errors:
                    return
            try:
                job.run()
            except BaseException as err:
                with state:
                    errors.append(err)
                    state.notify_all()
                continue
            if job.group is not None:
                with state:
                    left[job.group] -= 1
                    if not left[job.group]:
                        state.notify_all()

    futures = [pool.submit(work) for _ in range(helpers)]
    try:
        work()
    except BaseException as err:
        # raised outside a job (an interrupt in a wait): stop the helpers,
        # which may wait for a job this thread will not finish
        with state:
            errors.append(err)
            state.notify_all()
    finally:
        # waits for every helper; an error of work itself joins the jobs'
        errors += filter(None, [future.exception() for future in futures])
        # a pool thread drops its finished task a moment after the wait
        # ends; the jobs and what they hold (a batch's caches) must not live on
        jobs = pending = None
    if errors:
        raise errors[0]


class _Buffers:
    """The image stage's whole-batch allocator: one array per (layer,
    role) key, with rows for the most images asked for so far; a call
    returns its leading n images, a contiguous view."""

    def __init__(self):
        self.images = 0
        self.arrays: dict = {}

    def __call__(self, key, n: int, shape, dtype) -> np.ndarray:
        if n > self.images:
            # every buffer goes before a larger one is allocated
            self.arrays.clear()
            self.images = n
        buf = self.arrays.get(key)
        if buf is None:
            buf = self.arrays[key] = np.empty((self.images,) + tuple(shape), dtype=dtype)
        return buf[:n]


def _stage_forward(layers, x: np.ndarray, want_cache: bool, alloc: _Buffers):
    """Run conv/pool layers tile by tile, each tile through all of them
    (tiles on _each's threads); returns the whole batch's output and
    per-layer caches (None without want_cache), whose arrays come from
    alloc."""
    n = x.shape[0]
    caches = [layer.new_cache(n, x.dtype, alloc) if want_cache else None for layer in layers]
    out = np.empty((n,) + layers[-1].out_shape, dtype=x.dtype)
    # a tile's steps, (method, its second argument); without caches a conv
    # and the pool after it run as one step that pools before the conv's
    # bias and activation, where that keeps the bits
    steps = [(layer.forward_tile, cache) for layer, cache in zip(layers, caches)]
    if not want_cache:
        for i in reversed(range(len(layers) - 1)):
            conv, pool = layers[i:i + 2]
            if isinstance(conv, _Conv2d) and isinstance(pool, _MaxPool2) and conv.pools_first():
                steps[i:i + 2] = [(conv.pooled_tile, pool)]

    def tile(edges):
        lo, hi = edges
        t = x[lo:hi]
        for run, arg in steps:
            t = run(t, arg, lo, hi)
        out[lo:hi] = t

    _each(_Job(partial(tile, edges)) for edges in _tiles(layers, n, x.dtype.itemsize))
    return out, caches


def _stage_backward(layers, caches, g: np.ndarray, input_grad: bool, alloc: _Buffers):
    """Backward of _stage_forward, segment by segment from the last layer
    (a segment: a parameter layer and the parameter-free layers after it),
    all on _each's threads. A segment's tiles write its whole-batch input
    gradient; its parameter gradients, whole-batch reductions, start once
    its last tile has finished, alongside the next segment's tiles. The
    activation and boundary gradients come from alloc. Returns (input
    gradient or None, parameter gradients in layer order)."""
    n = g.shape[0]
    g_zs = [layer.grad_buffer(n, g.dtype, alloc) for layer in layers]
    grads = [[] for _ in layers]
    starts = [i for i, layer in enumerate(layers) if i == 0 or layer.params]
    tiles = _tiles(layers, n, g.dtype.itemsize)

    def tile(first, end, g_out, g_seg, edges):
        lo, hi = edges
        t = g_seg[lo:hi]
        for i in reversed(range(first, end)):
            t = layers[i].backward_tile(caches[i], t, g_zs[i], lo, hi, input_grad or i > 0)
        if g_out is not None:
            g_out[lo:hi] = t

    def reduce(i):
        grads[i] = layers[i].param_grads(caches[i], g_zs[i])

    jobs = []
    # jobs in the order: last segment's tiles, its parameter gradients, the
    # segment before's tiles (after the last's), ..., the first layer's
    for s, (first, end) in enumerate(reversed(list(zip(starts, starts[1:] + [len(layers)])))):
        g_out = (alloc((layers[first], "g_in"), n, layers[first].in_shape, g.dtype)
                 if input_grad or first > 0 else None)
        after = s - 1 if s else None
        jobs += [_Job(partial(tile, first, end, g_out, g, edges), s, after) for edges in tiles]
        if layers[first].params:
            jobs.append(_Job(partial(reduce, first), after=s))
        g = g_out
    # a one-tile batch is too small to be worth a hand-over
    _each(jobs, inline=len(tiles) < 2)
    return g, [p for layer_grads in grads for p in layer_grads]


class _Flatten:
    def __init__(self, spec: LayerSpec, in_shape, rng, dtype):
        self.spec = spec
        self.in_shape = in_shape
        self.out_shape = (int(np.prod(in_shape)),)

    params: list = []

    def forward(self, x: np.ndarray, want_cache: bool):
        return x.reshape((x.shape[0],) + self.out_shape), None

    def backward(self, cache, g: np.ndarray, input_grad: bool = True):
        return (g.reshape((g.shape[0],) + self.in_shape) if input_grad else None), []


class _Dense:
    def __init__(self, spec: LayerSpec, in_shape, rng, dtype):
        if len(in_shape) != 1:
            raise ValueError(f"shape_mismatch: dense needs flat input, got {in_shape}")
        (d_in,) = in_shape
        if spec.in_dim is not None and spec.in_dim != d_in:
            raise ValueError(f"shape_mismatch: dense in_dim {spec.in_dim} != {d_in}")
        if not spec.out_dim or spec.out_dim < 1:
            raise ValueError("shape_mismatch: dense needs out_dim >= 1")
        if d_in < 1:
            raise ValueError(f"shape_mismatch: dense needs a fan-in >= 1, got input {in_shape}")
        self.spec = spec
        self.in_shape = in_shape
        self.out_shape = (spec.out_dim,)
        self.w = _he_normal(rng, (d_in, spec.out_dim), dtype)
        self.b = np.zeros(spec.out_dim, dtype=dtype)

    @property
    def params(self):
        return [self.w, self.b]

    def forward(self, x: np.ndarray, want_cache: bool):
        z = x @ self.w
        z += self.b
        mask = np.empty(z.shape, np.bool_) if want_cache and self.spec.activation != "none" else None
        return _activation_forward(self.spec.activation, z, mask), ((x, mask) if want_cache else None)

    def backward(self, cache, g: np.ndarray, input_grad: bool = True):
        x, mask = cache
        g = _activation_backward(g, mask)
        return (g @ self.w.T if input_grad else None), [_weight_grad(x, g), g.sum(axis=0)]


_LAYER_KINDS = {"conv2d": _Conv2d, "maxpool2": _MaxPool2, "flatten": _Flatten, "dense": _Dense}


class _Caches(list):
    """A cached forward's per-layer caches in layer order; generation
    numbers the net's cached forwards."""

    generation: int


class EmbeddingNet:
    """A layer stack with shape chain validated at construction.

    Parameters are arrays of `dtype`, He-initialized from `seed`, or copies
    of `params` when given (nothing is drawn then; `seed` is recorded); the
    flat `params` list (layer order, weight before bias) is the unit the
    optimizer and checkpoints operate on.
    """

    def __init__(self, input_shape, layers: list[LayerSpec], seed: int = 0,
                 dtype: str = "float64", params: list[np.ndarray] | None = None):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.specs = list(layers)
        self.seed = int(seed)
        if dtype not in ("float64", "float32"):
            raise ValueError(f"bad_dtype: {dtype}")
        self.dtype = np.dtype(dtype)
        if not self.specs:
            raise ValueError("shape_mismatch: empty layer stack")
        rng = np.random.default_rng(self.seed) if params is None else None
        self.layers = []
        shape = self.input_shape
        for spec in self.specs:
            if spec.kind not in _LAYER_KINDS:
                raise ValueError(f"bad_layer_kind: {spec.kind}")
            layer = _LAYER_KINDS[spec.kind](spec, shape, rng, self.dtype)
            self.layers.append(layer)
            shape = layer.out_shape
        if len(shape) != 1:
            raise ValueError(f"shape_mismatch: embedding must be flat, stack ends at {shape}")
        self.out_dim = shape[0]
        if params is not None:
            self.set_params(params)
        # the image stage: the leading conv/pool layers, run tile by tile
        self.stage = 0
        while isinstance(self.layers[self.stage], _ImageLayer):
            self.stage += 1
        self._buffers = _Buffers()
        self._generation = 0   # cached forwards made so far

    def release_buffers(self) -> None:
        """Drop the image stage's whole-batch buffers, which the net keeps
        from its first cached forward on; caches still alive keep theirs."""
        self._buffers = _Buffers()

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def set_params(self, values: list[np.ndarray]) -> None:
        current = self.params
        if len(values) != len(current):
            raise ValueError(f"shape_mismatch: {len(values)} arrays for {len(current)} params")
        for dst, src in zip(current, values):
            if dst.shape != src.shape:
                raise ValueError(f"shape_mismatch: {src.shape} into {dst.shape}")
            dst[...] = src

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim < 2:
            raise ValueError(f"shape_mismatch: need a batch, got {x.shape}")
        flat = int(np.prod(self.input_shape))
        if x.ndim == 2 and x.shape[1] == flat:
            return x.reshape((x.shape[0],) + self.input_shape)
        if x.shape[1:] == self.input_shape:
            return x
        raise ValueError(f"shape_mismatch: batch {x.shape} vs input {self.input_shape}")

    def forward(self, x, want_cache: bool = True):
        """Run the stack; returns (embeddings, caches-for-backward). A cached
        forward makes the previous one's caches stale."""
        x = self._check_input(x)
        caches = _Caches()
        if want_cache:
            self._generation += 1
            caches.generation = self._generation
        if self.stage:
            x, caches[:] = _stage_forward(self.layers[:self.stage], x, want_cache, self._buffers)
        for layer in self.layers[self.stage:]:
            x, cache = layer.forward(x, want_cache)
            caches.append(cache)
        return x, (caches if want_cache else None)

    def backward(self, caches, grad_out: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients for a forward pass, aligned with `params`."""
        if caches is None:
            raise ValueError("stale_cache: forward was run without want_cache")
        if caches.generation != self._generation:
            raise ValueError("stale_cache: a later forward has made these caches stale")
        g = np.asarray(grad_out, dtype=self.dtype)
        grads: list[np.ndarray] = []
        for i in reversed(range(self.stage, len(self.layers))):
            # the gradient wrt the network input is never used
            g, layer_grads = self.layers[i].backward(caches[i], g, input_grad=i > 0)
            grads = layer_grads + grads
        if self.stage:
            grads = _stage_backward(self.layers[:self.stage], caches[:self.stage], g, False,
                                    self._buffers)[1] + grads
        return grads

    def embed(self, x) -> np.ndarray:
        """Cache-free forward over arbitrarily many samples, EMBED_ROWS at a time."""
        x = self._check_input(x)
        out = np.empty((x.shape[0], self.out_dim), dtype=self.dtype)
        for lo in range(0, x.shape[0], EMBED_ROWS):
            out[lo:lo + EMBED_ROWS] = self.forward(x[lo:lo + EMBED_ROWS], want_cache=False)[0]
        return out


class SoftmaxHead(_Dense):
    """Linear float64 class head on top of the embedding, for the
    end-to-end baseline: a dense layer without activation."""

    def __init__(self, in_dim: int, n_classes: int, seed: int = 0):
        super().__init__(dense(n_classes, activation="none"), (in_dim,),
                         np.random.default_rng(seed), np.float64)
        self.n_classes = int(n_classes)


def softmax_head_loss(embeddings, labels, head: SoftmaxHead):
    """Mean cross-entropy of the head's softmax over a batch.

    Returns (loss, grad wrt embeddings, [grad_w, grad_b]). Logits are
    max-shifted before exponentiation.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if np.any(y < 0) or np.any(y >= head.n_classes):
        raise ValueError(f"label_out_of_range: labels must be in 0..{head.n_classes - 1}")
    n = x.shape[0]
    z, cache = head.forward(x, want_cache=True)
    ez = np.exp(z - np.max(z, axis=1, keepdims=True))
    p = ez / np.sum(ez, axis=1, keepdims=True)
    loss = float(-np.mean(np.log(p[np.arange(n), y])))
    dz = p.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n
    return (loss, *head.backward(cache, dz))


class Adam:
    """Bias-corrected Adam; update is -lr * m_hat / (sqrt(v_hat) + eps), made
    in place on the arrays it is built with (`params`), one pass per array,
    with beta1 = ADAM_BETA1, beta2 = ADAM_BETA2 and eps = ADAM_EPS."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"shape_mismatch: {len(grads)} grads for {len(self.params)} params")
        # a refused list leaves t, the parameters and the moments as they were
        for p, g in zip(self.params, grads):
            if p.shape != g.shape:
                raise ValueError(f"shape_mismatch: grad {g.shape} for param {p.shape}")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            # m += (1 - b1) * g; v += (1 - b2) * g * g;
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that operation order
            p, g, m, v = np.atleast_1d(p, g, m, v)   # 0-d: g * c would be a scalar, no out=
            m *= ADAM_BETA1
            t = g * (1.0 - ADAM_BETA1)
            m += t
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=t)
            t *= g
            v += t
            np.divide(v, c2, out=t)
            np.sqrt(t, out=t)
            t += ADAM_EPS
            u = m / c1
            u *= self.lr
            u /= t
            p -= u


def save_checkpoint(path, net: EmbeddingNet, extra: dict | None = None) -> None:
    """Atomically write a versioned npz: JSON meta + parameter arrays in layer order."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "layers": [asdict(s) for s in net.specs],
        "seed": net.seed,
        "dtype": net.dtype.name,
        "extra": extra or {},
    }
    arrays = {f"param_{i:03d}": p for i, p in enumerate(net.params)}
    text = json.dumps(meta, sort_keys=True, allow_nan=False)
    with atomic_open(path) as f:
        np.savez(f, meta=np.frombuffer(text.encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> tuple[EmbeddingNet, dict]:
    """Rebuild an EmbeddingNet from a checkpoint; returns (net, extra-meta).
    Meta it cannot interpret raises ValueError("bad_checkpoint: ...")."""
    # np.load(path) leaks the file it opens when one that starts as a zip is cut short
    with open(path, "rb") as f, np.load(f) as z:
        meta = json.loads(bytes(z["meta"]).decode())
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"bad_checkpoint: format_version {version}")
        count = sum(name.startswith("param_") for name in z.files)
        params = [z[f"param_{i:03d}"] for i in range(count)]
    try:
        specs = [LayerSpec(**s) for s in meta["layers"]]
        net = EmbeddingNet(meta["input_shape"], specs, seed=meta["seed"],
                           dtype=meta["dtype"], params=params)
    except TypeError as err:     # a value of the wrong JSON type
        raise ValueError(f"bad_checkpoint: {err}") from err
    return net, meta["extra"]
