"""The embedding network f(I; theta): a configurable stack of conv/pool/
dense layers with hand-derived backward passes, plus the softmax
classification head for the end-to-end baseline and the Adam optimizer.

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
  a whole-batch activation gradient, reduced once after the last tile.
The split is exact for the `mnist_cnn` shapes (OpenBLAS, one and two
threads). It need not be where a BLAS switches kernels at a size
threshold: with OpenBLAS 0.3.31, a float64 conv of 4 output channels over
27 inputs changes its last bits as its GEMM crosses the small-matrix
threshold, for a tile as for a smaller whole batch.

The stage's tiles, forward and backward, and then its layers' parameter
gradients run on STAGE_THREADS threads: the caller and a pool of helper
threads, started by the first stage of more than one tile, pull them from
one queue. Only forward_tile, backward_tile and param_grads run on a
helper; the net's and the layers' forward/backward and Adam stay on the
calling thread. The bits do not depend on the pool size or on which
thread runs what: a tile runs the same operations on the same rows as on
one thread and writes only its own rows of the output, the caches, the
activation gradient and the input gradient, and each parameter gradient
is still one whole-batch GEMM on one thread.

A layer caches only what its backward reads: a conv its im2col columns
and the leaky ReLU mask z > 0 (the backward reads only z's sign), a pool
its argmax, a dense layer its input and mask, a flatten nothing; `embed`
caches nothing. A cached `mnist_cnn` forward holds 580,288 bytes per
float64 image, 451,584 of them conv2's im2col columns; 313,728 in float32.
"""
from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import atomic_open

LEAKY_SLOPE = 0.01
CHECKPOINT_FORMAT_VERSION = 1
TILE_BYTES = 1 << 21   # largest per-image tensor of an image-stage tile, in bytes
MIN_GEMM_ROWS = 4      # fewer rows take another BLAS path, with other bits
STEP_ELEMENTS = 1 << 14   # Adam updates larger parameters in row blocks of about this size
EMBED_ROWS = 512       # embed runs the stack on chunks of this many samples
STAGE_THREADS = 2      # threads that run an image stage's tiles, the caller's included


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
    one-layer stage; the stage calls new_cache, forward_tile,
    backward_tile and param_grads itself."""

    params: list = []

    def forward(self, x: np.ndarray, want_cache: bool):
        y, (cache,) = _stage_forward([self], x, want_cache)
        return y, cache

    def backward(self, cache, g: np.ndarray, input_grad: bool = True):
        return _stage_backward([self], [cache], g, input_grad)

    def grad_buffer(self, n: int, dtype):
        """The whole-batch array backward_tile fills for param_grads."""
        return None

    def param_grads(self, cache, g_z) -> list:
        return []


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
        cout = spec.out_channels
        self.spec = spec
        self.f = f
        self.pad = f // 2
        self.in_shape = (h, w, cin)
        self.out_shape = (h, w, cout)
        self.image_elements = h * w * max(f * f * cin, cout)   # im2col rows or output
        fan_in = f * f * cin
        self.w = (rng.standard_normal((fan_in, cout)) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(cout, dtype=dtype)

    @property
    def params(self):
        return [self.w, self.b]

    def new_cache(self, n: int, dtype):
        h, w, cin = self.in_shape
        cols = np.empty((n * h * w, self.f * self.f * cin), dtype=dtype)
        mask = (None if self.spec.activation == "none"
                else np.empty((n,) + self.out_shape, dtype=np.bool_))
        return cols, mask

    def grad_buffer(self, n: int, dtype):
        h, w, cout = self.out_shape
        return np.empty((n * h * w, cout), dtype=dtype)

    def forward_tile(self, x: np.ndarray, cache, lo: int, hi: int):
        # one copy of the (dy, dx, cin)-ordered windows of the padded input,
        # into the cache's rows of these images when there is a cache
        (h, w, cin), f, p, t = self.in_shape, self.f, self.pad, hi - lo
        xp = np.zeros((t, h + 2 * p, w + 2 * p, cin), dtype=x.dtype)
        xp[:, p:p + h, p:p + w, :] = x
        win = sliding_window_view(xp, (f, f), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
        cols = (np.empty((t * h * w, f * f * cin), dtype=x.dtype) if cache is None
                else cache[0][lo * h * w:hi * h * w])
        cols.reshape(win.shape)[...] = win
        z = cols @ self.w
        z += self.b
        z = z.reshape(t, h, w, -1)
        mask = None if cache is None or cache[1] is None else cache[1][lo:hi]
        return _activation_forward(self.spec.activation, z, mask)

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
        return [cache[0].T @ g_z, g_z.sum(axis=0)]


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

    def new_cache(self, n: int, dtype):
        return np.empty((n,) + self.out_shape, dtype=np.int8)

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
    return zip(edges[:-1], edges[1:])


_pools: dict = {}   # STAGE_THREADS -> executor of its helper threads, made on first use
os.register_at_fork(after_in_child=_pools.clear)   # a forked child has no helper threads


def _each(fn, items, inline: bool = False) -> None:
    """fn(item) for every item (none of them None), in no fixed order: the
    calling thread and STAGE_THREADS - 1 helper threads pull items from one
    shared iterator; with inline, or fewer than two items, the calling
    thread runs them all. The helpers have finished when this returns, and
    the first exception of any fn call is raised here."""
    items = list(items)
    helpers = 0 if inline else min(STAGE_THREADS, len(items)) - 1
    if helpers < 1:
        for item in items:
            fn(item)
        return
    pool = _pools.get(STAGE_THREADS)
    if pool is None:
        # imported here, so that a run without an image stage does not load
        # it and its imports (about 1 MB)
        from concurrent.futures import ThreadPoolExecutor
        pool = _pools[STAGE_THREADS] = ThreadPoolExecutor(STAGE_THREADS - 1, "localtriplet-stage")
    pending = iter(items)
    lock = threading.Lock()
    errors = []

    def work():
        while True:
            with lock:
                item = None if errors else next(pending, None)
            if item is None:
                return
            try:
                fn(item)
            except BaseException as err:
                with lock:
                    errors.append(err)

    futures = [pool.submit(work) for _ in range(helpers)]
    try:
        work()
    finally:
        # waits for every helper; an error of work itself joins fn's
        errors += filter(None, [future.exception() for future in futures])
        # a pool thread drops its finished task a moment after the wait
        # ends; fn and what it holds (a batch's caches) must not live on
        fn = None
    if errors:
        raise errors[0]


def _stage_forward(layers, x: np.ndarray, want_cache: bool):
    """Run conv/pool layers tile by tile, each tile through all of them
    (tiles on _each's threads); returns the whole batch's output and
    per-layer caches (None without want_cache)."""
    n = x.shape[0]
    caches = [layer.new_cache(n, x.dtype) if want_cache else None for layer in layers]
    out = np.empty((n,) + layers[-1].out_shape, dtype=x.dtype)

    def tile(edges):
        lo, hi = edges
        t = x[lo:hi]
        for layer, cache in zip(layers, caches):
            t = layer.forward_tile(t, cache, lo, hi)
        out[lo:hi] = t

    _each(tile, _tiles(layers, n, x.dtype.itemsize))
    return out, caches


def _stage_backward(layers, caches, g: np.ndarray, input_grad: bool):
    """Backward of _stage_forward: the per-element steps tile by tile, then
    each layer's parameter gradients as whole-batch reductions, both on
    _each's threads. Returns (input gradient or None, parameter gradients
    in layer order)."""
    n = g.shape[0]
    g_zs = [layer.grad_buffer(n, g.dtype) for layer in layers]
    g_in = np.empty((n,) + layers[0].in_shape, dtype=g.dtype) if input_grad else None

    def tile(edges):
        lo, hi = edges
        t = g[lo:hi]
        for i in reversed(range(len(layers))):
            t = layers[i].backward_tile(caches[i], t, g_zs[i], lo, hi, input_grad or i > 0)
        if input_grad:
            g_in[lo:hi] = t

    tiles = list(_tiles(layers, n, g.dtype.itemsize))
    _each(tile, tiles)
    grads = [None] * len(layers)

    def reduce(i):
        grads[i] = layers[i].param_grads(caches[i], g_zs[i])

    # a one-tile batch is too small to be worth a hand-over
    _each(reduce, range(len(layers)), inline=len(tiles) < 2)
    return g_in, [p for layer_grads in grads for p in layer_grads]


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
        self.spec = spec
        self.in_shape = in_shape
        self.out_shape = (spec.out_dim,)
        self.w = (rng.standard_normal((d_in, spec.out_dim)) * np.sqrt(2.0 / d_in)).astype(dtype)
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
        return (g @ self.w.T if input_grad else None), [x.T @ g, g.sum(axis=0)]


_LAYER_KINDS = {"conv2d": _Conv2d, "maxpool2": _MaxPool2, "flatten": _Flatten, "dense": _Dense}


class EmbeddingNet:
    """A layer stack with shape chain validated at construction.

    Parameters are float64 arrays, He-initialized from `seed`; the flat
    `params` list (layer order, weight before bias) is the unit the
    optimizer and checkpoints operate on.
    """

    def __init__(self, input_shape, layers: list[LayerSpec], seed: int = 0,
                 dtype: str = "float64"):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.specs = list(layers)
        self.seed = int(seed)
        if dtype not in ("float64", "float32"):
            raise ValueError(f"bad_dtype: {dtype}")
        self.dtype = np.dtype(dtype)
        if not self.specs:
            raise ValueError("shape_mismatch: empty layer stack")
        rng = np.random.default_rng(self.seed)
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
        # the image stage: the leading conv/pool layers, run tile by tile
        self.stage = 0
        while isinstance(self.layers[self.stage], _ImageLayer):
            self.stage += 1

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
        """Run the stack; returns (embeddings, caches-for-backward)."""
        x = self._check_input(x)
        caches = []
        if self.stage:
            x, caches = _stage_forward(self.layers[:self.stage], x, want_cache)
        for layer in self.layers[self.stage:]:
            x, cache = layer.forward(x, want_cache)
            caches.append(cache)
        return x, (caches if want_cache else None)

    def backward(self, caches, grad_out: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients for a forward pass, aligned with `params`."""
        if caches is None:
            raise ValueError("stale_cache: forward was run without want_cache")
        g = np.asarray(grad_out, dtype=self.dtype)
        grads: list[np.ndarray] = []
        for i in reversed(range(self.stage, len(self.layers))):
            # the gradient wrt the network input is never used
            g, layer_grads = self.layers[i].backward(caches[i], g, input_grad=i > 0)
            grads = layer_grads + grads
        if self.stage:
            grads = _stage_backward(self.layers[:self.stage], caches[:self.stage], g, False)[1] + grads
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
    """Bias-corrected Adam; update is -lr * m_hat / (sqrt(v_hat) + eps)."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("shape_mismatch: optimizer state built for a different net")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError(f"shape_mismatch: grad {g.shape} for param {p.shape}")
            if p.size <= STEP_ELEMENTS:
                self._update(p, g, m, v, c1, c2)
                continue
            # blocks of leading-axis rows: the two temporaries stay small and
            # in cache, and take no page faults on the large weights
            rows = max(1, STEP_ELEMENTS * len(p) // p.size)
            for lo in range(0, len(p), rows):
                s = slice(lo, lo + rows)
                self._update(p[s], g[s], m[s], v[s], c1, c2)

    def _update(self, p, g, m, v, c1, c2):
        # m += (1 - b1) * g; v += (1 - b2) * g * g;
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that operation order
        m *= self.beta1
        t = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(g))   # an array also at 0-d
        m += t
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=t)
        t *= g
        v += t
        np.divide(v, c2, out=t)
        np.sqrt(t, out=t)
        t += self.eps
        u = np.divide(m, c1, out=np.empty_like(m))
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
    with atomic_open(path) as f:
        np.savez(f, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
                 **arrays)


def load_checkpoint(path) -> tuple[EmbeddingNet, dict]:
    """Rebuild an EmbeddingNet from a checkpoint; returns (net, extra-meta)."""
    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode())
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"bad_checkpoint: format_version {meta.get('format_version')}")
        specs = [LayerSpec(**s) for s in meta["layers"]]
        net = EmbeddingNet(meta["input_shape"], specs, seed=meta["seed"],
                           dtype=meta.get("dtype", "float64"))
        net.set_params([z[f"param_{i:03d}"] for i in range(len(net.params))])
    return net, meta.get("extra", {})
