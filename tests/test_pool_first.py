"""A forward without caches (`embed`, `forward(want_cache=False)`) pools a
conv's GEMM output before its bias and activation where its biases allow
it (every one finite and at least sqrt(tiny) in magnitude); the cached
forward activates first. The two orders must give the same bytes: on
finite values always, and the same NaN and infinity pattern otherwise, at
any stage pool size."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtriplet import network
from localtriplet.network import (
    EmbeddingNet,
    conv2d,
    dense,
    flatten,
    maxpool2,
    mnist_cnn,
)

STACKS = {
    "mnist_cnn-28x28x1": ((28, 28, 1), mnist_cnn),
    "mnist_cnn-32x32x3": ((32, 32, 3), mnist_cnn),
    "conv-conv-pool": ((8, 8, 2), lambda: [conv2d(4), conv2d(5), maxpool2(), flatten(),
                                           dense(6)]),
    # a one-pixel filter on a 2x2 image: one window of chosen GEMM outputs
    "one-window": ((2, 2, 1), lambda: [conv2d(1, filter_size=1), maxpool2(), flatten()]),
}
_nets: dict = {}


def _net(stack: str, dtype: str) -> EmbeddingNet:
    """One net per stack and dtype; its biases are set per example."""
    if (stack, dtype) not in _nets:
        shape, layers = STACKS[stack]
        _nets[stack, dtype] = EmbeddingNet(shape, layers(), seed=3, dtype=dtype)
    return _nets[stack, dtype]


# zeros of both signs, subnormals, values below sqrt(tiny) and values that
# z + b rounds to b (collapse), beside ordinary magnitudes
SPECIAL = [0.0, -0.0, 5e-324, -1e-310, 1e-300, -1e-160, 1.5e-154, -1e-40, 1e-45,
           -5.0, 7.0, 3e8, -1e20]
# GEMM outputs of the one-window stack, relative to minus the bias
OFFSETS = [0.0, -0.0, 5e-324, -5e-324, -1e-322, 1e-300, -1e-160, -1e-20, 1e-7]


def _biases(rng, mode: str, size: int) -> np.ndarray:
    """Every bias at least 1e-3 in magnitude (ordinary: the pool-first path),
    ones that collapse z + b to b, or a mixture of the special values."""
    if mode == "ordinary":
        return rng.choice([-1.0, 1.0], size) * (1e-3 + np.abs(rng.normal(0, 2, size)))
    if mode == "collapse":
        return rng.choice([3e8, -3e8, 1e20, -1e20], size)
    return rng.choice(SPECIAL, size)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-equal where both are finite; otherwise the same NaN positions and
    the same bytes everywhere else."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if np.all(np.isfinite(a)):
        return a.tobytes() == b.tobytes()
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


# a non-finite input makes inf - inf in the GEMMs
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("stack", list(STACKS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), threads=st.sampled_from([1, 2]),
       modes=st.lists(st.sampled_from(["ordinary", "collapse", "special"]), min_size=4,
                      max_size=4),
       rows=st.integers(1, 9), ties=st.booleans(),
       non_finite=st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_cache_free_forward_keeps_the_bytes(stack, dtype, seed, threads, modes, rows, ties,
                                            non_finite):
    net = _net(stack, dtype)
    rng = np.random.default_rng(seed)
    for layer, mode in zip((layer for layer in net.layers if hasattr(layer, "b")), modes):
        layer.b[...] = _biases(rng, mode, layer.b.size)
    shape = (rows,) + net.input_shape
    if stack == "one-window":
        # GEMM outputs (weight 1) at and around minus the bias in one window
        net.layers[0].w[...] = 1
        x = -net.layers[0].b.astype(np.float64)[0] + rng.choice(OFFSETS, shape)
    else:
        x = rng.uniform(-2, 2, shape)
        if ties:
            x = np.round(x * 2) / 2   # few distinct values: ties inside windows
    if non_finite is not None:
        x.reshape(-1)[rng.integers(x.size)] = non_finite
    x = x.astype(dtype)
    with mock.patch.object(network, "STAGE_THREADS", threads):
        cached = net.forward(x)[0]
        assert _same(net.forward(x, want_cache=False)[0], cached)
        assert _same(net.embed(x), cached)


def test_pool_first_needs_finite_biases_of_at_least_sqrt_tiny():
    net = EmbeddingNet((6, 6, 1), [conv2d(3), maxpool2(), flatten()], seed=1)
    conv = net.layers[0]
    assert not conv.pools_first()                  # a new net's zero biases
    root = np.sqrt(np.finfo(np.float64).tiny)
    for bias, first in [([1.0, -2.0, 1e-3], True), ([root, -root, 1e20], True),
                        ([1.0, root / 2, 1.0], False), ([1.0, -0.0, 1.0], False),
                        ([1.0, np.inf, 1.0], False), ([np.nan, 1.0, 1.0], False)]:
        conv.b[...] = bias
        assert conv.pools_first() is first, bias


def test_cache_free_forward_runs_conv_and_pool_as_one_step(monkeypatch):
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=2)
    x = np.random.default_rng(4).random((9, 28, 28, 1))
    calls = []

    def counted(inner):
        def pooled_tile(t, pool, lo, hi):
            calls.append(lo)
            return inner(t, pool, lo, hi)
        return pooled_tile

    for conv in (net.layers[0], net.layers[2]):
        monkeypatch.setattr(conv, "pooled_tile", counted(conv.pooled_tile))
    net.embed(x)
    assert calls == []                             # zero biases: activation first
    for conv in (net.layers[0], net.layers[2]):
        conv.b[...] = 0.01
    embedded = net.embed(x)
    tiles = len(network._tiles(net.layers[:net.stage], 9, 8))
    assert len(calls) == 2 * tiles
    calls.clear()
    assert embedded.tobytes() == net.forward(x)[0].tobytes()
    assert calls == []                             # the cached forward activates first


@pytest.mark.parametrize("bias", [0.0, -100.0], ids=["zero", "subnormal"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_negative_subnormal_beside_zero_keeps_its_sign(dtype, bias):
    # GEMM outputs -b - s, -b, -b, -b in one window (s the smallest
    # subnormal, b zero or 100 s): activated, (-s, +0, +0, +0) give -0.0
    # first and the window pools to -0.0; pooled first it would be +0.0, so
    # such a bias keeps activation first
    tiny = np.finfo(dtype).smallest_subnormal
    net = EmbeddingNet((2, 2, 1), [conv2d(1, filter_size=1), maxpool2(), flatten()],
                       dtype=dtype)
    net.layers[0].w[...] = 1
    net.layers[0].b[...] = bias * tiny
    x = np.full((4, 2, 2, 1), -bias * tiny, dtype=dtype)
    x[:, 0, 0, 0] -= tiny
    cached = net.forward(x)[0]
    assert np.all(np.signbit(cached)) and np.all(cached == 0)
    assert net.embed(x).tobytes() == cached.tobytes()
