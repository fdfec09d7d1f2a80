"""The image stage's tiles and parameter gradients run on a small thread
pool (network.STAGE_THREADS threads, the caller's included). Each tile
writes only its own rows and each parameter gradient is one whole-batch
GEMM, so every result must keep its bytes at any pool size; a failing
tile must surface in the caller with no tile left running, and a run
without a multi-tile stage must start no thread."""
import sys
import threading
import time

import numpy as np
import pytest

from localtriplet import network
from localtriplet.data import Dataset
from localtriplet.network import EmbeddingNet, mlp, mnist_cnn
from localtriplet.training import TrainConfig, train

DTYPES = ["float64", "float32"]
# batch size for a stage whose tiles hold `size` images
BATCHES = {
    "one_tile": lambda size: size,
    "two_tiles": lambda size: 2 * size,
    "short_tail": lambda size: 2 * size + 1,
    "many_tiles": lambda size: 7 * size + 2,
}


def _tile_sizes(net, n):
    stage = net.layers[:net.stage]
    return [hi - lo for lo, hi in network._tiles(stage, n, net.dtype.itemsize)]


def _run(net, x, g):
    """Every array a forward, backward and embed produce, in a fixed order."""
    emb, caches = net.forward(x)
    arrays = [emb]
    for cache in caches:
        if isinstance(cache, tuple):
            arrays += [a for a in cache if a is not None]
        elif cache is not None:
            arrays.append(cache)
    return arrays + net.backward(caches, g) + [net.embed(x)]


def _assert_same_bits_at_1_and_2_threads(net, x, g, monkeypatch):
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(network, "STAGE_THREADS", threads)
        results.append(_run(net, x, g))
    one, two = results
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("batch", list(BATCHES))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(28, 28, 1), (32, 32, 3)])
def test_mnist_cnn_bits_do_not_depend_on_stage_threads(shape, dtype, batch, monkeypatch):
    net = EmbeddingNet(shape, mnist_cnn(), seed=3, dtype=dtype)
    size = _tile_sizes(net, 1000)[0]
    n = BATCHES[batch](size)
    sizes = _tile_sizes(net, n)
    expected = {"one_tile": [size], "two_tiles": [size, size],
                "short_tail": [size, size, 1], "many_tiles": [size] * 7 + [2]}[batch]
    assert sizes == expected
    rng = np.random.default_rng(len(shape) + n)
    x = rng.random((n,) + shape).astype(dtype)
    g = rng.standard_normal((n, net.out_dim)).astype(dtype)
    _assert_same_bits_at_1_and_2_threads(net, x, g, monkeypatch)


@pytest.mark.parametrize("dtype", DTYPES)
def test_folded_tail_bits_do_not_depend_on_stage_threads(dtype, monkeypatch):
    # 4x4 images pool to 1x1, so a tile needs 4 images for its GEMM rows and
    # a 1-image tail joins the tile before it
    net = EmbeddingNet((4, 4, 1), mnist_cnn(), seed=5, dtype=dtype)
    largest = max(layer.image_elements for layer in net.layers[:net.stage])
    monkeypatch.setattr(network, "TILE_BYTES", 5 * net.dtype.itemsize * largest)
    assert _tile_sizes(net, 11) == [5, 6]
    rng = np.random.default_rng(6)
    x = rng.random((11, 4, 4, 1)).astype(dtype)
    g = rng.standard_normal((11, net.out_dim)).astype(dtype)
    _assert_same_bits_at_1_and_2_threads(net, x, g, monkeypatch)


def _images(classes=3, per_class=12, seed=0):
    """Class prototypes plus noise, as 28x28x1 images in [0, 1]."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    prototypes = rng.random((classes, 784))
    samples = np.clip(prototypes[labels] + 0.2 * rng.standard_normal((labels.size, 784)), 0, 1)
    return Dataset(samples, labels, (28, 28, 1))


@pytest.mark.parametrize("method", ["mm_hardmin", "lm_mining"])
def test_training_bits_do_not_depend_on_stage_threads(method, monkeypatch):
    dataset = _images()
    config = TrainConfig(method=method, batch_size=16, e_max=2, convergence_eps=0.0,
                         lr=1e-3, seed=4)
    runs = []
    for threads in (1, 2):
        monkeypatch.setattr(network, "STAGE_THREADS", threads)
        net, reports, _ = train(EmbeddingNet((28, 28, 1), mnist_cnn(), seed=2), config, dataset)
        runs.append(([r.to_json_line() for r in reports], [p.tobytes() for p in net.params]))
    assert len(runs[0][0]) == 2
    assert runs[0] == runs[1]


def test_failing_tile_raises_in_caller_with_no_tile_running(monkeypatch):
    monkeypatch.setattr(network, "STAGE_THREADS", 2)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=1)
    assert len(_tile_sizes(net, 40)) == 10
    layer = net.layers[2]
    inner = layer.forward_tile
    lock = threading.Lock()
    state = {"running": 0, "started": 0}
    error = RuntimeError("tile failed")

    def forward_tile(x, cache, lo, hi):
        with lock:
            state["running"] += 1
            state["started"] += 1
        try:
            time.sleep(0.005)      # long enough for the other thread to be inside a tile
            if lo == 12:
                raise error
            return inner(x, cache, lo, hi)
        finally:
            with lock:
                state["running"] -= 1

    monkeypatch.setattr(layer, "forward_tile", forward_tile)
    x = np.random.default_rng(2).random((40, 28, 28, 1))
    with pytest.raises(RuntimeError) as raised:
        net.forward(x)
    assert raised.value is error
    started = state["started"]
    assert state["running"] == 0
    time.sleep(0.05)
    assert state["started"] == started < 10    # no tile begins after the failure
    # the next call runs every tile again
    monkeypatch.setattr(layer, "forward_tile", inner)
    assert net.forward(x)[0].shape == (40, net.out_dim)


def test_runs_without_a_multi_tile_stage_start_no_thread(monkeypatch):
    monkeypatch.setattr(network, "STAGE_THREADS", 2)
    monkeypatch.setattr(network, "_pools", {})
    before = threading.active_count()
    rng = np.random.default_rng(3)
    blobs = Dataset(rng.standard_normal((60, 6)), np.repeat(np.arange(3), 20), (6,))
    config = TrainConfig(method="lm_mining", e_max=2, convergence_eps=0.0, seed=1)
    train(EmbeddingNet((6,), mlp(8, 4), seed=1), config, blobs)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=1)
    n = _tile_sizes(net, 1000)[0]
    assert _tile_sizes(net, n) == [n]
    x = rng.random((n, 28, 28, 1))
    emb, caches = net.forward(x)
    net.backward(caches, np.ones_like(emb))
    net.embed(x)
    assert threading.active_count() == before
    assert network._pools == {}


def test_multi_tile_stage_starts_one_helper_once(monkeypatch):
    monkeypatch.setattr(network, "STAGE_THREADS", 2)
    monkeypatch.setattr(network, "_pools", {})
    before = threading.active_count()
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=1)
    x = np.random.default_rng(4).random((20, 28, 28, 1))
    try:
        for _ in range(3):
            emb, caches = net.forward(x)
            net.backward(caches, np.ones_like(emb))
        assert threading.active_count() == before + 1
        assert list(network._pools) == [2]
    finally:
        for pool in network._pools.values():
            pool.shutdown()


def test_every_item_runs_once_on_more_threads_than_cores(monkeypatch):
    # more threads than a small host has cores, switching every microsecond:
    # a race on the shared iterator would run an item twice or drop it
    monkeypatch.setattr(network, "_pools", {})
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=1)
    rng = np.random.default_rng(5)
    x = rng.random((30, 28, 28, 1))
    g = rng.standard_normal((30, net.out_dim))
    monkeypatch.setattr(network, "STAGE_THREADS", 1)
    one = _run(net, x, g)
    monkeypatch.setattr(network, "STAGE_THREADS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done = []
        network._each(done.append, range(5000))
        assert sorted(done) == list(range(5000))
        for a, b in zip(_run(net, x, g), one, strict=True):
            assert np.array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)
        for pool in network._pools.values():
            pool.shutdown()
