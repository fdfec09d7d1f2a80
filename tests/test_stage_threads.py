"""The image stage's tiles and parameter gradients run on a small thread
pool (network.STAGE_THREADS threads, the caller's included), the backward
segment by segment with each weight gradient starting once its layer's
gradient is complete. Each tile writes only its own rows and each
parameter gradient is one whole-batch GEMM, so every result must keep its
bytes at any pool size; a failing job must surface in the caller with no
job left running or started after it, and a run without a multi-tile
stage must start no thread."""
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from localtriplet import network
from localtriplet.data import Dataset
from localtriplet.network import (
    EmbeddingNet,
    conv2d,
    dense,
    flatten,
    maxpool2,
    mlp,
    mnist_cnn,
)
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


def _assert_same_bits_at_1_and_2_threads(net, x, g, monkeypatch, pools=(1, 2)):
    results = []
    for threads in pools:
        monkeypatch.setattr(network, "STAGE_THREADS", threads)
        results.append(_run(net, x, g))
    one = results[0]
    for other in results[1:]:
        assert len(one) == len(other)
        for a, b in zip(one, other):
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
        network._each(network._Job(partial(done.append, i)) for i in range(5000))
        assert sorted(done) == list(range(5000))
        for a, b in zip(_run(net, x, g), one, strict=True):
            assert np.array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)
        for pool in network._pools.values():
            pool.shutdown()


# three convs, two of them in a row, so that the backward has three
# segments; and a stack that starts with a pool, whose first segment has no
# parameter layer
STACKS = {
    "conv_after_conv": [conv2d(4), maxpool2(), conv2d(6), conv2d(8), maxpool2(), flatten(),
                        dense(10)],
    "pool_first": [maxpool2(), conv2d(4), conv2d(6), maxpool2(), flatten(), dense(5)],
}


@pytest.mark.parametrize("stack", list(STACKS))
@pytest.mark.parametrize("dtype", DTYPES)
def test_segment_schedule_bits_do_not_depend_on_pool_size(stack, dtype, monkeypatch):
    monkeypatch.setattr(network, "_pools", {})
    net = EmbeddingNet((16, 16, 3), STACKS[stack], seed=7, dtype=dtype)
    starts = [i for i, layer in enumerate(net.layers[:net.stage]) if i == 0 or layer.params]
    assert len(starts) == 3
    largest = max(layer.image_elements for layer in net.layers[:net.stage])
    monkeypatch.setattr(network, "TILE_BYTES", 3 * net.dtype.itemsize * largest)
    assert _tile_sizes(net, 20) == [3] * 6 + [2]
    rng = np.random.default_rng(8)
    x = rng.random((20, 16, 16, 3)).astype(dtype)
    g = rng.standard_normal((20, net.out_dim)).astype(dtype)
    try:
        _assert_same_bits_at_1_and_2_threads(net, x, g, monkeypatch, pools=(1, 2, 4))
    finally:
        for pool in network._pools.values():
            pool.shutdown()


def test_a_job_starts_only_after_its_group(monkeypatch):
    monkeypatch.setattr(network, "_pools", {})
    monkeypatch.setattr(network, "STAGE_THREADS", 4)
    finished = []

    def member(group, i):
        time.sleep(0.0002 * (i % 3))
        finished.append(group)

    def waiter(group):
        assert finished.count(group) == 5

    jobs = []
    for group in range(30):
        jobs += [network._Job(partial(member, group, i), group, group - 1 if group else None)
                 for i in range(5)]
        jobs.append(network._Job(partial(waiter, group), after=group))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        network._each(jobs)
    finally:
        sys.setswitchinterval(interval)
        for pool in network._pools.values():
            pool.shutdown()
    assert sorted(finished) == sorted(list(range(30)) * 5)


def test_caller_interrupted_outside_a_job_stops_the_helpers(monkeypatch):
    # the caller pulls a group's only job and is interrupted before running
    # it, while the helper waits for that group: the helper must stop, and
    # the interrupt must reach the caller
    monkeypatch.setattr(network, "STAGE_THREADS", 2)

    class Interrupted:
        group = 0

        def __init__(self, caller):
            self.caller = caller

        @property
        def after(self):
            if threading.get_ident() == self.caller:
                raise KeyboardInterrupt
            return None

        def run(self):
            pass

    outcomes = []

    def call():
        jobs = [Interrupted(threading.get_ident()), network._Job(lambda: None, after=0)]
        try:
            network._each(jobs)
            outcomes.append("done")      # the helper pulled the first job
        except KeyboardInterrupt:
            outcomes.append("interrupted")

    for _ in range(50):
        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive()
        if outcomes[-1] == "interrupted":
            break
    assert outcomes[-1] == "interrupted"


def test_failing_weight_gradient_in_a_helper_raises_in_caller(monkeypatch):
    # conv2's weight gradient fails on a helper while the caller runs the
    # pool1/conv1 tiles: the error reaches the caller, the tile in flight
    # finishes, no later tile and not conv1's weight gradient start
    monkeypatch.setattr(network, "STAGE_THREADS", 2)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=1)
    assert len(_tile_sizes(net, 40)) == 10
    rng = np.random.default_rng(9)
    x = rng.random((40, 28, 28, 1))
    emb, caches = net.forward(x)
    g = rng.standard_normal(emb.shape)
    conv1, pool1, conv2 = net.layers[:3]
    lock = threading.Lock()
    state = {"running": 0, "tiles": 0, "conv1_grads": 0, "raised": 0}
    error = RuntimeError("weight gradient failed")
    inner_tile, inner_grads = pool1.backward_tile, conv2.param_grads

    def pool1_tile(*args):
        with lock:
            state["running"] += 1
            state["tiles"] += 1
        try:
            time.sleep(0.005)
            return inner_tile(*args)
        finally:
            with lock:
                state["running"] -= 1

    def conv2_grads(cache, g_z):
        if threading.current_thread() is not threading.main_thread():
            state["raised"] += 1
            raise error
        return inner_grads(cache, g_z)

    def conv1_grads(cache, g_z):
        state["conv1_grads"] += 1
        raise AssertionError("conv1's weight gradient started after the failure")

    monkeypatch.setattr(pool1, "backward_tile", pool1_tile)
    monkeypatch.setattr(conv2, "param_grads", conv2_grads)
    monkeypatch.setattr(conv1, "param_grads", conv1_grads)
    for _ in range(40):       # the job runs on whichever thread pulls it
        state.update(tiles=0, conv1_grads=0)
        try:
            net.backward(caches, g)
        except RuntimeError as raised:
            assert raised is error
            break
        except AssertionError:
            pass    # the caller ran conv2's gradient and the run went on to conv1's
    assert state["raised"] == 1
    tiles = state["tiles"]
    assert state["running"] == 0
    time.sleep(0.05)
    assert state["tiles"] == tiles < 10 and state["conv1_grads"] == 0


# (columns of x, columns of g, batch rows): the weight-gradient GEMMs of
# mnist_cnn on 28x28x1 and 32x32x3 (conv1, conv2, dense), of mlp(32, 16) on
# 8-d points, and of a softmax head, at tile, batch and chunk sizes
WEIGHT_GRAD_SHAPES = (
    [(9, 32, rows) for rows in (4, 784, 784 * 16)]
    + [(27, 32, rows) for rows in (1024, 1024 * 16)]
    + [(288, 64, rows) for rows in (4, 196, 196 * 3, 196 * 128)]
    + [(288, 64, rows) for rows in (256, 256 * 64)]
    + [(3136, 128, rows) for rows in (1, 4, 128, 384)]
    + [(4096, 128, rows) for rows in (16, 128)]
    + [(8, 32, rows) for rows in (4, 64, 800)]
    + [(32, 16, rows) for rows in (4, 64, 800)]
    + [(cols, classes, rows) for cols, classes in ((128, 10), (16, 10), (16, 3))
       for rows in (4, 128, 512)]
    + [(64, 64, 100)]
)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_cols,g_cols,rows", WEIGHT_GRAD_SHAPES)
def test_weight_grad_keeps_the_bits_of_x_transposed_times_g(x_cols, g_cols, rows, dtype):
    rng = np.random.default_rng(x_cols * 7919 + g_cols * 31 + rows)
    x = rng.standard_normal((rows, x_cols)).astype(dtype)
    g = rng.standard_normal((rows, g_cols)).astype(dtype)
    got = network._weight_grad(x, g)
    assert got.dtype == x.dtype and got.flags.c_contiguous
    assert np.array_equal(got, x.T @ g)
