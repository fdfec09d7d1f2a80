"""The network's conv, pool and activation kernels against the reference
kernels in oracles.py: forward outputs, caches and every gradient must be
equal, not merely close."""
import numpy as np
import pytest

from localtriplet import network
from localtriplet.network import (
    EmbeddingNet,
    _activation_backward,
    conv2d,
    dense,
    flatten,
    maxpool2,
    mnist_cnn,
)
from oracles import (
    conv2d_backward_reference,
    conv2d_reference,
    leaky_relu_backward_by_mask,
    maxpool2_backward_reference,
    maxpool2_by_argmax,
)

DTYPES = ("float64", "float32")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("activation", ["leaky_relu", "none"])
@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("f", [1, 3, 5])
@pytest.mark.parametrize("rounded", [False, True])
def test_conv2d_matches_reference(f, cin, activation, dtype, rounded):
    rng = np.random.default_rng(100 * f + 10 * cin + rounded)
    net = EmbeddingNet((6, 8, cin), [conv2d(4, f, activation=activation), flatten()],
                       seed=f + cin, dtype=dtype)
    layer = net.layers[0]
    x = rng.standard_normal((3, 6, 8, cin))
    b = rng.standard_normal(4)
    if rounded:
        # dyadic inputs and weights, zero bias: many pre-activations are exactly 0
        x = np.round(2 * x) / 2
        layer.w[...] = np.round(4 * layer.w) / 4
        b[:] = 0.0
    x = x.astype(dtype)
    layer.b[...] = b
    y, cache = layer.forward(x, want_cache=True)
    want_y, want_z, want_cols = conv2d_reference(x, layer.w, layer.b, f, activation)
    assert y.dtype == want_y.dtype and np.array_equal(y, want_y)
    cols, zc = cache
    assert np.array_equal(cols, want_cols)
    assert (zc is None) == (want_z is None)
    assert zc is None or np.array_equal(zc, want_z > 0)
    assert np.array_equal(layer.forward(x, want_cache=False)[0], want_y)

    g = rng.standard_normal(y.shape).astype(dtype)
    if rounded:
        g[0] = 1.0
    g_in, grads = layer.backward(cache, g)
    want_g_in, want_grads = conv2d_backward_reference(want_cols, want_z, layer.w, g, f,
                                                      (6, 8, cin))
    assert g_in.dtype == want_g_in.dtype and np.array_equal(g_in, want_g_in)
    for got, want in zip(grads, want_grads, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    none, first_grads = layer.backward(cache, g, input_grad=False)
    assert none is None
    for got, want in zip(first_grads, want_grads, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_leaky_relu_backward_matches_mask_multiply(dtype):
    z = np.array([[0.0, -0.0, 1e-30, -1e-30, np.inf, -np.inf, np.nan, 2.5, -2.5],
                  [3.0, -3.0, 0.0, 1.0, -1.0, 0.0, -0.0, 7.0, -7.0]], dtype=dtype)
    g = np.array([[1.5, -2.0, 3.0, np.inf, -0.0, 0.0, 1e-3, -7.0, np.nan],
                  [-0.0, 2.0, -np.inf, 4.0, 5.0, 0.0, 6.0, 1e-30, -1e-30]], dtype=dtype)
    g = np.concatenate([g, np.random.default_rng(1).standard_normal((50, 9)).astype(dtype)])
    z = np.concatenate([z, np.random.default_rng(2).standard_normal((50, 9)).astype(dtype)])
    got = _activation_backward(g, z > 0.0)
    want = leaky_relu_backward_by_mask(g, z)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert _activation_backward(g, None) is g


@pytest.mark.parametrize("dtype", DTYPES)
def test_dense_caches_its_mask_and_backward_matches_mask_multiply(dtype):
    rng = np.random.default_rng(9)
    net = EmbeddingNet((6,), [dense(5)], seed=2, dtype=dtype)
    layer = net.layers[0]
    # dyadic inputs and weights, and a zero sample: some pre-activations are exactly 0
    layer.w[...] = np.round(4 * layer.w) / 4
    x = (np.round(2 * rng.standard_normal((7, 6))) / 2).astype(dtype)
    x[0] = 0.0
    z = x @ layer.w + layer.b
    y, (cached_x, mask) = layer.forward(x, want_cache=True)
    assert (z == 0).any() and (z > 0).any()
    assert mask.dtype == np.bool_ and np.array_equal(mask, z > 0)
    assert cached_x is x and np.array_equal(y, np.maximum(np.multiply(z, 0.01), z))
    g = rng.standard_normal(y.shape).astype(dtype)
    g_in, (grad_w, grad_b) = layer.backward((cached_x, mask), g)
    g_z = leaky_relu_backward_by_mask(g, z)
    for got, want in ((g_in, g_z @ layer.w.T), (grad_w, x.T @ g_z), (grad_b, g_z.sum(axis=0))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _pool_inputs(dtype):
    rng = np.random.default_rng(7)
    rounded = np.round(rng.standard_normal((3, 8, 6, 5)), 1)       # ties in most windows
    coarse = rng.integers(-1, 2, size=(2, 4, 4, 3)).astype(float)  # ties almost everywhere
    equal = np.full((2, 4, 6, 2), -1.5)                              # all-equal windows
    zeros = np.zeros((1, 4, 4, 2))                                   # mixed 0.0 and -0.0
    zeros[0, 0::2, 1::2] = -0.0
    zeros[0, 1::2, :, 1] = -0.0
    zeros[0, 2:, 2:, 0] = -1.0
    return [a.astype(dtype) for a in (rounded, coarse, equal, zeros)]


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool2_matches_argmax_reference(dtype):
    for case, x in enumerate(_pool_inputs(dtype)):
        net = EmbeddingNet(x.shape[1:], [maxpool2(), flatten()], seed=0, dtype=dtype)
        layer = net.layers[0]
        y, cache = layer.forward(x, want_cache=True)
        want_y, want_arg = maxpool2_by_argmax(x)
        assert y.dtype == want_y.dtype and np.array_equal(y, want_y), case
        assert np.array_equal(cache, want_arg), case
        assert np.array_equal(layer.forward(x, want_cache=False)[0], want_y), case
        g = np.random.default_rng(case).standard_normal(y.shape).astype(dtype)
        g_in, grads = layer.backward(cache, g)
        assert grads == []
        assert np.array_equal(g_in, maxpool2_backward_reference(want_arg, g)), case


def test_pool_backward_routes_to_first_max_in_row_major_order():
    net = EmbeddingNet((2, 8, 1), [maxpool2(), flatten()], seed=0)
    pool = net.layers[0]
    # four 2x2 windows side by side: a tie between (0,1) and (1,0), a tie
    # between (1,0) and (1,1), an all-equal window, and -0.0 tied with 0.0
    x = np.array([[[2.0, 5.0, 1.0, 0.0, 4.0, 4.0, -0.0, 0.0],
                   [5.0, 1.0, 3.0, 3.0, 4.0, 4.0, 0.0, -1.0]]]).reshape(1, 2, 8, 1)
    y, cache = pool.forward(x, want_cache=True)
    assert y.ravel().tolist() == [5.0, 3.0, 4.0, 0.0]
    g_in, _ = pool.backward(cache, np.array([10.0, 20.0, 30.0, 40.0]).reshape(1, 1, 4, 1))
    want = np.array([[0.0, 10.0, 0.0, 0.0, 30.0, 0.0, 40.0, 0.0],
                     [0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(g_in.reshape(2, 8), want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_network_backward_skips_only_the_input_gradient(dtype):
    rng = np.random.default_rng(3)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=5, dtype=dtype)
    x = rng.random((3, 28, 28, 1)).astype(dtype)
    emb, caches = net.forward(x)
    g = rng.standard_normal(emb.shape).astype(dtype)
    grads = net.backward(caches, g)
    # the same chain with every layer asked for its input gradient
    want = []
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        g, layer_grads = layer.backward(cache, g)
        want = layer_grads + want
    assert g.shape == x.shape
    for got, ref in zip(grads, want, strict=True):
        assert np.array_equal(got, ref)


# --------------------------------------------------------- image-stage tiles
# The conv/pool layers run their batch in tiles of a few images. Each test
# shrinks network.TILE_BYTES so that its batch spans several tiles and ends
# in a shorter one, asserts that tile plan, and compares the tiled result
# with the whole-batch oracles.

def _tile_images(monkeypatch, layers, images, dtype):
    """Make tiles of `images` images for this stage and dtype."""
    largest = max(layer.image_elements for layer in layers)
    monkeypatch.setattr(network, "TILE_BYTES", images * np.dtype(dtype).itemsize * largest)


def _tile_sizes(layers, n, dtype):
    return [hi - lo for lo, hi in network._tiles(layers, n, np.dtype(dtype).itemsize)]


def _reference_pass(net, x, g):
    """Whole-batch forward and backward of net, the conv and pool layers by
    the oracle kernels (flatten and dense are not tiled and run as
    themselves): (embeddings, per-layer caches, parameter gradients)."""
    caches = []
    for layer in net.layers:
        if layer.spec.kind == "conv2d":
            x, z, cols = conv2d_reference(x, layer.w, layer.b, layer.f, layer.spec.activation)
            caches.append((cols, z))
        elif layer.spec.kind == "maxpool2":
            x, arg = maxpool2_by_argmax(x)
            caches.append(arg)
        else:
            x, cache = layer.forward(x, want_cache=True)
            caches.append(cache)
    grads = []
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        if layer.spec.kind == "conv2d":
            g, layer_grads = conv2d_backward_reference(*cache, layer.w, g, layer.f, layer.in_shape)
        elif layer.spec.kind == "maxpool2":
            g, layer_grads = maxpool2_backward_reference(cache, g), []
        else:
            g, layer_grads = layer.backward(cache, g)
        grads = layer_grads + grads
    return x, caches, grads


def _assert_net_matches_reference(net, x, g):
    emb, caches = net.forward(x)
    want_emb, want_caches, want_grads = _reference_pass(net, x, g)
    assert emb.dtype == want_emb.dtype and np.array_equal(emb, want_emb)
    for layer, got, want in zip(net.layers, caches, want_caches):
        if layer.spec.kind == "conv2d":
            assert np.array_equal(got[0], want[0])
            assert (got[1] is None) == (want[1] is None)
            assert got[1] is None or np.array_equal(got[1], want[1] > 0)
        elif layer.spec.kind == "maxpool2":
            assert np.array_equal(got, want)
    for got, want in zip(net.backward(caches, g), want_grads, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("activation", ["leaky_relu", "none"])
@pytest.mark.parametrize("f", [1, 3, 5])
def test_tiled_conv2d_matches_reference(f, activation, dtype, monkeypatch):
    rng = np.random.default_rng(10 * f + (activation == "none"))
    net = EmbeddingNet((6, 8, 3), [conv2d(8, f, activation=activation), flatten()],
                       seed=f, dtype=dtype)
    layer = net.layers[0]
    layer.b[...] = rng.standard_normal(8)
    _tile_images(monkeypatch, [layer], 3, dtype)
    assert _tile_sizes([layer], 11, dtype) == [3, 3, 3, 2]
    x = rng.standard_normal((11, 6, 8, 3)).astype(dtype)
    y, (cols, zc) = layer.forward(x, want_cache=True)
    want_y, want_z, want_cols = conv2d_reference(x, layer.w, layer.b, f, activation)
    assert y.dtype == want_y.dtype and np.array_equal(y, want_y)
    assert np.array_equal(cols, want_cols)
    assert (zc is None) == (want_z is None)
    assert zc is None or np.array_equal(zc, want_z > 0)
    assert np.array_equal(layer.forward(x, want_cache=False)[0], want_y)

    g = rng.standard_normal(y.shape).astype(dtype)
    g_in, grads = layer.backward((cols, zc), g)
    want_g_in, want_grads = conv2d_backward_reference(cols, want_z, layer.w, g, f, (6, 8, 3))
    assert g_in.dtype == want_g_in.dtype and np.array_equal(g_in, want_g_in)
    for got, want in zip(grads, want_grads, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    none, first_grads = layer.backward((cols, zc), g, input_grad=False)
    assert none is None
    for got, want in zip(first_grads, want_grads, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_tiled_maxpool2_matches_argmax_reference(dtype, monkeypatch):
    rng = np.random.default_rng(8)
    x = np.round(rng.standard_normal((11, 8, 6, 5)), 1)   # ties in most windows
    x[2:4] = rng.integers(-1, 2, size=(2, 8, 6, 5))       # ties almost everywhere
    x[5] = -1.5                                            # all-equal windows
    x[7] = 0.0
    x[7, 0::2, 1::2] = -0.0                                # 0.0 tied with -0.0
    x = x.astype(dtype)
    layer = EmbeddingNet(x.shape[1:], [maxpool2(), flatten()], seed=0, dtype=dtype).layers[0]
    _tile_images(monkeypatch, [layer], 3, dtype)
    assert _tile_sizes([layer], 11, dtype) == [3, 3, 3, 2]
    y, arg = layer.forward(x, want_cache=True)
    want_y, want_arg = maxpool2_by_argmax(x)
    assert y.dtype == want_y.dtype and np.array_equal(y, want_y)
    assert np.array_equal(arg, want_arg)
    assert np.array_equal(layer.forward(x, want_cache=False)[0], want_y)
    g = rng.standard_normal(y.shape).astype(dtype)
    g_in, grads = layer.backward(arg, g)
    assert grads == []
    assert np.array_equal(g_in, maxpool2_backward_reference(want_arg, g))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("images", [None, 3])
def test_tiled_mnist_cnn_matches_reference(images, dtype, monkeypatch):
    rng = np.random.default_rng(11)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=4, dtype=dtype)
    stage = net.layers[:net.stage]
    assert [layer.spec.kind for layer in stage] == ["conv2d", "maxpool2"] * 2
    if images:
        _tile_images(monkeypatch, stage, images, dtype)
    sizes = _tile_sizes(stage, 130, dtype)
    assert len(sizes) > 2 and sizes[-1] < sizes[0] and set(sizes[:-1]) == {sizes[0]}
    x = rng.random((130, 28, 28, 1)).astype(dtype)
    g = rng.standard_normal((130, net.out_dim)).astype(dtype)
    _assert_net_matches_reference(net, x, g)


@pytest.mark.parametrize("dtype", DTYPES)
def test_tiled_embed_across_chunks_matches_reference(dtype, monkeypatch):
    rng = np.random.default_rng(12)
    net = EmbeddingNet((12, 12, 1), mnist_cnn(), seed=6, dtype=dtype)
    stage = net.layers[:net.stage]
    _tile_images(monkeypatch, stage, 5, dtype)
    assert _tile_sizes(stage, 512, dtype)[-2:] == [5, 2]
    x = rng.random((1030, 12, 12, 1)).astype(dtype)
    # embed runs the dense layer on 512-row chunks; so does the reference
    want = [_reference_pass(net, x[lo:lo + 512], np.zeros((1, net.out_dim)))[0]
            for lo in (0, 512, 1024)]
    got = net.embed(x)
    assert got.dtype == np.dtype(dtype) and np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("dtype", DTYPES)
def test_tiles_of_1x1_images_keep_4_gemm_rows(dtype, monkeypatch):
    # one GEMM row per image: a 1-image tile would be a 1-row GEMM, whose
    # BLAS path gives other bits, so the 1-image tail joins the tile before
    rng = np.random.default_rng(13)
    net = EmbeddingNet((1, 1, 5), [conv2d(8), flatten(), dense(3)], seed=7, dtype=dtype)
    stage = net.layers[:net.stage]
    monkeypatch.setattr(network, "TILE_BYTES", 1)
    assert _tile_sizes(stage, 13, dtype) == [4, 4, 5]
    assert _tile_sizes(stage, 3, dtype) == [3]
    x = rng.standard_normal((13, 1, 1, 5)).astype(dtype)
    g = rng.standard_normal((13, 3)).astype(dtype)
    _assert_net_matches_reference(net, x, g)
