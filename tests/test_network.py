import tracemalloc

import numpy as np
import pytest

from localtriplet import network
from localtriplet.network import (
    Adam,
    EmbeddingNet,
    SoftmaxHead,
    conv2d,
    dense,
    flatten,
    load_checkpoint,
    maxpool2,
    mlp,
    mnist_cnn,
    save_checkpoint,
    softmax_head_loss,
)
from oracles import adam_step_reference, fd_gradient_at, rel_err, softmax_head_reference


def _sum_loss_net(net, x):
    """Scalar objective: sum of embeddings (gradient of ones)."""
    emb, caches = net.forward(x)
    grads = net.backward(caches, np.ones_like(emb))
    return float(np.sum(emb)), grads


def _fd_param_check(net, x, n_coords=40, h=1e-4, tol=1e-4, seed=0):
    """Spot-check parameter gradients of sum(embeddings) against FD."""
    _, grads = _sum_loss_net(net, x)
    rng = np.random.default_rng(seed)
    params = net.params
    for p, g in zip(params, grads):
        coords = rng.choice(p.size, size=min(n_coords, p.size), replace=False)
        for i in coords:
            orig = p.flat[i]
            p.flat[i] = orig + h
            up = float(np.sum(net.forward(x, want_cache=False)[0]))
            p.flat[i] = orig - h
            down = float(np.sum(net.forward(x, want_cache=False)[0]))
            p.flat[i] = orig
            ref = (up - down) / (2 * h)
            assert rel_err(g.flat[i], ref) <= tol, f"param shape {p.shape} coord {i}"


# ------------------------------------------------------------------ forward

def test_zero_weights_give_zero_embedding():
    net = EmbeddingNet((5,), mlp(4, 3), seed=0)
    net.set_params([np.zeros_like(p) for p in net.params])
    x = np.random.default_rng(0).standard_normal((6, 5))
    emb, _ = net.forward(x, want_cache=False)
    assert np.all(emb == 0.0)


def test_identity_dense_layer():
    net = EmbeddingNet((3,), [dense(3, activation="none")], seed=0)
    net.set_params([np.eye(3), np.zeros(3)])
    x = np.random.default_rng(1).standard_normal((4, 3))
    emb, _ = net.forward(x, want_cache=False)
    assert np.allclose(emb, x, atol=0, rtol=0)


def test_dense_matches_scalar_matmul_oracle():
    rng = np.random.default_rng(2)
    net = EmbeddingNet((7,), [dense(4, activation="none")], seed=3)
    x = rng.standard_normal((5, 7))
    emb, _ = net.forward(x, want_cache=False)
    w, b = net.params
    for i in range(5):
        for j in range(4):
            want = sum(float(x[i, m]) * float(w[m, j]) for m in range(7)) + float(b[j])
            assert abs(emb[i, j] - want) <= 1e-12 * max(abs(want), 1.0)


def test_leaky_relu_negative_slope():
    net = EmbeddingNet((2,), [dense(2, activation="leaky_relu")], seed=0)
    net.set_params([np.eye(2), np.zeros(2)])
    emb, _ = net.forward(np.array([[-10.0, 4.0]]), want_cache=False)
    assert emb[0, 0] == pytest.approx(-0.1)
    assert emb[0, 1] == pytest.approx(4.0)


def test_forward_determinism_same_seed():
    x = np.random.default_rng(5).standard_normal((3, 9))
    n1 = EmbeddingNet((9,), mlp(6, 4), seed=77)
    n2 = EmbeddingNet((9,), mlp(6, 4), seed=77)
    e1 = n1.embed(x)
    e2 = n2.embed(x)
    assert np.array_equal(e1, e2)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_embed_of_no_samples_is_empty(arch, dtype):
    if arch == "mlp":
        net = EmbeddingNet((9,), mlp(6, 4), seed=1, dtype=dtype)
    else:
        net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=1, dtype=dtype)
    got = net.embed(np.empty((0,) + net.input_shape))
    assert got.shape == (0, net.out_dim) and got.dtype == np.dtype(dtype)
    emb, _ = net.forward(np.empty((0,) + net.input_shape), want_cache=False)
    assert emb.shape == (0, net.out_dim)
    with pytest.raises(ValueError, match="shape_mismatch"):
        net.embed(np.empty((0, 5)))


# ------------------------------------------------------- construction checks

def test_shape_chain_rejected_at_construction():
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((5,), [conv2d(8)], seed=0)          # conv on flat input
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((8, 8, 1), [dense(4)], seed=0)      # dense on image input
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((7, 7, 1), [maxpool2()], seed=0)    # odd spatial dims
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((6,), [dense(4, in_dim=5)], seed=0)  # explicit in_dim wrong
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((8, 8, 2), [conv2d(4, in_channels=3)], seed=0)
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((8, 8, 1), [conv2d(4, filter_size=2)], seed=0)  # even filter
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((8, 8, 1), [conv2d(4)], seed=0)     # ends non-flat


def test_unknown_activation_rejected_when_built():
    with pytest.raises(ValueError, match="bad_activation: relu"):
        dense(2, activation="relu")
    with pytest.raises(ValueError, match="bad_activation: relu"):
        conv2d(4, activation="relu")


def test_conv_shape_chain_mnist():
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=0)
    assert net.out_dim == 128
    w_dense = net.params[-2]
    assert w_dense.shape == (7 * 7 * 64, 128)


# ----------------------------------------------------------------- backward

def test_zero_upstream_gradient_gives_zero_param_grads():
    net = EmbeddingNet((6,), mlp(5, 3), seed=1)
    x = np.random.default_rng(3).standard_normal((4, 6))
    emb, caches = net.forward(x)
    grads = net.backward(caches, np.zeros_like(emb))
    assert all(np.all(g == 0) for g in grads)


def test_single_dense_grad_is_outer_product():
    net = EmbeddingNet((3,), [dense(2, activation="none")], seed=2)
    x = np.random.default_rng(4).standard_normal((1, 3))
    emb, caches = net.forward(x)
    up = np.array([[2.0, -1.0]])
    grad_w, grad_b = net.backward(caches, up)
    assert np.allclose(grad_w, np.outer(x[0], up[0]))
    assert np.allclose(grad_b, up[0])


def test_stale_cache_rejected():
    net = EmbeddingNet((3,), mlp(2), seed=0)
    x = np.zeros((1, 3))
    emb, caches = net.forward(x, want_cache=False)
    with pytest.raises(ValueError, match="stale_cache"):
        net.backward(caches, np.ones((1, 2)))


def test_backward_of_caches_a_later_forward_reused_is_stale():
    rng = np.random.default_rng(5)
    net = EmbeddingNet((12, 12, 1), mnist_cnn(), seed=0)
    x = rng.random((6, 12, 12, 1))
    with net.reuse_buffers():
        emb, caches = net.forward(x)
        net.forward(x[:3])
        with pytest.raises(ValueError, match="stale_cache: a later forward"):
            net.backward(caches, np.ones_like(emb))
        # a forward without caches, as embed runs, reuses no buffer
        emb, caches = net.forward(x)
        net.embed(x)
        net.forward(x, want_cache=False)
        inside = net.backward(caches, np.ones_like(emb))
    # the last caches of a closed scope stay valid: no later forward reuses them
    after = net.backward(caches, np.ones_like(emb))
    emb, caches = net.forward(x)
    for got, want in zip(inside + after, 2 * net.backward(caches, np.ones_like(emb))):
        assert np.array_equal(got, want)


def test_growing_batches_drop_the_old_buffers_first(monkeypatch):
    # a batch of 24 images after one of 12 must not hold any 12-image buffer
    # beside the 24-image ones: its forward and backward peak no higher than
    # in a scope that starts at 24 images, give or take one tile's
    # temporaries (tiles of one image, on one thread)
    monkeypatch.setattr(network, "TILE_BYTES", 1)
    monkeypatch.setattr(network, "STAGE_THREADS", 1)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=0)
    rng = np.random.default_rng(1)
    x, g = rng.random((24, 28, 28, 1)), rng.standard_normal((24, 128))

    def peaks(sizes):
        """Traced peaks of the last batch's forward and backward above the
        memory traced before the scope, and the bytes the scope holds."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with net.reuse_buffers():
                for n in sizes:
                    tracemalloc.reset_peak()
                    emb, caches = net.forward(x[:n])
                    forward = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.reset_peak()
                    net.backward(caches, g[:n])
                    backward = tracemalloc.get_traced_memory()[1] - base
                    del emb, caches
                held = sum(a.nbytes for a in net._buffers.arrays.values())
        finally:
            tracemalloc.stop()
        return forward, backward, held

    grown, fresh = peaks([12, 24]), peaks([24])
    # the module docstring's whole-batch bytes per float64 image
    assert grown[2] == fresh[2] == 24 * 906_304
    tile = 2 * 8 * max(layer.image_elements for layer in net.layers[:net.stage])
    assert grown[0] <= fresh[0] + tile
    assert grown[1] <= fresh[1] + tile


def test_dense_stack_gradients_match_fd():
    rng = np.random.default_rng(6)
    net = EmbeddingNet((5,), mlp(6, 4), seed=11)
    x = rng.standard_normal((3, 5))
    _fd_param_check(net, x)


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(7)
    net = EmbeddingNet((6, 6, 2), [conv2d(3), flatten()], seed=12)
    x = rng.standard_normal((2, 6, 6, 2))
    _fd_param_check(net, x)


def test_conv_pool_gradients_match_fd():
    rng = np.random.default_rng(8)
    net = EmbeddingNet((8, 8, 1), [conv2d(4), maxpool2(), flatten(), dense(5)], seed=13)
    x = rng.standard_normal((2, 8, 8, 1))
    _fd_param_check(net, x)


def test_full_mnist_architecture_gradients_match_fd():
    rng = np.random.default_rng(9)
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=14)
    x = rng.standard_normal((2, 28, 28, 1)) * 0.5
    _fd_param_check(net, x, n_coords=12)


def test_input_gradient_through_pool_routes_to_argmax():
    net = EmbeddingNet((2, 2, 1), [maxpool2(), flatten()], seed=0)
    x = np.array([[[[1.0], [3.0]], [[2.0], [0.5]]]])
    emb, caches = net.forward(x)
    assert emb[0, 0] == 3.0
    # backward through flatten+pool: route to the max position only
    g = np.ones((1, 1))
    grads = net.backward(caches, g)
    assert grads == []


# ------------------------------------------------------------- softmax head

def test_softmax_uniform_logits_ln10():
    head = SoftmaxHead(4, 10, seed=0)
    head.w[...] = 0.0
    head.b[...] = 0.0
    emb = np.random.default_rng(10).standard_normal((6, 4))
    loss, _, _ = softmax_head_loss(emb, np.zeros(6, dtype=int), head)
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)


def test_softmax_confident_correct_logit_low_loss():
    head = SoftmaxHead(2, 2, seed=0)
    head.w[...] = np.array([[40.0, -40.0], [0.0, 0.0]])
    head.b[...] = 0.0
    emb = np.array([[1.0, 0.0]])
    loss, _, _ = softmax_head_loss(emb, np.array([0]), head)
    assert loss < 1e-10


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_softmax_head_matches_reference_bytes(dtype):
    rng = np.random.default_rng(16)
    emb = rng.standard_normal((9, 6)).astype(dtype)
    labels = rng.integers(0, 4, size=9)
    head = SoftmaxHead(6, 4, seed=17)
    w, b, loss, grad_emb, grads = softmax_head_reference(emb, labels, 4, seed=17)
    for got, want in ((head.w, w), (head.b, b)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got_loss, got_grad_emb, got_grads = softmax_head_loss(emb, labels, head)
    assert got_loss == loss
    for got, want in zip([got_grad_emb, *got_grads], [grad_emb, *grads], strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_softmax_label_out_of_range():
    head = SoftmaxHead(3, 2, seed=0)
    with pytest.raises(ValueError, match="label_out_of_range"):
        softmax_head_loss(np.zeros((1, 3)), np.array([2]), head)


def test_softmax_gradients_match_fd():
    rng = np.random.default_rng(11)
    head = SoftmaxHead(5, 3, seed=15)
    emb = rng.standard_normal((4, 5))
    labels = rng.integers(0, 3, size=4)
    loss, grad_emb, (grad_w, grad_b) = softmax_head_loss(emb, labels, head)

    def f_emb(flat):
        return softmax_head_loss(flat.reshape(4, 5), labels, head)[0]

    coords = range(emb.size)
    ref = fd_gradient_at(f_emb, emb.ravel(), coords, h=1e-5)
    for i in coords:
        assert rel_err(grad_emb.ravel()[i], ref[i]) <= 1e-5

    for arr, grad in ((head.w, grad_w), (head.b, grad_b)):
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + 1e-5
            up = softmax_head_loss(emb, labels, head)[0]
            arr.flat[i] = orig - 1e-5
            down = softmax_head_loss(emb, labels, head)[0]
            arr.flat[i] = orig
            assert rel_err(grad.flat[i], (up - down) / 2e-5) <= 1e-5


# -------------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, 2.0]), np.array([[3.0]])]
    opt = Adam(params, lr=0.1)
    opt.step(params, [np.zeros(2), np.zeros((1, 1))])
    assert opt.t == 1
    assert np.array_equal(params[0], [1.0, 2.0])
    assert np.array_equal(params[1], [[3.0]])


def test_adam_single_step_closed_form():
    g = np.array([0.3, -2.0, 0.0])
    params = [np.zeros(3)]
    opt = Adam(params, lr=0.01)
    opt.step(params, [g.copy()])
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params[0], expected, rtol=1e-12, atol=1e-18)


def test_adam_quadratic_bowl_losses_decrease():
    target = np.array([3.0, -2.0, 0.5])
    params = [np.zeros(3)]
    opt = Adam(params, lr=0.05)
    losses = []
    for _ in range(100):
        diff = params[0] - target
        losses.append(float(np.sum(diff * diff)))
        opt.step(params, [2.0 * diff])
    for i in range(5, 99):
        assert losses[i + 1] < losses[i]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_adam_steps_match_reference_bytes(dtype):
    # gradients spanning 1e-8 to 1e7 in magnitude, both signs, some zeros;
    # (300, 128) and (40000,) span several update blocks and end in a short one
    rng = np.random.default_rng(14)
    shapes = [(5, 7), (7,), (3, 3, 2), (300, 128), (40000,), ()]
    params = [rng.standard_normal(s).astype(dtype) for s in shapes]
    want = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    opt = Adam(params, lr=1e-3)
    for t in range(1, 21):
        grads = []
        for s in shapes:
            g = np.asarray(rng.standard_normal(s) * 10.0 ** rng.uniform(-8, 7, s))
            g.reshape(-1)[::5] = 0.0
            grads.append(g.astype(dtype))
        opt.step(params, grads)
        adam_step_reference(want, grads, m, v, t, lr=1e-3)
        for got, ref in zip(params + opt.m + opt.v, want + m + v, strict=True):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_adam_shape_mismatch():
    params = [np.zeros(3)]
    opt = Adam(params)
    with pytest.raises(ValueError, match="shape_mismatch"):
        opt.step(params, [np.zeros(4)])


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    net = EmbeddingNet((8, 8, 1), [conv2d(3), maxpool2(), flatten(), dense(6)], seed=21)
    x = rng.standard_normal((3, 8, 8, 1))
    before = net.embed(x)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net, extra={"note": "test"})
    loaded, extra = load_checkpoint(path)
    assert extra == {"note": "test"}
    assert all(np.array_equal(a, b) for a, b in zip(net.params, loaded.params))
    assert np.array_equal(before, loaded.embed(x))


def test_checkpoint_bad_version(tmp_path):
    import json
    path = tmp_path / "bad.npz"
    meta = {"format_version": 999, "input_shape": [2], "layers": [], "seed": 0}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    with pytest.raises(ValueError, match="bad_checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch, dtype):
    net = EmbeddingNet((28, 28, 1), mnist_cnn(), seed=21, dtype=dtype)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net, extra={"epoch": 3})

    def no_draws(*args, **kwargs):
        raise AssertionError("a load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded, extra = load_checkpoint(path)
    assert loaded.seed == 21 and loaded.dtype == net.dtype and extra == {"epoch": 3}
    assert [p.dtype for p in loaded.params] == [p.dtype for p in net.params]
    assert [p.tobytes() for p in loaded.params] == [p.tobytes() for p in net.params]
    # a loaded-then-resaved checkpoint is the same file
    again = tmp_path / "again.npz"
    save_checkpoint(again, loaded, extra=extra)
    assert again.read_bytes() == path.read_bytes()


def test_net_built_from_params_checks_them():
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((4,), mlp(3), params=[np.zeros((4, 3))])
    with pytest.raises(ValueError, match="shape_mismatch"):
        EmbeddingNet((4,), mlp(3), params=[np.zeros((3, 4)), np.zeros(3)])
    net = EmbeddingNet((4,), mlp(3), seed=7, params=[np.ones((4, 3)), np.full(3, 2.0)])
    assert net.seed == 7
    assert np.array_equal(net.embed(np.ones((1, 4))), [[6.0, 6.0, 6.0]])
