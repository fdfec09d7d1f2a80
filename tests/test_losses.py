import numpy as np
import pytest

from localtriplet import losses
from localtriplet.losses import (
    LossWeights,
    combined_loss,
    fixed_margin_loss,
    local_margin_loss,
)
from oracles import fd_gradient, hinge_triplet, rel_err


def _random_triplet(rng, dim=6, scale=2.0):
    return (rng.standard_normal(dim) * scale,
            rng.standard_normal(dim) * scale,
            rng.standard_normal(dim) * scale)


def _hinge_far_from_kink(xa, xp, xn, margin, safety=1e-2):
    arg = np.sum((xa - xp) ** 2) - np.sum((xa - xn) ** 2) + margin
    return abs(arg) > safety


# ----------------------------------------------------------- fixed margin

def test_fixed_margin_boundary_inactive():
    # D_ap = 0, D_an = m: hinge lands exactly at zero and is inactive
    xa = np.array([0.0, 0.0])
    xp = np.array([0.0, 0.0])
    xn = np.array([2.0, 0.0])
    res = fixed_margin_loss(xa, xp, xn, m=4.0)
    assert res.value == 0.0
    assert not res.active
    assert np.all(res.grad_a == 0) and np.all(res.grad_p == 0) and np.all(res.grad_n == 0)


def test_fixed_margin_coincident_active():
    xa = np.array([1.0, 1.0])
    res = fixed_margin_loss(xa, xa.copy(), xa.copy(), m=1.0)
    assert res.value == 1.0
    assert res.active


def test_fixed_margin_gradients_match_fd():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 40:
        xa, xp, xn = _random_triplet(rng)
        if not _hinge_far_from_kink(xa, xp, xn, 0.5):
            continue
        checked += 1
        res = fixed_margin_loss(xa, xp, xn, m=0.5)

        def f(vec, which):
            parts = {"a": xa, "p": xp, "n": xn}
            parts[which] = vec
            return fixed_margin_loss(parts["a"], parts["p"], parts["n"], m=0.5).value

        for which, grad in (("a", res.grad_a), ("p", res.grad_p), ("n", res.grad_n)):
            ref = fd_gradient(lambda v: f(v, which), {"a": xa, "p": xp, "n": xn}[which])
            assert np.max(np.abs(grad - ref)) <= 1e-6


def test_fixed_margin_dim_mismatch():
    with pytest.raises(ValueError, match="dim_mismatch"):
        fixed_margin_loss(np.zeros(2), np.zeros(3), np.zeros(2), 1.0)


# ------------------------------------------------------------ local margin

def test_local_margin_all_zero_distances():
    xa = np.zeros(3)
    res = local_margin_loss(xa, xa.copy(), xa.copy(), d_ak_pos=0.0, c_b=3.0, eps=1e-3)
    assert res.value == pytest.approx(1e-3)
    assert res.active


def test_local_margin_hand_arithmetic():
    # D_ap = 1, D_an = 10, margin = 3 * 2 + 0.1: max(0, 1 - 10 + 6.1) = 0
    xa = np.array([0.0])
    xp = np.array([1.0])
    xn = np.array([np.sqrt(10.0)])
    res = local_margin_loss(xa, xp, xn, d_ak_pos=2.0, c_b=3.0, eps=0.1)
    assert res.value == 0.0
    assert not res.active


def test_local_margin_negative_snapshot_distance_rejected():
    with pytest.raises(ValueError, match="negative_d_ak_pos"):
        local_margin_loss(np.zeros(2), np.zeros(2), np.zeros(2),
                          d_ak_pos=-0.5, c_b=3.0, eps=1e-3)


def test_local_margin_gradients_match_fd():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 40:
        xa, xp, xn = _random_triplet(rng)
        d_pos = float(rng.uniform(0.0, 2.0))
        if not _hinge_far_from_kink(xa, xp, xn, 3.0 * d_pos + 1e-3):
            continue
        checked += 1
        res = local_margin_loss(xa, xp, xn, d_pos, c_b=3.0, eps=1e-3)

        def f(vec, which):
            parts = {"a": xa, "p": xp, "n": xn}
            parts[which] = vec
            return local_margin_loss(parts["a"], parts["p"], parts["n"],
                                     d_pos, c_b=3.0, eps=1e-3).value

        for which, grad in (("a", res.grad_a), ("p", res.grad_p), ("n", res.grad_n)):
            ref = fd_gradient(lambda v: f(v, which), {"a": xa, "p": xp, "n": xn}[which])
            assert np.max(np.abs(grad - ref)) <= 1e-6


# ---------------------------------------------------------------- combined

def test_combined_degenerate_single_triplet_mu_s_only():
    w = LossWeights(w_lm=0.0, w_ms=1.0, w_md=0.0, w_ss=0.0, w_sd=0.0)
    x = np.zeros((1, 4))
    value, ga, gp, gn, stats, active = combined_loss(
        x, x.copy(), x.copy(), w, d_ak_pos=np.zeros(1))
    assert value == 0.0
    assert np.all(ga == 0) and np.all(gp == 0) and np.all(gn == 0)
    assert stats.mu_s == 0.0


def _fd_combined(xa, xp, xn, w, d_pos):
    """FD over every coordinate of the flattened (a, p, n) batch."""
    b, dim = xa.shape
    packed = np.concatenate([xa.ravel(), xp.ravel(), xn.ravel()])

    def f(flat):
        a = flat[:b * dim].reshape(b, dim)
        p = flat[b * dim:2 * b * dim].reshape(b, dim)
        n = flat[2 * b * dim:].reshape(b, dim)
        return combined_loss(a, p, n, w, d_ak_pos=d_pos)[0]

    return packed, fd_gradient(f, packed, h=1e-5)


@pytest.mark.parametrize("margin", ["local", "fixed"])
def test_combined_gradients_match_fd(margin):
    rng = np.random.default_rng(103)
    w = LossWeights(w_lm=10.0, w_ms=1.0, w_md=1.0, w_ss=0.5, w_sd=1.0,
                    c_b=3.0, eps=1e-3, fixed_margin_m=2.0)
    for _ in range(12):
        b, dim = 8, 4
        xa = rng.standard_normal((b, dim))
        xp = rng.standard_normal((b, dim))
        xn = rng.standard_normal((b, dim))
        d_pos = rng.uniform(0.0, 1.0, size=b) if margin == "local" else None
        margins = 3.0 * d_pos + 1e-3 if margin == "local" else np.full(b, 2.0)
        args = (np.sum((xa - xp) ** 2, 1) - np.sum((xa - xn) ** 2, 1) + margins)
        if np.any(np.abs(args) < 1e-2):
            continue
        value, ga, gp, gn, _, _ = combined_loss(xa, xp, xn, w, d_ak_pos=d_pos)
        packed, ref = _fd_combined(xa, xp, xn, w, d_pos)
        got = np.concatenate([ga.ravel(), gp.ravel(), gn.ravel()])
        assert rel_err(got, ref) <= 1e-5


def test_combined_reference_weights_gradients():
    # the heavy-hinge configuration used for digit-image training
    rng = np.random.default_rng(104)
    w = LossWeights(w_lm=1000.0, w_ms=1.0, w_md=1.0, w_ss=0.0, w_sd=1.0)
    b, dim = 6, 5
    xa = rng.standard_normal((b, dim))
    xp = rng.standard_normal((b, dim))
    xn = rng.standard_normal((b, dim))
    d_pos = rng.uniform(0.1, 1.5, size=b)
    value, ga, gp, gn, _, _ = combined_loss(xa, xp, xn, w, d_ak_pos=d_pos)
    packed, ref = _fd_combined(xa, xp, xn, w, d_pos)
    got = np.concatenate([ga.ravel(), gp.ravel(), gn.ravel()])
    assert rel_err(got, ref) <= 1e-5


def test_combined_value_can_be_negative():
    w = LossWeights(w_lm=1.0, w_ms=0.0, w_md=1.0, w_ss=0.0, w_sd=0.0,
                    fixed_margin_m=0.1)
    xa = np.zeros((1, 2))
    xp = np.zeros((1, 2))
    xn = np.array([[10.0, 0.0]])
    value, *_ = combined_loss(xa, xp, xn, w)
    assert value < 0.0


def test_combined_empty_batch_rejected():
    w = LossWeights()
    with pytest.raises(ValueError, match="empty_batch"):
        combined_loss(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), w,
                      d_ak_pos=np.empty(0))


def test_combined_margin_is_local_given_d_ak_pos_else_fixed():
    # without d_ak_pos every hinge takes fixed_margin_m, with it c_b * d_ak_pos
    # + eps: the same values and gradients, bit for bit, as the batch loss
    # given those margins
    rng = np.random.default_rng(105)
    w = LossWeights(w_lm=10.0, w_ms=1.0, w_md=1.0, w_ss=0.5, w_sd=1.0,
                    c_b=3.0, eps=1e-3, fixed_margin_m=2.0)
    xa, xp, xn = (rng.standard_normal((16, 4)) for _ in range(3))
    d_pos = rng.uniform(0.0, 1.0, size=16)
    fixed = combined_loss(xa, xp, xn, w)
    local = combined_loss(xa, xp, xn, w, d_ak_pos=d_pos)
    for got, margins in ((fixed, np.full(16, 2.0)), (local, 3.0 * d_pos + 1e-3)):
        want = losses._batch_loss(xa, xp, xn, margins, w)
        assert got[0] == want[0] and got[4] == want[4]
        for g, e in zip(got[1:4] + got[5:], want[1:4] + want[5:]):
            assert np.array_equal(g, e)
    # the two margins leave different hinges active here
    assert not np.array_equal(fixed[5], local[5])


# ------------------------------------------- per-triplet hinges vs oracle

def test_per_triplet_hinges_match_the_scalar_hinge():
    # the per-triplet losses are one-triplet calls of the batch loss; the
    # oracle is the stand-alone hinge. Copied points give zero distances,
    # and equal distances with a zero margin put the hinge on its kink,
    # next to plainly active and inactive hinges.
    rng = np.random.default_rng(110)
    seen = {"active": 0, "inactive": 0, "zero_distance": 0, "kink": 0}
    for _ in range(3000):
        dim = int(rng.integers(1, 12))
        xa, xp, xn = (np.round(rng.standard_normal(dim) * 2.0, 1) for _ in range(3))
        if rng.random() < 0.2:
            xp = xa.copy()
        if rng.random() < 0.2:
            xn = xa.copy()
        if rng.random() < 0.2:
            xn = xp.copy()
        if rng.random() < 0.5:
            m = float(np.round(rng.uniform(0.0, 8.0), 1)) if rng.random() < 0.5 else 0.0
            seen["kink"] += m == 0.0 and np.array_equal(xp, xn)
            res, ref = fixed_margin_loss(xa, xp, xn, m), hinge_triplet(xa, xp, xn, m)
        else:
            d_pos, c_b, eps = float(rng.uniform(0.0, 2.0)), 3.0, 1e-3
            res = local_margin_loss(xa, xp, xn, d_pos, c_b, eps)
            ref = hinge_triplet(xa, xp, xn, c_b * d_pos + eps)
        value, grad_a, grad_p, grad_n, active = ref
        assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
        assert res.active is active
        for got, want in zip((res.grad_a, res.grad_p, res.grad_n), (grad_a, grad_p, grad_n)):
            assert got.shape == want.shape and np.array_equal(got, want)
        seen["active" if active else "inactive"] += 1
        seen["zero_distance"] += not (np.any(xp != xa) and np.any(xn != xa))
    assert min(seen.values()) > 50, seen


# --------------------------------------------------------------- invariants

def test_hinge_values_never_negative():
    rng = np.random.default_rng(105)
    for _ in range(200):
        xa, xp, xn = _random_triplet(rng)
        assert fixed_margin_loss(xa, xp, xn, m=rng.uniform(0, 3)).value >= 0.0
        assert local_margin_loss(xa, xp, xn, rng.uniform(0, 2), 3.0, 1e-3).value >= 0.0


def test_translation_invariance():
    rng = np.random.default_rng(106)
    w = LossWeights(w_lm=7.0, w_ss=0.3)
    for _ in range(20):
        xa = rng.standard_normal((4, 3))
        xp = rng.standard_normal((4, 3))
        xn = rng.standard_normal((4, 3))
        d_pos = rng.uniform(0, 1, size=4)
        shift = rng.standard_normal(3) * 10
        v1, *_ = combined_loss(xa, xp, xn, w, d_ak_pos=d_pos)
        v2, *_ = combined_loss(xa + shift, xp + shift, xn + shift, w, d_ak_pos=d_pos)
        assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-9)


def test_scale_covariance_of_hinge_argument():
    # scaling inputs by s scales D by s^2 and a retaken snapshot distance by s
    rng = np.random.default_rng(107)
    for _ in range(50):
        xa, xp, xn = _random_triplet(rng)
        d_pos = float(rng.uniform(0.1, 2.0))
        s = float(rng.uniform(0.2, 5.0))
        c_b, eps = 3.0, 1e-3
        d_ap = np.sum((xa - xp) ** 2)
        d_an = np.sum((xa - xn) ** 2)
        expected = s * s * (d_ap - d_an) + c_b * (s * d_pos) + eps
        scaled = local_margin_loss(s * xa, s * xp, s * xn, s * d_pos, c_b, eps)
        arg = np.sum((s * xa - s * xp) ** 2) - np.sum((s * xa - s * xn) ** 2) \
            + c_b * s * d_pos + eps
        assert arg == pytest.approx(expected, rel=1e-9)
        assert scaled.value == pytest.approx(max(0.0, arg), rel=1e-9, abs=1e-12)


def test_inactive_hinge_flat_under_negative_perturbation():
    xa = np.array([0.0, 0.0])
    xp = np.array([1.0, 0.0])
    xn = np.array([10.0, 0.0])
    res = fixed_margin_loss(xa, xp, xn, m=1.0)
    assert not res.active
    rng = np.random.default_rng(108)
    for _ in range(20):
        step = rng.standard_normal(2) * 0.01
        moved = fixed_margin_loss(xa, xp, xn + step, m=1.0)
        assert moved.value == 0.0


def test_sd_term_literal_reading_constant():
    rng = np.random.default_rng(109)
    w = LossWeights(w_lm=0.0, w_ms=0.0, w_md=0.0, w_ss=0.5, w_sd=2.0)
    xa = rng.standard_normal((5, 3))
    xp = rng.standard_normal((5, 3))
    xn = rng.standard_normal((5, 3))
    value_default, *_ = combined_loss(xa, xp, xn, w)
    _, _, _, _, stats, _ = combined_loss(xa, xp, xn, w)
    assert value_default == pytest.approx(0.5 * stats.var_s + 2.0 * stats.var_d)


def test_loss_weights_validation():
    with pytest.raises(ValueError, match="c_b_too_small"):
        LossWeights(c_b=2.0)
    with pytest.raises(ValueError, match="bad_eps"):
        LossWeights(eps=0.0)
    with pytest.raises(ValueError, match="bad_weight"):
        LossWeights(w_lm=-1.0)
