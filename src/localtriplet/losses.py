"""Triplet losses and their analytic gradients.

Three losses are provided:

* ``fixed_margin_loss``: hinge on squared distances with a constant margin.
* ``local_margin_loss``: hinge whose margin is c_b * d_ak_pos + eps, where
  d_ak_pos is the anchor's (Euclidean) distance to its kth nearest
  same-class neighbor, frozen at epoch start. No gradient flows through
  d_ak_pos. The margin mixes a squared-distance hinge with an unsquared
  neighborhood radius by design; see the README notes.
* ``combined_loss``: weighted hinge sum plus mean/variance regularizers of
  the batch's same-class and different-class squared distances.

Gradients are with respect to the three embedding vectors; parameter
gradients are obtained by backpropagating these through the network.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathops import mean_and_var


@dataclass(frozen=True)
class LossWeights:
    """Weights and constants for the combined loss.

    Defaults follow the reference digit-image configuration: heavy hinge
    weight, unit mean regularizers, no same-class variance term.

    w_sd weighs the variance of the different-class distances. The source
    display arguably reads that term as the same-class variance twice;
    sd_term_uses_different_class_variance=False reproduces that literal
    reading for A/B comparisons.
    """

    w_lm: float = 1000.0
    w_ms: float = 1.0
    w_md: float = 1.0
    w_ss: float = 0.0
    w_sd: float = 1.0
    c_b: float = 3.0
    eps: float = 1e-3
    fixed_margin_m: float = 1_000_000.0
    sd_term_uses_different_class_variance: bool = True

    def __post_init__(self):
        for name in ("w_lm", "w_ms", "w_md", "w_ss", "w_sd", "fixed_margin_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"bad_weight: {name} must be >= 0")
        if self.c_b < 3.0:
            raise ValueError(f"c_b_too_small: {self.c_b} < 3")
        if self.eps <= 0.0:
            raise ValueError(f"bad_eps: {self.eps} must be > 0")


@dataclass(frozen=True)
class TripletLossResult:
    value: float
    grad_a: np.ndarray
    grad_p: np.ndarray
    grad_n: np.ndarray
    active: bool


@dataclass(frozen=True)
class BatchStats:
    """Batch moments of the squared distances: mu_s = E[D_ap], mu_d = E[D_an]."""

    mu_s: float
    mu_d: float
    var_s: float
    var_d: float


def _check_triplet_dims(xa, xp, xn):
    xa = np.asarray(xa, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    xn = np.asarray(xn, dtype=np.float64)
    if not (xa.shape == xp.shape == xn.shape):
        raise ValueError(f"dim_mismatch: {xa.shape}, {xp.shape}, {xn.shape}")
    return xa, xp, xn


def _hinge_triplet(xa, xp, xn, margin: float) -> TripletLossResult:
    diff_p = xa - xp
    diff_n = xa - xn
    d_ap = float(np.sum(diff_p * diff_p))
    d_an = float(np.sum(diff_n * diff_n))
    arg = d_ap - d_an + margin
    if arg > 0.0:
        return TripletLossResult(
            value=arg,
            grad_a=2.0 * (diff_p - diff_n),
            grad_p=-2.0 * diff_p,
            grad_n=2.0 * diff_n,
            active=True,
        )
    zero = np.zeros_like(xa)
    return TripletLossResult(0.0, zero, zero.copy(), zero.copy(), False)


def fixed_margin_loss(xa, xp, xn, m: float) -> TripletLossResult:
    """max(0, D_ap - D_an + m) on squared distances, constant margin m."""
    xa, xp, xn = _check_triplet_dims(xa, xp, xn)
    return _hinge_triplet(xa, xp, xn, float(m))


def local_margin_loss(
    xa, xp, xn, d_ak_pos: float, c_b: float, eps: float
) -> TripletLossResult:
    """max(0, D_ap - D_an + c_b * d_ak_pos + eps).

    d_ak_pos comes from the current epoch's snapshot and is treated as a
    constant: the margin contributes no gradient.
    """
    xa, xp, xn = _check_triplet_dims(xa, xp, xn)
    if d_ak_pos < 0.0 or not np.isfinite(d_ak_pos):
        raise ValueError(f"negative_d_ak_pos: {d_ak_pos}")
    return _hinge_triplet(xa, xp, xn, float(c_b) * float(d_ak_pos) + float(eps))


def combined_loss(
    xa: np.ndarray,
    xp: np.ndarray,
    xn: np.ndarray,
    weights: LossWeights,
    d_ak_pos: np.ndarray | None = None,
    margin: str = "local",
):
    """Batch loss: w_lm * sum(hinge) + w_ms*mu_s - w_md*mu_d + w_ss*var_s + w_sd*var_d.

    Hinges use the local margin (requires per-anchor ``d_ak_pos``) or the
    fixed margin from ``weights``. Moments are taken over this batch's
    squared distances. Returns
    (value, grad_a, grad_p, grad_n, BatchStats, active_mask); the value
    can be negative through the -w_md*mu_d term. Gradients are per
    triplet role; callers accumulate them per unique sample.
    """
    xa = np.asarray(xa, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    xn = np.asarray(xn, dtype=np.float64)
    if xa.ndim != 2 or xa.shape[0] == 0:
        raise ValueError("empty_batch: need at least one triplet")
    if not (xa.shape == xp.shape == xn.shape):
        raise ValueError(f"dim_mismatch: {xa.shape}, {xp.shape}, {xn.shape}")
    b = xa.shape[0]

    if margin == "local":
        if d_ak_pos is None:
            raise ValueError("missing_d_ak_pos: local margin requires snapshot distances")
        d_ak_pos = np.asarray(d_ak_pos, dtype=np.float64)
        if d_ak_pos.shape != (b,):
            raise ValueError(f"dim_mismatch: d_ak_pos {d_ak_pos.shape} vs batch {b}")
        if np.any(d_ak_pos < 0.0) or not np.all(np.isfinite(d_ak_pos)):
            raise ValueError("negative_d_ak_pos: snapshot distances must be finite and >= 0")
        margins = weights.c_b * d_ak_pos + weights.eps
    elif margin == "fixed":
        margins = np.full(b, weights.fixed_margin_m)
    else:
        raise ValueError(f"bad_margin_kind: {margin}")

    diff_p = xa - xp
    diff_n = xa - xn
    d_ap = np.sum(diff_p * diff_p, axis=1)
    d_an = np.sum(diff_n * diff_n, axis=1)

    hinge_arg = d_ap - d_an + margins
    active = hinge_arg > 0.0
    hinge_sum = float(np.sum(hinge_arg[active]))

    mu_s, var_s = mean_and_var(d_ap)
    mu_d, var_d = mean_and_var(d_an)
    stats = BatchStats(mu_s=mu_s, mu_d=mu_d, var_s=var_s, var_d=var_d)

    w = weights
    var_s_w, var_d_w = (w.w_ss, w.w_sd)
    if not w.sd_term_uses_different_class_variance:
        var_s_w, var_d_w = (w.w_ss + w.w_sd, 0.0)
    value = (
        w.w_lm * hinge_sum
        + w.w_ms * mu_s
        - w.w_md * mu_d
        + var_s_w * var_s
        + var_d_w * var_d
    )

    # dL/dD_ap and dL/dD_an per triplet: hinge indicator plus the
    # mean/variance chain (d var / d D_i = 2/B * (D_i - mu)).
    coef_p = w.w_lm * active + w.w_ms / b + var_s_w * (2.0 / b) * (d_ap - mu_s)
    coef_n = -w.w_lm * active - w.w_md / b + var_d_w * (2.0 / b) * (d_an - mu_d)

    grad_a = 2.0 * (coef_p[:, None] * diff_p + coef_n[:, None] * diff_n)
    grad_p = -2.0 * coef_p[:, None] * diff_p
    grad_n = -2.0 * coef_n[:, None] * diff_n
    return float(value), grad_a, grad_p, grad_n, stats, active
