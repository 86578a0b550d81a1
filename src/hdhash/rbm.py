"""Binary RBM head with balance/decorrelation penalties and CD training.

The model over binary visible v and hidden h has energy

    E(v, h) = -vis_bias . v - hid_bias . h - h . (w @ v)

with joint probability exp(-E) / Z. Conditionals factorize into sigmoids.
Training combines a contrastive-divergence estimate of the negative
log-likelihood gradient (r Gibbs steps from the data) with exact analytic
gradients of the autoencoder's balance and decorrelation penalty (sae.py),
applied to the thresholded hidden map in place of the layer outputs. The
threshold is smoothed during training by f(x) = (tanh(beta * x) + 1) / 2,
which approaches the 0/1 step as beta grows; final codes always use the hard
sign rule, never sampling.

For tiny models (v_dim + h_dim <= 20) the partition function is enumerable,
giving exact log-likelihoods and gradients used as oracles by the test suite.

The training and hashing kernels trust their arguments: TrainingConfig and
the Rbm constructor check them, and binarize_pm or the Gibbs chain makes each
visible row 0/1. Only the conditionals and the exact oracles check for 0/1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DomainError, ShapeError
from .features import read_only
from .sae import _add_penalty, _add_penalty_grad

EXACT_LIMIT_BITS = 20


@dataclass(frozen=True)
class Rbm:
    """RBM parameters: w is h_dim x v_dim, biases match each side."""

    w: np.ndarray
    vis_bias: np.ndarray
    hid_bias: np.ndarray
    beta: float = 10.0
    cd_steps: int = 1

    def __post_init__(self):
        for name in ("w", "vis_bias", "hid_bias"):
            object.__setattr__(self, name, read_only(getattr(self, name), np.float64))
        h, v = self.w.shape
        if self.vis_bias.shape != (v,):
            raise ShapeError(f"vis_bias must have shape ({v},), got {self.vis_bias.shape}")
        if self.hid_bias.shape != (h,):
            raise ShapeError(f"hid_bias must have shape ({h},), got {self.hid_bias.shape}")
        if self.beta < 1:
            raise ConfigError(f"surrogate sharpness beta must be >= 1, got {self.beta}")
        if self.cd_steps < 1:
            raise ConfigError(f"cd_steps must be >= 1, got {self.cd_steps}")

    @property
    def v_dim(self) -> int:
        return self.w.shape[1]

    @property
    def h_dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class RbmGradients:
    d_w: np.ndarray
    d_vis_bias: np.ndarray
    d_hid_bias: np.ndarray


def _check_binary(x, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ShapeError(f"{what} must have width {dim}, got shape {arr.shape}")
    if not np.all((rows == 0) | (rows == 1)):
        raise DomainError(f"{what} entries must be 0 or 1")
    return arr


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def prob_h_given_v(rbm: Rbm, v) -> np.ndarray:
    """sigmoid(w @ v + hid_bias), componentwise over hidden units."""
    v = _check_binary(v, rbm.v_dim, "visible vector")
    return _sigmoid(v @ rbm.w.T + rbm.hid_bias)


def prob_v_given_h(rbm: Rbm, h) -> np.ndarray:
    """sigmoid(w.T @ h + vis_bias), componentwise over visible units."""
    h = _check_binary(h, rbm.h_dim, "hidden vector")
    return _sigmoid(h @ rbm.w + rbm.vis_bias)


def free_energy(rbm: Rbm, v) -> np.ndarray:
    """F(v) = -vis_bias . v - sum_i softplus(w_i . v + hid_bias_i).

    exp(-F(v)) = sum_h exp(-E(v, h)); computed overflow-safe. Accepts a
    vector (returns a scalar) or a row matrix (returns a vector).
    """
    v = np.asarray(v, dtype=np.float64)
    rows = v.reshape(1, -1) if v.ndim == 1 else v
    pre = rows @ rbm.w.T + rbm.hid_bias
    f = -rows @ rbm.vis_bias - np.logaddexp(0.0, pre).sum(axis=1)
    return float(f[0]) if v.ndim == 1 else f


def gibbs_chain(rbm: Rbm, v0, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternate h ~ P(h|v), v ~ P(v|h) for rbm.cd_steps rounds.

    v0 is one start vector or a matrix of start rows; all rows advance
    together. rng is an int seed >= 0; row i has its own stream,
    default_rng(rng ^ i), so a row's chain does not depend on the other
    rows, and a single vector with seed s runs on default_rng(s). Each
    step draws h_dim uniforms for the hidden sample, then v_dim for the
    visible one. Returns (v, p_h_start, p_h_end): the final visible state,
    shaped like v0, and the conditionals P(h=1 | .) at the start and end
    states (one row per chain when v0 is a matrix).
    """
    v0 = np.asarray(v0, dtype=np.float64)
    rows = np.atleast_2d(v0)
    h_dim = rbm.h_dim
    master = int(rng)
    u = np.empty((rows.shape[0], rbm.cd_steps, h_dim + rbm.v_dim))
    for i in range(rows.shape[0]):
        np.random.default_rng(master ^ i).random(out=u[i])
    w_t = rbm.w.T
    p_h_start = _sigmoid(rows @ w_t + rbm.hid_bias)
    v = rows
    p_h = p_h_start
    for step in range(rbm.cd_steps):
        h = (u[:, step, :h_dim] < p_h).astype(np.float64)
        p_v = _sigmoid(h @ rbm.w + rbm.vis_bias)
        v = (u[:, step, h_dim:] < p_v).astype(np.float64)
        p_h = _sigmoid(v @ w_t + rbm.hid_bias)
    if v0.ndim == 1:
        v, p_h_start, p_h = v[0], p_h_start[0], p_h[0]
    return v, p_h_start, p_h


def _surrogate_tanh(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    return np.tanh(rbm.beta * (v @ rbm.w.T + rbm.hid_bias))


def surrogate_hidden(rbm: Rbm, v) -> np.ndarray:
    """Smoothed hidden map f(w @ v + hid_bias), f(x) = (tanh(beta x) + 1) / 2."""
    v = np.asarray(v, dtype=np.float64)
    return 0.5 * (_surrogate_tanh(rbm, v) + 1.0)


def reg_objective_terms(rbm: Rbm, batch, lam: float, mu: float,
                        decorrelation_mode: str = "batch") -> float:
    """Deterministic penalty value on the smoothed hidden map.

    The autoencoder's balance and decorrelation penalty (sae._add_penalty)
    applied to h = surrogate_hidden(batch). The likelihood term is handled
    separately by CD and is not included here.
    """
    h = surrogate_hidden(rbm, np.atleast_2d(batch))
    return float(_add_penalty(0.0, h, lam, mu, decorrelation_mode))


def penalty_gradients(rbm: Rbm, batch, lam: float, mu: float,
                      decorrelation_mode: str = "batch") -> RbmGradients:
    """Exact gradients of reg_objective_terms (visible bias gets none)."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    t = _surrogate_tanh(rbm, batch)
    h = 0.5 * (t + 1.0)
    g_h = _add_penalty_grad(np.zeros_like(h), h, lam, mu, decorrelation_mode)
    # f'(x) = beta/2 * (1 - tanh^2(beta x))
    g_pre = g_h * (0.5 * rbm.beta * (1.0 - t ** 2))
    return RbmGradients(
        g_pre.T @ batch,
        np.zeros(rbm.v_dim),
        g_pre.sum(axis=0),
    )


def cd_gradients_with_stats(rbm: Rbm, batch, lam: float, mu: float,
                            decorrelation_mode: str = "batch",
                            rng=0) -> tuple[RbmGradients, np.ndarray]:
    """CD-r estimate of the training gradient, plus each row's chain end.

    The likelihood part is the negative-phase/positive-phase difference
    summed over the batch, oriented so that subtracting alpha * grad raises
    data likelihood. All rows' chains run as one gibbs_chain call; each row
    keeps an independent stream seeded with master_seed XOR row_index, so
    results do not depend on batching or scheduling. r is rbm.cd_steps.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    v_end, p_h0, p_hr = gibbs_chain(rbm, batch, rng)
    d_w = p_hr.T @ v_end - p_h0.T @ batch
    d_a = (v_end - batch).sum(axis=0)
    d_b = (p_hr - p_h0).sum(axis=0)
    pen = penalty_gradients(rbm, batch, lam, mu, decorrelation_mode)
    grads = RbmGradients(d_w + pen.d_w, d_a + pen.d_vis_bias, d_b + pen.d_hid_bias)
    return grads, v_end


def cd_gradients(rbm: Rbm, batch, lam: float, mu: float,
                 decorrelation_mode: str = "batch", rng=0) -> RbmGradients:
    """cd_gradients_with_stats without the chain ends."""
    grads, _ = cd_gradients_with_stats(rbm, batch, lam, mu, decorrelation_mode, rng)
    return grads


def _enumerate_states(n: int) -> np.ndarray:
    """All 2^n binary vectors as rows; bit i of the counter is column i."""
    counters = np.arange(2 ** n, dtype=np.uint32)
    return ((counters[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def _check_exact_capacity(rbm: Rbm) -> None:
    if rbm.v_dim + rbm.h_dim > EXACT_LIMIT_BITS:
        raise CapacityError(
            f"exact enumeration limited to v_dim + h_dim <= {EXACT_LIMIT_BITS}, "
            f"got {rbm.v_dim} + {rbm.h_dim}"
        )


def _joint_table(rbm: Rbm):
    """Negative energies for all (h, v) pairs plus the state enumerations."""
    all_v = _enumerate_states(rbm.v_dim)
    all_h = _enumerate_states(rbm.h_dim)
    neg_e = (all_h @ rbm.hid_bias)[:, None] + (all_v @ rbm.vis_bias)[None, :]
    neg_e = neg_e + all_h @ rbm.w @ all_v.T
    return all_v, all_h, neg_e


def _state_index(batch: np.ndarray) -> np.ndarray:
    powers = (2 ** np.arange(batch.shape[1])).astype(np.float64)
    return np.rint(batch @ powers).astype(np.int64)


def exact_loglik(rbm: Rbm, batch) -> float:
    """Sum over rows of ln P(v), by enumerating every joint state."""
    _check_exact_capacity(rbm)
    batch = _check_binary(np.atleast_2d(batch), rbm.v_dim, "batch")
    _, _, neg_e = _joint_table(rbm)
    m = neg_e.max()
    log_z = m + np.log(np.exp(neg_e - m).sum())
    cols = neg_e[:, _state_index(batch)]
    cm = cols.max(axis=0)
    log_marginal = cm + np.log(np.exp(cols - cm).sum(axis=0))
    return float(np.sum(log_marginal - log_z))


def exact_loglik_grad(rbm: Rbm, batch) -> RbmGradients:
    """Exact gradient of exact_loglik via full enumeration.

    Positive phase uses the enumerated conditional expectation of h given
    each data row; negative phase uses the enumerated model expectations.
    """
    _check_exact_capacity(rbm)
    batch = _check_binary(np.atleast_2d(batch), rbm.v_dim, "batch")
    n = batch.shape[0]
    all_v, all_h, neg_e = _joint_table(rbm)
    m = neg_e.max()
    p = np.exp(neg_e - m)
    p /= p.sum()
    model_hv = all_h.T @ p @ all_v
    model_v = p.sum(axis=0) @ all_v
    model_h = p.sum(axis=1) @ all_h

    cols = neg_e[:, _state_index(batch)]
    cols = np.exp(cols - cols.max(axis=0))
    cols /= cols.sum(axis=0)
    cond_h = (all_h.T @ cols).T  # one row of E[h | v_n] per batch row
    return RbmGradients(
        cond_h.T @ batch - n * model_hv,
        batch.sum(axis=0) - n * model_v,
        cond_h.sum(axis=0) - n * model_h,
    )


def update(rbm: Rbm, grads: RbmGradients, alpha: float) -> Rbm:
    """One descent update p := p - alpha * grad on all three blocks."""
    return Rbm(
        rbm.w - alpha * grads.d_w,
        rbm.vis_bias - alpha * grads.d_vis_bias,
        rbm.hid_bias - alpha * grads.d_hid_bias,
        beta=rbm.beta,
        cd_steps=rbm.cd_steps,
    )


def hash_bits(rbm: Rbm, v) -> np.ndarray:
    """Deterministic bit matrix: bit 1 where w @ v + hid_bias >= 0."""
    v = np.asarray(v, dtype=np.float64)
    return ((v @ rbm.w.T + rbm.hid_bias) >= 0).astype(np.uint8)
