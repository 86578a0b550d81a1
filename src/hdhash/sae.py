"""Tanh autoencoder layers trained greedily with balance/decorrelation penalties.

Each layer maps p inputs to q outputs through v = tanh(enc_w @ x + enc_b) and
reconstructs through r = tanh(dec_w @ v + dec_b). The training objective for
a batch of N input rows x(n) is

    R = 1/2 sum_n ||r(n) - x(n)||^2
      + lam/2 * ||sum_n v(n)||^2
      + decorrelation penalty

where the decorrelation penalty compares output second moments against the
identity: per_sample mode sums mu/2 * ||(1/N) v(n) v(n)^T - I||_F^2 over
samples, batch mode penalizes mu/2 * ||(1/N) sum_n v(n) v(n)^T - I||_F^2.
The balance term pushes each output dimension to average zero over the batch
(a balanced bit after thresholding); the decorrelation term pushes distinct
output dimensions toward zero correlation. The RBM head (rbm.py) applies the
same penalty, through the same two functions, to its smoothed hidden map.

Gradients are exact derivatives of this objective (validated against central
finite differences in the test suite). All four parameter blocks, encoder and
decoder, are trained; they are not tied.

The training kernels (objective, gradients, sgd_step) trust their arguments:
TrainingConfig checks lam, mu, the decorrelation mode and alpha, and the
SaeLayer and SaeStack constructors check the shapes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .features import read_only

DECORRELATION_MODES = ("batch", "per_sample")


def _add_penalty(value, v, lam: float, mu: float, decorrelation_mode: str):
    """value plus the balance, then the decorrelation penalty of the N x q
    unit outputs v."""
    n, q = v.shape
    value += 0.5 * lam * np.sum(v.sum(axis=0) ** 2)
    if decorrelation_mode == "per_sample":
        # ||(1/N) v v^T - I||_F^2 collapses to a function of ||v||^2.
        sq = np.sum(v ** 2, axis=1)
        value += 0.5 * mu * np.sum((sq / n) ** 2 - 2.0 * sq / n + q)
    else:
        cov = v.T @ v / n
        value += 0.5 * mu * np.sum((cov - np.eye(q)) ** 2)
    return value


def _add_penalty_grad(grad, v, lam: float, mu: float, decorrelation_mode: str):
    """grad plus the derivative of _add_penalty's terms with respect to v;
    a zero weight adds nothing."""
    n, q = v.shape
    if lam:
        grad = grad + lam * v.sum(axis=0)
    if mu:
        if decorrelation_mode == "per_sample":
            # ((1/N) v v^T - I) v = (||v||^2 / N - 1) v per sample.
            sq = np.sum(v ** 2, axis=1)
            grad = grad + (2.0 * mu / n) * (sq / n - 1.0)[:, None] * v
        else:
            a = v.T @ v / n - np.eye(q)
            grad = grad + (2.0 * mu / n) * (v @ a)
    return grad


@dataclass(frozen=True)
class SaeLayer:
    """One autoencoder layer: encoder q x p, decoder p x q, untied."""

    enc_w: np.ndarray
    enc_b: np.ndarray
    dec_w: np.ndarray
    dec_b: np.ndarray

    def __post_init__(self):
        for name in ("enc_w", "enc_b", "dec_w", "dec_b"):
            object.__setattr__(self, name, read_only(getattr(self, name), np.float64))
        q, p = self.enc_w.shape
        if self.enc_b.shape != (q,):
            raise ShapeError(f"enc_b must have shape ({q},), got {self.enc_b.shape}")
        if self.dec_w.shape != (p, q):
            raise ShapeError(f"dec_w must have shape ({p}, {q}), got {self.dec_w.shape}")
        if self.dec_b.shape != (p,):
            raise ShapeError(f"dec_b must have shape ({p},), got {self.dec_b.shape}")

    @property
    def in_dim(self) -> int:
        return self.enc_w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.enc_w.shape[0]


@dataclass(frozen=True)
class SaeGradients:
    d_enc_w: np.ndarray
    d_enc_b: np.ndarray
    d_dec_w: np.ndarray
    d_dec_b: np.ndarray


@dataclass(frozen=True)
class SaeStack:
    """Ordered autoencoder layers with chained dimensions."""

    layers: tuple[SaeLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError("stack needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {a.out_dim} followed by {b.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [la.out_dim for la in self.layers]


def _encode(layer: SaeLayer, rows: np.ndarray) -> np.ndarray:
    return np.tanh(rows @ layer.enc_w.T + layer.enc_b)


def forward(layer: SaeLayer, v_prev) -> np.ndarray:
    """Encoder pass tanh(enc_w @ v + enc_b); accepts a vector or row matrix."""
    v = np.asarray(v_prev, dtype=np.float64)
    rows = v.reshape(1, -1) if v.ndim == 1 else v
    if rows.ndim != 2 or rows.shape[1] != layer.in_dim:
        raise ShapeError(f"input must have width {layer.in_dim}, got shape {v.shape}")
    out = _encode(layer, rows)
    return out[0] if v.ndim == 1 else out


def _passes(layer: SaeLayer, batch: np.ndarray):
    v = _encode(layer, batch)
    recon = np.tanh(v @ layer.dec_w.T + layer.dec_b)
    return v, recon


def objective(layer: SaeLayer, batch, lam: float, mu: float,
              decorrelation_mode: str = "batch", return_output: bool = False):
    """Regularized reconstruction objective R for one batch.

    With return_output, returns (R, v): v is the layer output the objective
    was evaluated on, equal to forward(layer, batch) bit for bit.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    v, recon = _passes(layer, batch)
    r = _add_penalty(0.5 * np.sum((recon - batch) ** 2), v, lam, mu,
                     decorrelation_mode)
    return (float(r), v) if return_output else float(r)


def gradients(layer: SaeLayer, batch, lam: float, mu: float,
              decorrelation_mode: str = "batch") -> SaeGradients:
    """Exact gradients of objective() for all four parameter blocks."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    v, recon = _passes(layer, batch)

    delta_dec = (recon - batch) * (1.0 - recon ** 2)
    d_dec_w = delta_dec.T @ v
    d_dec_b = delta_dec.sum(axis=0)

    g_v = _add_penalty_grad(delta_dec @ layer.dec_w, v, lam, mu, decorrelation_mode)
    delta_enc = g_v * (1.0 - v ** 2)
    d_enc_w = delta_enc.T @ batch
    d_enc_b = delta_enc.sum(axis=0)
    return SaeGradients(d_enc_w, d_enc_b, d_dec_w, d_dec_b)


def sgd_step(layer: SaeLayer, grads: SaeGradients, alpha: float) -> SaeLayer:
    """One gradient-descent update p := p - alpha * grad on every block."""
    return SaeLayer(
        layer.enc_w - alpha * grads.d_enc_w,
        layer.enc_b - alpha * grads.d_enc_b,
        layer.dec_w - alpha * grads.d_dec_w,
        layer.dec_b - alpha * grads.d_dec_b,
    )


def encode_stack(stack: SaeStack, x) -> np.ndarray:
    """Chain forward() through every layer; accepts a vector or row matrix."""
    out = x
    for layer in stack.layers:
        out = forward(layer, out)
    return out


def binarize_pm(v) -> np.ndarray:
    """Threshold at zero: bit 1 for v >= 0, else 0 (ties go to 1)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise DomainError("cannot binarize non-finite values")
    return (v >= 0).astype(np.uint8)
