"""Classification losses: cross-entropy, focal, and the imbalance-adaptive
focal variant used for local client training.

All three are one expression, w * (1 - p_t)^gamma * -log(p_t), and a
training round runs every kind through it: cross-entropy at the constant
gamma = 0, whose focal factor is exactly 1, and the unweighted kinds at
w = 1 + 0 = 1. Multiplying by an exact 1.0 is exact in IEEE arithmetic, so
each reduction keeps the bits of the loss it reduces to.

The per-sample adaptive loss is -(1 + c) * (1 - p_t)^gamma * log(p_t) with
p_t the predicted probability of the true class and c the sample's
imbalance coefficient. gamma may be a trainable scalar parameter; its
gradient is strictly negative for p_t in (0, 1), so training drives gamma
upward and callers must project it back into configured bounds after each
optimizer step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .imbalance import DEFAULT_BLEND, DEFAULT_EPS, class_ids
from .models import ModelParams
from .tensor import Tensor

PROB_FLOOR = 1e-12

LOSS_KINDS = ("ce", "focal", "adaptive_focal")


@dataclass(frozen=True)
class LossConfig:
    kind: str = "adaptive_focal"
    gamma: float = 2.0
    gamma_trainable: bool = False
    gamma_lo: float = 0.5
    gamma_hi: float = 5.0
    blend: float = DEFAULT_BLEND
    epsilon: float = DEFAULT_EPS

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if not 0.0 <= self.blend <= 1.0:
            raise ConfigError(f"blend must lie in [0, 1], got {self.blend}")
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if math.isnan(self.gamma_lo) or math.isnan(self.gamma_hi):
            raise ConfigError(f"gamma bounds must be numbers: [{self.gamma_lo}, {self.gamma_hi}]")
        if self.gamma_lo > self.gamma_hi:
            raise ConfigError(f"gamma bounds inverted: [{self.gamma_lo}, {self.gamma_hi}]")
        if self.gamma_trainable and not (self.gamma_lo <= self.gamma <= self.gamma_hi):
            raise ConfigError(f"initial gamma {self.gamma} outside bounds "
                              f"[{self.gamma_lo}, {self.gamma_hi}]")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")


@dataclass(slots=True, eq=False)
class Targets:
    """Class labels checked against a class count, with their loss weights
    1 + c (None without coefficients) and one-hot rows [..., C], both in
    the loss dtype. Make them with ``targets``; indexing selects all three
    alike, so a trainer checks and casts a round's labels once and slices
    each tick's batches out of them."""

    labels: np.ndarray
    weights: np.ndarray | None
    onehot: np.ndarray

    def __getitem__(self, index) -> "Targets":
        weights = None if self.weights is None else self.weights[index]
        return Targets(self.labels[index], weights, self.onehot[index])


def targets(labels, num_classes: int, coeffs, dtype) -> Targets:
    """Labels checked to lie in 0..num_classes-1, their one-hot rows and,
    when coeffs (one nonnegative imbalance coefficient per label) are
    given, the weights 1 + c; rows and weights in dtype, the loss dtype.
    Every loss checks its labels here."""
    labels = class_ids(labels, num_classes)
    weights = None
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != labels.shape:
            raise ContractError(f"need one coefficient per sample: got shape "
                                f"{coeffs.shape} for labels {labels.shape}")
        if not np.all(coeffs >= 0):  # NaN fails this, as it must
            raise ContractError("imbalance coefficients must be >= 0")
        weights = (1.0 + coeffs).astype(dtype)
    return Targets(labels, weights, (labels[..., None] == np.arange(num_classes)).astype(dtype))


def _loss(logits: Tensor, labels, gamma=None, coeffs=None, mean: bool = True) -> Tensor:
    batch = targets(labels, logits.shape[-1], coeffs, logits.dtype)
    labels = batch.labels
    if logits.data.ndim not in (2, 3):
        raise ContractError(f"logits must be [batch, classes] or [clients, batch, "
                            f"classes], got shape {logits.shape}")
    if labels.ndim != logits.data.ndim - 1:
        raise ContractError(f"labels must have rank {logits.data.ndim - 1}, "
                            f"got shape {labels.shape}")
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels of shape {labels.shape} for logits {logits.shape}")
    return T.focal_nll(logits, batch.onehot, PROB_FLOOR, gamma=gamma, weights=batch.weights,
                       mean=mean)


def per_sample_losses(logits: Tensor, labels, *, gamma=None,
                      coeffs=None) -> Tensor:
    """Per-sample losses; the scalar losses are their batch mean.

    logits are [B, C] with B labels, or a client stack [K, B, C] with
    [K, B] labels; the result has the labels' shape. gamma None selects
    plain cross-entropy; a float or a tensor (a scalar, or one per client on
    a stack) turns on the focal factor; coeffs (one nonnegative value per
    sample) adds the adaptive multiplier (1 + c).
    """
    return _loss(logits, labels, gamma, coeffs, mean=False)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log p_t (one mean per client on a stack)."""
    return _loss(logits, labels)


def focal_loss(logits: Tensor, labels, gamma=2.0) -> Tensor:
    """Mean over the batch of -(1 - p_t)^gamma * log(p_t)."""
    if not isinstance(gamma, Tensor) and gamma < 0:
        raise ContractError(f"gamma must be >= 0, got {gamma}")
    return _loss(logits, labels, gamma)


def adaptive_focal_loss(logits: Tensor, labels, coeffs, gamma=2.0) -> Tensor:
    """Mean over the batch of -(1 + c) * (1 - p_t)^gamma * log(p_t).

    coeffs come from imbalance.dynamic_coefficient, one per sample.
    """
    if coeffs is None:
        raise ContractError("adaptive focal loss needs per-sample coefficients")
    return _loss(logits, labels, gamma, coeffs)


class TickLoss(NamedTuple):
    """A lockstep tick's loss operands, bound once per plan by ``bind_loss``."""
    spans: list[tuple[int, int, int]]  # tensor.focal_spans of its logits blocks
    onehot: np.ndarray  # [N, C], a view of the plan's targets, and the rest [N]
    scale: np.ndarray  # each sample's dtype(1 / B) times its weight: the seed
    nll: np.ndarray  # where the tick writes each sample's -log(p_t)
    focal: np.ndarray  # and its focal factor
    gamma: float | list[np.ndarray]  # a constant (CE's 0.0), or per block its rows' trainable one
    sizes: list[int] | None  # with a trainable gamma, each client row's batch
    slots: list[np.ndarray] | None  # and per block its gamma's gradient slots


def bind_loss(shapes: list[tuple[int, ...]], dtype, batch: Targets, scale: np.ndarray,
              nll: np.ndarray, focal: np.ndarray, cfg: LossConfig,
              gammas: list[Tensor] | None = None) -> TickLoss:
    """The configured loss of a tick's logits blocks of these shapes and
    dtype, checked once and bound to their flat targets, scale and factor
    buffers; cross-entropy binds the constant gamma 0.0. gammas, one per
    block, is a trainable gamma; a loss that reads it binds its slots."""
    if cfg.kind == "adaptive_focal" and batch.weights is None:
        raise ContractError("adaptive focal loss needs per-sample coefficients")
    exps = None if cfg.kind == "ce" or gammas is None else [x.data for x in gammas]
    spans = T.focal_spans(shapes, batch.onehot, dtype, exps)
    onehot = batch.onehot.reshape(-1, shapes[0][-1])
    if exps is None:
        return TickLoss(spans, onehot, scale, nll, focal, 0.0 if cfg.kind == "ce" else cfg.gamma,
                        None, None)
    if any(x._grad_view is None for x in gammas):
        raise ContractError("a trainable gamma needs its gradient slot in a trainable set")
    return TickLoss(spans, onehot, scale, nll, focal, [x.reshape(-1) for x in exps],  # [] as [1]
                    [n for k, n, _ in spans for _ in range(k)],
                    [x._grad_view.reshape(-1) for x in gammas])


def batch_loss(logits: list[np.ndarray], tick: TickLoss):
    """A tick's loss on its logits blocks (arrays) bound by ``bind_loss``:
    writes the samples' loss factors into the tick's buffers and returns
    each block's logits gradient and gamma gradient (into its slots, or
    None) of ones over the rows' batch means, with the tape losses' bits."""
    c = tick.onehot.shape[-1]
    rows = (logits[0].reshape(-1, c) if len(logits) == 1
            else np.concatenate([x.reshape(-1, c) for x in logits]))
    e = tick.gamma if tick.sizes is None else [v for x in tick.gamma for v in x.tolist()]
    vjp = T.focal_kernel(rows, tick.onehot, PROB_FLOOR, e, tick.sizes, tick.nll, tick.focal)
    g_rows, g_exps = vjp(tick.scale, None if tick.sizes is None else tick.spans, tick.slots)
    return [g_rows[z - k * n:z].reshape(x.shape)
            for (k, n, z), x in zip(tick.spans, logits)], g_exps


def step_means(loss: np.ndarray, places: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Each step's batch mean of the per-sample loss, with the bits of its
    mean alone: places are, per batch size B, the steps of that size and
    their samples' [S_B, B] places in loss, one row sum and multiply each."""
    means = np.empty(sum(at.size for at, _ in places), loss.dtype)
    for at, rows in places:
        means[at] = np.add.reduce(loss[rows], axis=-1) * loss.dtype.type(1.0 / rows.shape[1])
    return means


def clamp_gamma(params: ModelParams, cfg: LossConfig) -> None:
    """Project the trainable gamma back into its configured bounds, in place."""
    if "loss.gamma" not in params:
        return
    g = params["loss.gamma"].data  # np.clip's bits; bound first, a tie keeps g's -0.0
    np.maximum(cfg.gamma_lo, g, out=g)
    np.minimum(cfg.gamma_hi, g, out=g)


def trainable_gamma(params: ModelParams, cfg: LossConfig) -> Tensor | None:
    """The gamma parameter to train, or None when gamma is the configured constant."""
    if cfg.gamma_trainable and "loss.gamma" in params:
        return params["loss.gamma"]
    return None


def gamma_value(params: ModelParams, cfg: LossConfig) -> float:
    gamma = trainable_gamma(params, cfg)
    return cfg.gamma if gamma is None else float(gamma.data.reshape(()))
