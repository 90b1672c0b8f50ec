"""Classification losses: cross-entropy, focal, and the imbalance-adaptive
focal variant used for local client training.

All three reduce to one another by construction: with zero coefficients the
adaptive loss equals the focal loss bit for bit, and with gamma = 0 the
focal loss equals cross-entropy bit for bit, because multiplying by an exact
1.0 is exact in IEEE arithmetic.

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

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
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
    blend: float = 0.5
    epsilon: float = 1e-6

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
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(f"labels must lie in 0..{num_classes - 1}")
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


def batch_loss(logits, batch: Targets, cfg: LossConfig, *, gamma_param=None) -> Tensor:
    """The configured loss of a training batch, whose labels (and, for the
    adaptive kind, weights) were checked by ``targets``; the same bits as
    ``cross_entropy``, ``focal_loss`` or ``adaptive_focal_loss`` on them.
    The targets must be built for the logits' class count and dtype.

    logits are one tensor, or a list: a lockstep tick's groups, with flat
    targets in their order, all in one tape node. gamma_param, when given,
    is the trainable gamma living in the model's parameter list (one per
    client on a stack; a list, one per group); otherwise the configured
    constant is used. The result is the batch mean: one per client on a
    stack, and one per client row, in row order, for a list. ``focal_nll``
    rejects targets of another class count or dtype.
    """
    kind, weights = cfg.kind, batch.weights
    if kind != "adaptive_focal":
        weights = None
    elif weights is None:
        raise ContractError("adaptive focal loss needs per-sample coefficients")
    gamma = None if kind == "ce" else cfg.gamma if gamma_param is None else gamma_param
    return T.focal_nll(logits, batch.onehot, PROB_FLOOR, gamma, weights, True)


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
