"""Evaluation and analysis: confusion matrices, macro classification
metrics, one-vs-rest AUC with ROC points, decision-curve net benefit,
per-sample logit-gradient norms, and gradient-weighted attention rollout.

All multi-class scalars are macro averages (unweighted over classes);
classes that cannot support a metric (no true samples, no predicted
samples, or single-sided AUC) contribute zero where the contract says so
and are reported in the flags list rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .imbalance import class_ids
from .models import ModelParams
from .tensor import Tensor


@dataclass(frozen=True)
class ConfusionMatrix:
    grid: np.ndarray  # rows = true class, columns = predicted class

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ContractError(f"confusion grid must be square, got {g.shape}")
        if np.logical_or.reduce(g < 0, axis=None):
            raise ContractError("confusion grid must be nonnegative")
        object.__setattr__(self, "grid", g.astype(np.int64))

    @property
    def num_classes(self) -> int:
        return self.grid.shape[0]

    @property
    def total(self) -> int:
        return int(np.add.reduce(self.grid, axis=None))

    @property
    def accuracy(self) -> float:
        return float(self.grid.trace() / self.total) if self.total else 0.0


@dataclass
class MetricReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_specificity: float
    macro_auc: float | None
    per_class: dict[str, list[float]]
    flags: list[str] = field(default_factory=list)

    def __post_init__(self):
        for name in ("accuracy", "macro_precision", "macro_recall",
                     "macro_f1", "macro_specificity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"{name}={v} outside [0, 1]")
        if self.macro_auc is not None and not 0.0 <= self.macro_auc <= 1.0:
            raise ContractError(f"macro_auc={self.macro_auc} outside [0, 1]")


def predict(scores: np.ndarray) -> np.ndarray:
    """Argmax with the lowest index winning ties."""
    return np.asarray(scores).argmax(axis=1)


def confusion(preds, labels, num_classes: int) -> ConfusionMatrix:
    preds = class_ids(preds, num_classes, "prediction", np.size(preds))
    labels = class_ids(labels, num_classes, count=preds.size)
    grid = np.bincount(labels * num_classes + preds, minlength=num_classes * num_classes)
    return ConfusionMatrix(grid.reshape(num_classes, num_classes))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def classification_metrics(cm: ConfusionMatrix) -> MetricReport:
    """One-vs-rest precision/recall/F1/specificity per class, macro averaged.

    Zero-support or zero-prediction classes contribute 0 to the macro means
    and are listed in the flags.
    """
    if cm.total == 0:
        raise ContractError("empty confusion matrix")
    g = cm.grid.astype(np.float64)
    tp = g.diagonal()
    predicted, actual = np.add.reduce(g, axis=0), np.add.reduce(g, axis=1)
    negatives = cm.total - actual
    counts = np.array([predicted, actual, negatives])  # whole numbers, exact
    rates = _ratio(np.array([tp, tp, negatives - (predicted - tp)]), counts)
    f1 = _ratio(2 * rates[0] * rates[1], rates[0] + rates[1])
    table = np.concatenate([rates, f1[None]])  # rows: precision, recall, specificity, F1
    precision, recall, specificity, f1 = table.tolist()
    mean_p, mean_r, mean_s, mean_f1 = (np.add.reduce(table, axis=1) / table.shape[1]).tolist()
    return MetricReport(
        accuracy=cm.accuracy, macro_precision=mean_p, macro_recall=mean_r,
        macro_f1=mean_f1, macro_specificity=mean_s, macro_auc=None,
        per_class={"precision": precision, "recall": recall, "f1": f1,
                   "specificity": specificity},
        flags=[f"class {i}: " + ("no predicted samples, precision set to 0",
                                 "no true samples, recall set to 0")[k]
               for i, k in zip(*(counts[:2].T == 0).nonzero())],  # class by class
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks along the first axis with ties sharing their average
    rank: of a vector, or of each column of an [N, C] array, [C, N] out.
    One sort serves every column, and need not be stable: a tie block's
    entries share one rank, an exact half-integer."""
    cols = np.ascontiguousarray(x.T)
    # each entry's flat index in cols, in sorted order, one row a column
    offsets = np.arange(0, cols.size, cols.shape[-1]).reshape(cols.shape[:-1] + (1,))
    order = cols.argsort(axis=-1) + offsets
    sorted_x = cols.reshape(-1)[order]
    starts = np.ones(cols.shape, dtype=bool)  # no tie block spans two columns
    starts[..., 1:] = sorted_x[..., 1:] != sorted_x[..., :-1]
    first = starts.reshape(-1).nonzero()[0]
    last = np.concatenate((first[1:], [starts.size])) - 1
    ranks = np.empty(cols.shape, dtype=np.float64)
    ranks.reshape(-1)[order] = ((0.5 * (first + last) + 1.0).repeat(last - first + 1)
                                .reshape(cols.shape) - offsets)
    return ranks


def _ovr_auc(scores: np.ndarray, labels) -> tuple[float | None, list, list[str]]:
    """Macro AUC, rank-based one-vs-rest AUC per class (None where a class
    lacks positives or negatives) and the flags naming those classes."""
    if scores.ndim != 2:
        raise ContractError(f"scores must be [N, C], got shape {scores.shape}")
    n, c = scores.shape
    labels = class_ids(labels, c, count=n)
    n_pos = np.bincount(labels, minlength=c)
    n_neg = n - n_pos
    defined = (n_pos > 0) & (n_neg > 0)
    # each sample's rank in its own class column: half-integers, summed exactly in any order
    own_ranks = _average_ranks(scores)[labels, np.arange(n)] if n else np.zeros(0)
    rank_sums = np.bincount(labels, weights=own_ranks, minlength=c)
    auc = _ratio(rank_sums - n_pos * (n_pos + 1) / 2.0, n_pos * n_neg)
    flags = [f"class {i}: AUC undefined ({'no positives' if n_pos[i] == 0 else 'no negatives'})"
             for i in np.flatnonzero(~defined)]
    kept = auc[defined]
    macro = float(np.add.reduce(kept) / kept.size) if kept.size else None
    return macro, np.where(defined, auc, None).tolist(), flags


def auc_ovr(scores: np.ndarray, labels) -> tuple[float | None, dict]:
    """Rank-based one-vs-rest AUC per class plus ROC point lists.

    Ties contribute one half. Classes lacking positives or negatives are
    excluded from the macro mean and flagged. Returns
    (macro_auc, {"auc": per-class list with None, "roc": per-class point
    lists, "flags": [...]}).
    """
    scores = np.asarray(scores, dtype=np.float64)
    macro, per_auc, flags = _ovr_auc(scores, labels)
    labels = np.asarray(labels)
    roc = [[] if auc is None else _roc_points(scores[:, i], labels == i)
           for i, auc in enumerate(per_auc)]
    return macro, {"auc": per_auc, "roc": roc, "flags": flags}


def _roc_points(score: np.ndarray, pos: np.ndarray) -> list[tuple[float, float]]:
    """(FPR, TPR) pairs swept from the highest threshold down: (0, 0), then
    one point after each block of tied scores."""
    order = np.argsort(-score, kind="stable")
    sorted_score = score[order]
    tp = np.cumsum(pos[order])
    fp = np.arange(1, pos.size + 1) - tp
    ends = np.append(sorted_score[1:] != sorted_score[:-1], True)
    # the last counts are the negatives and the positives
    return [(0.0, 0.0)] + list(zip((fp[ends] / fp[-1]).tolist(), (tp[ends] / tp[-1]).tolist()))


def decision_thresholds(thresholds) -> np.ndarray:
    """The thresholds as one float64 vector; one outside (0, 1) is a ConfigError."""
    t = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    outside = t[~((0.0 < t) & (t < 1.0))]
    if outside.size:
        raise ConfigError(f"decision threshold must lie in (0, 1), got {float(outside[0])}")
    return t


def decision_curve(scores: np.ndarray, labels, thresholds) -> dict:
    """One-vs-rest net benefit NB = TP/n - FP/n * p/(1-p) per class/threshold.

    Labels must be one class id in 0..C-1 per score row. Returns
    {"thresholds": [...], "per_class": [C][T] floats, "macro": [T] floats}.
    """
    t = decision_thresholds(thresholds)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or not scores.shape[0]:
        raise ContractError(f"scores must be [N, C] with N >= 1, got shape {scores.shape}")
    n, c = scores.shape
    y = class_ids(labels, c, count=n)[:, None, None] == np.arange(c)[:, None]  # [N, C, 1]
    pred = scores[:, :, None] >= t  # [N, C, T]
    tp = (pred & y).sum(axis=0)
    fp = (pred & ~y).sum(axis=0)
    table = tp / n - fp / n * (t / (1.0 - t))
    return {"thresholds": t.tolist(), "per_class": table.tolist(),
            "macro": table.mean(axis=0).tolist()}


# ---------------------------------------------------------------------------
# gradient-norm analysis


def per_sample_logit_grad_norms(logits: Tensor | np.ndarray, batch=None) -> np.ndarray:
    """L2 norm of each sample's own loss gradient wrt its logits row.

    Call after backward on the batch-mean loss; the row gradients carry a
    1/B factor from the mean, which is undone here. [B, C] logits give B
    norms, a client stack [K, B, C] gives [K, B]. logits may also be the
    gradient rows [..., C] themselves, with batch holding each row's B
    ([..., 1], in the gradients' dtype).
    """
    if isinstance(logits, Tensor):
        if logits.grad is None:
            raise ContractError("run backward before reading logit gradients")
        logits, batch = logits.grad, logits.shape[-2]
    g = logits * batch
    return np.sqrt(np.add.reduce(g.astype(np.float64) ** 2, axis=-1))


# ---------------------------------------------------------------------------
# gradient-weighted attention rollout


def attention_rollout(maps, grads) -> np.ndarray:
    """Patch saliency from per-layer attention maps and their gradients.

    A layer's maps and gradients are [H, N, N] arrays or lists of H [N, N]
    arrays. Per layer the heads are fused as mean_h ReLU(A_h * G_h), the
    identity is added for the residual path, rows are renormalized to
    probability vectors, and the per-layer matrices are chain multiplied
    (last layer on the left). Row 0 holds the class token's accumulated attention; its
    patch columns are min-max scaled to [0, 1]. A constant row scales to
    zeros.
    """
    if len(maps) == 0:
        raise ContractError("need at least one attention layer")
    if grads is None or len(grads) != len(maps):
        raise ContractError("need one gradient stack per attention layer")
    rolled = None
    for layer_maps, layer_grads in zip(maps, grads):
        try:
            agree = layer_grads is not None and len(layer_maps) == len(layer_grads) > 0
        except TypeError:  # len() of a 0-d value
            raise ShapeError("an attention layer is a 0-d value, not a stack of heads") from None
        if not agree:
            raise ContractError("attention maps and gradients disagree per head")
        fused = None
        for a, g in zip(layer_maps, layer_grads):
            a = np.asarray(a, dtype=np.float64)
            if g is None:
                raise ContractError("missing gradient for an attention map")
            g = np.asarray(g, dtype=np.float64)
            if a.shape != g.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeError(f"bad attention/gradient shapes {a.shape} vs {g.shape}")
            f = np.maximum(a * g, 0.0)
            fused = f if fused is None else fused + f
        fused /= len(layer_maps)
        fused += np.eye(fused.shape[0])
        fused /= fused.sum(axis=1, keepdims=True)
        rolled = fused if rolled is None else fused @ rolled
    mask = rolled[0, 1:]
    lo, hi = mask.min(), mask.max()
    if hi > lo:
        return (mask - lo) / (hi - lo)
    return np.zeros_like(mask)


def grad_rollout_for_sample(classifier, params: ModelParams, image) -> np.ndarray:
    """Rollout mask for one image, driven by its predicted class logit: the
    backward is seeded at the logits, one-hot on that class."""
    logits, stack = classifier.forward_single(params, image)
    params.zero_grads()
    onehot = np.zeros_like(logits.data)
    onehot[np.argmax(logits.data)] = 1
    T.backward(logits, onehot)
    return attention_rollout([layer.data for layer in stack],
                             [layer.grad for layer in stack])


def evaluate_scores(scores: np.ndarray, labels, num_classes: int) -> MetricReport:
    """Confusion-derived metrics plus macro AUC from softmax scores."""
    preds = predict(scores)
    cm = confusion(preds, labels, num_classes)
    report = classification_metrics(cm)
    report.macro_auc, report.per_class["auc"], flags = _ovr_auc(
        np.asarray(scores, dtype=np.float64), np.asarray(labels))
    report.flags.extend(flags)
    return report
