"""Distributional imbalance statistics exchanged between clients and server.

Three quantities drive the training protocol:

* client skew: the mean over classes of (N_k - n_ki) / (n_ki + eps),
  one scalar per client, controlling its aggregation weight;
* global class rarity: (sum N_k - sum n_ki) / (sum n_ki + eps) per class,
  computed on the server from pooled counts and broadcast to clients;
* the per-sample coefficient: a convex blend of the two, multiplying the
  focal term of the adaptive loss.

Classes with zero local count stay in the client mean; their ratio term
degenerates to N_k / eps, which is large but finite by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

DEFAULT_EPS = 1e-6
DEFAULT_BLEND = 0.5


def class_ids(values, num_classes: int, what: str = "label", count: int | None = None):
    """values as int64 class ids in 0..num_classes-1, of any shape or, given
    count, a vector of count; an empty array passes. Every entry point that
    takes labels checks them here."""
    ids = np.asarray(values)
    if count is not None and ids.shape != (count,):
        raise ContractError(f"expected {count} {what}s, got shape {ids.shape}")
    if not ids.size:
        return ids.astype(np.int64)
    if ids.dtype.kind not in "iu":
        raise ContractError(f"{what}s must be integer class ids, got dtype {ids.dtype}")
    if np.minimum.reduce(ids, axis=None) < 0 or np.maximum.reduce(ids, axis=None) >= num_classes:
        flat = ids.ravel()
        at = int(np.flatnonzero((flat < 0) | (flat >= num_classes))[0])
        raise ContractError(f"{what} {int(flat[at])} at index {at} is outside "
                            f"0..{num_classes - 1}")
    return ids.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ClassHistogram:
    """Per-class sample counts of one client's shard."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) == 0:
            raise ContractError("histogram must cover at least one class")
        if any(c < 0 for c in self.counts):
            raise ContractError(f"negative class count in {self.counts}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def num_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @staticmethod
    def from_labels(labels, num_classes: int) -> "ClassHistogram":
        counts = np.bincount(class_ids(labels, num_classes, count=np.size(labels)),
                             minlength=num_classes)
        return ClassHistogram(tuple(int(c) for c in counts))

    def merge(self, other: "ClassHistogram") -> "ClassHistogram":
        if other.num_classes != self.num_classes:
            raise ContractError(f"histogram class counts differ: "
                                f"{self.num_classes} vs {other.num_classes}")
        return ClassHistogram(tuple(a + b for a, b in zip(self.counts, other.counts)))


@dataclass
class ImbalanceReport:
    """Coordination payload: each client's skew by client id, plus per-class global rarity."""

    client_coeffs: dict[int, float]
    class_coeffs: list[float]
    epsilon: float
    blend: float

    def __post_init__(self):
        for v in list(self.client_coeffs.values()) + list(self.class_coeffs):
            if not (math.isfinite(v) and v >= 0):
                raise ContractError(f"imbalance coefficient {v} must be finite and >= 0")

    def to_text(self) -> str:
        lines = [f"epsilon = {self.epsilon!r}", f"blend = {self.blend!r}"]
        lines += [f"client_coeff.{k} = {v!r}" for k, v in self.client_coeffs.items()]
        lines += [f"class_coeff.{i} = {v!r}" for i, v in enumerate(self.class_coeffs)]
        return "\n".join(lines) + "\n"


def per_class_ratios(hist: ClassHistogram, eps: float = DEFAULT_EPS) -> list[float]:
    """(N - n_i) / (n_i + eps) for every class of one histogram."""
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    total = hist.total
    return [(total - n) / (n + eps) for n in hist.counts]


def client_imbalance(hist: ClassHistogram, eps: float = DEFAULT_EPS) -> float:
    """Mean per-class imbalance ratio of one client's shard."""
    ratios = per_class_ratios(hist, eps)
    return sum(ratios) / hist.num_classes


def global_class_imbalance(hists: list[ClassHistogram],
                           eps: float = DEFAULT_EPS) -> list[float]:
    """Per-class rarity over the pooled counts of all clients."""
    if not hists:
        raise ContractError("need at least one histogram")
    return per_class_ratios(functools.reduce(ClassHistogram.merge, hists), eps)


def dynamic_coefficient(client_coeff: float, class_coeffs: list[float],
                        true_class, blend: float = DEFAULT_BLEND):
    """Convex combination blend*c_client + (1-blend)*c_class[true_class].

    true_class is one class (the result is a float) or an array of classes
    (the result is a float64 array, equal bit for bit to one call per class).
    """
    if not 0.0 <= blend <= 1.0:
        raise ContractError(f"blend must lie in [0, 1], got {blend}")
    classes = class_ids(true_class, len(class_coeffs), what="class")
    rarity = np.asarray(class_coeffs, dtype=np.float64)[classes]
    coeff = blend * client_coeff + (1.0 - blend) * rarity
    return float(coeff) if classes.ndim == 0 else coeff


def imbalance_score(total: int, class_count: int) -> float:
    """(N - n) / n; the rarity rank statistic for head/tail grouping."""
    if class_count < 1:
        raise ContractError("a class absent from the pool has no imbalance score")
    return (total - class_count) / class_count


def head_tail_split(scores, tail_fraction: float) -> tuple[list[int], list[int]]:
    """Partition class indices into (tail, head) by descending score.

    The tail holds the nearest-integer count round(tail_fraction * C) of
    highest-score classes; ties break toward the lower class index.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ContractError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    scores = list(scores)
    n_tail = int(math.floor(tail_fraction * len(scores) + 0.5))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tail = sorted(order[:n_tail])
    head = sorted(order[n_tail:])
    return tail, head
