"""Shared oracles for the test suite.

The finite-difference gradient here is the independent check for every
backward rule: central differences with step h = cbrt(machine eps) *
max(1, |x|), evaluated coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np


def fd_gradient(f, x: np.ndarray, indices=None, h_factor: float = 1.0) -> np.ndarray:
    """Central-difference gradient of scalar-valued f() wrt the buffer x.

    f takes no arguments and must re-read x on every call; x is perturbed
    in place and restored. If indices is given, only those flat coordinates
    are evaluated (others are left as NaN).
    """
    eps = np.finfo(x.dtype).eps
    base_h = float(eps) ** (1.0 / 3.0) * h_factor
    flat = x.reshape(-1)
    grad = np.full(flat.shape, np.nan, dtype=np.float64)
    idx = range(flat.size) if indices is None else indices
    for i in idx:
        orig = flat[i].copy()
        h = x.dtype.type(base_h * max(1.0, abs(float(orig))))
        flat[i] = orig + h
        fp = float(f())
        flat[i] = orig - h
        fm = float(f())
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * float(h))
    return grad.reshape(x.shape)


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Guarded relative error: |a-b| / max(|a|, |b|, floor), maxed over entries.

    The floor turns the comparison absolute for entries smaller than floor,
    where finite differences are dominated by roundoff.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def chain_per_sample_losses(logits, labels, *, gamma=None, coeffs=None, floor=1e-12):
    """Per-sample w * (1 - p_t)^gamma * -log(p_t) built from separate tensor
    primitives: one-hot, softmax, mul, sum_, clamp, log, scale, then sub,
    clamp, power, mul for the focal factor and mul for the weights.

    This is how the loss was composed before it became one tape node; the
    fused node must reproduce its values and gradients bit for bit.
    """
    from fedfocal import tensor as T

    labels = np.asarray(labels)
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(labels.size), labels] = 1
    probs = T.softmax(logits, axis=1)
    p_t = T.sum_(T.mul(probs, T.constant(onehot)), axis=1)
    out = T.scale(T.log(T.clamp(p_t, floor, 1.0)), -1.0)
    if gamma is not None:
        base = T.clamp(T.sub(T.constant(np.ones_like(p_t.data)), p_t), floor, 1.0)
        out = T.mul(T.power(base, gamma), out)
    if coeffs is not None:
        weights = (1.0 + np.asarray(coeffs, dtype=np.float64)).astype(logits.dtype)
        out = T.mul(T.constant(weights), out)
    return out
