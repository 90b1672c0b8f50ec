"""Dense-tensor numeric core with reverse-mode differentiation.

Every differentiable operation records its parents and a vector-Jacobian
closure on its output, and appends the output to the tape: one module-level
list, in creation order, of weak references to the recorded tensors. An
operation runs after the operations that made its operands, so creation
order is a topological order of every graph on the tape (a Wengert list).
``backward`` walks the tape in reverse, accumulating gradients into every
``requires_grad`` tensor the loss depends on; it never searches the graph.
The tape holds its tensors weakly, so a graph lives exactly as long as the
caller keeps its tensors, and ``backward`` drops the entries of graphs that
are gone. Entries of other live graphs stay and receive nothing, so a graph
can be differentiated again, or after another. No VJP closes over its own
output tensor, so a graph holds no reference cycle and a dropped one is
freed at once, without waiting for the cycle collector. The tape is one per
process: build and differentiate graphs from one thread at a time.

Determinism contract: identical inputs and identical operation order produce
bit-identical outputs. All reductions delegate to numpy, whose reduction
order is fixed for a given array shape, and a tensor read by several
operations sums their gradients in reverse creation order, so results are
reproducible across runs.

Operations never write into their operands. Parameter tensors are views into
their ``ModelParams.flat`` buffer, and only ``federation.Adam.step`` and
``losses.clamp_gamma`` write them, in place; ``backward`` writes their
gradients into their slots of the set's ``ModelParams.grad`` buffer.

Broadcasting is rejected except for the affine-bias pattern (matrix [R, C]
plus vector [C]). The one other shape rule is a leading client axis: the
operations a training step of the MLP uses (``perceptron`` and
``focal_nll`` with its per-client mean), as well as ``affine``, ``relu``,
``matmul``, the bias ``add`` and ``mean`` over the last axis, also take a
stack of K independent problems, [K, R, C] with [K, C, N] or [K, C], and
give each slice the bits the rank-2 operation gives it alone; so does a
``layer_norm`` with one [K, D] affine row per client. ``transpose`` swaps
the last two axes at any rank. ``focal_nll`` also takes a list of such
stacks, a lockstep tick's groups, as one node, and gives each block the
bits of its own call.
"""

from __future__ import annotations

import io
import math
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, IngestionError, NumericError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64, "i64": np.int64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64",
                np.dtype(np.int64): "i64"}


class Tensor:
    """N-dimensional array with an optional gradient slot.

    A parameter tensor's data is a view into its ``ModelParams.flat``
    buffer; only ``federation.Adam.step`` and ``losses.clamp_gamma`` write
    it. The ``grad`` slot mutates during backward (into a parameter's view
    of ``ModelParams.grad``) and ``ModelParams.zero_grads``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_grad_view",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._grad_view: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={_DTYPE_NAMES[self.dtype]}, requires_grad={self.requires_grad})"


def _wrap(data) -> Tensor:
    """A tensor over an operation's float array, skipping the constructor's checks."""
    if type(data) is not np.ndarray:  # a numpy scalar from a reduction
        return Tensor(data)
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad = data, None, False
    out._parents, out._vjp, out._grad_view = (), None, None
    return out


# weak references to every recorded tensor, in creation order
_tape: list[weakref.ref] = []


def _record(out: Tensor, parents: Sequence[Tensor], vjp) -> Tensor:
    for p in parents:  # any() over a generator costs ten times as much per op
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
            _tape.append(weakref.ref(out))
            break
    return out


def _check_same_dtype(*tensors: Tensor) -> None:
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ContractError(f"dtype mismatch: {_DTYPE_NAMES[dt]} vs {_DTYPE_NAMES[t.dtype]}")


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


# ---------------------------------------------------------------------------
# primitives


def _check_product(op: str, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    ranks = (len(a), len(b))
    if ranks != (2, 2) and (ranks != (3, 3) or a[0] != b[0]):
        raise ShapeError(f"{op} requires rank-2 operands or two stacks of one "
                         f"depth, got {a} and {b}")
    if a[-1] != b[-2]:
        raise ShapeError(f"{op} inner dimensions disagree: {a} x {b}")


def _check_affine(op: str, x: tuple[int, ...], w: Tensor, b: Tensor) -> None:
    _check_product(op, x, w.shape)
    if b.shape != w.shape[:-2] + w.shape[-1:]:
        raise ShapeError(f"{op} bias {b.shape} does not fit {x} x {w.shape}")


def _affine_vjp(g, x: np.ndarray, w: Tensor, b: Tensor | None, x_needs: bool) -> list:
    """The gradients of x @ w (+ b) that reach x (when x_needs), w and b."""
    return [g @ np.swapaxes(w.data, -1, -2) if x_needs else None,
            np.swapaxes(x, -1, -2) @ g if w.requires_grad else None,
            g.sum(axis=-2) if b is not None and b.requires_grad else None]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[M, K] x [K, N], or two client stacks [S, M, K] x [S, K, N] slice by slice."""
    _check_same_dtype(a, b)
    _check_product("matmul", a.shape, b.shape)
    out = _wrap(a.data @ b.data)
    return _record(out, (a, b), lambda g: _affine_vjp(g, a.data, b, None, a.requires_grad)[:2])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: [R, D] x [D, E] + [E], or a client stack
    [K, R, D] x [K, D, E] + [K, E]. Values and gradients are those of
    add(matmul(x, w), b) bit for bit."""
    _check_same_dtype(x, w, b)
    _check_affine("affine", x.shape, w, b)
    out = _wrap(x.data @ w.data + b.data[..., None, :])
    return _record(out, (x, w, b), lambda g: _affine_vjp(g, x.data, w, b, x.requires_grad))


def perceptron(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """affine(relu(affine(x, w1, b1)), w2, b2) as one node, on [R, D] rows
    or a client stack [K, R, D]. Forward and backward repeat the chain's
    expressions, so values and gradients are its bits."""
    _check_same_dtype(x, w1, b1, w2, b2)
    _check_affine("perceptron", x.shape, w1, b1)
    _check_affine("perceptron", x.shape[:-1] + w1.shape[-1:], w2, b2)
    pre = x.data @ w1.data + b1.data[..., None, :]
    hidden, mask = np.maximum(pre, pre.dtype.type(0)), pre > 0
    out = _wrap(hidden @ w2.data + b2.data[..., None, :])

    def vjp(g):
        first_layer = x.requires_grad or w1.requires_grad or b1.requires_grad
        gh, gw2, gb2 = _affine_vjp(g, hidden, w2, b2, first_layer)
        return (_affine_vjp(gh * mask, x.data, w1, b1, x.requires_grad) if first_layer
                else [None] * 3) + [gw2, gb2]

    return _record(out, (x, w1, b1, w2, b2), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; a stack of matrices transposes each one."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose requires a tensor of rank 2 or more, got {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2).copy())
    return _record(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the only permitted broadcast is the bias, [R, C] + [C]
    or, on a client stack, [K, R, C] + [K, C]."""
    _check_same_dtype(a, b)
    if a.shape == b.shape:
        out = Tensor(a.data + b.data)
        return _record(out, (a, b), lambda g: (g, g))
    if a.data.ndim in (2, 3) and b.shape == a.shape[:-2] + a.shape[-1:]:
        out = Tensor(a.data + b.data[..., None, :])

        def vjp(g):
            ga = g if a.requires_grad else None
            gb = g.sum(axis=-2) if b.requires_grad else None
            return ga, gb

        return _record(out, (a, b), vjp)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)

    def vjp(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (g * s,))


def relu(a: Tensor) -> Tensor:
    out = _wrap(np.maximum(a.data, a.dtype.type(0)))
    mask = a.data > 0
    return _record(out, (a,), lambda g: (g * mask,))


def log(a: Tensor) -> Tensor:
    bad = np.flatnonzero(a.data <= 0)
    if bad.size:
        raise NumericError(f"log of nonpositive value at flat index {int(bad[0])}")
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def power(base: Tensor, exponent) -> Tensor:
    """base ** exponent, where exponent is a float or a scalar tensor.

    With a tensor exponent the base must be strictly positive so the
    exponent gradient base**e * ln(base) stays finite.
    """
    if isinstance(exponent, Tensor):
        if exponent.data.size != 1:
            raise ShapeError(f"tensor exponent must be scalar, got shape {exponent.shape}")
        _check_same_dtype(base, exponent)
        e = float(exponent.data.reshape(()))
        if exponent.requires_grad and np.any(base.data <= 0):
            bad = np.flatnonzero(base.data <= 0)
            raise NumericError(f"power with trainable exponent requires positive base; "
                               f"flat index {int(bad[0])} is not")
        result = np.power(base.data, base.dtype.type(e))

        def vjp(g):
            if e == 0.0:
                gb = np.zeros_like(base.data) if base.requires_grad else None
            else:
                gb = (g * e * np.power(base.data, base.dtype.type(e - 1.0))
                      if base.requires_grad else None)
            ge = None
            if exponent.requires_grad:
                ge = np.sum(g * result * np.log(base.data)).reshape(exponent.shape)
                ge = ge.astype(base.dtype)
            return gb, ge

        return _record(Tensor(result), (base, exponent), vjp)

    e = float(exponent)
    out = Tensor(np.power(base.data, base.dtype.type(e)))

    def vjp_scalar(g):
        if e == 0.0:
            return (np.zeros_like(base.data),)
        return (g * e * np.power(base.data, base.dtype.type(e - 1.0)),)

    return _record(out, (base,), vjp_scalar)


def clamp(a: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi))
    mask = np.ones(a.shape, dtype=bool)
    if lo is not None:
        mask &= a.data >= lo
    if hi is not None:
        mask &= a.data <= hi
    return _record(out, (a,), lambda g: (g * mask,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat of an empty sequence")
    _check_same_dtype(*tensors)
    try:
        out = _wrap(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError as exc:
        raise ShapeError(f"concat shapes disagree off axis {axis}: "
                         f"{[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    lead = (slice(None),) * (axis % out.data.ndim)  # each operand's slice of the result
    cuts = [lead + (slice(end - n, end),) for n, end in zip(sizes, np.cumsum(sizes).tolist())]

    def vjp(g):
        return tuple(g[cut] if t.requires_grad else None for cut, t in zip(cuts, tensors))

    return _record(out, tuple(tensors), vjp)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {a.data.ndim}")
    n = a.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    index = tuple(slice(start, stop) if d == axis else slice(None)
                  for d in range(a.data.ndim))
    out = Tensor(a.data[index].copy())

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record(out, (a,), vjp)


def _spread(a: Tensor, axis: int | None):
    """The VJP of a sum of a over axis (every element when None): the
    gradient spread back over a's shape."""
    if axis is None:
        return lambda g: (np.full(a.shape, g, dtype=a.dtype),)
    kept = list(a.shape)
    kept[axis] = 1

    def vjp(g):
        full = np.empty(a.shape, dtype=a.dtype)
        full[...] = g.reshape(kept)
        return (full,)

    return vjp


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    return _record(Tensor(a.data.sum(axis=axis)), (a,), _spread(a, axis))


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    """Mean over every element, or over one axis: axis=-1 of a [K, B] stack
    gives each client its own batch mean. One node with the bits of
    scale(sum_(a, axis), 1 / n)."""
    s = a.dtype.type(1.0 / (a.data.size if axis is None else a.shape[axis]))
    spread = _spread(a, axis)
    return _record(_wrap(a.data.sum(axis=axis) * s), (a,), lambda g: spread(g * s))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically safe softmax: the axis max is subtracted before exp."""
    if np.isnan(a.data).any():
        bad = np.flatnonzero(np.isnan(a.data))
        raise NumericError(f"softmax input contains NaN at flat index {int(bad[0])}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return ((g - inner) * s,)

    return _record(out, (a,), vjp)


def _row_power(base: np.ndarray, e, shift: float, sizes: list[int] | None) -> np.ndarray:
    """base ** (e + shift), e one float or one float per client row, whose
    samples lie back to back in the flat base, sizes of them a row.

    Each row gets a scalar exponent of its own: numpy takes fast paths for
    some scalar exponents (2.0, 0.5) that an array exponent skips, and the
    bits differ."""
    dt = base.dtype.type
    if isinstance(e, float):
        return np.power(base, dt(e + shift))
    return np.concatenate([np.power(base[z - n:z], dt(x + shift))
                           for n, z, x in zip(sizes, np.cumsum(sizes).tolist(), e)])


def focal_nll(logits, onehot: np.ndarray, floor: float, gamma=None,
              weights: np.ndarray | None = None, mean: bool = False) -> Tensor:
    """Per-sample w * (1 - p_t)^gamma * -log(p_t) as one tape node, or with
    mean each client's batch mean of it.

    logits are [B, C], a client stack [K, B, C], or a list of such blocks
    (a lockstep tick's groups) read as the rows of one [N, C] array; the
    one-hot labels and the weights, in the logits dtype, have the shape of
    the logits or of those rows (weights without the class axis). The
    result has the labels' shape, or for blocks [N]; the means have it
    without the batch axis, or for blocks one per client row, in order.
    p_t is the softmax probability of each row's label. Both p_t and 1 - p_t
    are clamped to [floor, 1]. gamma None drops the focal factor; a float
    (shared by every client) or a tensor keeps it, and a trainable gamma
    gets its gradient. A gamma tensor holds one scalar per client ([] or
    [K]); blocks take a list of them, one per block.

    Forward and backward repeat the expressions of the primitive chain this
    node replaces (softmax, mul by the one-hot, sum_, clamp, log, scale,
    sub, clamp, power, mul, mul, then the mean: a sum over a block's batch
    axis times 1 / B). Each is elementwise or reduces one row's classes or
    one client's batch, so each block and stack slice gets the chain's bits.
    """
    one = isinstance(logits, Tensor)
    blocks = [logits] if one else logits
    exps = [gamma] if isinstance(gamma, Tensor) else gamma if isinstance(gamma, list) else None
    c, spans, z, r = blocks[0].data.shape[-1], [], 0, 0
    for b in blocks:  # its client rows and batch size, and where its samples and rows end
        shape = b.data.shape
        if len(shape) not in (2, 3) or shape[-1] != c:
            raise ShapeError(f"focal_nll needs [B, C] or [K, B, C] logits of one class "
                             f"count, got {[b.shape for b in blocks]}")
        k, n = shape[0] if len(shape) == 3 else 1, shape[-2]
        spans.append((k, n, z := z + k * n, r := r + k))
    if onehot.size != z * c:
        raise ShapeError(f"one-hot rows {onehot.shape} for logits {[b.shape for b in blocks]}")
    sizes = None
    if exps is not None:
        if len(exps) != len(blocks) or any(
                x.shape != b.shape[:1] if b.data.ndim == 3 else x.data.size != 1
                for x, b in zip(exps, blocks)):
            raise ShapeError(f"tensor exponent must be one scalar per client, got shapes "
                             f"{[x.shape for x in exps]} for logits {[b.shape for b in blocks]}")
        e = [v for x in exps for v in x.data.reshape(-1).tolist()]
        sizes = [n for k, n, _, _ in spans for _ in range(k)]  # each client row's batch
    elif gamma is not None:
        e = float(gamma)
    if len(blocks) > 1 or exps:
        _check_same_dtype(*blocks, *(exps or ()))
    dt = blocks[0].dtype
    rows = (blocks[0].data.reshape(-1, c) if len(blocks) == 1
            else np.concatenate([b.data.reshape(-1, c) for b in blocks]))
    if one:  # the labels' shape to the rows'
        onehot = onehot.reshape(rows.shape)
        weights = None if weights is None else weights.ravel()
    # the ufunc reductions are ndarray.max and sum without their Python wrappers
    if np.logical_or.reduce(np.isnan(rows), axis=None):
        bad = np.flatnonzero(np.isnan(rows))
        raise NumericError(f"softmax input contains NaN at flat index {int(bad[0])}")
    shifted = rows - np.maximum.reduce(rows, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    s = ex / np.add.reduce(ex, axis=-1, keepdims=True)
    p_t = np.add.reduce(s * onehot, axis=-1)
    clamped = np.minimum(np.maximum(p_t, floor), 1.0)
    nll_mask = clamped == p_t  # p_t within [floor, 1]; NaN is not
    nll = np.log(clamped) * dt.type(-1.0)
    out = nll
    if gamma is not None:
        rest = dt.type(1) - p_t
        base = np.minimum(np.maximum(rest, floor), 1.0)
        base_mask = base == rest
        focal = _row_power(base, e, 0.0, sizes)
        out = focal * nll
    if weights is not None:
        out = weights * out
    if mean:
        out = [np.add.reduce(out[z - k * n:z].reshape(k, n), axis=-1) * dt.type(1.0 / n)
               for k, n, z, _ in spans]
        out = out[0] if len(out) == 1 else np.concatenate(out)
    if one:
        out = out.reshape(logits.shape[:-2] if mean else logits.shape[:-1])

    def vjp(g):
        g = g.reshape(-1)
        if mean:  # each row's gradient times 1 / B over its batch, times the weights (or 1)
            w = np.ones_like(p_t) if weights is None else weights
            g = [((g[r - k:r] * dt.type(1.0 / n))[:, None] * w[z - k * n:z].reshape(k, n)).ravel()
                 for k, n, z, r in spans]
            g = g[0] if len(g) == 1 else np.concatenate(g)
        elif weights is not None:
            g = g * weights
        g_nll = g
        g_exps = [None] * len(exps) if exps else []
        if gamma is not None:
            g_focal = g * nll
            g_nll = g * focal
            if isinstance(e, float):
                g_base = (np.zeros_like(base) if e == 0.0
                          else g_focal * e * _row_power(base, e, -1.0, sizes))
            else:
                g_base = (g_focal * np.repeat(np.asarray(e, dtype=dt), sizes)
                          * _row_power(base, e, -1.0, sizes))
                g_base[np.repeat(np.asarray(e) == 0.0, sizes)] = 0
            if exps and any(x.requires_grad for x in exps):
                g_e = g_focal * focal * np.log(base)
                g_exps = [np.add.reduce(g_e[z - k * n:z].reshape(k, n), axis=-1)
                          .reshape(x.shape).astype(dt) for (k, n, z, _), x in zip(spans, exps)]
        g_pt = (g_nll * dt.type(-1.0) / clamped) * nll_mask
        if gamma is not None:
            g_pt = g_pt + -(g_base * base_mask)
        g_s = g_pt[..., None] * onehot
        inner = np.add.reduce(g_s * s, axis=-1, keepdims=True)
        g_rows = (g_s - inner) * s
        if len(blocks) == 1:
            return [g_rows.reshape(blocks[0].data.shape)] + g_exps
        return [g_rows[z - k * n:z].reshape(b.data.shape)
                for (k, n, z, _), b in zip(spans, blocks)] + g_exps

    return _record(_wrap(out), blocks if exps is None else [*blocks, *exps], vjp)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine:
    gain and bias are [D], or [K, D] on a [K, ..., D] client stack."""
    if not 0 < eps < math.inf:
        raise ConfigError(f"layer_norm eps must be finite and positive, got {eps}")
    _check_same_dtype(a, gain, bias)
    d = a.shape[-1]
    affine = (d,) if gain.data.ndim < 2 else a.shape[:1] + (d,)
    if gain.shape != affine or bias.shape != affine or a.data.ndim < len(affine):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match input {a.shape}")
    spread = affine[:-1] + (1,) * (a.data.ndim - len(affine)) + (d,)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    y = xc * inv
    out = Tensor(y * gain.data.reshape(spread) + bias.data.reshape(spread))

    def vjp(g):
        dy = g * gain.data.reshape(spread)
        dx = None
        if a.requires_grad:
            dx = inv * (dy - dy.mean(axis=-1, keepdims=True)
                        - y * (dy * y).mean(axis=-1, keepdims=True))
        rows = affine[:-1] + (-1, d)
        dgain = (g * y).reshape(rows).sum(axis=-2) if gain.requires_grad else None
        dbias = g.reshape(rows).sum(axis=-2) if bias.requires_grad else None
        return dx, dgain, dbias

    return _record(out, (a, gain, bias), vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate ``grad`` of every requires_grad tensor ``loss`` depends on.

    Walks the tape from its newest entry to its oldest. A recorded tensor
    that has a pending gradient takes it into ``grad`` and passes its VJP's
    pieces to its parents; a parent read by several operations sums them,
    newest first. Leaves (tensors no operation made, such as parameters)
    take their summed gradient after the walk, a parameter in its slot of
    ``ModelParams.grad``. Entries whose tensors are gone are dropped from
    the tape. Repeated calls without ``ModelParams.zero_grads`` accumulate.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    pending: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
    live = []
    for ref in reversed(_tape):
        node = ref()
        if node is None:
            continue
        live.append(ref)
        entry = pending.pop(id(node), None)
        if entry is None:
            continue
        g = entry[1]
        node.grad = g if node.grad is None else node.grad + g
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            pending[key] = (parent, pg if key not in pending else pending[key][1] + pg)
    live.reverse()
    _tape[:] = live
    for leaf, g in pending.values():
        view = leaf._grad_view
        if view is None:
            leaf.grad = g if leaf.grad is None else leaf.grad + g
        elif leaf.grad is None:
            view[...] = g  # a copy keeps -0.0, which 0.0 + g would not
            leaf.grad = view
        else:
            leaf.grad = np.add(leaf.grad, g, out=view)


# ---------------------------------------------------------------------------
# serialization: plain-text header `dtype rank d1 ... dn`, then the raw
# little-endian row-major buffer


def bytes_left(fh) -> int:
    """Bytes between the position of the seekable stream fh and its end."""
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here


def write_array(fh, arr: np.ndarray) -> None:
    key = np.dtype(arr.dtype)
    if key not in _DTYPE_NAMES:
        raise ContractError(f"unsupported dtype for serialization: {arr.dtype}")
    dims = " ".join(str(d) for d in arr.shape)
    header = f"{_DTYPE_NAMES[key]} {arr.ndim}{' ' + dims if dims else ''}\n"
    fh.write(header.encode("ascii"))
    fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def read_array(fh) -> np.ndarray:
    header = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise IngestionError("unexpected end of stream while reading tensor header")
        if ch == b"\n":
            break
        header.extend(ch)
    parts = header.decode("ascii", errors="replace").split()
    if len(parts) < 2 or parts[0] not in DTYPES:
        raise IngestionError(f"malformed tensor header: {bytes(header)!r}")
    dtype = np.dtype(DTYPES[parts[0]]).newbyteorder("<")
    try:
        rank = int(parts[1])
        shape = tuple(int(p) for p in parts[2:])
    except ValueError as exc:
        raise IngestionError(f"malformed tensor header: {bytes(header)!r}") from exc
    if len(parts) != 2 + rank:
        raise IngestionError(f"tensor header declares rank {rank} but lists "
                             f"{len(parts) - 2} dimensions")
    if any(d < 0 for d in shape):
        raise IngestionError(f"negative dimension in tensor header: {shape}")
    size = math.prod(shape) * dtype.itemsize
    left = bytes_left(fh)
    if size > left:
        raise IngestionError(f"tensor payload truncated: header declares {size} bytes, "
                             f"{left} left in the stream")
    raw = fh.read(size)
    try:
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    except ValueError as exc:  # an empty payload under dimensions numpy cannot hold
        raise IngestionError(f"tensor header declares an unsupported shape {shape}") from exc
    return arr.astype(dtype.newbyteorder("="))


def save_array(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_array(fh, arr)


def load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_array(fh)
