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
``losses.clamp_gamma`` write them, in place. ``backward`` copies a parameter's
first gradient after ``zero_grads`` into its slot of ``ModelParams.grad`` and
adds later ones there; the optimizer reads that buffer, never ``Tensor.grad``.

Broadcasting is rejected except for the affine-bias pattern (matrix [R, C]
plus vector [C]). The one other shape rule is a leading client axis:
``perceptron``, ``focal_nll`` with its per-client mean, ``affine``,
``relu``, ``matmul`` and the bias ``add`` also take a stack of K
independent problems, [K, R, C] with [K, C, N] or [K, C], and give each
slice the bits the rank-2 operation gives it alone; so does a
``layer_norm`` with one [K, D] affine row per client. ``transpose`` swaps
the last two axes at any rank. ``perceptron`` and ``focal_nll`` are thin
nodes over array kernels, which an MLP training tick runs off the tape
(the loss over all of a tick's groups at once); ``softmax_kernel`` serves
the loss, evaluation and attention.
"""

from __future__ import annotations

import io
import itertools
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
    it. ``grad`` is the tape's: ``backward`` sets it, a parameter's to its
    ``ModelParams.grad`` slot, and only ``ModelParams.zero_grads`` clears it.
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


# weak references to every recorded tensor, in creation order
_tape: list[weakref.ref] = []


def _record(data, parents: Sequence[Tensor], vjp) -> Tensor:
    """The tensor over an operation's float result, skipping the constructor's
    checks; on the tape with its parents and VJP when one needs a gradient."""
    if type(data) is not np.ndarray:  # the numpy scalar of a full reduction
        data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out._grad_view = data, None, None
    for p in parents:  # any() over a generator costs ten times as much per op
        if p.requires_grad:
            out.requires_grad, out._parents, out._vjp = True, tuple(parents), vjp
            _tape.append(weakref.ref(out))
            return out
    out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def _check_same_dtype(*operands) -> None:
    """One dtype for every operand, tensor or array."""
    dt = operands[0].dtype
    for t in operands[1:]:
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
    """The gradients of x @ w (+ b) that reach x (when x_needs), w and b; the
    ndarray method and the ufunc skip np.swapaxes's and .sum's Python wrappers."""
    return [g @ w.data.swapaxes(-1, -2) if x_needs else None,
            x.swapaxes(-1, -2) @ g if w.requires_grad else None,
            np.add.reduce(g, axis=-2) if b is not None and b.requires_grad else None]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[M, K] x [K, N], or two client stacks [S, M, K] x [S, K, N] slice by slice."""
    _check_same_dtype(a, b)
    _check_product("matmul", a.shape, b.shape)
    out = a.data @ b.data
    return _record(out, (a, b), lambda g: _affine_vjp(g, a.data, b, None, a.requires_grad)[:2])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: [R, D] x [D, E] + [E], or a client stack
    [K, R, D] x [K, D, E] + [K, E]. Values and gradients are those of
    add(matmul(x, w), b) bit for bit."""
    _check_same_dtype(x, w, b)
    _check_affine("affine", x.shape, w, b)
    out = x.data @ w.data + b.data[..., None, :]
    return _record(out, (x, w, b), lambda g: _affine_vjp(g, x.data, w, b, x.requires_grad))


def check_perceptron(x, w1, b1, w2, b2) -> None:
    """The perceptron's operands, tensors or arrays, share a dtype and fit
    two affine layers: [R, D] rows, or a client stack [K, R, D] of them."""
    _check_same_dtype(x, w1, b1, w2, b2)
    _check_affine("perceptron", x.shape, w1, b1)
    _check_affine("perceptron", x.shape[:-1] + w1.shape[-1:], w2, b2)


def perceptron_kernel(x, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """relu(x @ w1 + b1) @ w2 + b2 on arrays checked by ``check_perceptron``:
    the output, and the hidden rows and ReLU mask its VJP reads."""
    pre = x @ w1 + b1[..., None, :]
    hidden = np.maximum(pre, 0.0)
    return hidden @ w2 + b2[..., None, :], hidden, pre > 0


def perceptron_kernel_vjp(g, x, hidden, mask, w1, w2, out=(None,) * 4,
                          x_needs: bool = False) -> list:
    """The gradients of ``perceptron_kernel``'s output reaching x (when
    x_needs), w1, b1, w2 and b2; the last four written into out's arrays
    when given. The ndarray method and the ufuncs skip np.swapaxes's and
    .sum's Python wrappers."""
    gw2 = np.matmul(hidden.swapaxes(-1, -2), g, out=out[2])
    gb2 = np.add.reduce(g, axis=-2, out=out[3])
    gm = g @ w2.swapaxes(-1, -2)
    gm *= mask
    return [gm @ w1.swapaxes(-1, -2) if x_needs else None,
            np.matmul(x.swapaxes(-1, -2), gm, out=out[0]),
            np.add.reduce(gm, axis=-2, out=out[1]), gw2, gb2]


def perceptron(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """affine(relu(affine(x, w1, b1)), w2, b2) as one node, on [R, D] rows
    or a client stack [K, R, D]. Forward and backward repeat the chain's
    expressions, so values and gradients are its bits."""
    check_perceptron(x, w1, b1, w2, b2)
    out, hidden, mask = perceptron_kernel(x.data, w1.data, b1.data, w2.data, b2.data)
    return _record(out, (x, w1, b1, w2, b2), lambda g: perceptron_kernel_vjp(
        g, x.data, hidden, mask, w1.data, w2.data, x_needs=x.requires_grad))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; a stack of matrices transposes each one."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose requires a tensor of rank 2 or more, got {a.shape}")
    return _record(np.swapaxes(a.data, -1, -2).copy(), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the only permitted broadcast is the bias, [R, C] + [C]
    or, on a client stack, [K, R, C] + [K, C]."""
    _check_same_dtype(a, b)
    if a.shape == b.shape:
        return _record(a.data + b.data, (a, b), lambda g: (g, g))
    if a.data.ndim in (2, 3) and b.shape == a.shape[:-2] + a.shape[-1:]:
        def vjp(g):
            ga = g if a.requires_grad else None
            gb = g.sum(axis=-2) if b.requires_grad else None
            return ga, gb

        return _record(a.data + b.data[..., None, :], (a, b), vjp)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _record(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    def vjp(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return ga, gb

    return _record(a.data * b.data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)
    return _record(a.data * s, (a,), lambda g: (g * s,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(np.maximum(a.data, a.dtype.type(0)), (a,), lambda g: (g * mask,))


def log(a: Tensor) -> Tensor:
    bad = np.flatnonzero(a.data <= 0)
    if bad.size:
        raise NumericError(f"log of nonpositive value at flat index {int(bad[0])}")
    return _record(np.log(a.data), (a,), lambda g: (g / a.data,))


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

        return _record(result, (base, exponent), vjp)

    e = float(exponent)

    def vjp_scalar(g):
        if e == 0.0:
            return (np.zeros_like(base.data),)
        return (g * e * np.power(base.data, base.dtype.type(e - 1.0)),)

    return _record(np.power(base.data, base.dtype.type(e)), (base,), vjp_scalar)


def clamp(a: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    mask = np.ones(a.shape, dtype=bool)
    if lo is not None:
        mask &= a.data >= lo
    if hi is not None:
        mask &= a.data <= hi
    return _record(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat of an empty sequence")
    _check_same_dtype(*tensors)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat shapes disagree off axis {axis}: "
                         f"{[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    lead = (slice(None),) * (axis % out.ndim)  # each operand's slice of the result
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
    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _record(a.data[index].copy(), (a,), vjp)


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
    return _record(a.data.sum(axis=axis), (a,), _spread(a, axis))


def softmax_kernel(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax over axis, the max subtracted before exp; a NaN is a NumericError.
    The ufunc reductions are ndarray.max and sum without their wrappers. A
    max is NaN when any operand is, so the largest row max screens for NaN."""
    top = np.maximum.reduce(x, axis=axis, keepdims=True)
    peak = np.maximum.reduce(top, axis=None, initial=-math.inf)
    if peak != peak:
        bad = np.flatnonzero(np.isnan(x))
        raise NumericError(f"softmax input contains NaN at flat index {int(bad[0])}")
    ex = np.exp(x - top)
    return ex / np.add.reduce(ex, axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically safe softmax: the axis max is subtracted before exp."""
    s = softmax_kernel(a.data, axis)
    return _record(s, (a,), lambda g: ((g - np.add.reduce(g * s, axis=axis, keepdims=True)) * s,))


def _row_power(base: np.ndarray, e: list[float], shift: float, sizes: list[int],
               out: np.ndarray | None = None) -> np.ndarray:
    """base ** (e + shift) with one float of e per client row, whose samples
    lie back to back in the flat base, sizes of them a row (into out, given).

    Each row gets a scalar exponent of its own: numpy takes fast paths for
    some scalar exponents (2.0, 0.5) that an array exponent skips, and the
    bits differ."""
    dt = base.dtype.type
    out = np.empty(base.shape, base.dtype) if out is None else out
    for n, z, x in zip(sizes, itertools.accumulate(sizes), e):
        np.power(base[z - n:z], dt(x + shift), out=out[z - n:z])
    return out


def focal_spans(shapes: list[tuple[int, ...]], onehot: np.ndarray, dtype,
                gammas: list[np.ndarray] | None = None) -> list[tuple[int, int, int]]:
    """Each block's client rows k, batch n and samples' end, for logits
    blocks of these shapes ([B, C] or [K, B, C]) read as the rows of one
    [N, C] array; checks that the one-hot rows, in the logits dtype, hold
    one row per sample and gammas (given) one scalar per client a block."""
    c, spans, z = shapes[0][-1], [], 0
    for shape in shapes:
        if len(shape) not in (2, 3) or shape[-1] != c:
            raise ShapeError(f"focal_nll needs [B, C] or [K, B, C] logits of one class "
                             f"count, got {shapes}")
        k, n = shape[0] if len(shape) == 3 else 1, shape[-2]
        spans.append((k, n, z := z + k * n))
    if onehot.shape[-1:] != (c,) or onehot.dtype != dtype:
        raise ContractError(f"targets of {onehot.shape[-1] if onehot.ndim else 0} classes in "
                            f"{onehot.dtype} for {np.dtype(dtype)} logits {shapes[0]}")
    if onehot.size != z * c:
        raise ShapeError(f"one-hot rows {onehot.shape} for logits {shapes}")
    if gammas is not None and (len(gammas) != len(shapes) or any(
            x.shape != s[:1] if len(s) == 3 else x.size != 1 for x, s in zip(gammas, shapes))):
        raise ShapeError(f"tensor exponent must be one scalar per client, got shapes "
                         f"{[x.shape for x in gammas]} for logits {shapes}")
    return spans


def focal_product(nll: np.ndarray, focal: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample w * (1 - p_t)^e * -log(p_t) from the two factors
    ``focal_kernel`` writes and the weights w (ones for an unweighted loss)."""
    return weights * (focal * nll)


def focal_kernel(rows: np.ndarray, onehot: np.ndarray, floor: float, e, sizes,
                 nll: np.ndarray, focal: np.ndarray):
    """Writes the factors of the per-sample loss w * (1 - p_t)^e * -log(p_t)
    (``focal_product``) of [N, C] logits rows into [N] arrays, -log(p_t)
    into nll and (1 - p_t)^e into focal; p_t is the softmax probability of
    each one-hot row's label, it and 1 - p_t clamped below at floor. e is
    a float, every sample's (0.0, cross-entropy, makes the factor exactly 1
    and its gradient 0), or a list, one per client row, sizes of them back
    to back. Returns vjp(g) (g per sample, times w by the caller): the
    gradient reaching the rows and, with spans, each client row's exponent
    gradient (into outs). Both replay the primitive chain the loss
    replaced, less steps that cannot change a bit (the clamps at 1 and the
    softmax VJP's row sum, g_t * p_t + 0 on one-hot rows)."""
    s = softmax_kernel(rows, -1)
    p_t = np.add.reduce(s * onehot, axis=-1)
    clamped = np.maximum(p_t, floor)
    np.multiply(np.log(clamped), -1.0, out=nll)
    rest = 1.0 - p_t
    base = np.maximum(rest, floor)
    if sizes is None:
        np.power(base, rows.dtype.type(e), out=focal)
    else:
        _row_power(base, e, 0.0, sizes, focal)

    def vjp(g, spans=None, outs=None):
        dt, g_exps = base.dtype, None
        g_focal, g_nll = g * nll, g * focal
        if sizes is None:
            g_base = (np.zeros(base.shape, dt) if e == 0.0
                      else g_focal * e * np.power(base, dt.type(e - 1.0)))
        else:
            g_base = (g_focal * np.asarray(e, dtype=dt).repeat(sizes)
                      * _row_power(base, e, -1.0, sizes))
            g_base[(np.asarray(e) == 0.0).repeat(sizes)] = 0
        if spans is not None:  # each client row's sum over its batch, a [k] per span
            d = g_focal * focal * np.log(base)
            g_exps = [np.add.reduce(d[z - k * n:z].reshape(k, n), axis=-1, out=o)
                      for (k, n, z), o in zip(spans, outs or itertools.repeat(None))]
        g_pt = (g_nll * -1.0 / clamped) * (clamped == p_t)  # p_t at or above the floor
        g_pt = g_pt - g_base * (base == rest)
        return (g_pt[:, None] * onehot - (g_pt * p_t + 0.0)[:, None]) * s, g_exps

    return vjp


def focal_nll(logits: Tensor, onehot: np.ndarray, floor: float, gamma=None,
              weights: np.ndarray | None = None, mean: bool = False) -> Tensor:
    """Per-sample w * (1 - p_t)^gamma * -log(p_t) of [B, C] logits or a
    client stack [K, B, C] as one node over ``focal_kernel``, or with mean
    each client's batch mean of it; the one-hot rows and the weights, in
    the logits dtype, hold one row (one weight) per sample, and no weights
    weigh 1. gamma None is 0.0, cross-entropy; a float is every client's
    and a tensor one scalar per client ([] or [K]), and a trainable one
    gets its gradient."""
    exps = gamma if isinstance(gamma, Tensor) else None
    spans = focal_spans([logits.shape], onehot, logits.dtype,
                        None if exps is None else [exps.data])
    (k, n, _), = spans
    if exps is not None:
        _check_same_dtype(logits, exps)
        e, sizes = exps.data.reshape(-1).tolist(), [n] * k
    else:
        e, sizes = 0.0 if gamma is None else float(gamma), None
    rows = logits.data.reshape(-1, logits.shape[-1])
    weights = np.ones(k * n, rows.dtype) if weights is None else weights.reshape(-1)
    nll, focal = np.empty(k * n, rows.dtype), np.empty(k * n, rows.dtype)
    rows_vjp = focal_kernel(rows, onehot.reshape(rows.shape), floor, e, sizes, nll, focal)
    out = focal_product(nll, focal, weights)
    lead = logits.shape[:-2] if mean else logits.shape[:-1]

    def vjp(g):
        g = g.reshape(-1)
        if mean:  # each row's gradient times 1 / B, over its batch
            g = (g * (1.0 / n)).repeat(n)
        g_rows, g_exps = rows_vjp(g * weights,
                                  spans if exps is not None and exps.requires_grad else None)
        return g_rows.reshape(logits.shape), g_exps and g_exps[0].reshape(exps.shape)

    return _record((np.add.reduce(out.reshape(k, n), axis=-1) * (1.0 / n) if mean
                    else out).reshape(lead),
                   (logits,) if exps is None else (logits, exps), vjp)


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

    return _record(y * gain.data.reshape(spread) + bias.data.reshape(spread), (a, gain, bias),
                   vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor, grad: np.ndarray | None = None) -> None:
    """Populate ``grad`` of every requires_grad tensor ``loss`` depends on.

    The walk starts from grad, an ndarray of loss's shape and dtype, or
    from 1 for a scalar loss: ones over one loss per client give the bits
    of ``backward(sum_(loss))``.

    Walks the tape from its newest entry to its oldest. A recorded tensor
    that has a pending gradient takes it into ``grad`` and passes its VJP's
    pieces to its parents; a parent read by several operations sums them,
    newest first. Leaves (tensors no operation made, such as parameters)
    take their summed gradient after the walk, a parameter in its slot of
    ``ModelParams.grad``. Entries whose tensors are gone are dropped from
    the tape. Repeated calls without ``ModelParams.zero_grads`` accumulate.
    """
    data = loss.data
    if grad is None:
        if data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        grad = np.ones_like(data)
    elif not (isinstance(grad, np.ndarray) and grad.shape == data.shape
              and grad.dtype == data.dtype):
        raise ContractError(f"backward seed must be a {data.dtype} ndarray "
                            f"of shape {loss.shape}")
    if not loss.requires_grad:
        return
    pending = {loss: grad}  # tensors hash by identity
    live = []
    for ref in reversed(_tape):
        node = ref()
        if node is None:
            continue
        live.append(ref)
        g = pending.pop(node, None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is not None and parent.requires_grad:
                pending[parent] = pg if parent not in pending else pending[parent] + pg
    live.reverse()
    _tape[:] = live
    for leaf, g in pending.items():
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
