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
operations a training step of the MLP uses (``affine``, ``relu``,
``focal_nll`` and the per-client ``mean`` over the last axis), as well as
``matmul`` and the bias ``add``, also take a stack of K independent
problems, [K, R, C] with [K, C, N] or [K, C], and
give each slice the bits the rank-2 operation gives it alone; so does a
``layer_norm`` with one [K, D] affine row per client. ``transpose`` swaps
the last two axes at any rank.
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


def _check_product(op: str, a: Tensor, b: Tensor) -> None:
    ranks = (a.data.ndim, b.data.ndim)
    if ranks != (2, 2) and (ranks != (3, 3) or a.shape[0] != b.shape[0]):
        raise ShapeError(f"{op} requires rank-2 operands or two stacks of one "
                         f"depth, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{op} inner dimensions disagree: {a.shape} x {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[M, K] x [K, N], or two client stacks [S, M, K] x [S, K, N] slice by slice."""
    _check_same_dtype(a, b)
    _check_product("matmul", a, b)
    out = _wrap(a.data @ b.data)

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
        gb = np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: [R, D] x [D, E] + [E], or a client stack
    [K, R, D] x [K, D, E] + [K, E]. Values and gradients are those of
    add(matmul(x, w), b) bit for bit."""
    _check_same_dtype(x, w, b)
    _check_product("affine", x, w)
    if b.shape != w.shape[:-2] + w.shape[-1:]:
        raise ShapeError(f"affine bias {b.shape} does not fit {x.shape} x {w.shape}")
    out = _wrap(x.data @ w.data + b.data[..., None, :])

    def vjp(g):
        gx = g @ np.swapaxes(w.data, -1, -2) if x.requires_grad else None
        gw = np.swapaxes(x.data, -1, -2) @ g if w.requires_grad else None
        gb = g.sum(axis=-2) if b.requires_grad else None
        return gx, gw, gb

    return _record(out, (x, w, b), vjp)


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
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError as exc:
        raise ShapeError(f"concat shapes disagree off axis {axis}: "
                         f"{[t.shape for t in tensors]}") from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, tensors))

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


def _row_power(base: np.ndarray, e, shift: float) -> np.ndarray:
    """base ** (e + shift), e one float or one float per client row.

    Each row gets a scalar exponent of its own: numpy takes fast paths for
    some scalar exponents (2.0, 0.5) that an array exponent skips, and the
    bits differ."""
    dt = base.dtype.type
    if isinstance(e, float):
        return np.power(base, dt(e + shift))
    return np.stack([np.power(row, dt(x + shift)) for row, x in zip(base, e)])


def focal_nll(logits: Tensor, onehot: np.ndarray, floor: float, gamma=None,
              weights: np.ndarray | None = None) -> Tensor:
    """Per-sample w * (1 - p_t)^gamma * -log(p_t) as one tape node.

    logits are [B, C], or a client stack [K, B, C]; onehot, the labels as
    one-hot rows, has their shape and dtype; weights and the result have
    it without the class axis. p_t is the softmax probability of each
    row's label. Both p_t and 1 - p_t are clamped to [floor, 1]. gamma None
    drops the focal factor; a float (shared by every client) or a tensor
    keeps it, and a trainable gamma gets its gradient. A gamma tensor is a
    scalar, or on a stack one scalar per client ([K]). weights (the logits
    dtype) multiply the result.

    Forward and backward repeat, expression for expression, the chain of
    primitives this node replaces (softmax, mul by the one-hot, sum_, clamp,
    log, scale, sub, clamp, power, mul, mul), so values and gradients are
    the chain's bit for bit, on each slice of a stack as well.
    """
    dt = logits.dtype
    exponent = None
    if isinstance(gamma, Tensor):
        stacked = logits.data.ndim == 3
        if not (gamma.shape == logits.shape[:1] if stacked else gamma.data.size == 1):
            raise ShapeError(f"tensor exponent must be one scalar per client, got shape "
                             f"{gamma.shape} for logits {logits.shape}")
        _check_same_dtype(logits, gamma)
        exponent = gamma
        e = gamma.data.tolist() if stacked else float(gamma.data.reshape(()))
    elif gamma is not None:
        e = float(gamma)
    if np.isnan(logits.data).any():
        bad = np.flatnonzero(np.isnan(logits.data))
        raise NumericError(f"softmax input contains NaN at flat index {int(bad[0])}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=-1, keepdims=True)
    p_t = (s * onehot).sum(axis=-1)
    clamped = np.minimum(np.maximum(p_t, floor), 1.0)
    nll_mask = clamped == p_t  # p_t within [floor, 1]; NaN is not
    nll = np.log(clamped) * dt.type(-1.0)
    out = nll
    if gamma is not None:
        rest = dt.type(1) - p_t
        base = np.minimum(np.maximum(rest, floor), 1.0)
        base_mask = base == rest
        focal = _row_power(base, e, 0.0)
        out = focal * nll
    if weights is not None:
        out = weights * out

    def vjp(g):
        if weights is not None:
            g = g * weights
        g_nll = g
        g_exp = None
        if gamma is not None:
            g_focal = g * nll
            g_nll = g * focal
            if isinstance(e, float):
                g_base = (np.zeros_like(base) if e == 0.0
                          else g_focal * e * _row_power(base, e, -1.0))
            else:
                g_base = g_focal * np.asarray(e, dtype=dt)[:, None] * _row_power(base, e, -1.0)
                g_base[np.asarray(e) == 0.0] = 0
            if exponent is not None and exponent.requires_grad:
                g_exp = (g_focal * focal * np.log(base)).sum(axis=-1).reshape(exponent.shape)
                g_exp = g_exp.astype(dt)
        g_pt = (g_nll * dt.type(-1.0) / clamped) * nll_mask
        if gamma is not None:
            g_pt = g_pt + -(g_base * base_mask)
        g_s = g_pt[..., None] * onehot
        inner = (g_s * s).sum(axis=-1, keepdims=True)
        return (g_s - inner) * s, g_exp

    parents = (logits,) if exponent is None else (logits, exponent)
    return _record(_wrap(out), parents, vjp)


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
