"""Tiny Vision Transformer and MLP classifiers built on the tensor core.

Both models expose the same surface to the training layer: an ordered,
named parameter list plus a batch logits function, so federation code never
branches on the architecture.

The transformer follows the classic encoder recipe: patch embedding with a
class token and additive positional encoding, stacked post-norm blocks
(LayerNorm applied after each residual sum), scaled dot-product multi-head
attention, and a two-layer ReLU feed-forward network. Attention maps are
returned so saliency rollout can consume them.

One forward serves one [C, H, W] image, a [B, C, H, W] batch and, on a
stack of K parameter sets, a [K, B, C, H, W] stack: every linear layer
folds the leading axes (after the client axis) into rows, attention stacks
images times heads on one axis, and the class token and positions enter
as biases. No step loops over images, heads or clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import AggregationError, ConfigError, ContractError, IngestionError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class ViTConfig:
    image_size: int = 32
    patch_size: int = 8
    channels: int = 1
    embed_dim: int = 32
    num_heads: int = 4
    head_dim: int = 8
    ffn_dim: int = 64
    num_layers: int = 2
    num_classes: int = 5
    layer_norm_eps: float = 1e-5
    learned_positions: bool = False

    def __post_init__(self):
        if min(self.image_size, self.patch_size, self.channels, self.embed_dim,
               self.num_heads, self.head_dim, self.ffn_dim, self.num_layers,
               self.num_classes) < 1:
            raise ConfigError("all ViT dimensions must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(f"image size {self.image_size} not divisible by "
                              f"patch size {self.patch_size}")
        if self.embed_dim != self.num_heads * self.head_dim:
            raise ConfigError(f"embed_dim {self.embed_dim} must equal "
                              f"num_heads*head_dim {self.num_heads * self.head_dim}")
        if not 0 < self.layer_norm_eps < math.inf:
            raise ConfigError(f"layer_norm_eps must be finite and positive, "
                              f"got {self.layer_norm_eps}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.num_classes) < 1:
            raise ConfigError("all MLP dimensions must be >= 1")


def _cut(flat: np.ndarray, manifest):
    """Reshape views of the buffer flat, one per manifest entry, in order; a
    [K, P] stack gives [K, *shape] views."""
    offset = 0
    for _, shape in manifest:
        size = math.prod(shape)
        yield flat[..., offset:offset + size].reshape(flat.shape[:-1] + tuple(shape))
        offset += size


class ModelParams:
    """Ordered, named parameter tensors in one flat buffer, or one [K, P]
    stack of K such sets.

    All tensors share one dtype. ``flat`` is a contiguous 1-D array that
    holds every tensor's scalars in manifest order, and each tensor's
    ``data`` is a reshape view into it, so a copy, an optimizer step or a
    weighted sum over the whole set is one array operation. The
    constructor copies the given tensors' values into a fresh buffer and
    rebinds each tensor's ``data`` to its view: the tensors passed in
    become this set's own. Only ``federation.Adam.step`` and
    ``losses.clamp_gamma`` write into the buffer. ``from_flat`` also wraps
    a [K, P] stack of K sets, one per client: a round trains its clients on
    one stack, and aggregation reads its rows into the next global set.
    A trainable set also owns ``grad``, shaped like ``flat``: each tensor's
    gradient slot is a view of it, which ``tensor.backward`` writes and
    ``federation.Adam.step`` reads as one array. A tensor's ``grad`` None
    (``zero_grads``) marks its slot as holding no gradient this step.
    """

    def __init__(self, items: list[tuple[str, Tensor]]):
        self._names = [name for name, _ in items]
        self._by_name = dict(items)
        if len(self._by_name) != len(self._names):
            raise ConfigError("duplicate parameter names")
        if len({id(t) for _, t in items}) != len(items):
            raise ConfigError("one tensor listed under two parameter names")
        dtypes = sorted({str(t.dtype) for _, t in items})
        if len(dtypes) > 1:
            raise ContractError(f"parameter dtypes differ: {', '.join(dtypes)}")
        self._manifest = [(name, t.shape) for name, t in items]
        self.flat = (np.concatenate([t.data.reshape(-1) for _, t in items])
                     if items else np.empty(0))
        self.grad = np.zeros_like(self.flat)
        for (_, t), view, slot in zip(items, _cut(self.flat, self._manifest),
                                      _cut(self.grad, self._manifest)):
            t.data, t._grad_view = view, slot

    @classmethod
    def from_flat(cls, manifest: list[tuple[str, tuple[int, ...]]], flat: np.ndarray,
                  requires_grad: bool = True) -> "ModelParams":
        """A set whose tensors view the buffer flat itself (no copy), cut in
        manifest order. flat is one 1-D buffer, or a [K, P] stack of K
        sets, one per row, whose tensors are then [K, *shape]. A trainable
        set gets a fresh ``grad`` buffer; a frozen one has none."""
        if flat.ndim not in (1, 2) or not flat.flags.c_contiguous:
            raise ContractError("a parameter buffer must be one contiguous 1-D array "
                                "or a contiguous stack of them")
        needed = sum(math.prod(shape) for _, shape in manifest)
        if flat.shape[-1] != needed:
            raise ShapeError(f"flat vector has {flat.shape[-1]} scalars, model needs {needed}")
        params = cls.__new__(cls)
        params._names = [name for name, _ in manifest]
        params._manifest = list(manifest)
        params.flat = flat
        params.grad = np.zeros_like(flat) if requires_grad else None
        params._by_name = {name: Tensor(view, requires_grad=requires_grad)
                           for (name, _), view in zip(manifest, _cut(flat, manifest))}
        if requires_grad:
            for t, slot in zip(params._by_name.values(), _cut(params.grad, manifest)):
                t._grad_view = slot
        return params

    def rows(self, sel: slice) -> "ModelParams":
        """A view of the rows sel of this trainable [K, P] stack: one
        trainable tensor per parameter over the same rows of this set's own
        tensors, sharing both buffers (``flat``, ``grad``) and the manifest."""
        view = ModelParams.__new__(ModelParams)
        view._names, view._manifest = self._names, self._manifest
        view.flat, view.grad = self.flat[sel], self.grad[sel]
        view._by_name = {}
        for name, t in self._by_name.items():
            view._by_name[name] = row = Tensor(t.data[sel], requires_grad=True)
            row._grad_view = t._grad_view[sel]
        return view

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __getitem__(self, name: str) -> Tensor:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        for name in self._names:
            yield name, self._by_name[name]

    def tensors(self) -> list[Tensor]:
        return [self._by_name[n] for n in self._names]

    def manifest(self) -> list[tuple[str, tuple[int, ...]]]:
        return list(self._manifest)

    def zero_grads(self) -> None:
        for _, t in self:
            t.grad = None


def check_manifests_match(params_list: list[ModelParams]) -> None:
    """All participants must expose the same names and shapes, in order."""
    ref = params_list[0].manifest()
    for k, other in enumerate(params_list[1:], start=1):
        m = other.manifest()
        if m != ref:
            for (n0, s0), (n1, s1) in zip(ref, m):
                if (n0, s0) != (n1, s1):
                    raise AggregationError(
                        f"parameter manifest mismatch at entry {n0!r} "
                        f"{s0} vs {n1!r} {s1} (participant {k})")
            raise AggregationError(
                f"parameter manifest length differs: {len(ref)} vs {len(m)} "
                f"(participant {k})")


def sinusoidal_positions(n: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Classic fixed sin/cos positional table, one row per sequence slot."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / dim)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(dtype)


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# ViT


def patchify(images, cfg: ViTConfig) -> Tensor:
    """Cut [..., C, H, W] images into [..., N, patch_dim] flattened patches.

    Row k of an image's patches is patch (k // grid, k % grid) flattened
    channel-major, so reassembling rows in the same order reproduces the
    image exactly.
    """
    data = np.asarray(images)
    if data.shape[-3:] != (cfg.channels, cfg.image_size, cfg.image_size):
        raise ConfigError(f"image shape {data.shape[-3:]} does not match config "
                          f"({cfg.channels}, {cfg.image_size}, {cfg.image_size})")
    lead, p, g = data.shape[:-3], cfg.patch_size, cfg.grid
    # [..., C, gy, py, gx, px] -> [..., gy, gx, C, py, px]
    rows = np.moveaxis(data.reshape(lead + (cfg.channels, g, p, g, p)), (-4, -2), (-5, -4))
    return T.constant(rows.reshape(lead + (cfg.num_patches, cfg.patch_dim)))


def init_vit_params(cfg: ViTConfig, rng: np.random.Generator, dtype=np.float32,
                    gamma_init: float | None = None) -> ModelParams:
    """Fresh parameter set. Weight matrices are uniform in +-1/sqrt(fan_in);
    the class token (and learned positions, if enabled) are Gaussian with
    std 0.02; affine norms start at identity."""
    d, dff, c = cfg.embed_dim, cfg.ffn_dim, cfg.num_classes
    items: list[tuple[str, Tensor]] = []

    def param(name, arr):
        items.append((name, T.parameter(arr, dtype=dtype)))

    param("patch_embed", _uniform_fan_in(rng, cfg.patch_dim, (cfg.patch_dim, d), dtype))
    param("class_token", (rng.normal(0.0, 0.02, size=(1, d))).astype(dtype))
    if cfg.learned_positions:
        param("pos_embed", (rng.normal(0.0, 0.02, size=(cfg.num_patches + 1, d))).astype(dtype))
    for i in range(cfg.num_layers):
        for w in ("wq", "wk", "wv", "wo"):
            param(f"layers.{i}.attn.{w}", _uniform_fan_in(rng, d, (d, d), dtype))
        param(f"layers.{i}.norm1.gain", np.ones(d, dtype=dtype))
        param(f"layers.{i}.norm1.bias", np.zeros(d, dtype=dtype))
        param(f"layers.{i}.ffn.w1", _uniform_fan_in(rng, d, (d, dff), dtype))
        param(f"layers.{i}.ffn.b1", np.zeros(dff, dtype=dtype))
        param(f"layers.{i}.ffn.w2", _uniform_fan_in(rng, dff, (dff, d), dtype))
        param(f"layers.{i}.ffn.b2", np.zeros(d, dtype=dtype))
        param(f"layers.{i}.norm2.gain", np.ones(d, dtype=dtype))
        param(f"layers.{i}.norm2.bias", np.zeros(d, dtype=dtype))
    param("head.weight", _uniform_fan_in(rng, d, (d, c), dtype))
    param("head.bias", np.zeros(c, dtype=dtype))
    if gamma_init is not None:
        param("loss.gamma", np.asarray(gamma_init, dtype=dtype))
    return ModelParams(items)


def _fold(x: Tensor, weight: Tensor) -> Tensor:
    """[..., D] as the rows [R, D] a [D, E] weight takes, or [K, R, D] for
    a client stack of weights [K, D, E]."""
    k, d = weight.shape[:-2], x.shape[-1]
    return T.reshape(x, k + (x.data.size // (math.prod(k) * d), d))


def embed(patches: Tensor, params: ModelParams, cfg: ViTConfig,
          positions: np.ndarray | None = None) -> Tensor:
    """Project [..., N, patch_dim] patches, prepend the class token (a bias
    on zero rows), add the positions (a bias over each image's flattened
    tokens): [..., N+1, D]."""
    if patches.shape[-2:] != (cfg.num_patches, cfg.patch_dim):
        raise ShapeError(f"patches shape {patches.shape} does not match "
                         f"(..., {cfg.num_patches}, {cfg.patch_dim})")
    d, n, lead = cfg.embed_dim, cfg.num_patches + 1, patches.shape[:-2]
    k = params["patch_embed"].shape[:-2]
    images = math.prod(lead[len(k):])
    if cfg.learned_positions:
        pos = params["pos_embed"]
    else:
        table = sinusoidal_positions(n, d, patches.dtype) if positions is None else positions
        pos = T.constant(np.broadcast_to(table, k + table.shape))
    if pos.shape[-2] != n:
        raise ShapeError(f"positional table has {pos.shape[-2]} rows, sequence needs {n}")
    cls = T.add(T.constant(np.zeros(k + (images, d), dtype=patches.dtype)),
                T.reshape(params["class_token"], k + (d,)))
    projected = T.matmul(_fold(patches, params["patch_embed"]), params["patch_embed"])
    seq = T.concat([T.reshape(cls, lead + (1, d)),
                    T.reshape(projected, lead + (n - 1, d))], axis=-2)
    tokens = T.add(T.reshape(seq, k + (images, n * d)), T.reshape(pos, k + (n * d,)))
    return T.reshape(tokens, lead + (n, d))


def multi_head_attention(z: Tensor, params: ModelParams, layer: int,
                         cfg: ViTConfig) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over [..., T, D] tokens; returns the
    output and the [..., heads, T, T] maps. Every head of every image is
    one slice S of a single [S, T, dk] x [S, dk, T] product."""
    prefix = f"layers.{layer}.attn"
    lead, (t, d) = z.shape[:-2], z.shape[-2:]
    images, h, dk = math.prod(lead), cfg.num_heads, cfg.head_dim
    rows = _fold(z, params[f"{prefix}.wq"])

    def heads_t(name):
        # [..., T, D] -> [S, dk, T]: each image's heads, transposed
        x = T.reshape(T.matmul(rows, params[f"{prefix}.{name}"]), (images, t, d))
        return T.reshape(T.transpose(x), (images * h, dk, t))

    q = T.transpose(heads_t("wq"))
    scores = T.scale(T.matmul(q, heads_t("wk")), 1.0 / math.sqrt(dk))
    maps = T.softmax(T.reshape(scores, lead + (h, t, t)), axis=-1)
    mixed = T.matmul(T.reshape(maps, (images * h, t, t)), T.transpose(heads_t("wv")))
    # [S, T, dk] -> [..., T, D], heads side by side
    joined = T.transpose(T.reshape(T.transpose(mixed), (images, d, t)))
    out = T.matmul(T.reshape(joined, rows.shape), params[f"{prefix}.wo"])
    return T.reshape(out, z.shape), maps


def feed_forward(z: Tensor, params: ModelParams, layer: int) -> Tensor:
    prefix = f"layers.{layer}.ffn"
    rows = _fold(z, params[f"{prefix}.w1"])
    hidden = T.relu(T.affine(rows, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    out = T.affine(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return T.reshape(out, z.shape)


def encoder_layer(z: Tensor, params: ModelParams, layer: int,
                  cfg: ViTConfig) -> tuple[Tensor, Tensor]:
    """Post-norm residual block: normalize after each residual sum."""
    attended, maps = multi_head_attention(z, params, layer, cfg)
    z1 = T.layer_norm(T.add(z, attended),
                      params[f"layers.{layer}.norm1.gain"],
                      params[f"layers.{layer}.norm1.bias"], cfg.layer_norm_eps)
    z2 = T.layer_norm(T.add(z1, feed_forward(z1, params, layer)),
                      params[f"layers.{layer}.norm2.gain"],
                      params[f"layers.{layer}.norm2.bias"], cfg.layer_norm_eps)
    return z2, maps


def vit_forward(images, params: ModelParams, cfg: ViTConfig,
                positions: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
    """Run [..., C, H, W] images through the encoder; logits [..., classes]
    come from each class token, and each layer's maps are [..., heads,
    N+1, N+1]. On stacked parameters the first axis is the client's."""
    k, lead = params["head.weight"].shape[:-2], np.shape(images)[:-3]
    if lead[:len(k)] != k:
        raise ShapeError(f"images {np.shape(images)} do not fit parameters stacked {k}")
    z = embed(patchify(images, cfg), params, cfg, positions=positions)
    stack = []
    for i in range(cfg.num_layers):
        z, maps = encoder_layer(z, params, i, cfg)
        stack.append(maps)
    rows = T.reshape(z, k + (math.prod(lead[len(k):]), z.shape[-2] * z.shape[-1]))
    cls = T.slice_axis(rows, len(k) + 1, 0, cfg.embed_dim)
    logits = T.affine(cls, params["head.weight"], params["head.bias"])
    return T.reshape(logits, lead + (cfg.num_classes,)), stack


# ---------------------------------------------------------------------------
# MLP baseline


def init_mlp_params(cfg: MlpConfig, rng: np.random.Generator, dtype=np.float32,
                    gamma_init: float | None = None) -> ModelParams:
    items = [
        ("mlp.w1", T.parameter(_uniform_fan_in(rng, cfg.input_dim,
                                               (cfg.input_dim, cfg.hidden_dim), dtype))),
        ("mlp.b1", T.parameter(np.zeros(cfg.hidden_dim, dtype=dtype))),
        ("mlp.w2", T.parameter(_uniform_fan_in(rng, cfg.hidden_dim,
                                               (cfg.hidden_dim, cfg.num_classes), dtype))),
        ("mlp.b2", T.parameter(np.zeros(cfg.num_classes, dtype=dtype))),
    ]
    if gamma_init is not None:
        items.append(("loss.gamma", T.parameter(np.asarray(gamma_init, dtype=dtype))))
    return ModelParams(items)


def mlp_forward(features: Tensor, params: ModelParams) -> Tensor:
    """One hidden ReLU layer; accepts a [B, F] batch, or a [K, B, F] stack
    on stacked parameters."""
    hidden = T.relu(T.affine(features, params["mlp.w1"], params["mlp.b1"]))
    return T.affine(hidden, params["mlp.w2"], params["mlp.b2"])


# ---------------------------------------------------------------------------
# uniform classifier facade used by the training loop


class MlpClassifier:
    kind = "mlp"

    def __init__(self, cfg: MlpConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)

    @property
    def num_classes(self) -> int:
        return self.cfg.num_classes

    def init_params(self, rng: np.random.Generator,
                    gamma_init: float | None = None) -> ModelParams:
        return init_mlp_params(self.cfg, rng, dtype=self.dtype, gamma_init=gamma_init)

    def batch_logits(self, params: ModelParams, features: np.ndarray) -> Tensor:
        """[B, F] features give [B, C] logits; a client stack, [K, B, F]
        features on stacked parameters, gives [K, B, C]."""
        x = T.constant(np.asarray(features, dtype=self.dtype))
        if x.data.ndim not in (2, 3) or x.shape[-1] != self.cfg.input_dim:
            raise ShapeError(f"feature batch shape {x.shape} does not match "
                             f"input dim {self.cfg.input_dim}")
        return mlp_forward(x, params)


class ViTClassifier:
    kind = "vit"

    def __init__(self, cfg: ViTConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self._positions = None if cfg.learned_positions else sinusoidal_positions(
            cfg.num_patches + 1, cfg.embed_dim, dtype=self.dtype)

    @property
    def num_classes(self) -> int:
        return self.cfg.num_classes

    def init_params(self, rng: np.random.Generator,
                    gamma_init: float | None = None) -> ModelParams:
        return init_vit_params(self.cfg, rng, dtype=self.dtype, gamma_init=gamma_init)

    def forward_single(self, params: ModelParams, image) -> tuple[Tensor, list[Tensor]]:
        image = np.asarray(image, dtype=self.dtype)
        return vit_forward(image, params, self.cfg, positions=self._positions)

    def batch_logits(self, params: ModelParams, images: np.ndarray) -> Tensor:
        """[B, C, H, W] images give [B, classes] logits; a client stack,
        [K, B, C, H, W] images on stacked parameters, gives [K, B, classes]."""
        images = np.asarray(images, dtype=self.dtype)
        if images.ndim != 2 + params["head.weight"].data.ndim:
            raise ShapeError(f"expected [B, C, H, W] image batch or a stack of them, "
                             f"got {images.shape}")
        return vit_forward(images, params, self.cfg, positions=self._positions)[0]


# ---------------------------------------------------------------------------
# checkpoint io: a name manifest followed by the tensors in the same order


_CKPT_MAGIC = "fedfocal-params 1"


def save_params(path, params: ModelParams) -> None:
    with open(path, "wb") as fh:
        names = params.names
        fh.write(f"{_CKPT_MAGIC}\n{len(names)}\n".encode("ascii"))
        for name in names:
            fh.write(f"{name}\n".encode("ascii"))
        for name in names:
            T.write_array(fh, params[name].data)


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != _CKPT_MAGIC:
            raise IngestionError(f"{path}: not a parameter checkpoint (header {magic!r})")
        try:
            count = int(fh.readline().decode("ascii").strip())
            left = T.bytes_left(fh)
            # each tensor needs at least a one-character name line
            if not 0 <= 2 * count <= left:
                raise IngestionError(f"{path}: declared tensor count {count} does not "
                                     f"fit the {left} bytes left")
            names = [fh.readline().decode("ascii").rstrip("\n") for _ in range(count)]
        except ValueError as exc:
            raise IngestionError(f"{path}: malformed tensor count or "
                                 "non-ASCII parameter name") from exc
        if any(not n for n in names):
            raise IngestionError(f"{path}: manifest shorter than declared count {count}")
        if len(set(names)) != len(names):
            raise IngestionError(f"{path}: a parameter name is listed twice")
        items = [(name, T.parameter(T.read_array(fh))) for name in names]
    dtypes = sorted({str(t.dtype) for _, t in items})
    if len(dtypes) > 1:
        raise IngestionError(f"{path}: tensors mix dtypes {', '.join(dtypes)}")
    return ModelParams(items)
