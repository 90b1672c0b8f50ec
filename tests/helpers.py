"""Shared oracles for the test suite.

The finite-difference gradient here is the independent check for every
backward rule: central differences with step h = cbrt(machine eps) *
max(1, |x|), evaluated coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np


# smoke-preset overrides that the byte-identity gates run
GATE_CONFIGS = {
    "smoke": {},
    "f64-trainable-gamma": {"run.dtype": "f64", "loss.gamma_trainable": True,
                            "federation.client_fraction": 0.67},
    # gamma is a parameter the CE loss never uses, so it never has a gradient
    "ce-idle-gamma": {"loss.kind": "ce", "loss.gamma_trainable": True},
}


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


def _row_power(base, e, shift):
    dt = base.dtype.type
    if isinstance(e, float):
        return np.power(base, dt(e + shift))
    return np.stack([np.power(row, dt(x + shift)) for row, x in zip(base, e)])


def per_group_focal_nll(logits, onehot, floor, gamma=None, weights=None):
    """tensor.focal_nll as it ran before a lockstep tick took one loss node:
    one node per group's logits, [B, C] or a client stack [K, B, C], with
    onehot of their shape, per-sample losses out, and gamma None, a float,
    or a tensor (a scalar, or one per client on a stack). With the per-client
    T.mean after it (``per_group_loss``) it is the chain the tick node must
    reproduce, value, logits gradient and gamma gradient, bit for bit."""
    from fedfocal import tensor as T

    dt = logits.dtype
    exponent = None
    if isinstance(gamma, T.Tensor):
        exponent = gamma
        e = gamma.data.tolist() if logits.data.ndim == 3 else float(gamma.data.reshape(()))
    elif gamma is not None:
        e = float(gamma)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=-1, keepdims=True)
    p_t = (s * onehot).sum(axis=-1)
    clamped = np.minimum(np.maximum(p_t, floor), 1.0)
    nll_mask = clamped == p_t
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
    return T._record(T._wrap(out), parents, vjp)


def per_group_loss(logits, onehot, floor, gamma=None, weights=None):
    """One group's batch mean (one per client on a stack): per_group_focal_nll
    then T.mean over the batch axis, two tape nodes."""
    from fedfocal import tensor as T

    return T.mean(per_group_focal_nll(logits, onehot, floor, gamma, weights), axis=-1)


def chain_perceptron(x, w1, b1, w2, b2):
    """affine(relu(affine(x, w1, b1)), w2, b2) as three tape nodes. This is
    how the MLP and the ViT feed-forward ran before the two-layer ReLU block
    became one node; the fused node must reproduce its values and gradients
    bit for bit."""
    from fedfocal import tensor as T

    return T.affine(T.relu(T.affine(x, w1, b1)), w2, b2)


def dfs_backward(loss):
    """tensor.backward as it ran before the tape: a depth-first search from
    the loss builds a parents-before-children order of the graph, leaves
    included, and the walk runs it in reverse. A tensor read by several
    operations sums their gradients in the reverse of that order, where the
    tape sums them in reverse creation order; only such sums can differ."""
    if not loss.requires_grad:
        return
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    pending = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            pending[key] = pg if key not in pending else pending[key] + pg


class PerTensorAdam:
    """Adam as a loop over the named tensors, each with its own moments,
    in the operand order of federation.Adam. This is how the optimizer ran
    before parameter sets had one flat buffer; the fused whole-buffer step
    must reproduce it bit for bit. A tensor without a gradient is skipped:
    its value and moments stay as they are."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.tensors = params.tensors()
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.tensors]
        self.v = [np.zeros_like(p.data) for p in self.tensors]

    def step(self):
        self.t += 1
        for p, m, v in zip(self.tensors, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** self.t)
            denom = np.sqrt(v / (1 - self.beta2 ** self.t))
            denom += self.eps
            p.data -= self.lr * m_hat / denom


def stack_params(params_list):
    """One [K, P] stack of K parameter sets' flat buffers, in list order."""
    from fedfocal.models import ModelParams

    return ModelParams.from_flat(params_list[0].manifest(),
                                 np.stack([p.flat for p in params_list]))


def per_tensor_aggregate(stack, weights):
    """federation.aggregate as a loop over the named tensors, then over the
    stack's rows: per tensor, anchor + sum_k w_k * (theta_k - anchor) in
    float64, in row order."""
    from fedfocal import tensor as T
    from fedfocal.models import ModelParams

    weights = np.asarray(weights, dtype=np.float64)
    items = []
    for name in stack.names:
        rows = stack[name].data
        anchor = rows[0].astype(np.float64)
        acc = anchor.copy()
        for w, row in zip(weights[1:], rows[1:]):
            acc += w * (row.astype(np.float64) - anchor)
        items.append((name, T.parameter(acc.astype(rows.dtype))))
    return ModelParams(items)


def serial_local_train(model, global_params, shards, hists, class_coeffs, loss_cfg,
                       fed_cfg, rngs, client_ids=None, round_index=0, plan=None):
    """federation.local_train as clients trained before they were stacked:
    one after another, each alone on its own copy of the broadcast with its
    own optimizer (federation.Adam, looked up at call time so a test can
    patch it), one rank-2 forward, loss, backward and step per batch. The
    lockstep trainer must reproduce its results bit for bit; the clients'
    results are stacked into one round result, in the given order. A round
    plan is accepted and not read: everything is built from the shards."""
    from fedfocal import federation as F

    params, coeffs, sums, counts, losses, batches = zip(*[
        _serial_client(model, global_params, x, y, hist, class_coeffs, loss_cfg, fed_cfg, rng)
        for (x, y), hist, rng in zip(shards, hists, rngs)])
    return F.RoundResult(stack_params(params), list(coeffs), np.stack(sums),
                         np.stack(counts), list(losses), list(batches))


def _serial_client(model, global_params, features, labels, hist, class_coeffs,
                   loss_cfg, fed_cfg, rng):
    from fedfocal import federation as F
    from fedfocal import losses as L
    from fedfocal import metrics as ME
    from fedfocal import tensor as T
    from fedfocal.imbalance import client_imbalance, dynamic_coefficient
    from fedfocal.models import ModelParams

    params = ModelParams.from_flat(global_params.manifest(), global_params.flat.copy())
    c_k = client_imbalance(hist, loss_cfg.epsilon)
    opt = F.Adam(params, fed_cfg.learning_rate, fed_cfg.beta1,
                 fed_cfg.beta2, fed_cfg.adam_eps)
    num_classes = hist.num_classes
    norm_sums = np.zeros(num_classes)
    norm_counts = np.zeros(num_classes, dtype=np.int64)
    loss_sum = 0.0
    batch_count = 0
    n = labels.size
    gamma_param = L.trainable_gamma(params, loss_cfg)
    shard_coeffs = None
    if loss_cfg.kind == "adaptive_focal":
        shard_coeffs = dynamic_coefficient(c_k, class_coeffs, labels, loss_cfg.blend)
    for _ in range(fed_cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, fed_cfg.batch_size):
            batch_idx = order[start:start + fed_cfg.batch_size]
            x = features[batch_idx]
            y = labels[batch_idx]
            coeffs = None if shard_coeffs is None else shard_coeffs[batch_idx]
            logits = model.batch_logits(params, x)
            loss = L.batch_loss(logits, L.targets(y, model.num_classes, coeffs), loss_cfg,
                                gamma_param=gamma_param)
            params.zero_grads()
            T.backward(loss)
            norms = ME.per_sample_logit_grad_norms(logits)
            np.add.at(norm_sums, y, norms)
            np.add.at(norm_counts, y, 1)
            opt.step()
            if gamma_param is not None:
                L.clamp_gamma(params, loss_cfg)
            loss_sum += loss.item()
            batch_count += 1
    return params, c_k, norm_sums, norm_counts, loss_sum, batch_count


def per_image_vit_forward(params, images, cfg, positions=None):
    """ViT logits [B, classes] and class-token rows [B, D] entering the head,
    one image at a time and one attention head at a time: patches cut cell
    by cell, each head sliced out of the projections and the heads joined
    by concat, each image's logits from a one-row head product, and the
    batch joined by concat. This is how the ViT ran before its forward took
    leading axes; the batched forward must give the same class-token rows
    bit for bit."""
    from fedfocal import models as M
    from fedfocal import tensor as T

    if positions is None and not cfg.learned_positions:
        positions = M.sinusoidal_positions(cfg.num_patches + 1, cfg.embed_dim,
                                           dtype=params["patch_embed"].dtype)
    p, g, dk = cfg.patch_size, cfg.grid, cfg.head_dim
    rows, tokens = [], []
    for image in np.asarray(images):
        cells = np.empty((cfg.num_patches, cfg.patch_dim), dtype=image.dtype)
        for gy in range(g):
            for gx in range(g):
                cells[gy * g + gx] = image[:, gy * p:(gy + 1) * p,
                                           gx * p:(gx + 1) * p].reshape(-1)
        z = T.concat([params["class_token"],
                      T.matmul(T.constant(cells), params["patch_embed"])], axis=0)
        z = T.add(z, params["pos_embed"] if cfg.learned_positions
                  else T.constant(positions))
        for i in range(cfg.num_layers):
            pre = f"layers.{i}"
            q, k, v = (T.matmul(z, params[f"{pre}.attn.{w}"]) for w in ("wq", "wk", "wv"))
            heads = []
            for h in range(cfg.num_heads):
                qh, kh, vh = (T.slice_axis(x, 1, h * dk, (h + 1) * dk) for x in (q, k, v))
                scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(dk))
                heads.append(T.matmul(T.softmax(scores, axis=1), vh))
            attended = T.matmul(T.concat(heads, axis=1), params[f"{pre}.attn.wo"])
            z = T.layer_norm(T.add(z, attended), params[f"{pre}.norm1.gain"],
                             params[f"{pre}.norm1.bias"], cfg.layer_norm_eps)
            hidden = T.relu(T.add(T.matmul(z, params[f"{pre}.ffn.w1"]),
                                  params[f"{pre}.ffn.b1"]))
            ffn = T.add(T.matmul(hidden, params[f"{pre}.ffn.w2"]), params[f"{pre}.ffn.b2"])
            z = T.layer_norm(T.add(z, ffn), params[f"{pre}.norm2.gain"],
                             params[f"{pre}.norm2.bias"], cfg.layer_norm_eps)
        cls = T.slice_axis(z, 0, 0, 1)
        tokens.append(cls)
        rows.append(T.add(T.matmul(cls, params["head.weight"]),
                          T.reshape(params["head.bias"], (1, cfg.num_classes))))
    return T.concat(rows, axis=0), T.concat(tokens, axis=0)


def vit_param_count(cfg, with_gamma=False):
    """Scalar count of a ViT parameter set, from the layer shapes alone."""
    d, dff, c = cfg.embed_dim, cfg.ffn_dim, cfg.num_classes
    count = cfg.patch_dim * d + d
    if cfg.learned_positions:
        count += (cfg.num_patches + 1) * d
    count += cfg.num_layers * (4 * d * d + 4 * d + d * dff + dff + dff * d + d)
    count += d * c + c
    return count + (1 if with_gamma else 0)


def mlp_param_count(cfg, with_gamma=False):
    """Scalar count of an MLP parameter set, from the layer shapes alone."""
    count = (cfg.input_dim * cfg.hidden_dim + cfg.hidden_dim
             + cfg.hidden_dim * cfg.num_classes + cfg.num_classes)
    return count + (1 if with_gamma else 0)


def gradient_norm_by_group(model, params, features, labels, loss_cfg, tail, head,
                           coeffs=None):
    """One forward and backward of the batch-mean loss, then the mean
    per-sample logit-gradient norm within the tail and head groups. An
    empty group reads None and is flagged."""
    from fedfocal import losses as L
    from fedfocal import metrics as ME
    from fedfocal import tensor as T

    labels = np.asarray(labels)
    logits = model.batch_logits(params, features)
    loss = L.batch_loss(logits, L.targets(labels, model.num_classes, coeffs), loss_cfg,
                        gamma_param=L.trainable_gamma(params, loss_cfg))
    params.zero_grads()
    T.backward(loss)
    norms = ME.per_sample_logit_grad_norms(logits)
    out = {"per_sample": norms, "flags": []}
    for name, group in (("tail", tail), ("head", head)):
        mask = np.isin(labels, group)
        if mask.any():
            out[name] = float(norms[mask].mean())
        else:
            out[name] = None
            out["flags"].append(f"{name} group empty in this batch")
    return out


def report_from_text(text):
    """Parse ImbalanceReport.to_text back into a report."""
    from fedfocal.imbalance import ImbalanceReport

    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, raw = line.partition("=")
        values[key.strip()] = float(raw.strip())

    def indexed(prefix):
        keys = sorted((k for k in values if k.startswith(prefix)),
                      key=lambda s: int(s.split(".")[1]))
        return [values[k] for k in keys]

    return ImbalanceReport(indexed("client_coeff."), indexed("class_coeff."),
                           values["epsilon"], values["blend"])
