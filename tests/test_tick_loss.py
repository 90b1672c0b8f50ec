"""One loss per lockstep tick: the array kernels losses.batch_loss runs
over a list of blocks (a tick's groups, read as the rows of one array)
against the per-group focal_nll and mean chain they replaced
(tests/helpers.per_group_loss), bit for bit, by finite differences, and
over random block lists; and batch_loss itself against the tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import losses as L
from fedfocal import models as M
from fedfocal import tensor as T
from fedfocal.errors import ShapeError

from helpers import (bind_tick, fd_gradient, max_rel_err, per_group_focal_nll, per_group_loss,
                     span_places, tape_batch_loss, tick_means)

FLOOR = 1e-12


def leaf(arr):
    return T.parameter(arr, dtype=arr.dtype)


def tick_kernels(logits, onehot, gamma, weights, mean, g):
    """A tick's loss over its logits blocks (arrays) through the kernels
    losses.batch_loss runs, under any gradient g of its outputs: the
    outputs (per sample, or with mean per client row, as a round's
    losses.step_means makes them) in row order, each block's logits
    gradient and, for per-client gammas (a list of arrays, one per block),
    each block's gamma gradient."""
    exps = gamma if isinstance(gamma, list) else None
    spans = T.focal_spans([x.shape for x in logits], onehot, onehot.dtype, exps)
    e, sizes = gamma, None
    if exps is not None:
        e = [v for x in exps for v in x.reshape(-1).tolist()]
        sizes = [n for k, n, _ in spans for _ in range(k)]
    rows = np.concatenate([x.reshape(-1, onehot.shape[-1]) for x in logits])
    nll, focal = np.empty(len(rows), rows.dtype), np.empty(len(rows), rows.dtype)
    vjp = T.focal_kernel(rows, onehot, FLOOR, e, sizes, nll, focal)
    out = T.focal_product(nll, None if gamma is None else focal, weights)
    if mean:  # each row's gradient times 1 / B, over its batch
        out = L.step_means(out, span_places(spans))
        ends = np.cumsum([k for k, _, _ in spans])
        g = np.concatenate([(g[r - k:r] * (1.0 / n)).repeat(n)
                            for (k, n, _), r in zip(spans, ends)])
    if weights is not None:
        g = g * weights
    g_rows, g_exps = vjp(g, None if exps is None else spans)
    return out, [g_rows[z - k * n:z].reshape(x.shape)
                 for (k, n, z), x in zip(spans, logits)], g_exps


def grads_through(out, g):
    """Backward of sum(out * g): the gradient reaching out is exactly g."""
    T.backward(T.sum_(T.mul(out, T.constant(g))))


def make_tick(rng, blocks, c, dtype, spread=True):
    """Logits, one-hot rows and weights of each block: (k, B) is a [k, B, C]
    client stack, (None, B) a lone [B, C] batch. With spread, some rows lie
    far from the others so that both clamps take effect."""
    out = []
    for k, b in blocks:
        lead = (b,) if k is None else (k, b)
        raw = rng.normal(size=lead + (c,))
        if spread:
            raw = raw * rng.choice([1.0, 40.0], size=lead + (1,))
        onehot = np.eye(c, dtype=dtype)[rng.integers(0, c, size=lead)]
        weights = (1.0 + rng.uniform(0, 3, size=lead)).astype(dtype)
        out.append((raw.astype(dtype), onehot, weights))
    return out


def flat_rows(arrays, c=None):
    """Arrays of the blocks joined as the tick's rows: [N, C], or [N]."""
    return np.concatenate([a.reshape(-1, c) if c else a.reshape(-1) for a in arrays])


def gamma_arg(mode, blocks, values):
    """The gamma of each block: None, one shared float, or per-client
    arrays ([k] on a stack, a scalar on a lone batch) cut from values in
    row order; and the arrays, or None."""
    if mode != "per-client":
        return {"none": None, "shared": float(values[0])}[mode], None
    arrays, at = [], 0
    for k, _ in blocks:
        n = 1 if k is None else k
        arrays.append(np.asarray(values[at:at + n]).reshape(() if k is None else (k,)))
        at += n
    return arrays, arrays


def compare_with_chain(dtype, blocks, c, mode, values, weighted, mean, seed):
    rng = np.random.default_rng(seed)
    arrays = make_tick(rng, blocks, c, dtype)
    exps = np.asarray(values, dtype=dtype)
    gamma, per_client = gamma_arg(mode, blocks, exps)
    weights = flat_rows([w for _, _, w in arrays]) if weighted else None
    rows = [(1 if k is None else k) if mean else (b if k is None else k * b) for k, b in blocks]
    g = rng.normal(size=sum(rows)).astype(dtype)
    out, grads, g_exps = tick_kernels([x for x, _, _ in arrays],
                                      flat_rows([o for _, o, _ in arrays], c), gamma, weights,
                                      mean, g)
    at = 0
    for i, ((x, onehot, w), n) in enumerate(zip(arrays, rows)):
        alone = leaf(x.copy())
        gi = gamma if per_client is None else leaf(per_client[i].copy())
        chain = per_group_loss if mean else per_group_focal_nll
        oi = chain(alone, onehot, FLOOR, gi, w if weighted else None)
        grads_through(oi, g[at:at + n].reshape(oi.shape))
        assert out[at:at + n].tobytes() == oi.data.reshape(-1).tobytes(), i
        assert grads[i].tobytes() == alone.grad.tobytes(), i
        if per_client is not None:
            assert g_exps[i].tobytes() == gi.grad.tobytes(), i
        at += n
    assert at == out.size


# gamma values; 2.0 and 0.5 take numpy's scalar fast paths, 0.0 drops the factor
GAMMAS = st.sampled_from([0.0, 0.5, 2.0, 1.3, 3.7])
BLOCK_LISTS = st.lists(st.tuples(st.sampled_from([None, 1, 2, 3, 5]), st.integers(1, 20)),
                       min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), BLOCK_LISTS, st.integers(2, 6),
       st.sampled_from(["none", "shared", "per-client"]),
       st.lists(GAMMAS, min_size=20, max_size=20), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_random_block_lists_match_the_per_group_chain_bitwise(dtype, blocks, c, mode, values,
                                                              weighted, mean, seed):
    compare_with_chain(dtype, blocks, c, mode, values, weighted, mean, seed)


@pytest.mark.parametrize("mode", ["none", "shared", "per-client"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_a_dir20_like_tick_matches_the_per_group_chain_bitwise(dtype, mode):
    """Three groups of a tick, as on the dir20 workload: full batches of 16,
    a run of short batches of 9, and a lone batch of 1, one gamma exactly 0."""
    values = [2.0, 0.0, 1.3, 0.5, 3.7, 2.0, 1.3]
    compare_with_chain(dtype, [(3, 16), (2, 9), (1, 1)], 5, mode, values, True, True, 11)


@pytest.mark.parametrize("kind", ["ce", "focal", "adaptive_focal"])
@pytest.mark.parametrize("trainable", [False, True], ids=["gamma-const", "gamma-trainable"])
def test_batch_loss_on_a_list_is_the_per_group_losses_in_row_order(kind, trainable):
    """L.batch_loss on a tick's groups and their flat targets against one
    loss per group on the tape, backward seeded with ones."""
    rng = np.random.default_rng(5)
    cfg = L.LossConfig(kind=kind, gamma_trainable=trainable)
    shapes = [(3, 16), (2, 9), (1, 1)]
    raws = [rng.normal(size=s + (4,)).astype(np.float32) for s in shapes]
    labels = [rng.integers(0, 4, size=s) for s in shapes]
    coeffs = [rng.uniform(0, 2, size=s) for s in shapes]
    gammas = [np.full(s[0], 2.0, dtype=np.float32) for s in shapes]
    tick = L.targets(flat_rows(labels), 4, flat_rows(coeffs), np.float32)
    # the tick's gammas live in a parameter set, whose gradient slots the loss writes
    column = M.ModelParams.from_flat([("loss.gamma", ())], np.full((6, 1), 2.0, np.float32))
    exps = ([column.rows(slice(a, a + s[0]))["loss.gamma"] for a, s in zip((0, 3, 5), shapes)]
            if trainable else None)
    bound = bind_tick([s + (4,) for s in shapes], tick, cfg, exps)
    dlogits, dgammas = L.batch_loss([x.copy() for x in raws], bound)
    loss = tick_means(bound, tick, cfg)
    alone = [leaf(x.copy()) for x in raws]
    alone_exps = [leaf(g.copy()) for g in gammas] if trainable else [None] * 3
    parts = [tape_batch_loss(a, L.targets(y, 4, co, np.float32), cfg, gamma_param=e)
             for a, y, co, e in zip(alone, labels, coeffs, alone_exps)]
    T.backward(T.sum_(T.concat(parts)))
    assert loss.shape == (6,)
    assert loss.tobytes() == np.concatenate([p.data for p in parts]).tobytes()
    for a, b in zip(dlogits + (dgammas or [None] * 3 if trainable else []),
                    alone + (alone_exps if trainable else [])):
        if a is None:  # CE never reads gamma
            assert kind == "ce" and b.grad is None
        else:
            assert a.tobytes() == b.grad.tobytes()


def _model_tick(model, groups, seeded):
    """One lockstep tick of model with trainable gamma on a stack of
    perturbed rows: groups are (rows, batch) of adjacent rows, and the tick
    takes one batch_loss over all of them. Backward is seeded with ones
    over the per-client losses, or starts from their sum_. Returns the
    loss, the stack's gradient buffer and each group's logits gradient."""
    rng = np.random.default_rng(11)
    params = model.init_params(rng, gamma_init=2.0)
    k = sum(rows for rows, _ in groups)
    stack = M.ModelParams.from_flat(params.manifest(), np.broadcast_to(
        params.flat, (k,) + params.flat.shape).copy())
    stack.flat += rng.normal(scale=0.05, size=stack.flat.shape).astype(stack.flat.dtype)
    shape = (8,) if model.kind == "mlp" else (1, 16, 16)
    logits, gammas, labels, at = [], [], [], 0
    for rows, batch in groups:
        view = stack.rows(slice(at, at + rows))
        at += rows
        logits.append(model.batch_logits(view, rng.normal(size=(rows, batch) + shape)))
        gammas.append(L.trainable_gamma(view, L.LossConfig(gamma_trainable=True)))
        labels.append(rng.integers(0, 3, size=rows * batch))
    y = np.concatenate(labels)
    loss = tape_batch_loss(logits,
                           L.targets(y, 3, rng.uniform(0, 2, size=y.size), model.dtype),
                           L.LossConfig(gamma_trainable=True), gamma_param=gammas)
    if seeded:
        T.backward(loss, np.ones(k, dtype=model.dtype))
    else:
        T.backward(T.sum_(loss))
    return loss.data.tobytes(), stack.grad.tobytes(), [x.grad.tobytes() for x in logits]


@pytest.mark.parametrize("model, groups", [
    (M.MlpClassifier(M.MlpConfig(input_dim=8, hidden_dim=6, num_classes=3)),
     [(2, 16), (1, 9), (3, 5)]),
    (M.ViTClassifier(M.ViTConfig(image_size=16, patch_size=8, num_classes=3)), [(2, 4), (1, 3)]),
], ids=["mlp-3-groups", "vit-2-groups"])
def test_ones_over_the_client_losses_seed_the_bits_of_their_sum(model, groups):
    """backward(loss, ones) gives every parameter (gamma included) and every
    logits gradient the bits of backward(sum_(loss)): sum_'s VJP only
    spreads its seed of 1 over the rows."""
    seeded = _model_tick(model, groups, seeded=True)
    assert seeded == _model_tick(model, groups, seeded=False)
    assert np.frombuffer(seeded[1], dtype=model.dtype)[-1] != 0  # gamma was reached


def test_one_tensor_keeps_its_shapes():
    """A lone [B, C] batch gives a 0-d mean, a [K, B, C] stack one per client;
    per-sample losses keep the labels' shape."""
    rng = np.random.default_rng(3)
    for lead in ((7,), (3, 7)):
        logits = leaf(rng.normal(size=lead + (4,)))
        onehot = np.eye(4)[rng.integers(0, 4, size=lead)]
        assert T.focal_nll(logits, onehot, FLOOR, mean=True).shape == lead[:-1]
        assert T.focal_nll(logits, onehot, FLOOR).shape == lead


class TestTickGradientsByFiniteDifferences:
    """The tick kernels' analytic gradients of sum(loss * g) against central
    differences of a float64 evaluation, on a tick of three blocks with
    different batch sizes, one of them 1, and a lone [B, C] batch."""

    BLOCKS = [(2, 5), (None, 3), (1, 1), (3, 2)]

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("mode", ["none", "shared", "per-client"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_logits_and_gamma(self, dtype, mode, weighted):
        rng = np.random.default_rng(21)
        arrays = make_tick(rng, self.BLOCKS, 4, dtype, spread=False)
        # one client row's gamma is exactly 0
        gamma, per_client = gamma_arg(mode, self.BLOCKS,
                                      np.array([1.3, 0.0, 2.0, 0.5, 3.7, 2.5, 1.0], dtype=dtype))
        logits = [x for x, _, _ in arrays]
        onehot = flat_rows([o for _, o, _ in arrays], 4)
        weights = flat_rows([w for _, _, w in arrays]) if weighted else None
        g = rng.normal(size=7)
        _, grads, g_exps = tick_kernels(logits, onehot, gamma, weights, True, g.astype(dtype))

        def value():
            wide = [x.astype(np.float64) for x in logits]
            exps = gamma if per_client is None else [x.astype(np.float64) for x in per_client]
            loss = tick_kernels(wide, onehot.astype(np.float64), exps,
                                None if weights is None else weights.astype(np.float64),
                                True, np.zeros(7))[0]
            return float(np.sum(loss * g))

        tol = 1e-3 if dtype == np.float32 else 1e-6
        for x, grad in zip(logits + (per_client or []), grads + (g_exps or [])):
            assert max_rel_err(grad, fd_gradient(value, x), floor=1e-4) < tol


def test_gamma_list_must_match_the_blocks():
    shapes = [(2, 3, 4), (1, 2, 4)]
    onehot = np.eye(4)[np.zeros(8, dtype=np.int64)]
    for gammas in ([np.ones(2)], [np.ones(2), np.ones(2)]):
        with pytest.raises(ShapeError, match="one scalar per client"):
            T.focal_spans(shapes, onehot, np.float64, gammas)
    with pytest.raises(ShapeError, match="one-hot rows"):
        T.focal_spans(shapes, onehot[:7], np.float64)
    with pytest.raises(ShapeError, match="one class count"):
        T.focal_spans(shapes + [(1, 2, 3)], onehot, np.float64)
