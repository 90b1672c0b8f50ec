"""One loss node per lockstep tick: focal_nll over a list of blocks (a
tick's groups, read as the rows of one array) against the per-group
focal_nll and mean chain it replaced (tests/helpers.per_group_loss), bit for
bit, by finite differences, and over random block lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import losses as L
from fedfocal import tensor as T
from fedfocal.errors import ShapeError

from helpers import fd_gradient, max_rel_err, per_group_focal_nll, per_group_loss

FLOOR = 1e-12


def leaf(arr):
    return T.parameter(arr, dtype=arr.dtype)


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
    trainable tensors ([k] on a stack, a scalar on a lone batch) cut from
    values in row order."""
    if mode != "per-client":
        return {"none": None, "shared": float(values[0])}[mode], None
    tensors, at = [], 0
    for k, _ in blocks:
        n = 1 if k is None else k
        tensors.append(leaf(np.asarray(values[at:at + n]).reshape(() if k is None else (k,))))
        at += n
    return tensors, tensors


def compare_with_chain(dtype, blocks, c, mode, values, weighted, mean, seed):
    rng = np.random.default_rng(seed)
    arrays = make_tick(rng, blocks, c, dtype)
    exps = np.asarray(values, dtype=dtype)
    gamma, tensors = gamma_arg(mode, blocks, exps)
    logits = [leaf(x) for x, _, _ in arrays]
    weights = flat_rows([w for _, _, w in arrays]) if weighted else None
    out = T.focal_nll(logits, flat_rows([o for _, o, _ in arrays], c), FLOOR, gamma=gamma,
                      weights=weights, mean=mean)
    rows = [(1 if k is None else k) if mean else (b if k is None else k * b) for k, b in blocks]
    g = rng.normal(size=sum(rows)).astype(dtype)
    grads_through(out, g)
    at = 0
    for i, ((x, onehot, w), n) in enumerate(zip(arrays, rows)):
        alone = leaf(x.copy())
        gi = gamma if tensors is None else leaf(tensors[i].data.copy())
        chain = per_group_loss if mean else per_group_focal_nll
        oi = chain(alone, onehot, FLOOR, gi, w if weighted else None)
        grads_through(oi, g[at:at + n].reshape(oi.shape))
        assert out.data[at:at + n].tobytes() == oi.data.reshape(-1).tobytes(), i
        assert logits[i].grad.tobytes() == alone.grad.tobytes(), i
        if tensors is not None:
            assert tensors[i].grad.tobytes() == gi.grad.tobytes(), i
        at += n
    assert at == out.data.size


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
    L.batch_loss per group, with targets built with and without a dtype."""
    rng = np.random.default_rng(5)
    cfg = L.LossConfig(kind=kind, gamma_trainable=trainable)
    shapes = [(3, 16), (2, 9), (1, 1)]
    raws = [rng.normal(size=s + (4,)).astype(np.float32) for s in shapes]
    labels = [rng.integers(0, 4, size=s) for s in shapes]
    coeffs = [rng.uniform(0, 2, size=s) for s in shapes]
    gammas = [np.full(s[0], 2.0, dtype=np.float32) for s in shapes]
    for dtype in (np.float32, None):
        tick = L.targets(flat_rows(labels), 4, flat_rows(coeffs), dtype)
        logits = [leaf(x.copy()) for x in raws]
        exps = [leaf(g.copy()) for g in gammas] if trainable else None
        loss = L.batch_loss(logits, tick, cfg, gamma_param=exps)
        T.backward(T.sum_(loss))
        alone = [leaf(x.copy()) for x in raws]
        alone_exps = [leaf(g.copy()) for g in gammas] if trainable else [None] * 3
        parts = [L.batch_loss(a, L.targets(y, 4, co, dtype), cfg, gamma_param=e)
                 for a, y, co, e in zip(alone, labels, coeffs, alone_exps)]
        T.backward(T.sum_(T.concat(parts)))
        assert loss.shape == (6,)
        assert loss.data.tobytes() == np.concatenate([p.data for p in parts]).tobytes()
        for a, b in zip(logits + (exps or []), alone + (alone_exps if trainable else [])):
            if a.grad is None:  # CE never reads gamma
                assert kind == "ce" and b.grad is None
            else:
                assert a.grad.tobytes() == b.grad.tobytes()


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
    """The tick node's analytic gradients of sum(loss * g) against central
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
        gamma, tensors = gamma_arg(mode, self.BLOCKS,
                                   np.array([1.3, 0.0, 2.0, 0.5, 3.7, 2.5, 1.0], dtype=dtype))
        logits = [leaf(x) for x, _, _ in arrays]
        onehot = flat_rows([o for _, o, _ in arrays], 4)
        weights = flat_rows([w for _, _, w in arrays]) if weighted else None
        g = rng.normal(size=7)
        out = T.focal_nll(logits, onehot, FLOOR, gamma=gamma, weights=weights, mean=True)
        grads_through(out, g.astype(dtype))

        def value():
            wide = [T.Tensor(t.data.astype(np.float64)) for t in logits]
            exps = (gamma if tensors is None
                    else [T.Tensor(t.data.astype(np.float64)) for t in tensors])
            loss = T.focal_nll(wide, onehot.astype(np.float64), FLOOR, gamma=exps,
                               weights=None if weights is None else weights.astype(np.float64),
                               mean=True)
            return float(np.sum(loss.data * g))

        tol = 1e-3 if dtype == np.float32 else 1e-6
        for t in logits + (tensors or []):
            assert max_rel_err(t.grad, fd_gradient(value, t.data), floor=1e-4) < tol


def test_gamma_list_must_match_the_blocks():
    logits = [T.constant(np.zeros((2, 3, 4))), T.constant(np.zeros((1, 2, 4)))]
    onehot = np.eye(4)[np.zeros(8, dtype=np.int64)]
    for gammas in ([T.constant(np.ones(2))], [T.constant(np.ones(2)), T.constant(np.ones(2))]):
        with pytest.raises(ShapeError, match="one scalar per client"):
            T.focal_nll(logits, onehot, FLOOR, gamma=gammas)
    with pytest.raises(ShapeError, match="one-hot rows"):
        T.focal_nll(logits, onehot[:7], FLOOR)
    with pytest.raises(ShapeError, match="one class count"):
        T.focal_nll(logits + [T.constant(np.zeros((1, 2, 3)))], onehot, FLOOR)
