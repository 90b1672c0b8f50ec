"""Clients stacked in lockstep: the rank-3 tensor core against the rank-2
operations it stacks, bit for bit and by finite differences, and the
lockstep trainer against the serial per-client loop it replaced
(tests/helpers.serial_local_train), artifact for artifact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import experiment as X
from fedfocal import federation as F
from fedfocal import models as M
from fedfocal import tensor as T
from fedfocal.errors import ShapeError

from helpers import GATE_CONFIGS, PerTensorAdam, fd_gradient, max_rel_err, serial_local_train

PROPERTY = settings(max_examples=60, deadline=None)

# a client stack: dtype, clients K (1..20), odd batch B, and a seed for the values
STACKS = st.tuples(st.sampled_from([np.float32, np.float64]), st.integers(1, 20),
                   st.integers(0, 7).map(lambda i: 2 * i + 1), st.integers(0, 2**32 - 1))


def leaf(arr):
    return T.parameter(arr, dtype=arr.dtype)


def strided_stack(rng, k, shape, dtype):
    """[K, *shape] views into the middle of a [K, P] buffer, the way stacked
    parameters view their flat rows."""
    size = int(np.prod(shape))
    buf = rng.normal(size=(k, size + 7)).astype(dtype)
    return buf[:, 3:3 + size].reshape((k,) + shape)


def grads_through(out, g):
    """Backward of sum(out * g): the gradient reaching out is exactly g."""
    T.backward(T.sum_(T.mul(out, T.constant(g))))


@PROPERTY
@given(STACKS, st.integers(1, 6), st.integers(1, 6))
def test_stacked_matmul_and_vjps_equal_per_slice_bitwise(stack, f, h):
    dtype, k, b, seed = stack
    rng = np.random.default_rng(seed)
    a = leaf(rng.normal(size=(k, b, f)).astype(dtype))
    w = leaf(strided_stack(rng, k, (f, h), dtype))
    g = rng.normal(size=(k, b, h)).astype(dtype)
    out = T.matmul(a, w)
    grads_through(out, g)
    for i in range(k):
        ai, wi = leaf(a.data[i].copy()), leaf(w.data[i].copy())
        oi = T.matmul(ai, wi)
        grads_through(oi, g[i])
        assert out.data[i].tobytes() == oi.data.tobytes()
        assert a.grad[i].tobytes() == ai.grad.tobytes()
        assert w.grad[i].tobytes() == wi.grad.tobytes()


@PROPERTY
@given(STACKS, st.integers(1, 9))
def test_stacked_bias_add_and_vjp_equal_per_slice_bitwise(stack, h):
    dtype, k, b, seed = stack
    rng = np.random.default_rng(seed)
    a = leaf(rng.normal(size=(k, b, h)).astype(dtype))
    bias = leaf(strided_stack(rng, k, (h,), dtype))
    g = rng.normal(size=(k, b, h)).astype(dtype)
    out = T.add(a, bias)
    grads_through(out, g)
    for i in range(k):
        ai, bi = leaf(a.data[i].copy()), leaf(bias.data[i].copy())
        oi = T.add(ai, bi)
        grads_through(oi, g[i])
        assert out.data[i].tobytes() == oi.data.tobytes()
        assert a.grad[i].tobytes() == ai.grad.tobytes()
        assert bias.grad[i].tobytes() == bi.grad.tobytes()


GAMMAS = st.sampled_from([0.0, 0.5, 2.0, 1.3, 3.7])


@PROPERTY
@given(STACKS, st.integers(2, 6), st.sampled_from(["none", "shared", "per-client"]),
       st.lists(GAMMAS, min_size=20, max_size=20), st.booleans())
def test_stacked_focal_nll_equals_per_slice_bitwise(stack, c, mode, gammas, weighted):
    dtype, k, b, seed = stack
    rng = np.random.default_rng(seed)
    # a few rows far from the others so that both clamps take effect
    raw = rng.normal(size=(k, b, c)) * rng.choice([1.0, 40.0], size=(k, b, 1))
    logits = leaf(raw.astype(dtype))
    onehot = np.eye(c, dtype=dtype)[rng.integers(0, c, size=(k, b))]
    weights = (1.0 + rng.uniform(0, 3, size=(k, b))).astype(dtype) if weighted else None
    exps = np.asarray(gammas[:k], dtype=dtype)
    # the exponents 2.0 and 0.5 take numpy's scalar fast paths; every client
    # must keep a scalar exponent of its own
    gamma = {"none": None, "shared": float(gammas[0]), "per-client": leaf(exps)}[mode]
    g = rng.normal(size=(k, b)).astype(dtype)
    out = T.focal_nll(logits, onehot, 1e-12, gamma=gamma, weights=weights)
    grads_through(out, g)
    for i in range(k):
        li = leaf(logits.data[i].copy())
        gi = leaf(exps[i].copy()) if mode == "per-client" else gamma
        oi = T.focal_nll(li, onehot[i], 1e-12, gamma=gi,
                         weights=None if weights is None else weights[i])
        grads_through(oi, g[i])
        assert out.data[i].tobytes() == oi.data.tobytes()
        assert logits.grad[i].tobytes() == li.grad.tobytes()
        if mode == "per-client":
            assert gamma.grad[i].tobytes() == gi.grad.tobytes()


@PROPERTY
@given(STACKS)
def test_per_client_mean_equals_per_slice_bitwise(stack):
    dtype, k, b, seed = stack
    rng = np.random.default_rng(seed)
    x = leaf(rng.normal(size=(k, b)).astype(dtype))
    g = rng.normal(size=k).astype(dtype)
    out = T.mean(x, axis=-1)
    grads_through(out, g)
    for i in range(k):
        xi = leaf(x.data[i].copy())
        oi = T.mean(xi)
        T.backward(T.scale(oi, float(g[i])))
        assert out.data[i].tobytes() == oi.data.tobytes()
        assert x.grad[i].tobytes() == xi.grad.tobytes()


@PROPERTY
@given(STACKS, st.integers(1, 4), st.integers(1, 9))
def test_stacked_layer_norm_equals_per_slice_bitwise(stack, n, d):
    """A [K, B, N, D] stack with one affine row per client, against each
    client's [B, N, D] slice with its own [D] affine."""
    dtype, k, b, seed = stack
    rng = np.random.default_rng(seed)
    a = leaf(rng.normal(size=(k, b, n, d)).astype(dtype))
    gain = leaf(strided_stack(rng, k, (d,), dtype))
    bias = leaf(strided_stack(rng, k, (d,), dtype))
    g = rng.normal(size=(k, b, n, d)).astype(dtype)
    out = T.layer_norm(a, gain, bias, 1e-5)
    grads_through(out, g)
    for i in range(k):
        ai, gi, bi = (leaf(t.data[i].copy()) for t in (a, gain, bias))
        oi = T.layer_norm(ai, gi, bi, 1e-5)
        grads_through(oi, g[i])
        assert out.data[i].tobytes() == oi.data.tobytes()
        for stacked, alone in ((a, ai), (gain, gi), (bias, bi)):
            assert stacked.grad[i].tobytes() == alone.grad.tobytes()


def _fd_check(build, *leaves):
    """Analytic gradients of sum(build() * g) against central differences;
    the leaves must own contiguous buffers, which the differences perturb."""
    rng = np.random.default_rng(7)
    g = rng.normal(size=build().shape)
    T.backward(T.sum_(T.mul(build(), T.constant(g))))

    def value():
        return float(np.sum(build().data * g))

    for t in leaves:
        assert max_rel_err(t.grad, fd_gradient(value, t.data)) < 1e-5


class TestStackedGradientsByFiniteDifferences:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        a = leaf(rng.normal(size=(3, 5, 4)))
        w = leaf(rng.normal(size=(3, 4, 2)))
        _fd_check(lambda: T.matmul(a, w), a, w)

    def test_bias_add(self):
        rng = np.random.default_rng(1)
        a = leaf(rng.normal(size=(3, 5, 4)))
        bias = leaf(rng.normal(size=(3, 4)))
        _fd_check(lambda: T.add(a, bias), a, bias)

    def test_affine(self):
        rng = np.random.default_rng(8)
        a = leaf(rng.normal(size=(3, 5, 4)))
        w = leaf(rng.normal(size=(3, 4, 2)))
        bias = leaf(rng.normal(size=(3, 2)))
        _fd_check(lambda: T.affine(a, w, bias), a, w, bias)

    def test_focal_nll_with_per_client_gamma(self):
        rng = np.random.default_rng(2)
        logits = leaf(rng.normal(size=(3, 5, 4)))
        onehot = np.eye(4)[rng.integers(0, 4, size=(3, 5))]
        gamma = leaf(np.array([0.5, 2.0, 1.3]))
        weights = 1.0 + rng.uniform(size=(3, 5))
        _fd_check(lambda: T.focal_nll(logits, onehot, 1e-12, gamma=gamma, weights=weights),
                  logits, gamma)

    def test_per_client_mean(self):
        x = leaf(np.random.default_rng(3).normal(size=(4, 7)))
        _fd_check(lambda: T.mean(x, axis=-1), x)

    def test_layer_norm_with_per_client_affine(self):
        rng = np.random.default_rng(4)
        a = leaf(rng.normal(size=(3, 2, 4, 5)))
        gain = leaf(1.0 + rng.normal(size=(3, 5)))
        bias = leaf(rng.normal(size=(3, 5)))
        _fd_check(lambda: T.layer_norm(a, gain, bias, 1e-5), a, gain, bias)

    def test_transpose_at_rank_four(self):
        a = leaf(np.random.default_rng(5).normal(size=(2, 3, 4, 5)))
        _fd_check(lambda: T.transpose(a), a)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3, 4), (4, 5)),        # a stack against one shared matrix
    ((3, 4), (2, 4, 5)),
    ((2, 3, 4), (3, 4, 5)),     # stacks of different depth
    ((2, 2, 3, 4), (2, 2, 4, 5)),
], ids=["shared-weight", "matrix-on-stack", "depth-mismatch", "rank-4"])
def test_matmul_outside_the_stack_pattern_rejected(a_shape, b_shape):
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.zeros(a_shape)), T.constant(np.zeros(b_shape)))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3, 4), (4,)),          # a vector bias on a stack
    ((2, 3, 4), (3, 4)),        # a bias stack of the wrong depth
    ((2, 3, 4), (2, 3)),
    ((2, 2, 3, 4), (2, 2, 4)),
], ids=["shared-bias", "depth-mismatch", "width-mismatch", "rank-4"])
def test_add_outside_the_bias_pattern_rejected(a_shape, b_shape):
    with pytest.raises(ShapeError):
        T.add(T.constant(np.zeros(a_shape)), T.constant(np.zeros(b_shape)))


@pytest.mark.parametrize("a_shape, affine_shape", [
    ((2, 3, 4), (3, 4)),        # an affine stack of the wrong depth
    ((2, 3, 4), (2, 3)),
    ((4,), (4, 4)),             # an affine stack on an input with no client axis
    ((2, 3, 4), (2, 3, 4)),
], ids=["depth-mismatch", "width-mismatch", "rank-1-input", "rank-3-affine"])
def test_layer_norm_affine_outside_the_pattern_rejected(a_shape, affine_shape):
    affine = T.constant(np.ones(affine_shape))
    with pytest.raises(ShapeError):
        T.layer_norm(T.constant(np.zeros(a_shape)), affine, affine, 1e-5)


def test_transpose_swaps_the_last_two_axes_of_every_slice():
    a = np.arange(24.0).reshape(2, 3, 4)
    assert T.transpose(T.constant(a)).data.tobytes() == np.stack([m.T for m in a]).tobytes()
    with pytest.raises(ShapeError):
        T.transpose(T.constant(np.zeros(3)))


def test_focal_nll_gamma_must_be_one_per_client():
    logits = T.constant(np.zeros((3, 2, 4)))
    onehot = np.eye(4)[np.zeros((3, 2), dtype=np.int64)]
    for shape in ((), (2,), (3, 1)):
        with pytest.raises(ShapeError, match="one scalar per client"):
            T.focal_nll(logits, onehot, 1e-12, gamma=T.constant(np.full(shape, 2.0)))


def test_stacked_params_view_their_rows():
    model = M.MlpClassifier(M.MlpConfig(input_dim=5, hidden_dim=7, num_classes=3))
    params = model.init_params(np.random.default_rng(0), gamma_init=2.0)
    stack = M.ModelParams.from_flat(params.manifest(), np.tile(params.flat, (4, 1)))
    for (name, shape), t in zip(params.manifest(), stack.tensors()):
        assert t.shape == (4,) + shape, name
        assert np.shares_memory(t.data, stack.flat), name
        for k in range(4):
            assert t.data[k].tobytes() == params[name].data.tobytes(), name
    stack.flat[2] = 0.0
    assert not stack["mlp.w1"].data[2].any() and stack["mlp.w1"].data[1].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_adam_steps_rows_at_different_step_counts_like_each_row_alone(dtype):
    """Rows 0-1 step twice, then rows 1-2 twice, then all three once: each
    span's rows sit at different step counts, and each row must end with
    the bits of a per-tensor Adam on that row alone."""
    rng = np.random.default_rng(11)
    manifest = [("w", (3, 2)), ("b", (2,))]
    start = rng.normal(size=(3, 8)).astype(dtype)
    stack = M.ModelParams.from_flat(manifest, start.copy())
    opt = F.Adam(stack, lr=0.05)
    alone = [M.ModelParams.from_flat(manifest, row.copy()) for row in start]
    oracles = [PerTensorAdam(params, lr=0.05) for params in alone]
    for sel in (slice(0, 2),) * 2 + (slice(1, 3),) * 2 + (slice(0, 3),):
        group = M.ModelParams.from_flat(manifest, stack.flat[sel])
        grads = {name: rng.normal(size=(sel.stop - sel.start,) + shape).astype(dtype)
                 for name, shape in manifest}
        for name, g in grads.items():
            group[name].grad = g
        opt.step(group, sel)
        for i, k in enumerate(range(sel.start, sel.stop)):
            for name, g in grads.items():
                alone[k][name].grad = g[i]
            oracles[k].step()
    assert opt.t.tolist() == [3, 5, 3]
    for k in range(3):
        assert stack.flat[k].tobytes() == alone[k].flat.tobytes(), k


ARTIFACTS = ("metrics.csv", "rounds.jsonl", "final.ckpt")

LOCKSTEP_CONFIGS = {
    **{name: ("smoke", overrides) for name, overrides in GATE_CONFIGS.items()},
    "dirichlet-20": ("smoke", {"partition.mode": "dirichlet", "partition.beta": 0.5,
                               "partition.clients": 20}),
    # a ragged batch closes every epoch, so it falls mid-sequence
    "two-epochs": ("smoke", {"federation.local_epochs": 2}),
    "batch-7": ("smoke", {"federation.batch_size": 7}),
    "focal": ("smoke", {"loss.kind": "focal"}),
    "empty-shard": ("smoke", {"partition.ratios": (0.7, 0.3, 0.0)}),
    "vit-smoke": ("vit-smoke", {}),
    # round 1 trains clients 1 and 2 on batches [16, 7] and [16] an epoch:
    # every batch is run, and the second epoch steps them at counts 3 and 2
    "vit-two-epochs-k2": ("vit-smoke", {"federation.local_epochs": 2,
                                        "federation.client_fraction": 0.67}),
    # a stacked pos_embed, one gamma per client and a K = 2 stack
    "vit-learned-trainable-gamma": ("vit-smoke", {"model.vit.learned_positions": True,
                                                  "loss.gamma_trainable": True,
                                                  "federation.client_fraction": 0.67}),
}


@pytest.mark.parametrize("preset, overrides", LOCKSTEP_CONFIGS.values(),
                         ids=LOCKSTEP_CONFIGS.keys())
def test_artifacts_identical_to_serial_oracle(tmp_path, monkeypatch, preset, overrides):
    """Byte-identity gate: a run writes the same artifacts with the lockstep
    trainer and with the serial per-client loop patched in, with
    federation.concurrent false and true alike."""
    base = X.preset_config(preset, seed=0).with_overrides(
        {"federation.rounds": 5 if preset == "smoke" else 3, **overrides})
    outputs = {}
    for path in ("lockstep", "serial"):
        if path == "serial":
            monkeypatch.setattr(F, "local_train", serial_local_train)
        for concurrent in (False, True):
            out = tmp_path / f"{path}-{concurrent}"
            X.run_experiment(base.with_overrides({"federation.concurrent": concurrent}), out)
            outputs[(path, concurrent)] = [(out / n).read_bytes() for n in ARTIFACTS]
    monkeypatch.undo()
    reference = outputs[("lockstep", False)]
    for key, files in outputs.items():
        for name, a, b in zip(ARTIFACTS, reference, files):
            assert a == b, f"{name} differs on {key}"
