"""An MLP tick off the tape against the tape, byte for byte: the bound MLP
forward and backward (``MlpClassifier.bind``) and the array-level
``losses.batch_loss`` over a tick's groups, against ``tensor.perceptron``,
``tensor.focal_nll(..., mean=True)`` and ``tensor.backward`` seeded with
ones on each group alone. Also the ViT's bound pair with a trainable gamma,
and the checks a tick's loss makes once, when a plan binds it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import losses as L
from fedfocal import models as M
from fedfocal import tensor as T
from fedfocal.errors import ContractError, NumericError, ShapeError

from helpers import bind_tick, tick_means

# gamma values; 2.0 and 0.5 take numpy's scalar fast paths, 0.0 drops the factor
GAMMAS = [0.0, 0.5, 2.0, 1.3, 3.7]


def tick_inputs(model, blocks, dtype, kind, gamma, trainable, seed):
    """A parameter buffer (a [K, P] stack, or one set for a lone [B, ...]
    block), each block's rows and inputs, and the tick's flat targets.
    blocks are (k, B): k adjacent rows of batch B, or (None, B) unstacked."""
    rng = np.random.default_rng(seed)
    params = model.init_params(rng, gamma_init=gamma if trainable else None)
    k_all = sum(k or 1 for k, _ in blocks)
    flat = params.flat + rng.normal(scale=0.3, size=(k_all, params.flat.size)).astype(dtype)
    if trainable:  # one gamma per row, some of them 0
        flat[:, -1] = rng.choice(GAMMAS, size=k_all)
    flat = flat[0] if blocks[0][0] is None else flat
    shape = (model.cfg.input_dim,) if model.kind == "mlp" else (1, 16, 16)
    rows, xs, labels, coeffs, at = [], [], [], [], 0
    for k, b in blocks:
        lead = (b,) if k is None else (k, b)
        rows.append(None if k is None else slice(at, at + k))
        at += k or 1
        xs.append(rng.normal(size=lead + shape).astype(dtype))
        labels.append(rng.integers(0, model.num_classes, size=lead).reshape(-1))
        coeffs.append(rng.uniform(0.0, 3.0, size=labels[-1].size))
    targets = L.targets(np.concatenate(labels), model.num_classes,
                        np.concatenate(coeffs) if kind == "adaptive_focal" else None, dtype)
    return params.manifest(), flat, rows, xs, targets


def views_of(manifest, flat, rows):
    params = M.ModelParams.from_flat(manifest, flat.copy())
    return params, [params if r is None else params.rows(r) for r in rows]


def bound_tick(model, cfg, manifest, flat, rows, xs, targets):
    """The tick off the tape: bound forwards, one batch_loss, bound backwards."""
    params, views = views_of(manifest, flat, rows)
    bounds = [model.bind(view, x) for view, x in zip(views, xs)]
    gammas = [L.trainable_gamma(v, cfg) for v in views] if cfg.gamma_trainable else None
    logits = [forward() for forward, _ in bounds]
    loss = bind_tick([x.shape for x in logits], targets, cfg, gammas)
    dlogits, dgammas = L.batch_loss(logits, loss)
    for (_, backward), g in zip(bounds, dlogits):
        backward(g)
    return tick_means(loss, targets, cfg), dlogits, dgammas, params.grad


def tape_tick(model, cfg, manifest, flat, rows, xs, targets):
    """Each group alone on the tape: its logits node, focal_nll with the
    batch mean, and backward seeded with ones."""
    params, views = views_of(manifest, flat, rows)
    means, dlogits, dgammas, at = [], [], [], 0
    for view, x in zip(views, xs):
        logits = model.batch_logits(view, x)
        n = int(np.prod(logits.shape[:-1]))
        gamma = L.trainable_gamma(view, cfg) if cfg.gamma_trainable else cfg.gamma
        weights = targets.weights[at:at + n] if cfg.kind == "adaptive_focal" else None
        loss = T.focal_nll(logits, targets.onehot[at:at + n], L.PROB_FLOOR,
                           None if cfg.kind == "ce" else gamma, weights, mean=True)
        T.backward(loss, np.ones(loss.shape, dtype=loss.dtype))
        means.append(loss.data.reshape(-1))
        dlogits.append(logits.grad)
        dgammas.append(gamma.grad if cfg.gamma_trainable else None)
        at += n
    return np.concatenate(means), dlogits, dgammas, params.grad


def assert_same_tick(model, kind, gamma, trainable, blocks, dtype, seed):
    cfg = L.LossConfig(kind=kind, gamma=gamma, gamma_trainable=trainable, gamma_lo=0.0)
    inputs = tick_inputs(model, blocks, dtype, kind, gamma, trainable, seed)
    means, dlogits, dgammas, grad = bound_tick(model, cfg, *inputs)
    t_means, t_dlogits, t_dgammas, t_grad = tape_tick(model, cfg, *inputs)
    assert means.tobytes() == t_means.tobytes()
    assert [g.tobytes() for g in dlogits] == [g.tobytes() for g in t_dlogits]
    assert grad.tobytes() == t_grad.tobytes()  # every parameter's slot, gamma's too
    if trainable and kind != "ce":
        assert [g.tobytes() for g in dgammas] == [g.tobytes() for g in t_dgammas]
        assert grad[..., -1].any()
    else:  # CE never reads a trainable gamma: its slot stays as it was
        assert dgammas is None and not (trainable and grad[..., -1].any())


BLOCKS = st.one_of(
    st.tuples(st.just(None), st.integers(1, 12)).map(lambda b: [b]),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 12)), min_size=1, max_size=4))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), BLOCKS, st.integers(1, 6), st.integers(1, 6),
       st.integers(2, 5), st.sampled_from(["ce", "focal", "adaptive_focal"]),
       st.sampled_from(["zero", "constant", "trainable"]), st.sampled_from(GAMMAS[1:]),
       st.integers(0, 2**32 - 1))
def test_bound_mlp_tick_equals_the_tape_bitwise(dtype, blocks, d, h, c, kind, mode, gamma,
                                                seed):
    """[B, D] or [K, B, D] inputs, 1-4 groups, each loss kind, gamma 0,
    constant or trainable, with and without weights: the means, the logits
    gradients, every parameter-gradient slot and the gamma gradients."""
    model = M.MlpClassifier(M.MlpConfig(input_dim=d, hidden_dim=h, num_classes=c), dtype)
    assert_same_tick(model, kind, 0.0 if mode == "zero" else gamma, mode == "trainable",
                     blocks, dtype, seed)


@pytest.mark.parametrize("kind", ["ce", "adaptive_focal"])
def test_bound_vit_tick_with_trainable_gamma_equals_the_tape_bitwise(kind):
    """The ViT's bound pair runs on the tape; its forward zeroes every
    gradient slot, gamma's too, and batch_loss then writes gamma's, so
    gamma's gradient reaches its slot (and Adam) as on the tape."""
    model = M.ViTClassifier(M.ViTConfig(image_size=16, patch_size=8, num_classes=3))
    assert_same_tick(model, kind, 2.0, True, [(2, 4), (1, 3)], np.float32, 7)


def test_after_a_vit_tick_gammas_slot_holds_the_loss_gradient():
    """The ViT forward zeroes every gradient slot, gamma's too, and the
    tick's batch_loss then writes gamma's: after the tick, gamma's slot
    holds batch_loss's dgamma, whatever the slots held before."""
    model = M.ViTClassifier(M.ViTConfig(image_size=16, patch_size=8, num_classes=3))
    params = model.init_params(np.random.default_rng(0), gamma_init=2.0)
    params.grad[...] = np.nan
    cfg = L.LossConfig(gamma_trainable=True)
    images = np.random.default_rng(1).normal(size=(2, 1, 16, 16)).astype(np.float32)
    forward, backward = model.bind(params, images)
    loss = bind_tick([(2, 3)], L.targets([0, 1], 3, [0.0, 1.0], np.float32), cfg,
                     [L.trainable_gamma(params, cfg)])
    (dlogits,), (dgamma,) = L.batch_loss([forward()], loss)
    backward(dlogits)
    assert params.manifest()[-1] == ("loss.gamma", ())
    assert dgamma.any() and params.grad[-1:].tobytes() == dgamma.tobytes()
    assert np.isfinite(params.grad).all()


def test_a_nan_logit_names_its_row_of_the_tick():
    """batch_loss reads a tick's blocks as the rows of one array, and a NaN
    is reported at its flat index there, as softmax reports it."""
    rng = np.random.default_rng(4)
    logits = [rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 2, 4))]
    logits[1][0, 1, 2] = np.nan
    targets = L.targets(rng.integers(0, 4, size=8), 4, None, np.float64)
    tick = bind_tick([x.shape for x in logits], targets, L.LossConfig(kind="focal"))
    with pytest.raises(NumericError) as tape:
        T.softmax(T.constant(np.concatenate([x.reshape(-1, 4) for x in logits])))
    with pytest.raises(NumericError, match=r"^softmax input contains NaN at flat index 30$"):
        L.batch_loss(logits, tick)
    assert str(tape.value) == "softmax input contains NaN at flat index 30"


class TestChecksAtPlanTime:
    """The rejections batch_loss and focal_nll made on every call, now made
    once when a plan binds a tick's loss (``losses.bind_loss``), with the
    messages focal_nll gives on the tape."""

    @staticmethod
    def raised(f, *args):
        with pytest.raises((ContractError, ShapeError)) as exc:
            f(*args)
        return type(exc.value), str(exc.value)

    def bind(self, shapes, targets, cfg, gammas=None):
        n = targets.labels.size
        return self.raised(L.bind_loss, shapes, np.float64, targets, np.ones(n), np.empty(n),
                           np.empty(n), cfg, gammas)

    @pytest.mark.parametrize("targets, match", [
        (L.targets([0, 1, 2, 0, 1, 2], 3, None, np.float32), "float32"),
        (L.targets([0, 1, 2, 0, 1, 2], 4, None, np.float64), "4 classes"),
        (L.targets([0, 1, 2, 0, 1], 3, None, np.float64), "one-hot rows"),
    ], ids=["dtype", "class-count", "rows"])
    def test_targets_that_do_not_fit_the_logits(self, targets, match):
        got = self.bind([(2, 3, 3)], targets, L.LossConfig(kind="ce"))
        tape = self.raised(T.focal_nll, T.constant(np.zeros((2, 3, 3))), targets.onehot,
                           L.PROB_FLOOR)
        assert got == tape and match in got[1]

    @pytest.mark.parametrize("shapes", [[(2, 3, 3), (1, 2, 4)], [(1, 2, 3, 3)], [(3,)]],
                             ids=["two-class-counts", "rank-4", "rank-1"])
    def test_blocks_of_another_shape(self, shapes):
        targets = L.targets(np.zeros(8, dtype=np.int64), 3, None, np.float64)
        kind, message = self.bind(shapes, targets, L.LossConfig(kind="ce"))
        assert kind is ShapeError and "[B, C] or [K, B, C]" in message

    def test_gammas_one_scalar_per_client(self):
        params = M.ModelParams.from_flat([("loss.gamma", ())], np.full((3, 1), 2.0))
        cfg = L.LossConfig(gamma_trainable=True)
        targets = L.targets(np.zeros(8, dtype=np.int64), 3, np.zeros(8), np.float64)
        for gammas in ([params.rows(slice(0, 3))["loss.gamma"]],
                       [params.rows(slice(0, 2))["loss.gamma"]] * 2):
            kind, message = self.bind([(2, 3, 3), (1, 2, 3)], targets, cfg, gammas)
            assert kind is ShapeError and "one scalar per client" in message
        tape = self.raised(T.focal_nll, T.constant(np.zeros((2, 3, 3))), targets.onehot[:6],
                           L.PROB_FLOOR, T.constant(np.ones(3)))
        assert tape[0] is ShapeError and "one scalar per client" in tape[1]

    def test_a_trainable_gamma_needs_a_gradient_slot(self):
        targets = L.targets([0, 1], 2, None, np.float64)
        kind, message = self.bind([(2, 2)], targets, L.LossConfig(kind="focal"),
                                  [T.parameter(np.float64(2.0))])
        assert kind is ContractError and "gradient slot" in message

    def test_adaptive_kind_needs_weights(self):
        targets = L.targets([0, 1], 2, None, np.float64)
        kind, message = self.bind([(2, 2)], targets, L.LossConfig(kind="adaptive_focal"))
        assert kind is ContractError and "coefficients" in message

    def test_a_bound_mlp_rejects_inputs_that_do_not_fit(self):
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=3, num_classes=2))
        params = model.init_params(np.random.default_rng(0))
        stack = M.ModelParams.from_flat(params.manifest(), np.stack([params.flat] * 2))
        for p, x in ((params, np.zeros((5, 3))), (params, np.zeros((2, 5, 4))),
                     (stack, np.zeros((3, 5, 4))), (stack, np.zeros((5, 4)))):
            with pytest.raises(ShapeError, match="perceptron"):
                model.bind(p, x)
