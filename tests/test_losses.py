import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfocal import losses as L
from fedfocal import tensor as T
from fedfocal.errors import ConfigError, ContractError, NumericError
from fedfocal.models import ModelParams

from helpers import chain_per_sample_losses, fd_gradient, max_rel_err, mean, tape_batch_loss


def logits64(data):
    return T.Tensor(data, requires_grad=True, dtype=np.float64)


def random_batch(rng, batch=6, classes=4, spread=2.0):
    logits = rng.normal(size=(batch, classes)) * spread
    labels = rng.integers(0, classes, size=batch)
    return logits, labels


class TestCrossEntropy:
    def test_uniform_binary_logits(self):
        loss = L.cross_entropy(logits64([[0.0, 0.0]]), [0])
        assert round(loss.item(), 4) == 0.6931
        assert loss.item() == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_confident_margin_drives_loss_to_zero(self):
        values = [L.cross_entropy(logits64([[m, 0.0]]), [0]).item()
                  for m in (5.0, 20.0, 80.0)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-30

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        raw, labels = random_batch(rng)
        logits = logits64(raw)
        loss = L.cross_entropy(logits, labels)
        T.backward(loss)
        probs = np.exp(raw - raw.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(raw)
        onehot[np.arange(len(labels)), labels] = 1
        analytic = (probs - onehot) / len(labels)
        assert np.max(np.abs(logits.grad - analytic)) < 1e-12

        def f():
            return L.cross_entropy(T.Tensor(logits.data, dtype=np.float64), labels).item()

        assert max_rel_err(logits.grad, fd_gradient(f, logits.data), floor=1e-3) < 1e-6


class TestFocal:
    def test_gamma_zero_equals_cross_entropy_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            raw, labels = random_batch(rng)
            ce = L.cross_entropy(logits64(raw), labels)
            focal = L.focal_loss(logits64(raw), labels, gamma=0.0)
            assert ce.data.tobytes() == focal.data.tobytes()

    def test_half_probability_hand_value(self):
        # p_t = 0.5, gamma = 2: 0.25 * ln 2
        loss = L.focal_loss(logits64([[0.0, 0.0]]), [0], gamma=2.0)
        assert round(loss.item(), 4) == 0.1733
        assert loss.item() == pytest.approx(0.25 * math.log(2.0), rel=1e-12)

    def test_easy_example_downweighting_ratio(self):
        # p_t = 0.9 vs 0.5 at gamma = 2
        a = math.log(0.9 / 0.1)  # logit margin giving p_t = 0.9
        easy = L.focal_loss(logits64([[a, 0.0]]), [0], gamma=2.0).item()
        hard = L.focal_loss(logits64([[0.0, 0.0]]), [0], gamma=2.0).item()
        assert easy == pytest.approx(0.01 * -math.log(0.9), rel=1e-9)
        assert hard == pytest.approx(0.25 * math.log(2.0), rel=1e-12)
        assert easy / hard == pytest.approx(0.00105360516 / 0.17328679514, rel=1e-6)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ContractError):
            L.focal_loss(logits64([[0.0, 0.0]]), [0], gamma=-1.0)


class TestAdaptiveFocal:
    def test_zero_coeffs_equal_focal_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            raw, labels = random_batch(rng)
            focal = L.focal_loss(logits64(raw), labels, gamma=2.0)
            adaptive = L.adaptive_focal_loss(logits64(raw), labels,
                                             coeffs=np.zeros(len(labels)), gamma=2.0)
            assert focal.data.tobytes() == adaptive.data.tobytes()

    def test_hand_value_with_unit_coefficient(self):
        loss = L.adaptive_focal_loss(logits64([[0.0, 0.0]]), [0],
                                     coeffs=[1.0], gamma=2.0)
        assert round(loss.item(), 4) == 0.3466
        assert loss.item() == pytest.approx(2 * 0.25 * math.log(2.0), rel=1e-12)

    def test_per_sample_ratio_is_linear_in_one_plus_coeff(self):
        # identical samples, coefficients 0 and 41.6193
        logits = logits64([[0.3, -0.2], [0.3, -0.2]])
        vec = L.per_sample_losses(logits, [0, 0], gamma=2.0,
                                  coeffs=[0.0, 41.6193])
        ratio = float(vec.data[1] / vec.data[0])
        assert ratio == pytest.approx(42.6193, abs=1e-10)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ContractError):
            L.adaptive_focal_loss(logits64([[0.0, 0.0]]), [0], coeffs=[-0.5])

    def test_missing_coeffs_rejected(self):
        with pytest.raises(ContractError):
            L.adaptive_focal_loss(logits64([[0.0, 0.0]]), [0], coeffs=None)


class TestTargets:
    """A trainer checks a round's labels and builds their weights once, then
    indexes each batch out of them; the loss must not change by a bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["ce", "focal", "adaptive_focal"])
    def test_indexed_targets_match_raw_labels_bitwise(self, dtype, kind):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, size=40)
        coeffs = rng.uniform(0.0, 3.0, size=40)
        checked = L.targets(labels, 4, coeffs, dtype)
        cfg = L.LossConfig(kind=kind)
        for idx in (rng.permutation(40)[:9], rng.permutation(40)[:12].reshape(3, 4)):
            raw = rng.normal(size=idx.shape + (4,)) * 3.0
            want = {"ce": lambda lg: L.cross_entropy(lg, labels[idx]),
                    "focal": lambda lg: L.focal_loss(lg, labels[idx], cfg.gamma),
                    "adaptive_focal": lambda lg: L.adaptive_focal_loss(
                        lg, labels[idx], coeffs[idx], cfg.gamma)}[kind]
            got = tape_batch_loss(T.Tensor(raw, dtype=dtype), checked[idx], cfg)
            assert got.data.tobytes() == want(T.Tensor(raw, dtype=dtype)).data.tobytes()

    def test_round_labels_checked_once(self):
        with pytest.raises(ContractError, match=r"0\.\.3"):
            L.targets([0, 4, 1], 4, None, np.float64)
        with pytest.raises(ContractError, match="one coefficient per sample"):
            L.targets([0, 1], 4, [0.5], np.float64)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ContractError, match=">= 0"):
                L.targets([0, 1], 4, [0.5, bad], np.float64)

    def test_non_integer_labels_rejected(self):
        """A label of 0.5 once gave an all-zero one-hot row and no error."""
        with pytest.raises(ContractError, match="integer"):
            L.targets(np.array([0.5, 1.0]), 2, None, np.float32)
        empty = L.targets(np.zeros((2, 0), dtype=np.int64), 2, None, np.float32)
        assert empty.onehot.shape == (2, 0, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_onehot_rows_follow_indexing(self, dtype):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 5, size=30)
        coeffs = rng.uniform(0.0, 2.0, size=30)
        checked = L.targets(labels, 5, coeffs, dtype)
        for idx in (rng.permutation(30)[:7], rng.permutation(30)[:12].reshape(3, 4)):
            batch = checked[idx]
            assert np.array_equal(batch.labels, labels[idx])
            assert batch.onehot.tobytes() == np.eye(5, dtype=dtype)[labels[idx]].tobytes()
            assert batch.weights.tobytes() == (1.0 + coeffs[idx]).astype(dtype).tobytes()

    def test_batch_loss_rejects_targets_in_another_dtype(self):
        """A tick's loss checks its targets once, when the plan binds it."""
        cfg, scale, nll = L.LossConfig(kind="ce"), np.full(2, 0.5), np.empty(2)
        with pytest.raises(ContractError, match="float32"):
            L.bind_loss([(2, 2)], np.float64, L.targets([0, 1], 2, None, np.float32), scale,
                        nll, None, cfg)
        with pytest.raises(ContractError, match="3 classes"):
            L.bind_loss([(2, 2)], np.float64, L.targets([0, 1], 3, None, np.float64), scale,
                        nll, None, cfg)

    def test_adaptive_batch_needs_weights(self):
        with pytest.raises(ContractError, match="coefficients"):
            L.bind_loss([(1, 2)], np.float64, L.targets([0], 2, None, np.float64), np.ones(1),
                        np.empty(1), np.empty(1), L.LossConfig(kind="adaptive_focal"))


class TestReductionChain:
    def test_chain_bitwise_on_random_batches(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw, labels = random_batch(rng, batch=int(rng.integers(1, 9)),
                                       classes=int(rng.integers(2, 6)))
            gamma = float(rng.uniform(0.0, 4.0))
            focal = L.focal_loss(logits64(raw), labels, gamma=gamma)
            adaptive = L.adaptive_focal_loss(logits64(raw), labels,
                                             coeffs=np.zeros(len(labels)), gamma=gamma)
            assert adaptive.data.tobytes() == focal.data.tobytes()
            ce = L.cross_entropy(logits64(raw), labels)
            focal0 = L.focal_loss(logits64(raw), labels, gamma=0.0)
            assert focal0.data.tobytes() == ce.data.tobytes()


class TestGradientRectification:
    def test_logit_gradient_norm_ratio_exact(self):
        rng = np.random.default_rng(4)
        for c1, c2 in [(3.0, 0.0), (41.6193, 2.5), (0.7, 0.1)]:
            raw = rng.normal(size=(1, 5))
            row = np.repeat(raw, 2, axis=0)
            logits = logits64(row)
            loss = L.adaptive_focal_loss(logits, [2, 2], coeffs=[c1, c2], gamma=2.0)
            T.backward(loss)
            n1 = np.linalg.norm(logits.grad[0])
            n2 = np.linalg.norm(logits.grad[1])
            assert n1 / n2 == pytest.approx((1 + c1) / (1 + c2), abs=1e-10)


class TestLossShapeProperties:
    def test_positivity_and_zero_only_at_certainty(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            raw, labels = random_batch(rng)
            vec = L.per_sample_losses(logits64(raw), labels, gamma=2.0,
                                      coeffs=np.abs(rng.normal(size=len(labels))))
            assert np.all(vec.data >= 0)
            assert np.all(vec.data > 0)  # p_t < 1 for finite logits
        # saturated probability reaches exactly zero loss
        sat = L.per_sample_losses(logits64([[800.0, 0.0]]), [0], gamma=2.0)
        assert float(sat.data[0]) == 0.0

    def test_strictly_decreasing_in_true_class_probability(self):
        margins = np.linspace(-4.0, 4.0, 41)
        for gamma, coeff in [(0.0, 0.0), (2.0, 0.0), (2.0, 3.5)]:
            losses = [float(L.per_sample_losses(
                logits64([[m, 0.0]]), [0], gamma=gamma,
                coeffs=[coeff]).data[0]) for m in margins]
            assert all(a > b for a, b in zip(losses, losses[1:]))


class TestTrainableGamma:
    def test_gamma_gradient_strictly_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw, labels = random_batch(rng)
            gamma = T.Tensor(2.0, requires_grad=True, dtype=np.float64)
            loss = L.adaptive_focal_loss(logits64(raw), labels,
                                         coeffs=np.abs(rng.normal(size=len(labels))),
                                         gamma=gamma)
            T.backward(loss)
            assert float(gamma.grad) < 0

    def test_gamma_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        raw, labels = random_batch(rng)
        gamma = T.Tensor(1.7, requires_grad=True, dtype=np.float64)
        coeffs = np.abs(rng.normal(size=len(labels)))
        loss = L.adaptive_focal_loss(logits64(raw), labels, coeffs=coeffs, gamma=gamma)
        T.backward(loss)

        def f():
            g = T.Tensor(gamma.data, dtype=np.float64)
            return L.adaptive_focal_loss(logits64(raw), labels,
                                         coeffs=coeffs, gamma=g).item()

        fd = fd_gradient(f, gamma.data)
        assert max_rel_err(gamma.grad, fd, floor=1e-6) < 1e-6

    def test_clamp_keeps_gamma_within_bounds(self):
        from fedfocal.models import MlpConfig, init_mlp_params

        cfg = L.LossConfig(kind="adaptive_focal", gamma=2.0, gamma_trainable=True)
        params = init_mlp_params(MlpConfig(2, 3, 2), np.random.default_rng(0),
                                 dtype=np.float64, gamma_init=2.0)
        params["loss.gamma"].data[...] = 11.0
        L.clamp_gamma(params, cfg)
        assert float(params["loss.gamma"].data) == cfg.gamma_hi
        params["loss.gamma"].data[...] = -3.0
        L.clamp_gamma(params, cfg)
        assert float(params["loss.gamma"].data) == cfg.gamma_lo

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lo, hi", [(0.0, 5.0), (-0.0, 0.0), (0.5, 5.0)])
    def test_clamp_gives_the_bits_of_np_clip(self, dtype, lo, hi):
        """On a stack of gammas, in place: values past either bound, at a
        bound, a zero of either sign at a zero bound, and NaN."""
        manifest = [("w", (2,)), ("loss.gamma", ())]
        values = [-0.0, 0.0, np.nan, -3.0, 11.0, 0.5, 5.0, 2.0, np.inf, -np.inf]
        flat = np.zeros((len(values), 3), dtype=dtype)
        flat[:, 2] = values
        stack = ModelParams.from_flat(manifest, flat)
        expected = np.clip(flat[:, 2], lo, hi)
        L.clamp_gamma(stack, L.LossConfig(gamma_trainable=True, gamma=hi, gamma_lo=lo,
                                          gamma_hi=hi))
        assert stack.flat[:, 2].tobytes() == expected.tobytes()


class TestLossConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            L.LossConfig(kind="hinge")

    def test_blend_bounds_enforced(self):
        with pytest.raises(ConfigError):
            L.LossConfig(blend=1.5)

    def test_trainable_gamma_must_start_inside_bounds(self):
        with pytest.raises(ConfigError):
            L.LossConfig(gamma=0.1, gamma_trainable=True)

    def test_dispatcher_routes_all_kinds(self):
        rng = np.random.default_rng(8)
        raw, labels = random_batch(rng)
        coeffs = np.abs(rng.normal(size=len(labels)))
        checked = L.targets(labels, raw.shape[-1], coeffs, np.float64)
        ce = tape_batch_loss(logits64(raw), checked, L.LossConfig(kind="ce"))
        assert ce.data.tobytes() == L.cross_entropy(logits64(raw), labels).data.tobytes()
        fo = tape_batch_loss(logits64(raw), checked, L.LossConfig(kind="focal", gamma=2.0))
        assert fo.data.tobytes() == L.focal_loss(logits64(raw), labels, 2.0).data.tobytes()
        af = tape_batch_loss(logits64(raw), checked,
                             L.LossConfig(kind="adaptive_focal", gamma=2.0))
        expected = L.adaptive_focal_loss(logits64(raw), labels, coeffs, 2.0)
        assert af.data.tobytes() == expected.data.tobytes()


def _loss_and_grads(per_sample, raw, labels, dtype, gamma, trainable, coeffs):
    """Batch-mean loss, logits gradient and gamma gradient (or None), as bytes."""
    logits = T.Tensor(raw, requires_grad=True, dtype=dtype)
    if trainable:
        gamma = T.Tensor(gamma, requires_grad=True, dtype=dtype)
    vec = per_sample(logits, labels, gamma=gamma, coeffs=coeffs)
    loss = mean(vec)
    T.backward(loss)
    return (vec.data.tobytes(), loss.data.tobytes(), logits.grad.tobytes(),
            gamma.grad.tobytes() if trainable else None)


class TestFusedMatchesChain:
    """The one-node loss against the primitive chain in helpers, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, gamma_mode", [
        ("ce", None), ("focal", "constant"), ("focal", "zero"), ("focal", "trainable"),
        ("adaptive", "constant"), ("adaptive", "zero"), ("adaptive", "trainable")])
    def test_random_batches_bitwise(self, dtype, kind, gamma_mode):
        rng = np.random.default_rng(11)
        for _ in range(40):
            raw, labels = random_batch(rng, batch=int(rng.integers(1, 17)),
                                       classes=int(rng.integers(2, 6)),
                                       spread=float(rng.uniform(0.5, 12.0)))
            gamma = None if kind == "ce" else (
                0.0 if gamma_mode == "zero" else float(rng.uniform(0.5, 5.0)))
            coeffs = (np.abs(rng.normal(size=len(labels))) * 5.0
                      if kind == "adaptive" else None)
            args = (raw, labels, dtype, gamma, gamma_mode == "trainable", coeffs)
            assert (_loss_and_grads(L.per_sample_losses, *args)
                    == _loss_and_grads(chain_per_sample_losses, *args))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("raw, labels", [
        ([[800.0, 0.0]], [0]),            # p_t rounds to 1: the focal base clamps
        ([[800.0, 0.0]], [1]),            # p_t underflows to 0
        ([[0.0, 40.0], [1.0, 0.0]], [0, 0]),  # p_t ~ 4e-18, below PROB_FLOOR
    ], ids=["saturated-true", "saturated-false", "below-floor"])
    @pytest.mark.parametrize("gamma, trainable", [(None, False), (2.0, False),
                                                  (0.0, False), (0.0, True),
                                                  (1.5, True)])
    def test_clamped_rows_bitwise(self, dtype, raw, labels, gamma, trainable):
        raw = np.array(raw)
        for coeffs in (None, np.full(len(labels), 2.5)):
            args = (raw, labels, dtype, gamma, trainable, coeffs)
            assert (_loss_and_grads(L.per_sample_losses, *args)
                    == _loss_and_grads(chain_per_sample_losses, *args))

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           gaps=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=6),
           labels=st.lists(st.integers(0, 1), min_size=6, max_size=6),
           gamma_mode=st.sampled_from(["ce", "constant", "zero", "trainable"]),
           weighted=st.booleans())
    @example(dtype=np.float64, gaps=[0.0], labels=[0] * 6, gamma_mode="constant",
             weighted=False)
    @settings(max_examples=80, deadline=None)
    def test_rows_around_prob_floor_bitwise(self, dtype, gaps, labels, gamma_mode, weighted):
        """Rows [0, d] with d near -ln(PROB_FLOOR): under label 0 p_t lies at
        and around the floor, under label 1 so does 1 - p_t (f64) or it
        rounds to 0 (f32). The clamps take max-then-min; the chain clamps
        with np.clip."""
        d = -math.log(L.PROB_FLOOR) + np.asarray(gaps)
        raw = np.stack([np.zeros_like(d), d], axis=1)
        labels = labels[:len(gaps)]
        gamma = {"ce": None, "zero": 0.0}.get(gamma_mode, 2.0)
        coeffs = np.linspace(0.0, 3.0, len(gaps)) if weighted else None
        args = (raw, labels, dtype, gamma, gamma_mode == "trainable", coeffs)
        assert (_loss_and_grads(L.per_sample_losses, *args)
                == _loss_and_grads(chain_per_sample_losses, *args))

    def test_below_floor_row_is_clamped(self):
        vec = L.per_sample_losses(logits64([[0.0, 40.0]]), [0])
        assert float(vec.data[0]) == pytest.approx(-math.log(L.PROB_FLOOR), rel=1e-15)

    def test_one_tape_node_per_loss(self):
        vec = L.per_sample_losses(logits64([[0.3, -0.2]]), [0], gamma=2.0, coeffs=[1.0])
        assert len(vec._parents) == 1 and not vec._parents[0]._parents

    def test_nan_logits_rejected(self):
        with pytest.raises(NumericError, match="NaN"):
            L.focal_loss(logits64([[0.0, float("nan")]]), [0])
