import gc
import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import tensor as T
from fedfocal.errors import ConfigError, ContractError, IngestionError, NumericError, ShapeError

from helpers import (chain_perceptron, dfs_backward, fd_gradient, max_rel_err, mean,
                     tape_batch_loss)


def t64(data, requires_grad=False):
    return T.Tensor(data, requires_grad=requires_grad, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(t64([[1, 0], [0, 1]]), t64([[5, 6], [7, 8]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_product(self):
        out = T.matmul(t64([[1, 2]]), t64([[3], [4]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 4)), requires_grad=True)
        b = t64(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return T.sum_(T.matmul(T.Tensor(a.data, dtype=np.float64),
                                   T.Tensor(b.data, dtype=np.float64))).item()

        T.backward(T.sum_(T.matmul(a, b)))
        assert max_rel_err(a.grad, fd_gradient(loss, a.data)) < 1e-5
        assert max_rel_err(b.grad, fd_gradient(loss, b.data)) < 1e-5


def _backward_through(out, g):
    """Backward of sum(out * g), so exactly g reaches out."""
    T.backward(T.sum_(T.mul(out, T.Tensor(g, dtype=g.dtype))))


class TestFusedNodes:
    @pytest.mark.parametrize("needs", [(x, w, b) for x in (False, True) for w in (False, True)
                                       for b in (False, True)],
                             ids=lambda n: "grad-" + "".join("xwb"[i] for i in range(3) if n[i])
                             if any(n) else "no-grad")
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_affine_equals_matmul_then_bias_add_bitwise(self, dtype, lead, needs):
        rng = np.random.default_rng(50)
        arrays = [rng.normal(size=lead + shape).astype(dtype) for shape in ((5, 4), (4, 6), (6,))]
        g = rng.normal(size=lead + (5, 6)).astype(dtype)
        results = []
        for fused in (True, False):
            x, w, b = (T.Tensor(a.copy(), requires_grad=n) for a, n in zip(arrays, needs))
            start = len(T._tape)
            out = T.affine(x, w, b) if fused else T.add(T.matmul(x, w), b)
            nodes = len(T._tape) - start
            _backward_through(out, g)
            results.append([out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes()
                                                   for t in (x, w, b)])
            if fused:
                assert nodes == any(needs)
        assert results[0] == results[1]
        assert [grad is not None for grad in results[0][1:]] == list(needs)

    def test_affine_rejects_a_bias_of_the_wrong_width(self):
        with pytest.raises(ShapeError, match="affine"):
            T.affine(t64(np.ones((2, 3))), t64(np.ones((3, 4))), t64(np.ones(3)))

    def test_affine_gradients_by_finite_differences(self):
        rng = np.random.default_rng(51)
        x, w, b = (t64(rng.normal(size=shape), requires_grad=True)
                   for shape in ((5, 4), (4, 3), (3,)))
        g = rng.normal(size=(5, 3))
        _backward_through(T.affine(x, w, b), g)
        for t in (x, w, b):
            numeric = fd_gradient(lambda: float(np.sum(T.affine(x, w, b).data * g)), t.data)
            assert max_rel_err(t.grad, numeric) < 1e-6

    @pytest.mark.parametrize("needs", [(True,) * 5, (False,) + (True,) * 4,
                                       (False, False, False, True, True),
                                       (True, False, False, False, False), (False,) * 5],
                             ids=["all", "params", "second-layer", "x-only", "no-grad"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_perceptron_equals_affine_relu_affine_chain_bitwise(self, dtype, lead, needs):
        rng = np.random.default_rng(53)
        shapes = ((9, 4), (4, 6), (6,), (6, 3), (3,))
        arrays = [rng.normal(size=lead + shape).astype(dtype) for shape in shapes]
        g = rng.normal(size=lead + (9, 3)).astype(dtype)
        results = []
        for fused in (True, False):
            leaves = [T.Tensor(a.copy(), requires_grad=n) for a, n in zip(arrays, needs)]
            start = len(T._tape)
            out = (T.perceptron if fused else chain_perceptron)(*leaves)
            nodes = len(T._tape) - start
            _backward_through(out, g)
            results.append([out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes()
                                                   for t in leaves])
            if fused:
                assert nodes == any(needs)
        assert results[0] == results[1]
        assert [grad is not None for grad in results[0][1:]] == list(needs)

    @pytest.mark.parametrize("x_trainable", [True, False], ids=["x-trainable", "x-constant"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_perceptron_gradients_by_finite_differences(self, dtype, lead, x_trainable):
        """Differences of a float64 evaluation of the perturbed buffers. The
        biases keep every pre-activation clear of the ReLU kink by more than
        a difference step moves it, with both signs in every slice, so the
        function is linear along each coordinate there."""
        rng = np.random.default_rng(54)
        x, w1, w2 = (rng.uniform(-0.5, 0.5, size=lead + shape).astype(dtype)
                     for shape in ((5, 3), (3, 4), (4, 2)))
        b1 = np.broadcast_to(np.array([1.0, -1.0, 1.5, -1.5], dtype=dtype), lead + (4,)).copy()
        b2 = rng.normal(size=lead + (2,)).astype(dtype)
        pre = x @ w1 + b1[..., None, :]
        assert np.abs(pre).min() > 0.2 and (pre > 0).any() and (pre < 0).any()
        leaves = [T.Tensor(x, requires_grad=x_trainable)] + [
            T.Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)]
        g = rng.normal(size=lead + (5, 2))
        _backward_through(T.perceptron(*leaves), g.astype(dtype))

        def value():
            wide = [T.Tensor(t.data.astype(np.float64)) for t in leaves]
            return float(np.sum(T.perceptron(*wide).data * g))

        for t in leaves[0 if x_trainable else 1:]:
            numeric = fd_gradient(value, t.data)
            assert max_rel_err(t.grad, numeric) < (1e-4 if dtype == np.float32 else 1e-7)
        assert x_trainable or leaves[0].grad is None

    def test_perceptron_rejects_a_second_layer_that_does_not_fit(self):
        x, w1, b1 = t64(np.ones((2, 3))), t64(np.ones((3, 4))), t64(np.ones(4))
        with pytest.raises(ShapeError, match="perceptron"):
            T.perceptron(x, w1, b1, t64(np.ones((5, 2))), t64(np.ones(2)))
        with pytest.raises(ShapeError, match="perceptron bias"):
            T.perceptron(x, w1, b1, t64(np.ones((4, 2))), t64(np.ones(3)))

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["rows", "stack"])
    def test_perceptron_raises_what_its_checks_raise(self, lead):
        """perceptron runs its dtype and two affine checks (``check_perceptron``,
        which a bound MLP runs once). Operands that fit, and every copy with
        one operand off by one dimension (one grown, dropped or added) or in
        float32, raise the checks' first error, message and all, or nothing."""
        fit = [lead + (2, 3), lead + (3, 4), lead + (4,), lead + (4, 5), lead + (5,)]
        cases = [(fit, None)] + [(fit, i) for i in range(5)]
        for i, s in enumerate(fit):
            near = [s[:j] + (s[j] + 1,) + s[j + 1:] for j in range(len(s))]
            near += [s[:j] + s[j + 1:] for j in range(len(s))] + [(2,) + s]
            cases += [(fit[:i] + [t] + fit[i + 1:], None) for t in near]

        def raised(f, *ops):
            try:
                f(*ops)
            except (ContractError, ShapeError) as exc:
                return type(exc), str(exc)
            return None

        def checks(x, w1, b1, w2, b2):
            T._check_same_dtype(x, w1, b1, w2, b2)
            T._check_affine("perceptron", x.shape, w1, b1)
            T._check_affine("perceptron", x.shape[:-1] + w1.shape[-1:], w2, b2)

        for shapes, retyped in cases:
            ops = [T.Tensor(np.ones(s), dtype=np.float32 if i == retyped else np.float64)
                   for i, s in enumerate(shapes)]
            assert raised(T.perceptron, *ops) == raised(checks, *ops), (shapes, retyped)

    @pytest.mark.parametrize("axis", [None, -1], ids=["all", "last-axis"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_mean_is_one_node_with_the_bits_of_scaled_sum(self, dtype, axis):
        rng = np.random.default_rng(52)
        data = rng.normal(size=(3, 7)).astype(dtype)
        g = rng.normal(size=() if axis is None else (3,)).astype(dtype)
        results = []
        for fused in (True, False):
            a = T.Tensor(data.copy(), requires_grad=True)
            start = len(T._tape)
            out = mean(a, axis=axis) if fused else T.scale(T.sum_(a, axis=axis), 1.0 / (
                a.data.size if axis is None else a.shape[axis]))
            assert len(T._tape) - start == (1 if fused else 2)
            _backward_through(out, g)
            results.append((out.data.tobytes(), a.grad.tobytes()))
        assert results[0] == results[1]


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t64([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_no_overflow_from_max_subtraction(self):
        out = T.softmax(t64([1000.0, 1000.0]), axis=0)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_matches_independent_evaluation(self):
        # independent oracle: math-module arithmetic, explicit normalization
        ex = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        expected = [v / sum(ex) for v in ex]
        out = T.softmax(t64([1.0, 2.0, 3.0]), axis=0)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = T.softmax(t64(rng.normal(size=(5, 7)) * 10), axis=1)
        assert np.all(out.data >= 0)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-6

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError, match="NaN"):
            T.softmax(t64([1.0, float("nan")]), axis=0)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))

        def loss():
            s = T.softmax(T.Tensor(x.data, dtype=np.float64), axis=1)
            return T.sum_(T.mul(s, T.constant(w, dtype=np.float64))).item()

        out = T.sum_(T.mul(T.softmax(x, axis=1), T.constant(w, dtype=np.float64)))
        T.backward(out)
        assert max_rel_err(x.grad, fd_gradient(loss, x.data)) < 1e-5


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        gain = t64([1.0, 1.0, 1.0])
        bias = t64([0.0, 0.0, 0.0])
        out = T.layer_norm(t64([[5.0, 5.0, 5.0]]), gain, bias, eps=1e-5)
        assert np.array_equal(out.data, [[0.0, 0.0, 0.0]])

    def test_symmetric_row_keeps_sign_unit_variance(self):
        out = T.layer_norm(t64([[1.0, -1.0]]), t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-8)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)
        assert out.data[0, 0] > 0 > out.data[0, 1]

    def test_rows_normalized_before_affine(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 8)) * 3 + 1
        out = T.layer_norm(t64(x), t64(np.ones(8)), t64(np.zeros(8)), eps=1e-10)
        assert np.max(np.abs(out.data.mean(axis=1))) < 1e-5
        assert np.max(np.abs(out.data.var(axis=1) - 1.0)) < 1e-5

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ConfigError):
            T.layer_norm(t64([[1.0]]), t64([1.0]), t64([0.0]), eps=0.0)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(4, 8)), requires_grad=True)
        gain = t64(rng.normal(size=8), requires_grad=True)
        bias = t64(rng.normal(size=8), requires_grad=True)
        w = rng.normal(size=(4, 8))

        def loss():
            out = T.layer_norm(T.Tensor(x.data, dtype=np.float64),
                               T.Tensor(gain.data, dtype=np.float64),
                               T.Tensor(bias.data, dtype=np.float64), eps=1e-5)
            return T.sum_(T.mul(out, T.constant(w, dtype=np.float64))).item()

        out = T.sum_(T.mul(T.layer_norm(x, gain, bias, eps=1e-5),
                           T.constant(w, dtype=np.float64)))
        T.backward(out)
        assert max_rel_err(x.grad, fd_gradient(loss, x.data)) < 1e-5
        assert max_rel_err(gain.grad, fd_gradient(loss, gain.data)) < 1e-5
        assert max_rel_err(bias.grad, fd_gradient(loss, bias.data)) < 1e-5


class TestElementwise:
    def test_relu(self):
        out = T.relu(t64([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_pow_scalar(self):
        out = T.power(t64([0.5]), 2.0)
        assert np.array_equal(out.data, [0.25])

    def test_composite_gradient(self):
        # f(x) = sum(relu(x)^2)
        rng = np.random.default_rng(5)
        x = t64(rng.normal(size=7), requires_grad=True)

        def loss():
            return T.sum_(T.power(T.relu(T.Tensor(x.data, dtype=np.float64)), 2.0)).item()

        T.backward(T.sum_(T.power(T.relu(x), 2.0)))
        assert max_rel_err(x.grad, fd_gradient(loss, x.data)) < 1e-5

    def test_log_rejects_nonpositive_with_index(self):
        with pytest.raises(NumericError, match="flat index 2"):
            T.log(t64([1.0, 2.0, -1.0]))

    def test_power_tensor_exponent_gradients(self):
        rng = np.random.default_rng(6)
        base = t64(rng.uniform(0.1, 0.9, size=5), requires_grad=True)
        expo = t64(2.0, requires_grad=True)

        def loss():
            return T.sum_(T.power(T.Tensor(base.data, dtype=np.float64),
                                  T.Tensor(expo.data, dtype=np.float64))).item()

        T.backward(T.sum_(T.power(base, expo)))
        assert max_rel_err(base.grad, fd_gradient(loss, base.data)) < 1e-5
        assert max_rel_err(expo.grad, fd_gradient(loss, expo.data)) < 1e-5

    def test_power_tensor_exponent_rejects_nonpositive_base(self):
        with pytest.raises(NumericError):
            T.power(t64([0.0, 1.0]), t64(2.0, requires_grad=True))

    def test_clamp_gradient_masks_clamped_region(self):
        x = t64([-1.0, 0.5, 2.0], requires_grad=True)
        T.backward(T.sum_(T.clamp(x, 0.0, 1.0)))
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_no_silent_broadcast(self):
        with pytest.raises(ShapeError):
            T.add(t64(np.zeros((2, 3))), t64(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            T.mul(t64(np.zeros(3)), t64(np.zeros(4)))

    def test_bias_broadcast_allowed_and_correct(self):
        x = t64(np.zeros((3, 2)), requires_grad=True)
        b = t64([1.0, 2.0], requires_grad=True)
        out = T.add(x, b)
        assert np.array_equal(out.data, [[1.0, 2.0]] * 3)
        T.backward(T.sum_(out))
        assert np.array_equal(b.grad, [3.0, 3.0])

    def test_structural_ops_gradient(self):
        # concat + slice + transpose + reshape composed into one scalar
        rng = np.random.default_rng(7)
        a = t64(rng.normal(size=(2, 3)), requires_grad=True)
        b = t64(rng.normal(size=(2, 3)), requires_grad=True)
        w = rng.normal(size=(3, 2))

        def build(at, bt):
            cat = T.concat([at, bt], axis=0)          # 4x3
            sl = T.slice_axis(cat, 0, 1, 4)           # 3x3
            tr = T.transpose(sl)                      # 3x3
            rs = T.reshape(tr, (3, 3))
            return T.sum_(T.mul(T.slice_axis(rs, 1, 0, 2),
                                T.constant(w, dtype=np.float64)))

        def loss():
            return build(T.Tensor(a.data, dtype=np.float64),
                         T.Tensor(b.data, dtype=np.float64)).item()

        T.backward(build(a, b))
        assert max_rel_err(a.grad, fd_gradient(loss, a.data)) < 1e-5
        assert max_rel_err(b.grad, fd_gradient(loss, b.data)) < 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        T.backward(T.sum_(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_product_rule(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        y = t64([4.0, 5.0, 6.0], requires_grad=True)
        T.backward(T.sum_(T.mul(x, y)))
        assert np.array_equal(x.grad, y.data)
        assert np.array_equal(y.grad, x.data)

    def test_repeated_backward_accumulates(self):
        x = t64([1.0, 2.0], requires_grad=True)
        loss = T.sum_(x)
        T.backward(loss)
        T.backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.scale(x, 2.0))

    def test_seed_must_be_an_array_of_the_loss_shape_and_dtype(self):
        x = t64([1.0, 2.0], requires_grad=True)
        loss = T.scale(x, 2.0)
        wanted = r"seed must be a float64 ndarray of shape \(2,\)"
        for bad in (np.ones(3), np.ones((2, 1)), np.ones(2, dtype=np.float32), [1.0, 1.0], 1.0):
            with pytest.raises(ContractError, match=wanted):
                T.backward(loss, bad)
        assert x.grad is None
        T.backward(loss, np.array([1.0, -0.5]))
        assert x.grad.tolist() == [2.0, -1.0]

    def test_shared_subexpression_fanout(self):
        # z = x*x reused twice: d/dx [sum(z) + sum(z)] = 4x
        x = t64([1.0, -2.0], requires_grad=True)
        z = T.mul(x, x)
        T.backward(T.add(T.sum_(z), T.sum_(z)))
        assert np.allclose(x.grad, 4 * x.data)


class TestTape:
    def test_dropped_graph_leaves_nothing_after_next_backward(self):
        """A graph holds no reference cycle (the tensor-exponent power was
        the one that did), so without the cycle collector a graph dropped
        before any backward is freed at once, and the next backward drops
        its tape entries."""
        x = t64([0.5, 2.0], requires_grad=True)
        e = t64(1.5, requires_grad=True)
        gc.disable()
        try:
            live_before = sum(ref() is not None for ref in T._tape)
            powered = T.power(T.relu(x), e)
            dropped = T.sum_(T.mul(powered, x))
            probes = [weakref.ref(t) for t in (powered, dropped)]
            del powered, dropped
            assert [probe() for probe in probes] == [None, None]
            kept = T.sum_(T.mul(x, x))
            T.backward(kept)
            assert all(ref() is not None for ref in T._tape)
            assert len(T._tape) == live_before + 2
        finally:
            gc.enable()
        assert np.array_equal(x.grad, 2 * x.data)

    @pytest.mark.parametrize("first", [0, 1])
    def test_two_live_graphs_backward_in_either_order(self, first):
        x = t64([1.0, -2.0], requires_grad=True)
        y = t64([3.0, 0.5], requires_grad=True)
        squares = T.mul(x, x)
        graphs = [T.sum_(squares), T.sum_(T.mul(x, y))]
        for k in (first, 1 - first):
            x.grad = y.grad = None
            T.backward(graphs[k])
            assert np.array_equal(x.grad, [2 * x.data, y.data][k])
            assert y.grad is None if k == 0 else np.array_equal(y.grad, x.data)
        assert np.array_equal(squares.grad, np.ones(2))

    def test_adaptive_focal_mlp_stacked_step_is_three_tape_nodes(self):
        """The MLP's one perceptron node, focal_nll with its per-client mean,
        and the sum over clients; the MLP reads each tensor once, so its
        gradients are the depth-first walk's bit for bit."""
        from fedfocal import losses as L
        from fedfocal import models as M

        rng = np.random.default_rng(40)
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=8, num_classes=3))
        params = model.init_params(rng, gamma_init=2.0)
        flat = params.flat + rng.normal(scale=0.1, size=(3, params.flat.size))
        stack = M.ModelParams.from_flat(params.manifest(), flat.astype(np.float32))
        x = rng.normal(size=(3, 5, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=(3, 5))
        coeffs = rng.uniform(0.0, 2.0, size=(3, 5))
        loss_cfg = L.LossConfig(gamma_trainable=True)
        grads = {}
        for walk in (T.backward, dfs_backward):
            start = len(T._tape)
            loss = tape_batch_loss(model.batch_logits(stack, x),
                                   L.targets(y, 3, coeffs, np.float32), loss_cfg,
                                   gamma_param=L.trainable_gamma(stack, loss_cfg))
            root = T.sum_(loss)
            assert len(T._tape) - start == 3
            stack.zero_grads()
            walk(root)
            grads[walk] = [t.grad.tobytes() for _, t in stack]
        assert grads[T.backward] == grads[dfs_backward]


class TestDeterminism:
    def test_bit_identical_replay(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))

        def run():
            x = t64(a, requires_grad=True)
            out = mean(T.softmax(T.matmul(x, t64(b)), axis=1))
            T.backward(out)
            return out.data.copy(), x.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert o1.tobytes() == o2.tobytes()
        assert g1.tobytes() == g2.tobytes()


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3), (2, 3, 4)])
    def test_round_trip(self, dtype, shape):
        rng = np.random.default_rng(9)
        arr = (rng.normal(size=shape) * 10).astype(dtype)
        buf = io.BytesIO()
        T.write_array(buf, arr)
        buf.seek(0)
        back = T.read_array(buf)
        assert back.dtype == np.dtype(dtype)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_header_is_plain_text(self):
        buf = io.BytesIO()
        T.write_array(buf, np.zeros((2, 3), dtype=np.float32))
        assert buf.getvalue().startswith(b"f32 2 2 3\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(IngestionError):
            T.read_array(io.BytesIO(b"zz 1 3\n" + b"\x00" * 24))

    @pytest.mark.parametrize("header", [b"f32 x\n", b"f32 1 y\n", b"f32 \xff\n"])
    def test_non_numeric_header_rejected(self, header):
        with pytest.raises(IngestionError, match="malformed"):
            T.read_array(io.BytesIO(header + b"\x00" * 4))

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        T.write_array(buf, np.zeros(4, dtype=np.float64))
        data = buf.getvalue()[:-8]
        with pytest.raises(IngestionError, match="truncated"):
            T.read_array(io.BytesIO(data))

    @pytest.mark.parametrize("header", [b"f32 1 100000000000000\n",
                                        b"f64 2 10000000000 10000000000\n"],
                             ids=["1e14-elements", "int64-overflow"])
    def test_declared_size_beyond_stream_rejected_before_reading(self, header):
        class Guarded(io.BytesIO):
            def read(self, size=-1):
                assert 0 <= size <= 64, f"read({size}) of a payload"
                return super().read(size)

        with pytest.raises(IngestionError, match="truncated"):
            T.read_array(Guarded(header + b"\x00" * 16))

    def test_rank_dimension_count_mismatch_rejected(self):
        with pytest.raises(IngestionError):
            T.read_array(io.BytesIO(b"f32 2 3\n" + b"\x00" * 12))


class TestDtypeDiscipline:
    def test_mixed_dtypes_rejected(self):
        a = T.Tensor([1.0], dtype=np.float32)
        b = T.Tensor([1.0], dtype=np.float64)
        with pytest.raises(ContractError, match="dtype"):
            T.add(a, b)

    def test_float32_pipeline_stays_float32(self):
        x = T.Tensor(np.ones((2, 2)), dtype=np.float32, requires_grad=True)
        out = mean(T.relu(T.matmul(x, T.Tensor(np.ones((2, 2)), dtype=np.float32))))
        assert out.dtype == np.float32
        T.backward(out)
        assert x.grad.dtype == np.float32


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_simplex_property(values):
    out = T.softmax(T.Tensor(values, dtype=np.float64), axis=0)
    assert np.all(out.data >= 0)
    assert abs(float(out.data.sum()) - 1.0) < 1e-6


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_matmul_matches_numpy_property(m, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, 3))
    out = T.matmul(T.Tensor(a, dtype=np.float64), T.Tensor(b, dtype=np.float64))
    assert np.array_equal(out.data, a @ b)
