"""One flat buffer per parameter set: its storage invariants, and the
whole-buffer optimizer step and aggregation against the per-tensor loops
they replace (tests/helpers.py), bit for bit."""

import threading

import numpy as np
import pytest

from fedfocal import experiment as X
from fedfocal import federation as F
from fedfocal import losses as L
from fedfocal import models as M
from fedfocal import tensor as T
from fedfocal.errors import ContractError, IngestionError

from helpers import (GATE_CONFIGS, PerTensorAdam, per_tensor_aggregate, serial_local_train,
                     stack_params)

SHAPES = [("a.w", (3, 4)), ("a.b", (4,)), ("b.w", (4, 2)), ("b.b", (2,)), ("loss.gamma", ())]


def random_params(seed, dtype):
    rng = np.random.default_rng(seed)
    return M.ModelParams([(name, T.parameter(rng.normal(size=shape).astype(dtype)))
                          for name, shape in SHAPES])


def assert_packed(params):
    """Every tensor views one contiguous 1-D buffer, in manifest order, and
    the buffer holds nothing else."""
    flat = params.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous
    base = flat.__array_interface__["data"][0]
    offset = 0
    for name, shape in params.manifest():
        data = params[name].data
        assert data.shape == shape and data.dtype == flat.dtype
        assert data.flags.c_contiguous
        assert np.shares_memory(data, flat), name
        assert data.__array_interface__["data"][0] == base + offset * flat.itemsize, name
        offset += data.size
    assert offset == flat.size


class TestStorage:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_params_are_packed(self, dtype):
        rng = np.random.default_rng(0)
        mlp = M.MlpClassifier(M.MlpConfig(input_dim=5, hidden_dim=7, num_classes=3),
                              dtype=dtype)
        vit = M.ViTClassifier(M.ViTConfig(image_size=8, patch_size=4, embed_dim=8,
                                          num_heads=2, head_dim=4, ffn_dim=16,
                                          num_layers=2, num_classes=3,
                                          learned_positions=True), dtype=dtype)
        for model in (mlp, vit):
            for gamma in (None, 2.0):
                params = model.init_params(rng, gamma_init=gamma)
                assert params.flat.dtype == dtype
                assert_packed(params)

    def test_aggregate_is_packed_and_shares_no_memory(self):
        clients = stack_params([random_params(s, np.float64) for s in range(3)])
        out = F.aggregate(clients, [0.5, 0.3, 0.2])
        assert_packed(out)
        assert not np.shares_memory(out.flat, clients.flat)

    def test_load_params_is_packed(self, tmp_path):
        params = random_params(2, np.float32)
        M.save_params(tmp_path / "p.ckpt", params)
        back = M.load_params(tmp_path / "p.ckpt")
        assert_packed(back)
        assert back.flat.tobytes() == params.flat.tobytes()

    def test_clamp_gamma_writes_through_to_flat(self):
        params = random_params(4, np.float32)
        params["loss.gamma"].data[...] = 9.0
        L.clamp_gamma(params, L.LossConfig(gamma_trainable=True, gamma_lo=0.5,
                                           gamma_hi=5.0))
        assert params.flat[-1] == np.float32(5.0)
        assert_packed(params)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ContractError, match="dtypes differ"):
            M.ModelParams([("a", T.parameter(np.zeros(2, dtype=np.float32))),
                           ("b", T.parameter(np.zeros(2, dtype=np.float64)))])

    def test_checkpoint_mixing_dtypes_rejected(self, tmp_path):
        path = tmp_path / "mixed.ckpt"
        with open(path, "wb") as fh:
            fh.write(b"fedfocal-params 1\n2\na\nb\n")
            T.write_array(fh, np.zeros(2, dtype=np.float32))
            T.write_array(fh, np.zeros(2, dtype=np.float64))
        with pytest.raises(IngestionError, match="mix dtypes"):
            M.load_params(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_adam_equals_per_tensor_adam_bitwise(dtype, seed):
    flat_params = random_params(seed, dtype)
    oracle_params = M.ModelParams.from_flat(flat_params.manifest(), flat_params.flat.copy())
    kw = dict(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    flat_opt = F.Adam(flat_params, **kw)
    oracle = PerTensorAdam(oracle_params, **kw)
    rng = np.random.default_rng(100 + seed)
    for step in range(8):
        for (name, shape), a, b in zip(SHAPES, flat_params.tensors(),
                                       oracle_params.tensors()):
            # b.b has no gradient from step 3 on, after it has had some;
            # loss.gamma gets one only on odd steps
            dropped = (name == "b.b" and step >= 3) or (name == "loss.gamma" and step % 2 == 0)
            g = None if dropped else (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
                                      ).astype(dtype)
            a.grad = b.grad = g
        flat_opt.step()
        oracle.step()
        assert flat_params.flat.tobytes() == oracle_params.flat.tobytes(), step
        assert flat_opt.m.tobytes() == np.concatenate(
            [m.reshape(-1) for m in oracle.m]).tobytes(), step
        assert flat_opt.v.tobytes() == np.concatenate(
            [v.reshape(-1) for v in oracle.v]).tobytes(), step
    assert_packed(flat_params)


def test_adam_step_without_any_gradient_changes_nothing():
    params = random_params(5, np.float32)
    before = params.flat.tobytes()
    opt = F.Adam(params, lr=0.1)
    opt.step()
    assert params.flat.tobytes() == before
    assert not opt.m.any() and not opt.v.any()


class TestGradBuffer:
    """Backward writes each parameter's gradient into its slot of the set's
    one ``grad`` buffer, and Adam reads that buffer."""

    def test_leaf_gradient_of_negative_zero_keeps_its_bytes(self):
        p = T.parameter(np.array([1.0, 3.0]))
        params = M.ModelParams([("p", p)])
        loss = T.sum_(T.mul(p, T.constant(np.array([-0.0, 2.0]))))
        T.backward(loss)
        # a copy: 0.0 + -0.0 would be 0.0
        assert p.grad.tobytes() == np.array([-0.0, 2.0]).tobytes()
        assert np.shares_memory(p.grad, params.grad)
        T.backward(loss)  # a gradient already there takes the next one in place
        assert p.grad.tobytes() == np.array([-0.0, 4.0]).tobytes()
        assert np.shares_memory(p.grad, params.grad)

    def test_backward_through_row_view_writes_only_its_rows(self):
        rng = np.random.default_rng(3)
        manifest = [("w", (3, 2)), ("b", (2,))]
        stack = M.ModelParams.from_flat(manifest, rng.normal(size=(4, 8)))
        stack.grad[...] = 7.0
        view = stack.rows(slice(1, 3))
        x = T.constant(rng.normal(size=(2, 5, 3)))
        T.backward(T.sum_(T.affine(x, view["w"], view["b"])))
        assert (stack.grad[[0, 3]] == 7.0).all()
        alone = M.ModelParams.from_flat(manifest, stack.flat[1:3].copy())
        T.backward(T.sum_(T.affine(x, alone["w"], alone["b"])))
        assert stack.grad[1:3].tobytes() == alone.grad.tobytes()
        for name in ("w", "b"):
            assert np.shares_memory(view[name].grad, stack.grad[1:3]), name

    def test_stacked_ce_run_keeps_idle_gamma_bit_for_bit(self):
        """CE never reads a trainable gamma, so gamma never has a gradient:
        its value and moments stay as they were, whatever its slot holds."""
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=6, num_classes=3))
        params = model.init_params(np.random.default_rng(0), gamma_init=2.0)
        assert params.manifest()[-1] == ("loss.gamma", ())
        stack = M.ModelParams.from_flat(params.manifest(), np.tile(params.flat, (3, 1)))
        stack.grad[...] = np.nan  # a slot is read only while its tensor has a gradient
        opt = F.Adam(stack, lr=0.05)
        loss_cfg = L.LossConfig(kind="ce", gamma_trainable=True)
        rng = np.random.default_rng(1)
        for sel in (slice(0, 3), slice(0, 2), slice(1, 3), slice(0, 3)):
            k = sel.stop - sel.start
            group = stack.rows(sel)
            batch = L.targets(rng.integers(0, 3, size=(k, 5)), 3, dtype=model.dtype)
            logits = model.batch_logits(group, rng.normal(size=(k, 5, 4)))
            loss = L.batch_loss(logits, batch, loss_cfg,
                                gamma_param=L.trainable_gamma(group, loss_cfg))
            group.zero_grads()
            T.backward(T.sum_(loss))
            assert group["loss.gamma"].grad is None
            opt.step(group, sel)
        assert stack.flat[:, -1].tobytes() == np.full(3, 2.0, dtype=model.dtype).tobytes()
        zeros = np.zeros(3, dtype=model.dtype).tobytes()
        assert opt.m[:, -1].tobytes() == zeros and opt.v[:, -1].tobytes() == zeros
        assert (stack.flat[:, :-1] != params.flat[:-1]).any(axis=1).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_past_table_regrowths_matches_per_tensor_adam(self, dtype):
        """40 steps from gradients that backward writes into the buffer; the
        bias-correction tables grow at calls 1, 3, 7, 15 and 31. b.b has a
        gradient only on odd steps."""
        params = random_params(7, dtype)
        oracle_params = M.ModelParams.from_flat(params.manifest(), params.flat.copy())
        opt = F.Adam(params, lr=0.01)
        oracle = PerTensorAdam(oracle_params, lr=0.01)
        rng = np.random.default_rng(8)
        for step in range(40):
            used = [(name, t) for name, t in params if name != "b.b" or step % 2]
            terms = [T.sum_(T.mul(t, T.constant(rng.normal(size=t.shape).astype(dtype))))
                     for _, t in used]
            loss = terms[0]
            for term in terms[1:]:
                loss = T.add(loss, term)
            params.zero_grads()
            T.backward(loss)
            for name, t in params:
                oracle_params[name].grad = None if t.grad is None else t.grad.copy()
            opt.step()
            oracle.step()
            assert params.flat.tobytes() == oracle_params.flat.tobytes(), step

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("clients", [1, 2, 5])
def test_flat_aggregate_equals_per_tensor_aggregate_bitwise(dtype, clients):
    rng = np.random.default_rng(clients)
    stack = stack_params([random_params(10 * clients + k, dtype) for k in range(clients)])
    weights = rng.dirichlet(np.ones(clients))
    flat = F.aggregate(stack, weights)
    oracle = per_tensor_aggregate(stack, weights)
    assert flat.names == oracle.names
    assert flat.flat.dtype == dtype
    assert flat.flat.tobytes() == oracle.flat.tobytes()


ARTIFACTS = ("metrics.csv", "rounds.jsonl", "final.ckpt")

@pytest.mark.parametrize("overrides", GATE_CONFIGS.values(), ids=GATE_CONFIGS.keys())
def test_artifacts_identical_to_per_tensor_oracles(tmp_path, monkeypatch, overrides):
    """Byte-identity gate: a 5-round smoke run writes the same artifacts on
    the flat path and with the per-tensor Adam and aggregate patched in,
    with federation.concurrent false and true alike. The per-tensor Adam
    steps one client's parameters, so the oracle path also trains the
    clients one after another (tests/helpers.serial_local_train)."""
    base = X.preset_config("smoke", seed=0).with_overrides(
        {"federation.rounds": 5, **overrides})
    threads_before = threading.active_count()
    outputs = {}
    for path in ("flat", "oracle"):
        if path == "oracle":
            monkeypatch.setattr(F, "local_train", serial_local_train)
            monkeypatch.setattr(F, "Adam", PerTensorAdam)
            monkeypatch.setattr(F, "aggregate", per_tensor_aggregate)
        for concurrent in (False, True):
            out = tmp_path / f"{path}-{concurrent}"
            X.run_experiment(base.with_overrides({"federation.concurrent": concurrent}), out)
            outputs[(path, concurrent)] = [(out / n).read_bytes() for n in ARTIFACTS]
    monkeypatch.undo()
    assert F.Adam.__module__ == "fedfocal.federation"
    reference = outputs[("flat", False)]
    for key, files in outputs.items():
        for name, a, b in zip(ARTIFACTS, reference, files):
            assert a == b, f"{name} differs on {key}"
    assert threading.active_count() == threads_before
