import time

import numpy as np
import pytest

from fedfocal import losses as L
from fedfocal import models as M
from fedfocal import tensor as T
from fedfocal.errors import ConfigError, IngestionError, ShapeError

from helpers import (dfs_backward, fd_gradient, max_rel_err, mlp_param_count,
                     per_image_vit_forward, tape_batch_loss, vit_param_count)

SMALL = M.ViTConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                    num_heads=2, head_dim=4, ffn_dim=16, num_layers=2,
                    num_classes=3)


def small_params(seed=0, dtype=np.float64):
    return M.init_vit_params(SMALL, np.random.default_rng(seed), dtype=dtype)


class TestPatchify:
    def test_four_patches_raster_order(self):
        cfg = M.ViTConfig(image_size=4, patch_size=2, channels=1, embed_dim=4,
                          num_heads=1, head_dim=4, ffn_dim=8, num_layers=1,
                          num_classes=2)
        image = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        patches = M.patchify(image, cfg)
        assert patches.shape == (4, 4)
        assert np.array_equal(patches.data[0], [0, 1, 4, 5])  # top-left block

    def test_single_patch_equals_flattened_image(self):
        cfg = M.ViTConfig(image_size=2, patch_size=2, channels=1, embed_dim=4,
                          num_heads=1, head_dim=4, ffn_dim=8, num_layers=1,
                          num_classes=2)
        image = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        patches = M.patchify(image, cfg)
        assert patches.shape == (1, 4)
        assert np.array_equal(patches.data[0], image.reshape(-1))

    def test_reassembly_inverse(self):
        cfg = M.ViTConfig(image_size=8, patch_size=2, channels=3, embed_dim=4,
                          num_heads=1, head_dim=4, ffn_dim=8, num_layers=1,
                          num_classes=2)
        rng = np.random.default_rng(0)
        image = rng.normal(size=(3, 8, 8))
        patches = M.patchify(image, cfg).data
        # independent reassembly from the documented layout
        rebuilt = np.zeros_like(image)
        g = cfg.grid
        p = cfg.patch_size
        for k in range(cfg.num_patches):
            gy, gx = divmod(k, g)
            rebuilt[:, gy * p:(gy + 1) * p, gx * p:(gx + 1) * p] = \
                patches[k].reshape(cfg.channels, p, p)
        assert rebuilt.tobytes() == image.tobytes()

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            M.ViTConfig(image_size=10, patch_size=4, channels=1, embed_dim=8,
                        num_heads=2, head_dim=4, ffn_dim=16, num_layers=1,
                        num_classes=2)


class TestEmbed:
    def _cfg(self):
        return M.ViTConfig(image_size=4, patch_size=2, channels=1, embed_dim=4,
                           num_heads=1, head_dim=4, ffn_dim=8, num_layers=1,
                           num_classes=2)

    def test_identity_projection_passes_patches_through(self):
        cfg = self._cfg()
        params = M.init_vit_params(cfg, np.random.default_rng(0), dtype=np.float64)
        params["patch_embed"].data[:] = np.eye(4)
        params["class_token"].data[:] = 0.0
        patches = T.constant(np.arange(16, dtype=np.float64).reshape(4, 4))
        zero_pos = np.zeros((5, 4))
        out = M.embed(patches, params, cfg, positions=zero_pos)
        assert np.array_equal(out.data[1:], patches.data)
        assert np.array_equal(out.data[0], np.zeros(4))

    def test_zero_projection_leaves_positions(self):
        cfg = self._cfg()
        params = M.init_vit_params(cfg, np.random.default_rng(0), dtype=np.float64)
        params["patch_embed"].data[:] = 0.0
        pos = np.arange(20, dtype=np.float64).reshape(5, 4)
        patches = T.constant(np.ones((4, 4)))
        out = M.embed(patches, params, cfg, positions=pos)
        assert np.array_equal(out.data[1:], pos[1:])
        assert np.array_equal(out.data[0], pos[0] + params["class_token"].data[0])

    def test_position_row_count_mismatch_rejected(self):
        cfg = self._cfg()
        params = M.init_vit_params(cfg, np.random.default_rng(0), dtype=np.float64)
        with pytest.raises(ShapeError):
            M.embed(T.constant(np.ones((4, 4))), params, cfg,
                    positions=np.zeros((4, 4)))

    def test_gradient_wrt_projection(self):
        cfg = self._cfg()
        params = M.init_vit_params(cfg, np.random.default_rng(1), dtype=np.float64)
        patches = np.random.default_rng(2).normal(size=(4, 4))
        e = params["patch_embed"]

        def loss():
            return T.sum_(M.embed(T.constant(patches), params, cfg)).item()

        T.backward(T.sum_(M.embed(T.constant(patches), params, cfg)))
        assert max_rel_err(e.grad, fd_gradient(loss, e.data)) < 1e-5


class TestMultiHeadAttention:
    def test_single_token_attention_is_one(self):
        params = small_params()
        z = T.constant(np.random.default_rng(0).normal(size=(1, 8)))
        out, maps = M.multi_head_attention(z, params, 0, SMALL)
        for m in maps.data:
            assert np.array_equal(m, [[1.0]])
        v = z.data @ params["layers.0.attn.wv"].data
        expected = v @ params["layers.0.attn.wo"].data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_zero_query_key_gives_uniform_attention(self):
        params = small_params()
        params["layers.0.attn.wq"].data[:] = 0.0
        params["layers.0.attn.wk"].data[:] = 0.0
        z = T.constant(np.random.default_rng(1).normal(size=(5, 8)))
        _, maps = M.multi_head_attention(z, params, 0, SMALL)
        for m in maps.data:
            assert np.allclose(m, np.full((5, 5), 0.2), atol=1e-15)

    def test_rows_sum_to_one(self):
        params = small_params(seed=3)
        z = T.constant(np.random.default_rng(3).normal(size=(5, 8)) * 4)
        _, maps = M.multi_head_attention(z, params, 1, SMALL)
        for m in maps.data:
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-6

    def test_gradients_wrt_all_projections(self):
        params = small_params(seed=4)
        z = np.random.default_rng(4).normal(size=(3, 8))

        def build():
            out, _ = M.multi_head_attention(T.constant(z), params, 0, SMALL)
            return T.sum_(out)

        T.backward(build())
        for w in ("wq", "wk", "wv", "wo"):
            p = params[f"layers.0.attn.{w}"]
            assert max_rel_err(p.grad, fd_gradient(lambda: build().item(), p.data)) < 1e-5, w


class TestEncoderLayer:
    def test_zero_weights_reduce_to_layernorm_chain(self):
        params = small_params(seed=5)
        for name, t in params:
            if ".attn." in name or ".ffn." in name:
                t.data[:] = 0.0
        z = T.constant(np.random.default_rng(5).normal(size=(5, 8)))
        out, _ = M.encoder_layer(z, params, 0, SMALL)
        gain = params["layers.0.norm1.gain"]
        bias = params["layers.0.norm1.bias"]
        ln_once = T.layer_norm(z, gain, bias, SMALL.layer_norm_eps)
        ln_twice = T.layer_norm(ln_once, params["layers.0.norm2.gain"],
                                params["layers.0.norm2.bias"], SMALL.layer_norm_eps)
        assert out.data.tobytes() == ln_twice.data.tobytes()

    def test_shape_preserved(self):
        params = small_params(seed=6)
        z = T.constant(np.random.default_rng(6).normal(size=(5, 8)))
        out, _ = M.encoder_layer(z, params, 1, SMALL)
        assert out.shape == z.shape

    def test_two_stacked_layers_gradcheck_float32(self):
        # the float32 tape is compared against float64 finite differences taken
        # at the same parameter values; a float32 FD step (~5e-3) would cross
        # ReLU kinks and stop estimating the derivative at all
        params32 = M.init_vit_params(SMALL, np.random.default_rng(7), dtype=np.float32)
        z0 = np.random.default_rng(7).normal(size=(5, 8)).astype(np.float32)
        w = np.random.default_rng(8).normal(size=(5, 8)).astype(np.float32)

        def build(params, dtype):
            z = T.constant(z0.astype(dtype))
            for i in range(SMALL.num_layers):
                z, _ = M.encoder_layer(z, params, i, SMALL)
            return T.sum_(T.mul(z, T.constant(w.astype(dtype))))

        T.backward(build(params32, np.float32))
        params64 = M.ModelParams([(n, T.parameter(t.data.astype(np.float64)))
                                  for n, t in params32])
        rng = np.random.default_rng(9)
        for name in ("layers.0.attn.wq", "layers.0.ffn.w1", "layers.1.attn.wv",
                     "layers.1.norm2.gain", "layers.0.ffn.b2"):
            p64 = params64[name]
            idx = rng.choice(p64.data.size, size=min(4, p64.data.size), replace=False)
            fd = fd_gradient(lambda: build(params64, np.float64).item(),
                             p64.data, indices=idx)
            got = params32[name].grad.reshape(-1)[idx]
            assert max_rel_err(got, fd.reshape(-1)[idx], floor=0.05) < 1e-3, name


class TestForward:
    def test_deterministic_logits(self):
        params = small_params(seed=10)
        image = np.random.default_rng(10).normal(size=(1, 8, 8))
        a, _ = M.vit_forward(image, params, SMALL)
        b, _ = M.vit_forward(image, params, SMALL)
        assert a.data.tobytes() == b.data.tobytes()

    def test_patch_permutation_with_positions_is_equivariant(self):
        params = small_params(seed=11)
        rng = np.random.default_rng(11)
        image = rng.normal(size=(1, 8, 8))
        pos = M.sinusoidal_positions(SMALL.num_patches + 1, SMALL.embed_dim)
        logits, _ = M.vit_forward(image, params, SMALL, positions=pos)

        # swap patch blocks 0 and 3 in the image and rows 1 and 4 of the table
        p = SMALL.patch_size
        swapped = image.copy()
        swapped[:, 0:p, 0:p], swapped[:, p:2 * p, p:2 * p] = \
            image[:, p:2 * p, p:2 * p].copy(), image[:, 0:p, 0:p].copy()
        pos_swapped = pos.copy()
        pos_swapped[[1, 4]] = pos_swapped[[4, 1]]
        logits_swapped, _ = M.vit_forward(swapped, params, SMALL, positions=pos_swapped)
        assert np.max(np.abs(logits.data - logits_swapped.data)) < 1e-12

    @pytest.mark.parametrize("c", [2, 5, 7])
    def test_logits_shape(self, c):
        cfg = M.ViTConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                          num_heads=2, head_dim=4, ffn_dim=16, num_layers=1,
                          num_classes=c)
        params = M.init_vit_params(cfg, np.random.default_rng(0), dtype=np.float64)
        logits, stack = M.vit_forward(np.zeros((1, 8, 8)), params, cfg)
        assert logits.shape == (c,)
        assert len(stack) == cfg.num_layers
        assert np.all(np.isfinite(logits.data))

    def test_attention_rows_stochastic_every_layer_and_head(self):
        params = small_params(seed=12)
        image = np.random.default_rng(12).normal(size=(1, 8, 8)) * 3
        _, stack = M.vit_forward(image, params, SMALL)
        assert len(stack) == SMALL.num_layers
        for maps in stack:
            assert len(maps.data) == SMALL.num_heads
            for m in maps.data:
                assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-6

    def test_full_gradcheck_float64(self):
        params = small_params(seed=13)
        image = np.random.default_rng(13).normal(size=(1, 8, 8))
        w = np.random.default_rng(14).normal(size=3)

        def build():
            logits, _ = M.vit_forward(image, params, SMALL)
            return T.sum_(T.mul(logits, T.constant(w, dtype=np.float64)))

        T.backward(build())
        for name, p in params:
            fd = fd_gradient(lambda: build().item(), p.data)
            assert max_rel_err(p.grad, fd, floor=1e-4) < 1e-5, name

    def test_full_gradcheck_through_adaptive_loss_float64(self):
        # every parameter coordinate, composed with softmax, the focal
        # factor, and the per-sample coefficient
        from fedfocal import losses as L
        from fedfocal import tensor as T2

        params = small_params(seed=17)
        image = np.random.default_rng(17).normal(size=(1, 8, 8))
        coeff = np.array([1.75])

        def build():
            logits, _ = M.vit_forward(image, params, SMALL)
            return L.adaptive_focal_loss(T2.reshape(logits, (1, 3)), [1],
                                         coeffs=coeff, gamma=2.0)

        T.backward(build())
        for name, p in params:
            fd = fd_gradient(lambda: build().item(), p.data)
            assert max_rel_err(p.grad, fd, floor=1e-4) < 1e-5, name

    def test_gradient_completeness_no_dead_parameters(self):
        params = small_params(seed=15)
        image = np.random.default_rng(15).normal(size=(1, 8, 8))
        w = np.random.default_rng(16).normal(size=3)
        logits, _ = M.vit_forward(image, params, SMALL)
        T.backward(T.sum_(T.mul(logits, T.constant(w, dtype=np.float64))))
        for name, p in params:
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name


class TestOneForward:
    """The forward over leading axes against the per-image, per-head loop it
    replaced (tests/helpers.per_image_vit_forward)."""

    @pytest.mark.parametrize("trainable", [False, True], ids=["gamma-const", "gamma-trainable"])
    @pytest.mark.parametrize("learned", [False, True], ids=["sinusoidal", "learned"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_batch_matches_per_image_oracle(self, dtype, learned, trainable):
        cfg = M.ViTConfig(image_size=8, patch_size=4, channels=2, embed_dim=12,
                          num_heads=3, head_dim=4, ffn_dim=16, num_layers=2,
                          num_classes=4, learned_positions=learned)
        model = M.ViTClassifier(cfg, dtype=dtype)
        loss_cfg = L.LossConfig(gamma_trainable=trainable)
        rng = np.random.default_rng(31)
        for _ in range(4):
            params = model.init_params(rng, gamma_init=2.0 if trainable else None)
            images = rng.normal(size=(7, 2, 8, 8)).astype(dtype)
            labels = rng.integers(0, 4, size=7)
            coeffs = rng.uniform(0.0, 2.0, size=7)
            grads = {}
            for path in ("batched", "oracle"):
                if path == "batched":
                    logits = model.batch_logits(params, images)
                else:
                    logits, tokens = per_image_vit_forward(params, images, cfg,
                                                           model._positions)
                loss = tape_batch_loss(logits, L.targets(labels, 4, coeffs, dtype), loss_cfg,
                                       gamma_param=L.trainable_gamma(params, loss_cfg))
                params.zero_grads()
                T.backward(loss)
                grads[path] = ({n: t.grad.copy() for n, t in params}, logits.data)
            z = M.embed(M.patchify(images, cfg), params, cfg, model._positions)
            for i in range(cfg.num_layers):
                z, _ = M.encoder_layer(z, params, i, cfg)
            assert z.data[:, 0].tobytes() == tokens.data.tobytes()
            (got, batched), (want, oracle) = grads["batched"], grads["oracle"]
            ulp = np.spacing(np.abs(oracle).max(axis=1, keepdims=True))
            assert np.all(np.abs(batched - oracle) <= 8 * ulp)
            tol = 1e-12 if dtype == np.float64 else 1e-5
            for name, g in want.items():
                gap = np.abs(got[name].astype(np.float64) - g).max()
                assert gap <= tol * np.abs(g).max(), name

    def test_graph_size_independent_of_batch_and_clients(self):
        """One ViT training loss records the same tape for 1 image and 16,
        and a stack of 3 clients adds only the sum over their losses."""
        model = M.ViTClassifier(SMALL, dtype=np.float64)
        loss_cfg = L.LossConfig(kind="focal")
        params = model.init_params(np.random.default_rng(32))
        rng = np.random.default_rng(33)
        images = rng.normal(size=(3, 16, 1, 8, 8))
        labels = rng.integers(0, 3, size=(3, 16))

        def nodes(params, x, y):
            start = len(T._tape)  # only a backward drops tape entries
            loss = tape_batch_loss(model.batch_logits(params, x),
                                   L.targets(y, 3, None, model.dtype), loss_cfg)
            if loss.data.ndim:
                T.sum_(loss)  # the sum over clients that backward starts from
            return len(T._tape) - start

        stack = M.ModelParams.from_flat(
            params.manifest(), np.broadcast_to(params.flat, (3,) + params.flat.shape).copy())
        one = nodes(params, images[0, :1], labels[0, :1])
        assert nodes(params, images[0], labels[0]) == one
        assert nodes(stack, images, labels) == one + 1

    @pytest.mark.parametrize("clients", [None, 3], ids=["batch", "stack"])
    @pytest.mark.parametrize("trainable", [False, True], ids=["gamma-const", "gamma-trainable"])
    @pytest.mark.parametrize("learned", [False, True], ids=["sinusoidal", "learned"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_tape_gradients_match_dfs_oracle(self, dtype, learned, trainable, clients):
        """The tape sums a tensor's incoming gradients in reverse creation
        order, and the depth-first walk it replaced (tests/helpers.
        dfs_backward) in its own order. The q/k/v fan-out and the residual
        stream read one tensor several times, so the two may differ, by
        rounding only."""
        cfg = M.ViTConfig(image_size=8, patch_size=4, channels=2, embed_dim=12,
                          num_heads=3, head_dim=4, ffn_dim=16, num_layers=2,
                          num_classes=4, learned_positions=learned)
        model = M.ViTClassifier(cfg, dtype=dtype)
        loss_cfg = L.LossConfig(gamma_trainable=trainable)
        rng = np.random.default_rng(37)
        lead = (7,) if clients is None else (clients, 7)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for _ in range(3):
            params = model.init_params(rng, gamma_init=2.0 if trainable else None)
            if clients is not None:
                flat = params.flat + rng.normal(scale=0.01, size=(clients, params.flat.size))
                params = M.ModelParams.from_flat(params.manifest(), flat.astype(dtype))
            images = rng.normal(size=lead + (2, 8, 8)).astype(dtype)
            labels = rng.integers(0, 4, size=lead)
            coeffs = rng.uniform(0.0, 2.0, size=lead)
            grads = {}
            for walk in (T.backward, dfs_backward):
                logits = model.batch_logits(params, images)
                loss = tape_batch_loss(logits, L.targets(labels, 4, coeffs, dtype), loss_cfg,
                                       gamma_param=L.trainable_gamma(params, loss_cfg))
                params.zero_grads()
                walk(T.sum_(loss))
                grads[walk] = {n: t.grad.copy() for n, t in params}
                grads[walk]["logits"] = logits.grad
            for name, g in grads[dfs_backward].items():
                gap = np.abs(grads[T.backward][name].astype(np.float64) - g).max()
                assert gap <= tol * np.abs(g).max(), name


class TestMlp:
    def test_zero_weights_give_uniform_softmax(self):
        cfg = M.MlpConfig(input_dim=3, hidden_dim=4, num_classes=5)
        params = M.init_mlp_params(cfg, np.random.default_rng(0), dtype=np.float64)
        for _, t in params:
            t.data[:] = 0.0
        logits = M.MlpClassifier(cfg, np.float64).batch_logits(params, np.ones((2, 3)))
        assert np.array_equal(logits.data, np.zeros((2, 5)))
        probs = T.softmax(logits, axis=1)
        assert np.allclose(probs.data, 0.2)

    def test_hand_computed_2_2_2(self):
        cfg = M.MlpConfig(input_dim=2, hidden_dim=2, num_classes=2)
        params = M.init_mlp_params(cfg, np.random.default_rng(0), dtype=np.float64)
        params["mlp.w1"].data[:] = [[1.0, -1.0], [2.0, 0.5]]
        params["mlp.b1"].data[:] = [0.5, -0.5]
        params["mlp.w2"].data[:] = [[1.0, 0.0], [-1.0, 2.0]]
        params["mlp.b2"].data[:] = [0.0, 1.0]
        x = np.array([[1.0, 2.0]])
        # hidden pre-activation: [1+4+0.5, -1+1-0.5] = [5.5, -0.5] -> relu [5.5, 0]
        # logits: [5.5*1 + 0*(-1) + 0, 5.5*0 + 0*2 + 1] = [5.5, 1.0]
        logits = M.MlpClassifier(cfg, np.float64).batch_logits(params, x)
        assert np.allclose(logits.data, [[5.5, 1.0]], atol=1e-15)

    def test_gradcheck(self):
        cfg = M.MlpConfig(input_dim=4, hidden_dim=6, num_classes=3)
        params = M.init_mlp_params(cfg, np.random.default_rng(1), dtype=np.float64)
        x = np.random.default_rng(2).normal(size=(5, 4))
        w = np.random.default_rng(3).normal(size=(5, 3))

        def build():
            return T.sum_(T.mul(M.MlpClassifier(cfg, np.float64).batch_logits(params, x),
                                T.constant(w, dtype=np.float64)))

        T.backward(build())
        for name, p in params:
            fd = fd_gradient(lambda: build().item(), p.data)
            assert max_rel_err(p.grad, fd) < 1e-5, name


class TestModelParams:
    def test_param_count_formula_three_configs(self):
        configs = [
            SMALL,
            M.ViTConfig(image_size=32, patch_size=8, channels=1, embed_dim=32,
                        num_heads=4, head_dim=8, ffn_dim=64, num_layers=2,
                        num_classes=5),
            M.ViTConfig(image_size=16, patch_size=4, channels=3, embed_dim=12,
                        num_heads=3, head_dim=4, ffn_dim=24, num_layers=3,
                        num_classes=7, learned_positions=True),
        ]
        for cfg in configs:
            params = M.init_vit_params(cfg, np.random.default_rng(0))
            assert params.flat.size == vit_param_count(cfg)
        mlp = M.MlpConfig(input_dim=8, hidden_dim=32, num_classes=5)
        params = M.init_mlp_params(mlp, np.random.default_rng(0), gamma_init=2.0)
        assert params.flat.size == mlp_param_count(mlp, with_gamma=True)

    def test_manifest_mismatch_names_first_differing_entry(self, tmp_path):
        from fedfocal import experiment as X

        X.run_experiment(X.preset_config("smoke").with_overrides({"federation.rounds": 1}),
                         tmp_path)
        b = M.load_params(tmp_path / "final.ckpt")
        items = [(n if n != "mlp.b1" else "mlp.b1x", t) for n, t in b]
        M.save_params(tmp_path / "final.ckpt", M.ModelParams(items))
        with pytest.raises(IngestionError, match=r"entry \('mlp\.b1x'.*entry \('mlp\.b1'"):
            X.load_run(tmp_path)

    def test_checkpoint_round_trip(self, tmp_path):
        params = small_params(seed=22, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        M.save_params(path, params)
        back = M.load_params(path)
        assert back.names == params.names
        for name, t in params:
            assert back[name].data.tobytes() == t.data.tobytes()
            assert back[name].dtype == t.dtype

    @pytest.mark.parametrize("body", [b"x\n", b"1\nhead.\xffbias\n"],
                             ids=["bad-count", "non-ascii-name"])
    def test_checkpoint_malformed_manifest_rejected(self, tmp_path, body):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"fedfocal-params 1\n" + body)
        with pytest.raises(IngestionError, match="malformed"):
            M.load_params(path)

    def test_checkpoint_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.ckpt"
        path.write_bytes(b"fedfocal-params 1\n2\nhead.bias\nhead.bias\n"
                         b"f32 1 1\n\0\0\0\0f32 1 1\n\0\0\0\0")
        with pytest.raises(IngestionError, match="dup.ckpt.*listed twice"):
            M.load_params(path)

    def test_checkpoint_count_beyond_file_rejected_fast(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"fedfocal-params 1\n1000000000\n")
        start = time.perf_counter()
        with pytest.raises(IngestionError, match="does not fit"):
            M.load_params(path)
        assert time.perf_counter() - start < 0.1
