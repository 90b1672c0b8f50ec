import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import data as D
from fedfocal import experiment as X
from fedfocal import federation as F
from fedfocal import losses as L
from fedfocal import models as M
from fedfocal import partition as P
from fedfocal import tensor as T
from fedfocal.errors import ConfigError, ContractError, NumericError
from fedfocal.imbalance import ClassHistogram

from helpers import serial_local_train


def tiny_bundle(seed=0, counts=(60, 30, 10)):
    return D.synthesize_longtail(counts, D.BlobSpec(dim=4, radius=2.5), seed=seed)


def tiny_setup(seed=0, mode="fixed", beta=None):
    bundle = tiny_bundle()
    if mode == "fixed":
        spec = P.PartitionSpec(mode="fixed", ratios=(0.5, 0.3, 0.2), num_clients=3,
                               test_fraction=0.2, seed=seed)
    else:
        spec = P.PartitionSpec(mode="dirichlet", beta=beta, num_clients=3,
                               test_fraction=0.2, seed=seed)
    part = P.build_partition(bundle.labels, spec, bundle.num_classes)
    model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=16, num_classes=3))
    return bundle, part, model


def tiny_fed(rounds=3, **kw):
    defaults = dict(rounds=rounds, local_epochs=1, batch_size=8,
                    learning_rate=1e-2, seed=0)
    defaults.update(kw)
    return F.FederationConfig(**defaults)


class TestAggregationWeights:
    def test_equal_coeffs_give_equal_thirds(self):
        w = F.aggregation_weights([1.0, 1.0, 1.0], eps=1e-6)
        assert np.allclose(w, 1.0 / 3.0)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_hand_evaluated_one_three(self):
        w = F.aggregation_weights([1.0, 3.0], eps=1e-12)
        assert w[0] == pytest.approx(0.75, abs=1e-9)
        assert w[1] == pytest.approx(0.25, abs=1e-9)

    def test_balanced_client_dominates(self):
        w = F.aggregation_weights([0.0, 9.0], eps=1e-6)
        assert w[0] == pytest.approx(1.0 - 1.11e-7, abs=1e-9)

    def test_anti_monotone_in_coeffs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            coeffs = np.sort(rng.uniform(0, 20, size=5))  # strictly ascending a.s.
            w = F.aggregation_weights(coeffs, eps=1e-6)
            assert np.all(np.diff(w) < 0)

    def test_negative_coeff_rejected(self):
        with pytest.raises(ContractError):
            F.aggregation_weights([-0.1, 1.0], eps=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: F.aggregation_weights([float("nan"), 1.0], eps=1e-6),
        lambda: F.sample_size_weights([0, 0]),
        lambda: F.sample_size_weights([-3, 5]),
    ], ids=["nan-coeff", "zero-total", "negative-count"])
    def test_weights_that_would_not_be_convex_rejected(self, make):
        with pytest.raises(ContractError, match=">= 0"):
            make()


class TestAggregate:
    def _stack(self, rows):
        """A [K, P] stack of one tensor "w", one row per client."""
        rows = np.asarray(rows, dtype=np.float64)
        return M.ModelParams.from_flat([("w", rows.shape[1:])], rows)

    def test_hand_combination(self):
        out = F.aggregate(self._stack([[1.0, 2.0], [3.0, 4.0]]), [0.75, 0.25])
        assert np.array_equal(out["w"].data, [1.5, 2.5])

    def test_unanimous_parameters_are_bit_exact_fixed_point(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=7)
        out = F.aggregate(self._stack([base for _ in range(3)]),
                          F.aggregation_weights([0.3, 1.7, 0.9], eps=1e-6))
        assert out["w"].data.tobytes() == base.tobytes()

    def test_equal_coeff_weights_match_uniform_bitwise(self):
        rng = np.random.default_rng(2)
        clients = self._stack([rng.normal(size=5) for _ in range(3)])
        w_inverse = F.aggregation_weights([2.5, 2.5, 2.5], eps=1e-6)
        w_uniform = np.full(3, 1.0 / 3.0)
        a = F.aggregate(clients, w_inverse)
        b = F.aggregate(clients, w_uniform)
        assert np.max(np.abs(a["w"].data - b["w"].data)) < 1e-12

    def test_stack_that_is_not_k_by_p_rejected(self):
        one_set = M.ModelParams.from_flat([("w", (2,))], np.zeros(2))
        with pytest.raises(ContractError, match="K, P"):
            F.aggregate(one_set, [1.0])
        with pytest.raises(ContractError, match="K >= 1"):
            F.aggregate(self._stack(np.zeros((0, 2))), [])

    @pytest.mark.parametrize("weights", [[1.0], [0.2, 0.3, 0.5]])
    def test_weight_count_other_than_k_rejected(self, weights):
        with pytest.raises(ContractError, match="weights for 2 clients"):
            F.aggregate(self._stack([[1.0, 2.0], [3.0, 4.0]]), weights)

    @pytest.mark.parametrize("weights", [
        [2.0, 0.0], [float("nan"), 0.5], [0.5, 0.6], [1.5, -0.5], [float("inf"), 0.0],
        [0.5, 0.5 + 1e-11],
    ], ids=["sum-2", "nan", "sum-1.1", "negative", "inf", "sum-off-by-1e-11"])
    def test_weights_that_are_not_convex_rejected(self, weights):
        # the anchored sum never reads weights[0]: [2, 0] would give row 0
        # back and [nan, 0.5] the midpoint, both without a word
        with pytest.raises(ContractError, match=">= 0 and sum to 1"):
            F.aggregate(self._stack([[1.0, 2.0], [3.0, 4.0]]), weights)

    def test_weight_count_checked_before_values(self):
        with pytest.raises(ContractError, match="weights for 2 clients"):
            F.aggregate(self._stack([[1.0, 2.0], [3.0, 4.0]]), [float("nan")] * 3)


class TestLocalTrain:
    def test_zero_learning_rate_returns_broadcast_bit_exact(self):
        bundle, part, model = tiny_setup()
        fed = tiny_fed(learning_rate=0.0)
        params = model.init_params(np.random.default_rng(0))
        shard = list(part.client_indices[0])
        plan = F.plan_round(model, params, [(bundle.features[shard], bundle.labels[shard])],
                            [part.histograms[0]], L.LossConfig(kind="ce"), fed)
        result = F.local_train(plan, params, [np.random.default_rng(1)])
        for name, t in params:
            assert result.params[name].data[0].tobytes() == t.data.tobytes()

    def test_one_epoch_reduces_shard_loss_on_smoke_data_median_over_seeds(self):
        from fedfocal import experiment as X
        from fedfocal import imbalance as I
        from fedfocal.imbalance import global_class_imbalance

        deltas = []
        for seed in range(5):
            cfg = X.preset_config("smoke", seed=seed)
            bundle = X.assemble_dataset(cfg)
            spec = P.PartitionSpec(mode="fixed", ratios=(1.0,), num_clients=1,
                                   test_fraction=0.2, seed=seed)
            part = P.build_partition(bundle.labels, spec, bundle.num_classes)
            model = X.build_model(cfg, bundle)
            params = model.init_params(np.random.default_rng(seed))
            shard = list(part.client_indices[0])
            x, y = bundle.features[shard], bundle.labels[shard]
            loss_cfg = cfg.loss_config()
            coeffs = global_class_imbalance([part.histograms[0]], loss_cfg.epsilon)

            def shard_loss(p):
                frozen = M.ModelParams.from_flat(p.manifest(), p.flat, requires_grad=False)
                c_k = I.client_imbalance(part.histograms[0], loss_cfg.epsilon)
                cs = np.array([I.dynamic_coefficient(c_k, coeffs, int(t),
                                                     loss_cfg.blend) for t in y])
                logits = model.batch_logits(frozen, x)
                return L.adaptive_focal_loss(logits, y, cs,
                                             gamma=loss_cfg.gamma).item()

            before = shard_loss(params)
            result = F.local_train(F.plan_round(model, params, [(x, y)], [part.histograms[0]],
                                                loss_cfg, cfg.federation_config()),
                                   params, [np.random.default_rng(seed)])
            row_0 = M.ModelParams.from_flat(params.manifest(), result.params.flat[0])
            deltas.append(shard_loss(row_0) - before)
        assert np.median(deltas) <= 0

    @staticmethod
    def _wrapped_shapes(monkeypatch, sizes):
        """The buffer shape of every ModelParams that local_train builds on
        shards of the given sizes with batch 16, the round's result, the
        serial oracle's result for the same round, and the width P of the
        global parameters."""
        from fedfocal.imbalance import ClassHistogram

        rng = np.random.default_rng(4)
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=8, num_classes=3))
        params = model.init_params(rng)
        shards = [(rng.normal(size=(n, 4)), np.arange(n) % 3) for n in sizes]
        hists = [ClassHistogram.from_labels(y, 3) for _, y in shards]
        args = (model, params, shards, hists, L.LossConfig(), tiny_fed(batch_size=16))
        wrapped = []
        from_flat = M.ModelParams.from_flat

        def counting(manifest, flat, requires_grad=True):
            wrapped.append(flat.shape)
            return from_flat(manifest, flat, requires_grad)

        monkeypatch.setattr(M.ModelParams, "from_flat", staticmethod(counting))
        plan = F.plan_round(*args)
        result = F.local_train(plan, params, [np.random.default_rng(k) for k in range(len(sizes))])
        monkeypatch.undo()
        oracle = serial_local_train(plan, params,
                                    [np.random.default_rng(k) for k in range(len(sizes))])
        return wrapped, result, oracle, params.flat.size

    def test_round_wraps_only_the_stack_and_the_result(self, monkeypatch):
        """Three equal 32-sample shards with batch 16: every tick is one
        full-stack group, so local_train builds one ModelParams for the
        broadcast stack and one for the trained stack it returns, and none
        per client."""
        wrapped, result, _, size = self._wrapped_shapes(monkeypatch, (32, 32, 32))
        assert wrapped == [(3, size)] * 2
        assert result.params.flat.shape == (3, size)
        assert result.batch_counts == [2, 2, 2]

    def test_group_view_made_once_per_round(self, monkeypatch):
        """Shards of 64, 64 and 16 samples with batch 16: after the first
        tick the first two rows step as one group three times, through one
        row view of the stack made on the first of them; the only buffers
        wrapped are the broadcast stack and the trained stack."""
        views = []
        rows = M.ModelParams.rows

        def counting(self, sel):
            views.append((sel.start, sel.stop))
            return rows(self, sel)

        monkeypatch.setattr(M.ModelParams, "rows", counting)
        wrapped, result, oracle, size = self._wrapped_shapes(monkeypatch, (64, 64, 16))
        assert (wrapped, views) == ([(3, size)] * 2, [(0, 2)])
        assert result.batch_counts == [4, 4, 1]
        assert result.params.flat.tobytes() == oracle.params.flat.tobytes()

    def test_every_batch_of_every_epoch_runs(self, monkeypatch):
        """Shards of 32 and 40 samples with batch 16 over two epochs: the
        clients run [16, 16] and [16, 16, 8] an epoch, six stacked steps in
        all, and each trained row is the serial oracle's."""
        from fedfocal.imbalance import ClassHistogram

        rng = np.random.default_rng(6)
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=8, num_classes=3))
        params = model.init_params(rng)
        shards = [(rng.normal(size=(n, 4)), np.arange(n) % 3) for n in (32, 40)]
        hists = [ClassHistogram.from_labels(y, 3) for _, y in shards]
        plan = F.plan_round(model, params, shards, hists, L.LossConfig(),
                            tiny_fed(batch_size=16, local_epochs=2))
        steps = []
        step = F.Adam.step

        def counting(self, *a, **kw):
            steps.append(1)
            return step(self, *a, **kw)

        monkeypatch.setattr(F.Adam, "step", counting)
        result = F.local_train(plan, params, [np.random.default_rng(k) for k in range(2)])
        monkeypatch.undo()
        oracle = serial_local_train(plan, params, [np.random.default_rng(k) for k in range(2)])
        assert len(steps) == 6
        assert result.batch_counts == oracle.batch_counts == [4, 6]
        for k in range(2):
            assert result.params.flat[k].tobytes() == oracle.params.flat[k].tobytes(), k
        assert result.loss_sums == oracle.loss_sums


def smoke_setup(rounds, **overrides):
    cfg = X.preset_config("smoke").with_overrides({"federation.rounds": rounds, **overrides})
    bundle, model = X.prepare(cfg)
    return (bundle, X.run_partition(cfg, bundle), model, cfg.loss_config(),
            cfg.federation_config())


def round_bytes(result):
    return (result.params.flat.tobytes(), result.client_coeffs, result.norm_sums.tobytes(),
            result.norm_counts.tobytes(), result.loss_sums, result.batch_counts)


class TestRoundPlan:
    @staticmethod
    def _counted_run(monkeypatch, rounds):
        """Calls of dynamic_coefficient, trainable [K, P] wraps and row views
        in a smoke run of the given rounds, all clients every round."""
        from fedfocal import imbalance as I

        calls = {"coeffs": 0, "stacks": 0, "views": []}
        from_flat, rows = M.ModelParams.from_flat, M.ModelParams.rows

        def coefficient(*args):
            calls["coeffs"] += 1
            return I.dynamic_coefficient(*args)

        def wrapping(manifest, flat, requires_grad=True):
            calls["stacks"] += flat.ndim == 2 and requires_grad
            return from_flat(manifest, flat, requires_grad)

        def viewing(self, sel):
            calls["views"].append((sel.start, sel.stop))
            return rows(self, sel)

        monkeypatch.setattr(F, "dynamic_coefficient", coefficient)
        monkeypatch.setattr(M.ModelParams, "from_flat", staticmethod(wrapping))
        monkeypatch.setattr(M.ModelParams, "rows", viewing)
        F.run_federation(*smoke_setup(rounds))
        monkeypatch.undo()
        return calls

    def test_full_participation_plans_once_per_run(self, monkeypatch):
        """Four rounds of the same three clients: one coefficient per client,
        one stack and each group's view once, the views of one round."""
        calls = self._counted_run(monkeypatch, 4)
        assert calls["coeffs"] == 3
        assert calls["stacks"] == 1
        assert calls["views"] and len(set(calls["views"])) == len(calls["views"])
        assert calls["views"] == self._counted_run(monkeypatch, 1)["views"]

    def test_partial_participation_replans_when_the_selection_changes(self, monkeypatch):
        planned = []
        plan_round = F.plan_round

        def planning(*args, **kw):
            plan = plan_round(*args, **kw)
            planned.append(plan.client_ids)
            return plan

        monkeypatch.setattr(F, "plan_round", planning)
        run = F.run_federation(*smoke_setup(8, **{"federation.client_fraction": 0.67}))
        selections = [rec.selected for rec in run.records]
        changed = [s for t, s in enumerate(selections) if t == 0 or s != selections[t - 1]]
        assert 1 < len(changed) < len(selections)  # the run both keeps and changes plans
        assert planned == changed

    @pytest.mark.parametrize("loss", [L.LossConfig(), L.LossConfig(gamma_trainable=True)],
                             ids=["adaptive", "trainable-gamma"])
    def test_reused_plan_matches_fresh_plans_bytewise(self, loss):
        """Two rounds from different broadcasts and streams through one plan
        give the results of planning each round afresh, and the second
        round leaves the first one's trained rows as they were."""
        bundle, part, model = tiny_setup(mode="dirichlet", beta=0.5)
        fed = tiny_fed(batch_size=7, local_epochs=2)
        shards = [(bundle.features[list(idx)], bundle.labels[list(idx)])
                  for idx in part.client_indices]
        args = (shards, list(part.histograms), loss, fed)
        broadcasts = [F.initial_params(model, loss, seed) for seed in (1, 2)]

        def streams(t):
            return [F.derive_rng(0, F._CLIENT_ROLE, t, k) for k in range(3)]

        plan = F.plan_round(model, broadcasts[0], *args)
        reused = [F.local_train(plan, g, streams(t), t) for t, g in enumerate(broadcasts, start=1)]
        first = round_bytes(reused[0])
        fresh = [F.local_train(F.plan_round(model, g, *args), g, streams(t), t)
                 for t, g in enumerate(broadcasts, start=1)]
        assert first[0] != round_bytes(reused[1])[0]
        assert [round_bytes(r) for r in reused] == [round_bytes(r) for r in fresh]
        assert not np.shares_memory(reused[1].params.flat, plan.stack.flat)


class TestTicks:
    """A tick is one position in the batch schedule the clients share: its
    groups each run a forward and a loss, then the tick takes one backward
    and one Adam step over the rows that stepped."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6), st.integers(1, 17),
           st.integers(1, 3))
    def test_each_ticks_stepping_rows_are_a_prefix_of_the_plan(self, sizes, batch_size,
                                                                epochs):
        model = M.MlpClassifier(M.MlpConfig(input_dim=2, hidden_dim=3, num_classes=3))
        shards = [(np.zeros((n, 2)), np.arange(n) % 3) for n in sizes]
        plan = F.plan_round(model, model.init_params(np.random.default_rng(0)), shards,
                            [ClassHistogram.from_labels(y, 3) for _, y in shards],
                            L.LossConfig(kind="ce"),
                            tiny_fed(batch_size=batch_size, local_epochs=epochs))
        batches = [-(-sizes[c] // batch_size) for c in plan.order]  # each row's, an epoch
        assert len(plan.epochs) == epochs
        for ticks in plan.epochs:
            assert len(ticks) == max(batches)
            for t, (rows, groups, loss) in enumerate(ticks):
                stepping = [r for r, n in enumerate(batches) if n > t]
                assert stepping == list(range(rows.stop)) and rows.start == 0
                assert [r for sel, *_ in groups for r in range(sel.start, sel.stop)] == stepping
                assert loss.gamma is None and loss.slots is None
                for sel, x, forward, _ in groups:
                    n = {min(batch_size, sizes[plan.order[r]] - t * batch_size)
                         for r in range(sel.start, sel.stop)}
                    assert {x.shape[1]} == n
                    assert x.shape[0] == sel.stop - sel.start
                    assert np.shares_memory(x, plan.x)
                    # the bound forward reads the buffers where they lie
                    x[...], plan.stack.flat[sel] = 0.5, 0.25
                    want = model.batch_logits(plan.stack.rows(sel), x.copy()).data
                    assert forward().tobytes() == want.tobytes()
                # the tick's targets and seed: its groups' samples, back to back
                count = sum(g.x.shape[0] * g.x.shape[1] for g in groups)
                assert loss.onehot.shape == (count, 3) and loss.scale.shape == (count,)
                assert np.shares_memory(loss.onehot, plan.batches.onehot)
                assert np.shares_memory(loss.scale, plan.scale)
        # each trained sample is gathered once a round, from its client's sample order
        n_max = max(sizes)
        e, c, j = np.unravel_index(plan.gather_at, (epochs, len(sizes), max(n_max, 1)))
        assert len(set(zip(e, c, j))) == plan.x.shape[0] == epochs * sum(sizes)
        assert np.all(j < np.array(sizes, dtype=int)[c])
        assert np.array_equal(np.array(plan.order, dtype=int)[plan.tally_rows], c)

    @staticmethod
    def _args(loss_cfg, **fed):
        """Shards of 40, 37 and 21 samples: at batch 16 they run [16, 16, 8],
        [16, 16, 5] and [16, 5] an epoch, so ticks 1 and 2 each hold two
        groups. The arguments of plan_round."""
        rng = np.random.default_rng(9)
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=8, num_classes=3))
        params = F.initial_params(model, loss_cfg, 0)
        shards = [(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)) for n in (40, 37, 21)]
        hists = [ClassHistogram.from_labels(y, 3) for _, y in shards]
        return model, params, shards, hists, loss_cfg, tiny_fed(learning_rate=0.05, **fed)

    @staticmethod
    def _round(loss_cfg, plan_hook=None, **fed):
        """The lockstep round through a plan, the serial oracle's round, and
        the plan, on the shards of ``_args``."""
        args = TestTicks._args(loss_cfg, **fed)
        plan = F.plan_round(*args)
        assert any(len(tick.groups) > 1 for tick in plan.epochs[0])
        if plan_hook:
            plan_hook(plan)
        result = F.local_train(plan, args[1], [np.random.default_rng(k) for k in range(3)])
        oracle = serial_local_train(plan, args[1], [np.random.default_rng(k) for k in range(3)])
        return result, oracle, plan

    def test_trainable_gamma_clamped_like_the_serial_oracle(self):
        """gamma grows past its upper bound within the first steps and is
        clamped back after every tick's step, on every row."""
        loss = L.LossConfig(gamma_trainable=True, gamma=2.0, gamma_hi=2.05)
        result, oracle, _ = self._round(loss, batch_size=16)
        assert round_bytes(result) == round_bytes(oracle)
        assert np.all(result.params["loss.gamma"].data == np.float32(2.05))

    def test_ce_idle_gamma_keeps_its_value_slot_and_moments(self):
        """CE never reads gamma, so no tick writes its gradient slot: the
        slot stays zero, and Adam's steps from it keep gamma's value and
        its zero moments."""
        loss = L.LossConfig(kind="ce", gamma_trainable=True)
        result, oracle, plan = self._round(loss, batch_size=16)
        assert plan.stack.manifest()[-1] == ("loss.gamma", ())
        assert round_bytes(result) == round_bytes(oracle)
        assert plan.stack.grad[:, -1].tobytes() == np.zeros(3, dtype=np.float32).tobytes()
        assert not plan.opt.m[:, -1].any() and not plan.opt.v[:, -1].any()
        assert np.all(result.params["loss.gamma"].data == np.float32(loss.gamma))

    def test_a_ce_vit_round_leaves_a_trainable_gammas_slots_zero(self):
        """The ViT forward zeroes its rows' gradient slots and CE writes none
        of gamma's, so after a round gamma's slots are zero whatever they
        held before it (NaN here), and Adam's steps from them keep gamma's
        value and zero moments. The test above is the MLP's case."""
        loss = L.LossConfig(kind="ce", gamma_trainable=True)
        model = M.ViTClassifier(M.ViTConfig(image_size=16, patch_size=8, num_classes=3))
        rng = np.random.default_rng(5)
        shards = [(rng.normal(size=(n, 1, 16, 16)), rng.integers(0, 3, size=n)) for n in (20, 13)]
        params = F.initial_params(model, loss, 0)
        plan = F.plan_round(model, params, shards,
                            [ClassHistogram.from_labels(y, 3) for _, y in shards], loss,
                            tiny_fed(learning_rate=0.05, batch_size=8))
        assert plan.stack.manifest()[-1] == ("loss.gamma", ())
        plan.stack.grad[...] = np.nan
        result = F.local_train(plan, params, [np.random.default_rng(k) for k in range(2)])
        zeros = np.zeros(2, dtype=model.dtype).tobytes()
        assert plan.stack.grad[:, -1].tobytes() == zeros
        assert plan.opt.m[:, -1].tobytes() == zeros and plan.opt.v[:, -1].tobytes() == zeros
        assert result.params.flat[:, -1].tobytes() == np.full(2, 2.0, model.dtype).tobytes()
        assert (result.params.flat[:, :-1] != params.flat[:-1]).any(axis=1).all()

    def test_nan_in_a_short_batch_names_its_client_only(self):
        """Client 2's short batch of 5 shares tick 1 with the group of clients
        0 and 1, and the tick takes one loss over both groups. A NaN feature
        in that batch fails it, and the error names client 2 alone."""
        args = self._args(L.LossConfig(), batch_size=16)
        groups = F.plan_round(*args).epochs[0][1].groups
        assert [(sel.start, sel.stop) for sel, *_ in groups] == [(0, 2), (2, 3)]
        short = np.random.default_rng(2).permutation(21)[16:]  # client 2's stream, epoch 1
        args[2][2][0][short[3], 1] = np.nan
        with pytest.raises(NumericError,
                           match=r"^round 4, client 2: softmax input contains NaN"):
            F.local_train(F.plan_round(*args), args[1],
                          [np.random.default_rng(k) for k in range(3)], 4)

    def test_a_round_takes_one_loss_and_one_backward_per_tick(self, monkeypatch):
        """A tick takes one batch_loss over all its groups, one bound backward
        per group and one Adam step. An MLP tick records no tape node and
        never calls tensor.backward."""
        args = self._args(L.LossConfig(), batch_size=16, local_epochs=2)
        plan = F.plan_round(*args)
        start, calls = len(T._tape), {"losses": [], "backwards": 0, "steps": 0, "tape": 0}
        batch_loss, step, backward = L.batch_loss, F.Adam.step, T.backward

        def counting_loss(*a):
            calls["losses"].append(len(T._tape) - start)  # nodes recorded so far
            return batch_loss(*a)

        def counting_step(*a, **k):
            calls["steps"] += 1
            return step(*a, **k)

        def counting_tape(*a):
            calls["tape"] += 1
            backward(*a)

        def counted(bound):
            def run(g):
                calls["backwards"] += 1
                bound(g)
            return run

        for tick in (tick for ticks in plan.epochs for tick in ticks):
            tick.groups[:] = [g._replace(backward=counted(g.backward)) for g in tick.groups]
        monkeypatch.setattr(L, "batch_loss", counting_loss)
        monkeypatch.setattr(F.Adam, "step", counting_step)
        monkeypatch.setattr(T, "backward", counting_tape)
        F.local_train(plan, args[1], [np.random.default_rng(k) for k in range(3)])
        groups = [len(tick.groups) for ticks in plan.epochs for tick in ticks]
        assert groups == [1, 2, 2] * 2
        assert calls["losses"] == [0] * len(groups) and calls["steps"] == len(groups)
        assert calls["backwards"] == sum(groups) and calls["tape"] == 0
        assert len(T._tape) == start

    @pytest.mark.parametrize("kind, trainable", [("adaptive_focal", False), ("ce", False),
                                                 ("adaptive_focal", True)],
                             ids=["adaptive_focal", "ce", "adaptive_focal-trainable_gamma"])
    def test_a_tick_calls_no_python_function_of_numpy(self, kind, trainable):
        """numpy's Python-level wrappers (np.swapaxes, the _methods._sum
        behind ndarray.sum, np.ones_like, np.clip) cost about a microsecond
        a call on a smoke tick whose arithmetic takes about 100 µs. Counted
        with sys.setprofile from one Adam step to the next, the gamma clamp
        included: a one-group tick calls no Python function of numpy's
        package, and a multi-group tick only np.concatenate's dispatcher."""
        args = self._args(L.LossConfig(kind=kind, gamma_trainable=trainable),
                          batch_size=16, local_epochs=2)
        plan = F.plan_round(*args)
        numpy_dir, ticks = os.path.dirname(np.__file__) + os.sep, []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "return" and code is F.Adam.step.__code__:
                ticks.append([])  # the calls of the next tick
            elif event == "call" and ticks and code.co_filename.startswith(numpy_dir):
                ticks[-1].append(code.co_name)

        sys.setprofile(profile)
        try:
            F.local_train(plan, args[1], [np.random.default_rng(k) for k in range(3)])
        finally:
            sys.setprofile(None)
        groups = [len(tick.groups) for ticks in plan.epochs for tick in ticks]
        assert groups == [1, 2, 2] * 2
        # every tick after the first; what follows the last step is the tally
        for n, calls in zip(groups[1:], ticks[:-1]):
            assert set(calls) <= ({"concatenate"} if n > 1 else set()), calls

    @pytest.mark.parametrize("kind, trainable, calls", [("adaptive_focal", False, 10),
                                                        ("ce", False, 10),
                                                        ("adaptive_focal", True, 17)],
                             ids=["adaptive_focal", "ce", "adaptive_focal-trainable_gamma"])
    def test_a_one_group_tick_keeps_its_framework_budget(self, kind, trainable, calls):
        """The plan binds each group's forward and backward and the tick's
        loss, so a one-group MLP tick runs only the bound forward with its
        kernel, one batch_loss with its kernels, the bound backward with
        its kernel and one Adam step (and the gamma clamp), and makes no
        Tensor. Counted with sys.setprofile from one Adam step to the next;
        a Tensor is made by its constructor or, skipping it, by
        object.__new__. A count that grows is a cost on every tick; one
        that falls is a new pin."""
        args = self._args(L.LossConfig(kind=kind, gamma_trainable=trainable),
                          batch_size=16, local_epochs=2)
        plan = F.plan_round(*args)
        windows = []  # per tick after a step: its calls, and the makers of its Tensors

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "return" and code is F.Adam.step.__code__:
                windows.append(([], []))
            elif windows and event == "call":
                windows[-1][0].append(code.co_name)
                if code is T.Tensor.__init__.__code__:  # the maker is its caller
                    windows[-1][1].append(frame.f_back.f_code.co_name)
            elif windows and event == "c_call" and arg is object.__new__:
                windows[-1][1].append(code.co_name)

        sys.setprofile(profile)
        try:
            F.local_train(plan, args[1], [np.random.default_rng(k) for k in range(3)])
        finally:
            sys.setprofile(None)
        groups = [len(tick.groups) for ticks in plan.epochs for tick in ticks]
        assert groups == [1, 2, 2] * 2
        # the window after the step of epoch 1's last tick holds epoch 2's first
        tick_calls, tensors = windows[2]
        assert len(tick_calls) == calls, tick_calls
        assert tick_calls.count("batch_loss") == tick_calls.count("step") == 1
        assert tensors == []

    def test_two_epochs_at_batch_seven_match_the_serial_oracle(self):
        result, oracle, _ = self._round(L.LossConfig(), batch_size=7, local_epochs=2)
        assert round_bytes(result) == round_bytes(oracle)
        assert result.batch_counts == [12, 12, 6]


class TestRunFederation:
    def test_evaluation_is_bound_once_per_run(self, monkeypatch):
        """The test features are gathered and cast, and their forward bound,
        once a run; scoring a round copies the parameters into the bound
        frozen set and builds no parameter set of its own."""
        bundle, part, model = tiny_setup()
        binds, built, scoring, scored = [], [], [], []
        bind, from_flat, score = F.bind_test_set, M.ModelParams.from_flat, F.eval_scores

        def counting_bind(*a):
            binds.append(len(a[3]))
            return bind(*a)

        def counting_score(*a):
            scoring.append(True)
            try:
                return score(*a)
            finally:
                scoring.pop()
                scored.append(True)

        def counting_from_flat(manifest, flat, requires_grad=True):
            if scoring:
                built.append(flat.shape)
            return from_flat(manifest, flat, requires_grad)

        monkeypatch.setattr(F, "bind_test_set", counting_bind)
        monkeypatch.setattr(F, "eval_scores", counting_score)
        monkeypatch.setattr(M.ModelParams, "from_flat", staticmethod(counting_from_flat))
        run = F.run_federation(bundle, part, model, L.LossConfig(), tiny_fed(rounds=3))
        assert binds == [len(part.test_indices)] and built == []
        assert len(scored) == len(run.records) == 3

    def test_zero_lr_single_round_is_identity(self):
        bundle, part, model = tiny_setup()
        run = F.run_federation(bundle, part, model, L.LossConfig(kind="ce"),
                               tiny_fed(rounds=1, learning_rate=0.0))
        init = model.init_params(F.derive_rng(0, F._INIT_ROLE))
        for name, t in init:
            assert run.params[name].data.tobytes() == t.data.tobytes()

    def test_round_records_well_formed(self):
        bundle, part, model = tiny_setup()
        run = F.run_federation(bundle, part, model,
                               L.LossConfig(kind="adaptive_focal"), tiny_fed())
        assert len(run.records) == 3
        for rec in run.records:
            assert abs(sum(rec.weights.values()) - 1.0) < 1e-12
            assert rec.selected == [0, 1, 2]
            assert np.isfinite(rec.train_loss)
            assert rec.metrics.accuracy >= 0.0

    def test_weights_anti_monotone_in_client_coeffs(self):
        bundle, part, model = tiny_setup(mode="dirichlet", beta=0.4)
        run = F.run_federation(bundle, part, model,
                               L.LossConfig(kind="adaptive_focal"), tiny_fed())
        for rec in run.records:
            ids = sorted(rec.client_coeffs)
            coeffs = [rec.client_coeffs[k] for k in ids]
            weights = [rec.weights[k] for k in ids]
            order = np.argsort(coeffs)
            assert list(np.argsort(weights)[::-1]) == list(order)

    def test_weights_reproducible_from_logged_coeffs(self):
        bundle, part, model = tiny_setup(mode="dirichlet", beta=0.4)
        loss_cfg = L.LossConfig(kind="adaptive_focal")
        run = F.run_federation(bundle, part, model, loss_cfg, tiny_fed())
        for rec in run.records:
            ids = sorted(rec.client_coeffs)
            recomputed = F.aggregation_weights([rec.client_coeffs[k] for k in ids],
                                               loss_cfg.epsilon)
            assert np.array_equal(recomputed, [rec.weights[k] for k in ids])

    def test_identical_histograms_match_uniform_aggregation(self):
        # equal shares of every class: inverse-imbalance weights collapse to 1/K
        bundle = tiny_bundle(counts=(75, 30, 15))
        spec = P.PartitionSpec(mode="fixed", ratios=(1 / 3, 1 / 3, 1 / 3),
                               num_clients=3, test_fraction=0.2, seed=0)
        part = P.build_partition(bundle.labels, spec, bundle.num_classes)
        hists = [h.counts for h in part.histograms]
        assert hists[0] == hists[1] == hists[2]
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=16, num_classes=3))
        runs = {}
        for mode in ("inverse_imbalance", "uniform"):
            runs[mode] = F.run_federation(
                bundle, part, model, L.LossConfig(kind="ce"),
                tiny_fed(aggregation=mode))
        for name, t in runs["uniform"].params:
            assert np.max(np.abs(runs["inverse_imbalance"].params[name].data
                                 - t.data)) < 1e-12

    def test_serial_and_concurrent_runs_identical(self):
        bundle, part, model = tiny_setup(mode="dirichlet", beta=0.5)
        loss_cfg = L.LossConfig(kind="adaptive_focal")
        serial = F.run_federation(bundle, part, model, loss_cfg, tiny_fed())
        threaded = F.run_federation(bundle, part, model, loss_cfg, tiny_fed())
        for a, b in zip(serial.records, threaded.records):
            assert a.weights == b.weights
            assert a.client_coeffs == b.client_coeffs
            assert a.metrics.accuracy == b.metrics.accuracy
            assert a.tail_grad_norm == b.tail_grad_norm
        for name, t in serial.params:
            assert threaded.params[name].data.tobytes() == t.data.tobytes()

    def test_concurrent_key_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a training run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = X.preset_config("smoke").with_overrides({
            "partition.mode": "dirichlet", "partition.beta": 0.5,
            "partition.clients": 20, "federation.concurrent": True,
            "federation.rounds": 2})
        run = X.run_experiment(cfg, tmp_path / "run")
        assert len(run.records) == 2

    def test_empty_shard_client_skipped_with_warning(self):
        bundle = tiny_bundle()
        part = P.build_partition(
            bundle.labels,
            P.PartitionSpec(mode="fixed", ratios=(0.7, 0.3, 0.0), num_clients=3,
                            test_fraction=0.2, seed=0),
            bundle.num_classes)
        assert len(part.client_indices[2]) == 0
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=16, num_classes=3))
        run = F.run_federation(bundle, part, model, L.LossConfig(kind="ce"),
                               tiny_fed(rounds=1))
        rec = run.records[0]
        assert rec.selected == [0, 1]
        assert any("client 2" in w for w in rec.warnings)

    def test_client_fraction_selects_subset(self):
        bundle, part, model = tiny_setup()
        run = F.run_federation(bundle, part, model, L.LossConfig(kind="ce"),
                               tiny_fed(rounds=4, client_fraction=0.5))
        sizes = {len(rec.selected) for rec in run.records}
        assert sizes == {2}  # round(0.5 * 3) = 2
        seen = set()
        for rec in run.records:
            seen.update(rec.selected)
        assert len(seen) > 1  # selection varies across rounds

    def test_gamma_trainable_stays_in_bounds_and_grows(self):
        bundle, part, model = tiny_setup()
        loss_cfg = L.LossConfig(kind="adaptive_focal", gamma=2.0,
                                gamma_trainable=True, gamma_lo=0.5, gamma_hi=2.05)
        run = F.run_federation(bundle, part, model, loss_cfg,
                               tiny_fed(rounds=3, learning_rate=5e-2))
        gammas = [rec.gamma for rec in run.records]
        assert all(loss_cfg.gamma_lo <= g <= loss_cfg.gamma_hi for g in gammas)
        # the gamma gradient is strictly negative, so it climbs to the cap
        assert gammas[-1] == pytest.approx(loss_cfg.gamma_hi, abs=1e-6)


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        # with zero moments, one step moves each coordinate by
        # lr * g / (|g| + eps)
        from fedfocal.tensor import parameter

        params = M.ModelParams([("p", parameter(np.array([1.0, -2.0, 0.5])))])
        p = params["p"]
        params.grad[...] = [0.4, -0.3, 0.0]
        opt = F.Adam(params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step()
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * np.array([0.4, -0.3, 0.0]) \
            / (np.abs([0.4, -0.3, 0.0]) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_moments_accumulate_across_steps(self):
        from fedfocal.tensor import parameter

        params = M.ModelParams([("p", parameter(np.array([0.0])))])
        p = params["p"]
        opt = F.Adam(params, lr=0.1)
        for g in (1.0, 1.0, 1.0):
            params.grad[...] = g
            opt.step()
        # constant gradient: every bias-corrected step is lr * g/|g|
        assert p.data[0] == pytest.approx(-0.3, abs=1e-6)

    def test_unused_parameter_untouched(self):
        from fedfocal.tensor import parameter

        params = M.ModelParams([("p", parameter(np.array([5.0])))])
        p = params["p"]
        opt = F.Adam(params, lr=0.1)
        opt.step()  # no gradient written: the slot holds zero
        assert p.data[0] == 5.0


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_derived_streams_are_the_seed_sequences_of_their_words(seed):
    """derive_rng passes its words as one uint32 array when each fits 32
    bits, and as a list otherwise: either way the stream is the one
    SeedSequence([master_seed, role, *coords]) seeds."""
    for role, coords in ((F._INIT_ROLE, ()), (F._SELECT_ROLE, (7,)),
                         (F._CLIENT_ROLE, (3, 2**32 - 1))):
        got = F.derive_rng(seed, role, *coords)
        want = np.random.default_rng(np.random.SeedSequence([seed, role, *coords]))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(4).tobytes() == want.random(4).tobytes()


class TestCentralized:
    def test_smoke_accuracy_within_five_points_of_federated(self, tmp_path):
        cfg = X.preset_config("smoke", seed=0)
        fed = X.run_experiment(cfg, tmp_path / "fed")
        central = X.run_experiment(cfg.with_overrides({"run.mode": "centralized"}),
                                   tmp_path / "central")
        gap = abs(fed.records[-1].metrics.accuracy
                  - central.records[-1].metrics.accuracy)
        assert gap <= 0.05

    def test_equals_single_client_federation(self, tmp_path):
        """A centralized run is a one-client federation with uniform
        aggregation, split with the federation seed; the partition seed is
        not read."""
        cfg = X.preset_config("smoke", seed=3).with_overrides({
            "federation.rounds": 4, "partition.seed": 8})
        X.run_experiment(cfg.with_overrides({"run.mode": "centralized"}), tmp_path / "central")
        X.run_experiment(cfg.with_overrides({
            "partition.ratios": (1.0,), "partition.clients": 1,
            "federation.aggregation": "uniform", "partition.seed": 3}), tmp_path / "fed")
        for name in ("metrics.csv", "rounds.jsonl", "final.ckpt"):
            assert ((tmp_path / "central" / name).read_bytes()
                    == (tmp_path / "fed" / name).read_bytes()), name

    def test_validation_split_is_stratified_nine_to_one(self):
        bundle = tiny_bundle(counts=(90, 45, 18))
        spec = P.PartitionSpec(mode="fixed", ratios=(1.0,), num_clients=1,
                               test_fraction=0.1, seed=0)
        part = P.build_partition(bundle.labels, spec, bundle.num_classes)
        val_labels = bundle.labels[list(part.test_indices)]
        counts = np.bincount(val_labels, minlength=3)
        for c, n in zip(counts, (90, 45, 18)):
            assert abs(c - 0.1 * n) < 1.0


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            F.FederationConfig(client_fraction=0.0)

    def test_unknown_aggregation(self):
        with pytest.raises(ConfigError):
            F.FederationConfig(aggregation="median")
