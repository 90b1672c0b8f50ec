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
from fedfocal.imbalance import ClassHistogram, global_class_imbalance

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
    defaults = dict(num_clients=3, rounds=rounds, local_epochs=1, batch_size=8,
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
        result = F.local_train(model, params, [(bundle.features[shard],
                                                bundle.labels[shard])],
                               [part.histograms[0]], [1.0, 1.0, 1.0],
                               L.LossConfig(kind="ce"), fed, [np.random.default_rng(1)])
        for name, t in params:
            assert result.params[name].data[0].tobytes() == t.data.tobytes()

    def test_one_epoch_reduces_shard_loss_on_smoke_data_median_over_seeds(self):
        from fedfocal import experiment as X
        from fedfocal import imbalance as I
        from fedfocal.imbalance import global_class_imbalance
        from fedfocal.tensor import constant

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
                frozen = M.ModelParams([(n, constant(t.data)) for n, t in p])
                c_k = I.client_imbalance(part.histograms[0], loss_cfg.epsilon)
                cs = np.array([I.dynamic_coefficient(c_k, coeffs, int(t),
                                                     loss_cfg.blend) for t in y])
                logits = model.batch_logits(frozen, x)
                return L.adaptive_focal_loss(logits, y, cs,
                                             gamma=loss_cfg.gamma).item()

            before = shard_loss(params)
            result = F.local_train(model, params, [(x, y)], [part.histograms[0]],
                                   coeffs, loss_cfg,
                                   cfg.federation_config(),
                                   [np.random.default_rng(seed)])
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
        args = (model, params, shards, hists, [1.0] * len(sizes), L.LossConfig(),
                tiny_fed(batch_size=16))
        wrapped = []
        from_flat = M.ModelParams.from_flat

        def counting(manifest, flat, requires_grad=True):
            wrapped.append(flat.shape)
            return from_flat(manifest, flat, requires_grad)

        monkeypatch.setattr(M.ModelParams, "from_flat", staticmethod(counting))
        result = F.local_train(*args, [np.random.default_rng(k) for k in range(len(sizes))])
        monkeypatch.undo()
        oracle = serial_local_train(*args, [np.random.default_rng(k) for k in range(len(sizes))])
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
        args = (model, params, shards, hists, [1.0] * 3, L.LossConfig(),
                tiny_fed(batch_size=16, local_epochs=2))
        steps = []
        step = F.Adam.step

        def counting(self, *a, **kw):
            steps.append(1)
            return step(self, *a, **kw)

        monkeypatch.setattr(F.Adam, "step", counting)
        result = F.local_train(*args, [np.random.default_rng(k) for k in range(2)])
        monkeypatch.undo()
        oracle = serial_local_train(*args, [np.random.default_rng(k) for k in range(2)])
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

    def test_plan_for_other_clients_rejected(self):
        bundle, part, model = tiny_setup()
        fed, loss = tiny_fed(), L.LossConfig()
        params = model.init_params(np.random.default_rng(0))
        shards = [(bundle.features[list(idx)], bundle.labels[list(idx)])
                  for idx in part.client_indices[:2]]
        args = (model, params, shards, list(part.histograms[:2]), [1.0] * 3, loss, fed)
        plan = F.plan_round(*args, client_ids=[0, 1])
        with pytest.raises(ContractError, match=r"plan for clients \[0, 1\]"):
            F.local_train(*args, [np.random.default_rng(k) for k in range(2)],
                          client_ids=[0, 2], plan=plan)

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
        coeffs = global_class_imbalance(list(part.histograms), loss.epsilon)
        args = (shards, list(part.histograms), coeffs, loss, fed)
        broadcasts = [F.initial_params(model, loss, seed) for seed in (1, 2)]

        def streams(t):
            return [F.derive_rng(0, F._CLIENT_ROLE, t, k) for k in range(3)]

        plan = F.plan_round(model, broadcasts[0], *args)
        reused = [F.local_train(model, g, *args, streams(t), round_index=t, plan=plan)
                  for t, g in enumerate(broadcasts, start=1)]
        first = round_bytes(reused[0])
        fresh = [F.local_train(model, g, *args, streams(t), round_index=t)
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
                            [1.0] * 3, L.LossConfig(kind="ce"),
                            tiny_fed(num_clients=len(sizes), batch_size=batch_size,
                                     local_epochs=epochs))
        batches = [-(-sizes[c] // batch_size) for c in plan.order]  # each row's, an epoch
        assert len(plan.epochs) == epochs
        for ticks in plan.epochs:
            assert len(ticks) == max(batches)
            for t, (rows, prefix, groups, batch) in enumerate(ticks):
                stepping = [r for r, n in enumerate(batches) if n > t]
                assert stepping == list(range(rows.stop)) and rows.start == 0
                assert prefix.flat.shape[0] == rows.stop
                assert np.shares_memory(prefix.flat, plan.stack.flat[rows])
                assert [r for sel, *_ in groups for r in range(sel.start, sel.stop)] == stepping
                for sel, group, x in groups:
                    n = {min(batch_size, sizes[plan.order[r]] - t * batch_size)
                         for r in range(sel.start, sel.stop)}
                    assert {x.shape[1]} == n
                    assert group.flat.shape[0] == x.shape[0] == sel.stop - sel.start
                    assert np.shares_memory(x, plan.x)
                # the tick's targets: its groups' samples, back to back
                assert batch.labels.shape == (sum(x.shape[0] * x.shape[1] for *_, x in groups),)
                assert np.shares_memory(batch.labels, plan.batches.labels)
                assert np.shares_memory(batch.onehot, plan.batches.onehot)
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
        groups. The arguments of local_train before its streams."""
        rng = np.random.default_rng(9)
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=8, num_classes=3))
        params = F.initial_params(model, loss_cfg, 0)
        shards = [(rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)) for n in (40, 37, 21)]
        hists = [ClassHistogram.from_labels(y, 3) for _, y in shards]
        return (model, params, shards, hists, global_class_imbalance(hists, loss_cfg.epsilon),
                loss_cfg, tiny_fed(learning_rate=0.05, **fed))

    @staticmethod
    def _round(loss_cfg, plan_hook=None, **fed):
        """The lockstep round through a plan, the serial oracle's round, and
        the plan, on the shards of ``_args``."""
        args = TestTicks._args(loss_cfg, **fed)
        plan = F.plan_round(*args)
        assert any(len(groups) > 1 for _, _, groups, _ in plan.epochs[0])
        if plan_hook:
            plan_hook(plan)
        result = F.local_train(*args, [np.random.default_rng(k) for k in range(3)], plan=plan)
        oracle = serial_local_train(*args, [np.random.default_rng(k) for k in range(3)])
        return result, oracle, plan

    def test_trainable_gamma_clamped_like_the_serial_oracle(self):
        """gamma grows past its upper bound within the first steps and is
        clamped back after every tick's step, on every row."""
        loss = L.LossConfig(gamma_trainable=True, gamma=2.0, gamma_hi=2.05)
        result, oracle, _ = self._round(loss, batch_size=16)
        assert round_bytes(result) == round_bytes(oracle)
        assert np.all(result.params["loss.gamma"].data == np.float32(2.05))

    def test_ce_idle_gamma_keeps_its_value_slot_and_moments(self):
        """CE never reads gamma, so no tick's backward reaches it: its value,
        its gradient slot (filled with NaN here) and its moments stay."""
        loss = L.LossConfig(kind="ce", gamma_trainable=True)

        def fill(plan):
            assert plan.stack.manifest()[-1] == ("loss.gamma", ())
            plan.stack.grad[:, -1] = np.nan

        result, oracle, plan = self._round(loss, fill, batch_size=16)
        assert round_bytes(result) == round_bytes(oracle)
        assert np.isnan(plan.stack.grad[:, -1]).all()
        assert not plan.opt.m[:, -1].any() and not plan.opt.v[:, -1].any()
        assert np.all(result.params["loss.gamma"].data == np.float32(loss.gamma))

    def test_nan_in_a_short_batch_names_its_client_only(self):
        """Client 2's short batch of 5 shares tick 1 with the group of clients
        0 and 1, and the tick takes one loss over both groups. A NaN feature
        in that batch fails it, and the error names client 2 alone."""
        args = self._args(L.LossConfig(), batch_size=16)
        _, _, groups, _ = F.plan_round(*args).epochs[0][1]
        assert [(sel.start, sel.stop) for sel, *_ in groups] == [(0, 2), (2, 3)]
        short = np.random.default_rng(2).permutation(21)[16:]  # client 2's stream, epoch 1
        args[2][2][0][short[3], 1] = np.nan
        with pytest.raises(NumericError,
                           match=r"^round 4, client 2: softmax input contains NaN"):
            F.local_train(*args, [np.random.default_rng(k) for k in range(3)], round_index=4)

    def test_a_round_takes_one_loss_and_one_backward_per_tick(self, monkeypatch):
        """A tick records one perceptron node per group, then one focal_nll
        and the sum_ that backward starts from: 3 nodes for a one-group MLP
        tick, 4 for a two-group one."""
        args = self._args(L.LossConfig(), batch_size=16, local_epochs=2)
        plan = F.plan_round(*args)
        tape = {"losses": 0, "nodes": [], "after": len(T._tape)}
        batch_loss, backward = L.batch_loss, T.backward

        def counting_loss(*a, **k):
            tape["losses"] += 1
            return batch_loss(*a, **k)

        def counting_backward(root):
            # entries since the last backward pruned the tape: this tick's nodes
            tape["nodes"].append(len(T._tape) - tape["after"])
            backward(root)
            tape["after"] = len(T._tape)

        monkeypatch.setattr(L, "batch_loss", counting_loss)
        monkeypatch.setattr(T, "backward", counting_backward)
        F.local_train(*args, [np.random.default_rng(k) for k in range(3)], plan=plan)
        groups = [len(groups) for ticks in plan.epochs for _, _, groups, _ in ticks]
        assert groups == [1, 2, 2] * 2
        assert tape["losses"] == len(groups)
        assert tape["nodes"] == [n + 2 for n in groups]

    def test_two_epochs_at_batch_seven_match_the_serial_oracle(self):
        result, oracle, _ = self._round(L.LossConfig(), batch_size=7, local_epochs=2)
        assert round_bytes(result) == round_bytes(oracle)
        assert result.batch_counts == [12, 12, 6]


class TestRunFederation:
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

        p = parameter(np.array([1.0, -2.0, 0.5]))
        p.grad = np.array([0.4, -0.3, 0.0])
        opt = F.Adam(M.ModelParams([("p", p)]), lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step()
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * np.array([0.4, -0.3, 0.0]) \
            / (np.abs([0.4, -0.3, 0.0]) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_moments_accumulate_across_steps(self):
        from fedfocal.tensor import parameter

        p = parameter(np.array([0.0]))
        opt = F.Adam(M.ModelParams([("p", p)]), lr=0.1)
        for g in (1.0, 1.0, 1.0):
            p.grad = np.array([g])
            opt.step()
        # constant gradient: every bias-corrected step is lr * g/|g|
        assert p.data[0] == pytest.approx(-0.3, abs=1e-6)

    def test_unused_parameter_untouched(self):
        from fedfocal.tensor import parameter

        p = parameter(np.array([5.0]))
        opt = F.Adam(M.ModelParams([("p", p)]), lr=0.1)
        opt.step()  # grad is None
        assert p.data[0] == 5.0


class TestCentralized:
    def test_smoke_accuracy_within_five_points_of_federated(self):
        from fedfocal import experiment as X

        cfg = X.preset_config("smoke", seed=0)
        bundle = X.assemble_dataset(cfg)
        model = X.build_model(cfg, bundle)
        part = P.build_partition(bundle.labels, cfg.partition_spec(),
                                 bundle.num_classes)
        fed = F.run_federation(bundle, part, model, cfg.loss_config(),
                               cfg.federation_config())
        central = F.run_centralized(bundle, model, cfg.loss_config(),
                                    cfg.federation_config(), val_fraction=0.2)
        gap = abs(fed.records[-1].metrics.accuracy
                  - central.records[-1].metrics.accuracy)
        assert gap <= 0.05

    def test_equals_single_client_federation(self):
        bundle = tiny_bundle()
        model = M.MlpClassifier(M.MlpConfig(input_dim=4, hidden_dim=16, num_classes=3))
        fed = tiny_fed(num_clients=1, rounds=4)
        central = F.run_centralized(bundle, model, L.LossConfig(kind="ce"), fed,
                                    val_fraction=0.2)
        spec = P.PartitionSpec(mode="fixed", ratios=(1.0,), num_clients=1,
                               test_fraction=0.2, seed=fed.seed)
        part = P.build_partition(bundle.labels, spec, bundle.num_classes)
        federated = F.run_federation(bundle, part, model, L.LossConfig(kind="ce"),
                                     tiny_fed(num_clients=1, rounds=4,
                                              aggregation="uniform"))
        for name, t in federated.params:
            assert central.params[name].data.tobytes() == t.data.tobytes()
        for a, b in zip(central.records, federated.records):
            assert a.metrics.accuracy == b.metrics.accuracy

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

    def test_partition_client_count_must_match(self):
        bundle, part, model = tiny_setup()
        with pytest.raises(ConfigError):
            F.run_federation(bundle, part, model, L.LossConfig(kind="ce"),
                             tiny_fed(num_clients=4))
