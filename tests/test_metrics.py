import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import losses as L
from fedfocal import metrics as ME
from fedfocal import models as M
from fedfocal import tensor as T
from fedfocal.errors import ConfigError, ContractError, ShapeError

from helpers import gradient_norm_by_group


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = [0, 1, 2, 2, 1, 0]
        cm = ME.confusion(labels, labels, 3)
        assert np.array_equal(cm.grid, np.diag([2, 2, 2]))

    def test_single_predicted_class_single_column(self):
        cm = ME.confusion([0, 0, 0, 0], [0, 1, 2, 1], 3)
        assert np.array_equal(cm.grid[:, 0], [1, 2, 1])
        assert cm.grid[:, 1:].sum() == 0

    def test_trace_identity_matches_direct_accuracy(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        cm = ME.confusion(preds, labels, 4)
        assert cm.accuracy == np.mean(preds == labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ME.confusion([0, 1], [0], 2)

    def test_argmax_tie_breaks_to_lowest_index(self):
        scores = np.array([[0.4, 0.4, 0.2]])
        assert ME.predict(scores)[0] == 0


class TestClassificationMetrics:
    def test_perfect_binary(self):
        report = ME.classification_metrics(ME.ConfusionMatrix(np.array([[50, 0], [0, 50]])))
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0
        assert report.macro_specificity == 1.0

    def test_hand_binary_case(self):
        report = ME.classification_metrics(ME.ConfusionMatrix(np.array([[40, 10], [20, 30]])))
        prec = report.per_class["precision"]
        rec = report.per_class["recall"]
        spec = report.per_class["specificity"]
        assert prec[0] == pytest.approx(40 / 60, abs=1e-12)
        assert rec[0] == pytest.approx(0.8, abs=1e-12)
        assert spec[0] == pytest.approx(0.6, abs=1e-12)

    def test_degenerate_predictions_flagged_as_zero(self):
        # everything predicted as class 0: class-1 precision is undefined
        report = ME.classification_metrics(ME.ConfusionMatrix(np.array([[5, 0], [5, 0]])))
        assert report.per_class["precision"][1] == 0.0
        assert any("class 1" in f and "predicted" in f for f in report.flags)

    def test_f1_is_harmonic_mean_per_class(self):
        report = ME.classification_metrics(ME.ConfusionMatrix(np.array([[40, 10], [20, 30]])))
        for p, r, f in zip(report.per_class["precision"], report.per_class["recall"],
                           report.per_class["f1"]):
            assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def brute_force_auc(score, pos):
    """Exhaustive positive/negative pair counting with half credit for ties."""
    total = 0.0
    pairs = 0
    for i, j in itertools.product(np.flatnonzero(pos), np.flatnonzero(~pos)):
        pairs += 1
        if score[i] > score[j]:
            total += 1.0
        elif score[i] == score[j]:
            total += 0.5
    return total / pairs


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        labels = [0, 0, 1, 1]
        macro, detail = ME.auc_ovr(scores, labels)
        assert macro == 1.0
        assert detail["auc"] == [1.0, 1.0]

    def test_constant_scores_give_exactly_half(self):
        scores = np.full((6, 2), 0.5)
        macro, _ = ME.auc_ovr(scores, [0, 1, 0, 1, 0, 1])
        assert macro == 0.5

    def test_small_instances_match_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            c = int(rng.integers(2, 4))
            labels = rng.integers(0, c, size=n)
            scores = np.round(rng.uniform(size=(n, c)), 1)  # force ties
            macro, detail = ME.auc_ovr(scores, labels)
            for i in range(c):
                pos = labels == i
                if pos.sum() in (0, n):
                    assert detail["auc"][i] is None
                    continue
                assert detail["auc"][i] == pytest.approx(
                    brute_force_auc(scores[:, i], pos), abs=1e-12), trial

    def test_average_ranks_equal_brute_force_on_heavy_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(1, 30)))
            x = x.astype(np.float64) * 0.5
            # rank = 1 + count below + half of the other ties
            brute = np.array([1.0 + np.sum(x < v) + 0.5 * (np.sum(x == v) - 1) for v in x])
            assert ME._average_ranks(x).tobytes() == brute.tobytes()

    def test_column_ranks_from_one_sort_equal_brute_force_on_heavy_ties(self):
        """An [N, C] array is ranked with one sort, column by column: each
        row of the [C, N] result is that column's brute-force average rank."""
        rng = np.random.default_rng(15)
        for _ in range(50):
            n, c = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            x = rng.integers(0, int(rng.integers(1, 5)), size=(n, c)) * 0.5
            ranks = ME._average_ranks(x)
            assert ranks.shape == (c, n)
            for col, row in zip(x.T, ranks):
                brute = np.array([1.0 + np.sum(col < v) + 0.5 * (np.sum(col == v) - 1)
                                  for v in col])
                assert row.tobytes() == brute.tobytes()

    def test_evaluate_scores_auc_equals_auc_ovr(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, size=n)
            scores = rng.dirichlet(np.ones(c), size=n).round(int(rng.integers(1, 4)))
            macro, detail = ME.auc_ovr(scores, labels)
            report = ME.evaluate_scores(scores, labels, c)
            assert report.macro_auc == macro
            assert report.per_class["auc"] == detail["auc"]
            assert [f for f in report.flags if "AUC" in f] == detail["flags"]

    def test_single_sided_class_excluded_and_flagged(self):
        scores = np.array([[0.9, 0.1], [0.7, 0.3]])
        macro, detail = ME.auc_ovr(scores, [0, 0])
        assert detail["auc"][1] is None
        assert any("class 1" in f for f in detail["flags"])

    def test_roc_points_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        _, detail = ME.auc_ovr(scores, labels)
        for points in detail["roc"]:
            fprs = [p[0] for p in points]
            tprs = [p[1] for p in points]
            assert fprs == sorted(fprs)
            assert tprs == sorted(tprs)
            assert points[0] == (0.0, 0.0)
            assert points[-1] == (1.0, 1.0)
            assert all(type(v) is float for p in points for v in p)


class TestDecisionCurve:
    def test_hand_net_benefit(self):
        # 50 true positives, 10 false positives out of 100 at threshold 0.5
        labels = np.array([1] * 60 + [0] * 40)
        scores = np.zeros((100, 2))
        scores[:50, 1] = 0.9      # 50 correct positives
        scores[60:70, 1] = 0.9    # 10 false positives
        table = ME.decision_curve(scores, labels, [0.5])
        assert table["per_class"][1][0] == pytest.approx(0.4, abs=1e-12)

    def test_low_threshold_limit_is_prevalence(self):
        labels = np.array([1, 1, 0, 0, 0])
        scores = np.zeros((5, 2))
        scores[:, 1] = 1.0  # everything predicted positive
        table = ME.decision_curve(scores, labels, [1e-9])
        assert table["per_class"][1][0] == pytest.approx(0.4, rel=1e-6)

    def test_all_zero_scores_give_zero_everywhere(self):
        labels = np.array([0, 1, 1])
        scores = np.zeros((3, 2))
        table = ME.decision_curve(scores, labels, [0.25, 0.5, 0.75])
        assert np.allclose(table["per_class"], 0.0)

    def test_threshold_bounds_enforced(self):
        with pytest.raises(ConfigError):
            ME.decision_curve(np.zeros((2, 2)), [0, 1], [1.0])

    def test_net_benefit_bounded_by_prevalence(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=60)
        scores = rng.uniform(size=(60, 2))
        table = ME.decision_curve(scores, labels, np.arange(0.05, 1.0, 0.05))
        for i in range(2):
            prevalence = np.mean(labels == i)
            assert max(table["per_class"][i]) <= prevalence + 1e-12


class TestGradientNorms:
    def _mlp(self):
        cfg = M.MlpConfig(input_dim=4, hidden_dim=8, num_classes=3)
        model = M.MlpClassifier(cfg, dtype=np.float64)
        params = model.init_params(np.random.default_rng(0))
        return model, params

    def test_adaptive_coefficient_scales_norm_ratio_exactly(self):
        model, params = self._mlp()
        x = np.tile(np.array([[0.3, -0.2, 1.0, 0.4]]), (2, 1))
        labels = np.array([1, 1])
        c = 5.5
        out = gradient_norm_by_group(
            model, params, x, labels,
            L.LossConfig(kind="adaptive_focal", gamma=2.0),
            tail=[1], head=[0, 2], coeffs=np.array([c, 0.0]))
        norms = out["per_sample"]
        assert norms[0] / norms[1] == pytest.approx(1 + c, abs=1e-10)

    def test_ce_uniform_logits_identical_norms(self):
        model, params = self._mlp()
        for _, t in params:
            t.data[:] = 0.0  # all logits zero -> softmax uniform
        x = np.random.default_rng(4).normal(size=(6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        out = gradient_norm_by_group(model, params, x, labels,
                                        L.LossConfig(kind="ce"),
                                        tail=[2], head=[0, 1])
        norms = out["per_sample"]
        assert np.max(np.abs(norms - norms[0])) < 1e-12
        # every sample's norm equals ||softmax - onehot|| at uniform softmax
        expected = np.sqrt((1 - 1 / 3) ** 2 + 2 * (1 / 3) ** 2)
        assert norms[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_group_flagged(self):
        model, params = self._mlp()
        x = np.random.default_rng(5).normal(size=(3, 4))
        out = gradient_norm_by_group(model, params, x, np.array([0, 0, 1]),
                                        L.LossConfig(kind="ce"),
                                        tail=[2], head=[0, 1])
        assert out["tail"] is None
        assert out["flags"]


class TestAttentionRollout:
    def test_identity_maps_give_uniform_zero_mask(self):
        n = 4
        maps = [[np.eye(n + 1)]]
        grads = [[np.ones((n + 1, n + 1))]]
        mask = ME.attention_rollout(maps, grads)
        assert mask.shape == (n,)
        assert np.array_equal(mask, np.zeros(n))

    def test_mask_contract_length_and_range(self):
        rng = np.random.default_rng(6)
        n = 5
        maps, grads = [], []
        for _ in range(3):
            layer_m, layer_g = [], []
            for _ in range(2):
                raw = rng.uniform(size=(n + 1, n + 1))
                layer_m.append(raw / raw.sum(axis=1, keepdims=True))
                layer_g.append(rng.normal(size=(n + 1, n + 1)))
            maps.append(layer_m)
            grads.append(layer_g)
        mask = ME.attention_rollout(maps, grads)
        assert mask.shape == (n,)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_two_layer_case_matches_hand_unrolled_product(self):
        rng = np.random.default_rng(7)
        n = 3
        maps, grads = [], []
        for _ in range(2):
            layer_m = [rng.uniform(size=(n + 1, n + 1)) for _ in range(2)]
            layer_m = [m / m.sum(axis=1, keepdims=True) for m in layer_m]
            maps.append(layer_m)
            grads.append([rng.normal(size=(n + 1, n + 1)) for _ in range(2)])
        mask = ME.attention_rollout(maps, grads)

        # independent unroll: fuse, add identity, renormalize, multiply
        mats = []
        for layer_m, layer_g in zip(maps, grads):
            fused = sum(np.maximum(m * g, 0.0) for m, g in zip(layer_m, layer_g)) / 2
            fused = fused + np.eye(n + 1)
            fused = fused / fused.sum(axis=1, keepdims=True)
            mats.append(fused)
        rolled = mats[1] @ mats[0]
        expected = rolled[0, 1:]
        expected = (expected - expected.min()) / (expected.max() - expected.min())
        assert np.max(np.abs(mask - expected)) < 1e-10

    def test_normalized_rows_are_probability_vectors(self):
        rng = np.random.default_rng(8)
        n = 4
        a = rng.uniform(size=(n + 1, n + 1))
        a /= a.sum(axis=1, keepdims=True)
        g = rng.normal(size=(n + 1, n + 1))
        fused = np.maximum(a * g, 0.0) + np.eye(n + 1)
        fused /= fused.sum(axis=1, keepdims=True)
        assert np.all(fused >= 0)
        assert np.max(np.abs(fused.sum(axis=1) - 1.0)) < 1e-6

    def test_missing_gradients_rejected(self):
        maps = [[np.eye(3)]]
        with pytest.raises(ContractError):
            ME.attention_rollout(maps, None)
        with pytest.raises(ContractError):
            ME.attention_rollout(maps, [[None]])

    def test_array_per_layer_equals_list_per_layer(self):
        rng = np.random.default_rng(10)
        n = 4
        maps = [[rng.uniform(size=(n + 1, n + 1)) for _ in range(3)] for _ in range(2)]
        grads = [[rng.normal(size=(n + 1, n + 1)) for _ in range(3)] for _ in range(2)]
        as_lists = ME.attention_rollout(maps, grads)
        as_arrays = ME.attention_rollout([np.stack(m) for m in maps],
                                         [np.stack(g) for g in grads])
        assert as_arrays.tobytes() == as_lists.tobytes()

    def test_bad_array_layers_rejected(self):
        heads = np.full((2, 5, 5), 0.2)
        with pytest.raises(ShapeError):  # no head axis
            ME.attention_rollout([heads[0]], [heads[0]])
        with pytest.raises(ContractError):
            ME.attention_rollout([heads], [heads[:1]])
        with pytest.raises(ContractError):
            ME.attention_rollout([heads[:0]], [heads[:0]])
        with pytest.raises(ContractError):
            ME.attention_rollout([heads], [None])
        for zero_d in (np.float64(0.2), np.array(0.2)):  # no head axis at all
            with pytest.raises(ShapeError):
                ME.attention_rollout([zero_d], [zero_d])
            with pytest.raises(ShapeError):
                ME.attention_rollout([heads], [zero_d])

    def test_rollout_from_model(self):
        cfg = M.ViTConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                          num_heads=2, head_dim=4, ffn_dim=16, num_layers=2,
                          num_classes=3)
        model = M.ViTClassifier(cfg, dtype=np.float64)
        params = model.init_params(np.random.default_rng(9))
        image = np.random.default_rng(9).normal(size=(1, 8, 8))
        mask = ME.grad_rollout_for_sample(model, params, image)
        assert mask.shape == (cfg.num_patches,)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_rollout_seeds_the_logits_and_records_nothing_after_the_forward(self,
                                                                            monkeypatch):
        """The backward starts at the logits, one-hot on the predicted class:
        no tape node follows the forward, and the mask has the bits of the
        class logit sliced out and summed."""
        cfg = M.ViTConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                          num_heads=2, head_dim=4, ffn_dim=16, num_layers=2,
                          num_classes=3)
        model = M.ViTClassifier(cfg, dtype=np.float32)
        params = model.init_params(np.random.default_rng(9))
        image = np.random.default_rng(9).normal(size=(1, 8, 8))
        logits, stack = model.forward_single(params, image)
        c = int(np.argmax(logits.data))
        T.backward(T.sum_(T.slice_axis(logits, 0, c, c + 1)))
        chain = ME.attention_rollout([m.data for m in stack], [m.grad for m in stack])

        recorded, at_forward = [], []
        record, forward = T._record, model.forward_single

        def counting_record(out, parents, vjp):
            recorded.append(out)
            return record(out, parents, vjp)

        def counted_forward(*args):
            result = forward(*args)
            at_forward.append(len(recorded))
            return result

        monkeypatch.setattr(T, "_record", counting_record)
        monkeypatch.setattr(model, "forward_single", counted_forward)
        mask = ME.grad_rollout_for_sample(model, params, image)
        assert at_forward == [len(recorded)] and recorded
        assert mask.tobytes() == chain.tobytes()


class TestEvaluateScores:
    def test_combines_confusion_and_auc(self):
        scores = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
        labels = [0, 1, 0, 1]
        report = ME.evaluate_scores(scores, labels, 2)
        assert report.accuracy == 1.0
        assert report.macro_auc == 1.0
        assert "auc" in report.per_class


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=5, max_value=30),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_trace_identity_property(c, n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, size=n)
    preds = rng.integers(0, c, size=n)
    cm = ME.confusion(preds, labels, c)
    assert cm.accuracy == np.mean(preds == labels)
    assert cm.total == n


class TestBadLabels:
    """auc_ovr and decision_curve once counted a label outside 0..C-1 as a
    negative of every class: auc_ovr(scores, [0, 1, 5]) read 1.0."""

    SCORES = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])

    @pytest.mark.parametrize("labels", [[0, 1, 5], [0, 1, -1], [0, 1, 2], [0, 1],
                                        [0, 1, 1, 0], [[0], [1], [0]], [0.0, 1.0, 0.0]],
                             ids=["above", "negative", "C", "short", "long", "2-d", "float"])
    def test_labels_not_one_class_id_per_row_rejected(self, labels):
        with pytest.raises(ContractError):
            ME.auc_ovr(self.SCORES, labels)
        with pytest.raises(ContractError):
            ME.decision_curve(self.SCORES, labels, [0.5])
        with pytest.raises(ContractError):
            ME.evaluate_scores(self.SCORES, labels, 2)

    def test_decision_curve_without_samples_rejected(self):
        with pytest.raises(ContractError):
            ME.decision_curve(np.zeros((0, 2)), [], [0.5])


_TIED = st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0])


@st.composite
def _scored_labels(draw):
    """N rows of C scores, ties likely, and N labels from a random subset
    of the classes, so some classes may be absent."""
    c = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    value = draw(st.sampled_from([_TIED, st.floats(0.0, 1.0)]))
    scores = draw(st.lists(st.lists(value, min_size=c, max_size=c), min_size=n, max_size=n))
    present = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c, unique=True))
    labels = draw(st.lists(st.sampled_from(present), min_size=n, max_size=n))
    thresholds = draw(st.lists(st.one_of(st.sampled_from([0.125, 0.5, 0.75]),
                                         st.floats(0.01, 0.99)), max_size=4))
    return scores, labels, c, thresholds


class TestEvaluationAgainstDefinitions:
    """Each evaluation output against its definition, counted sample by
    sample in plain Python ints and floats and compared with ==."""

    @given(_scored_labels())
    @settings(max_examples=200, deadline=None)
    def test_class_metrics_and_flags(self, case):
        scores, labels, c, _ = case
        preds = [max(range(c), key=lambda j: (row[j], -j)) for row in scores]
        report = ME.classification_metrics(ME.confusion(ME.predict(np.array(scores)), labels, c))
        expected = {"precision": [], "recall": [], "specificity": [], "f1": []}
        flags = []
        for i in range(c):
            tp = sum(p == i and y == i for p, y in zip(preds, labels))
            fp = sum(p == i and y != i for p, y in zip(preds, labels))
            fn = sum(p != i and y == i for p, y in zip(preds, labels))
            tn = len(labels) - tp - fp - fn
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            expected["precision"].append(precision)
            expected["recall"].append(recall)
            expected["specificity"].append(tn / (tn + fp) if tn + fp else 0.0)
            expected["f1"].append(2 * precision * recall / (precision + recall)
                                  if precision + recall else 0.0)
            if not tp + fp:
                flags.append(f"class {i}: no predicted samples, precision set to 0")
            if not tp + fn:
                flags.append(f"class {i}: no true samples, recall set to 0")
        assert report.per_class == expected
        assert report.flags == flags
        assert report.macro_f1 == pytest.approx(sum(expected["f1"]) / c)

    @given(_scored_labels())
    @settings(max_examples=200, deadline=None)
    def test_auc_and_roc_points(self, case):
        scores, labels, c, _ = case
        macro, detail = ME.auc_ovr(np.array(scores), labels)
        aucs, rocs, flags = [], [], []
        for i in range(c):
            col = [row[i] for row in scores]
            pos = [y == i for y in labels]
            n_pos, n_neg = sum(pos), len(pos) - sum(pos)
            if not n_pos or not n_neg:
                aucs.append(None)
                rocs.append([])
                flags.append(f"class {i}: AUC undefined "
                             f"({'no positives' if not n_pos else 'no negatives'})")
                continue
            aucs.append(brute_force_auc(col, np.array(pos)))
            sweep = [(0.0, 0.0)]
            for s in sorted(set(col), reverse=True):
                hits = [p for x, p in zip(col, pos) if x >= s]
                sweep.append(((len(hits) - sum(hits)) / n_neg, sum(hits) / n_pos))
            rocs.append(sweep)
        assert detail == {"auc": aucs, "roc": rocs, "flags": flags}
        defined = [a for a in aucs if a is not None]
        assert macro == (pytest.approx(sum(defined) / len(defined)) if defined else None)

    @given(_scored_labels())
    @settings(max_examples=200, deadline=None)
    def test_decision_curve(self, case):
        scores, labels, c, thresholds = case
        table = ME.decision_curve(np.array(scores), labels, thresholds)
        n = len(labels)
        per_class = []
        for i in range(c):
            row = []
            for t in thresholds:
                tp = sum(r[i] >= t and y == i for r, y in zip(scores, labels))
                fp = sum(r[i] >= t and y != i for r, y in zip(scores, labels))
                row.append(tp / n - fp / n * (t / (1.0 - t)))
            per_class.append(row)
        assert table["thresholds"] == thresholds
        assert table["per_class"] == per_class
        assert table["macro"] == pytest.approx([sum(col) / c for col in zip(*per_class)])
