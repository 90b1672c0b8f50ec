import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import imbalance as I
from fedfocal.errors import ContractError

from helpers import report_from_text

# published per-class training counts and rarity scores used as fixtures
# throughout the suite: {name: (counts, scores, tail_classes)}
REFERENCE_POOLS = {
    "rsna": ([9126, 5215, 4644, 2990, 528],
             [1.4658, 3.3151, 3.8456, 6.5261, 41.6193],
             [3, 4]),
    "ocular": ([987, 965, 933, 905],
               [2.8399, 2.9275, 3.0622, 3.1878],
               [3]),
    "isic": ([11768, 4338, 2992, 2363, 959, 226, 221],
             [0.9432, 4.2713, 6.6427, 8.6771, 22.8446, 100.1814, 102.4706],
             [5, 6]),
}


class TestClientImbalance:
    def test_balanced_two_class_limit(self):
        # eps -> 0 limit of a balanced histogram is C - 1
        c = I.client_imbalance(I.ClassHistogram((50, 50)), eps=1e-12)
        assert abs(c - 1.0) < 1e-9

    def test_hand_evaluated_90_10(self):
        # ((100-90)/90 + (100-10)/10) / 2 with eps -> 0
        c = I.client_imbalance(I.ClassHistogram((90, 10)), eps=1e-12)
        assert round(c, 4) == 4.5556

    def test_zero_count_class_contributes_total_over_eps(self):
        c = I.client_imbalance(I.ClassHistogram((100, 0)), eps=1e-6)
        term_present = (100 - 100) / (100 + 1e-6)
        term_absent = 100 / 1e-6
        assert c == pytest.approx((term_present + term_absent) / 2)
        assert c == pytest.approx(5.0e7, rel=1e-6)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ContractError):
            I.ClassHistogram(())

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ContractError):
            I.client_imbalance(I.ClassHistogram((1, 2)), eps=0.0)


class TestGlobalClassImbalance:
    def test_published_rsna_pool(self):
        hist = I.ClassHistogram(tuple(REFERENCE_POOLS["rsna"][0]))
        coeffs = I.global_class_imbalance([hist], eps=1e-12)
        assert round(coeffs[4], 4) == 41.6193  # rarest class
        assert round(coeffs[0], 4) == 1.4658
        assert round(coeffs[1], 4) == 3.3151

    def test_two_balanced_clients(self):
        h = I.ClassHistogram((10, 10))
        coeffs = I.global_class_imbalance([h, h], eps=1e-12)
        assert np.allclose(coeffs, [1.0, 1.0])

    def test_mismatched_class_counts_rejected(self):
        with pytest.raises(ContractError):
            I.global_class_imbalance([I.ClassHistogram((1, 2)), I.ClassHistogram((1, 2, 3))])

    def test_pooled_equivalence(self):
        rng = np.random.default_rng(0)
        hists = [I.ClassHistogram(tuple(rng.integers(0, 40, size=5))) for _ in range(4)]
        merged = hists[0]
        for h in hists[1:]:
            merged = merged.merge(h)
        assert I.global_class_imbalance(hists) == I.per_class_ratios(merged)


class TestDynamicCoefficient:
    def test_midpoint_blend(self):
        assert I.dynamic_coefficient(2.0, [0.0, 4.0], true_class=1, blend=0.5) == 3.0

    def test_blend_one_returns_client_coeff(self):
        for t in range(3):
            assert I.dynamic_coefficient(7.0, [1.0, 2.0, 3.0], t, blend=1.0) == 7.0

    def test_blend_zero_returns_published_class_coeff(self):
        hist = I.ClassHistogram(tuple(REFERENCE_POOLS["rsna"][0]))
        coeffs = I.global_class_imbalance([hist], eps=1e-12)
        got = I.dynamic_coefficient(123.0, coeffs, true_class=4, blend=0.0)
        assert round(got, 4) == 41.6193

    def test_class_out_of_range_rejected(self):
        with pytest.raises(ContractError, match="class 2 at index 0 is outside 0..1"):
            I.dynamic_coefficient(1.0, [1.0, 2.0], true_class=2)

    @pytest.mark.parametrize("classes", [-1, [0, 2], [1, -1], 5, 1.0, [0.5, 1.0]])
    def test_out_of_range_classes_rejected(self, classes):
        with pytest.raises(ContractError, match="outside 0..1|integer class ids"):
            I.dynamic_coefficient(1.0, [1.0, 2.0], np.asarray(classes))

    def test_array_of_classes_equals_scalar_calls_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = int(rng.integers(1, 8))
            class_coeffs = (rng.exponential(size=c) * 10.0 ** rng.integers(-3, 4)).tolist()
            client = float(rng.exponential() * 50.0)
            blend = float(rng.choice([0.0, 1.0, rng.uniform()]))
            classes = rng.integers(0, c, size=int(rng.integers(1, 20)))
            got = I.dynamic_coefficient(client, class_coeffs, classes, blend)
            loop = np.array([I.dynamic_coefficient(client, class_coeffs, int(t), blend)
                             for t in classes])
            assert got.dtype == np.float64
            assert got.tobytes() == loop.tobytes()


class TestImbalanceScore:
    @pytest.mark.parametrize("pool", REFERENCE_POOLS)
    def test_published_scores_to_4dp(self, pool):
        counts, scores, _ = REFERENCE_POOLS[pool]
        total = sum(counts)
        for n, expected in zip(counts, scores):
            assert round(I.imbalance_score(total, n), 4) == expected

    def test_single_class_pool_scores_zero(self):
        assert I.imbalance_score(100, 100) == 0.0

    def test_absent_class_rejected(self):
        with pytest.raises(ContractError):
            I.imbalance_score(10, 0)


class TestHeadTailSplit:
    @pytest.mark.parametrize("pool", REFERENCE_POOLS)
    def test_published_tail_labels(self, pool):
        counts, _, expected_tail = REFERENCE_POOLS[pool]
        total = sum(counts)
        scores = [I.imbalance_score(total, n) for n in counts]
        tail, head = I.head_tail_split(scores, 0.3)
        assert tail == expected_tail
        assert sorted(tail + head) == list(range(len(counts)))

    def test_all_equal_scores_tiebreak_low_index(self):
        tail, head = I.head_tail_split([2.0, 2.0, 2.0, 2.0], 0.3)
        assert tail == [0]
        assert head == [1, 2, 3]

    def test_fraction_bounds(self):
        with pytest.raises(ContractError):
            I.head_tail_split([1.0], 0.0)
        with pytest.raises(ContractError):
            I.head_tail_split([1.0], 1.0)


class TestInvariants:
    def test_scale_invariance(self):
        eps = I.DEFAULT_EPS
        hist = I.ClassHistogram((40, 25, 10, 3))
        base = I.client_imbalance(hist, eps)
        for m in (2, 7, 100):
            scaled = I.ClassHistogram(tuple(m * c for c in hist.counts))
            drift = abs(I.client_imbalance(scaled, eps) - base)
            assert drift < 10 * eps * hist.num_classes

    def test_monotonicity_moving_sample_to_smallest(self):
        counts = [60, 25, 5]
        before = I.client_imbalance(I.ClassHistogram(tuple(counts)), eps=1e-9)
        counts[0] -= 1
        counts[2] += 1
        after = I.client_imbalance(I.ClassHistogram(tuple(counts)), eps=1e-9)
        assert after < before

    def test_report_round_trip(self):
        report = I.ImbalanceReport({1: 1.5, 4: 2.25}, [0.5, 3.0, 41.6193],
                                   epsilon=1e-6, blend=0.5)
        back = report_from_text(report.to_text())
        assert back.client_coeffs == report.client_coeffs
        assert back.class_coeffs == report.class_coeffs
        assert back.epsilon == report.epsilon
        assert back.blend == report.blend

    def test_report_rejects_negative_coeffs(self):
        with pytest.raises(ContractError):
            I.ImbalanceReport({0: -1.0}, [0.0], 1e-6, 0.5)

    @pytest.mark.parametrize("labels", [np.array([0, -1]), np.array([0.0, 1.0]),
                                        np.array([0, 3]), np.array([[0], [1]])],
                             ids=["negative", "float", "C", "2-d"])
    def test_histogram_rejects_labels_that_are_not_class_ids(self, labels):
        with pytest.raises(ContractError):
            I.ClassHistogram.from_labels(labels, 3)

    @pytest.mark.parametrize("labels", [np.zeros(0, dtype=np.int64), []], ids=["i64", "list"])
    def test_histogram_of_no_labels_is_all_zero(self, labels):
        assert I.ClassHistogram.from_labels(labels, 3).counts == (0, 0, 0)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_client_imbalance_nonnegative_property(counts):
    c = I.client_imbalance(I.ClassHistogram(tuple(counts)))
    assert c >= 0.0
    assert np.isfinite(c)


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=2, max_size=6)
       .filter(lambda cs: sum(cs) > 0),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_pooled_equivalence_property(counts, k):
    # splitting a pool across k clients never changes the pooled statistic
    rng = np.random.default_rng(sum(counts) + k)
    shares = [np.zeros(len(counts), dtype=int) for _ in range(k)]
    for i, c in enumerate(counts):
        alloc = rng.multinomial(c, np.full(k, 1.0 / k))
        for j in range(k):
            shares[j][i] = alloc[j]
    hists = [I.ClassHistogram(tuple(s)) for s in shares]
    pooled = I.ClassHistogram(tuple(counts))
    assert I.global_class_imbalance(hists) == I.per_class_ratios(pooled)
