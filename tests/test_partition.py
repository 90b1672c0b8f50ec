import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfocal import partition as P
from fedfocal.errors import ConfigError, ContractError, IngestionError
from fedfocal.imbalance import ClassHistogram

# published per-client totals (three clients plus global test) and the
# training-pool class counts they were cut from
TABLE_SPLITS = {
    "isic": ([11768, 4338, 2992, 2363, 959, 226, 221], (10163, 7623, 5081, 2552)),
    "rsna": ([9126, 5215, 4644, 2990, 528], (10002, 7501, 5000, 2507)),
}


def labels_from_counts(counts):
    return np.concatenate([np.full(n, c, dtype=np.int64)
                           for c, n in enumerate(counts)])


class TestLargestRemainder:
    def test_exact_division(self):
        assert P.largest_remainder(10, [0.5, 0.5]) == [5, 5]

    def test_leftovers_follow_fractional_parts(self):
        # 0.4/0.3/0.2/0.1 of 7: exact [2.8, 2.1, 1.4, 0.7], floors [2,2,1,0]
        # leftovers 2 -> largest fractions 0.8 and 0.7
        assert P.largest_remainder(7, [0.4, 0.3, 0.2, 0.1]) == [3, 2, 1, 1]

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.uniform(0, 1, size=rng.integers(1, 6))
            total = int(rng.integers(0, 1000))
            assert sum(P.largest_remainder(total, w)) == total

    def test_within_one_of_exact(self):
        alloc = P.largest_remainder(1000, [0.123, 0.456, 0.421])
        exact = np.array([123.0, 456.0, 421.0])
        assert np.all(np.abs(np.array(alloc) - exact) < 1.0)

    @pytest.mark.parametrize("weights", [[np.nan, 0.5], [np.inf, 0.5], [-0.1, 1.1]])
    def test_non_finite_or_negative_weights_rejected(self, weights):
        with pytest.raises(ContractError, match="finite, nonnegative"):
            P.largest_remainder(10, weights)


class TestPartitionFixed:
    def test_single_client_takes_everything(self):
        labels = labels_from_counts([7, 3])
        shares, _ = P.partition_fixed(labels, [1.0], seed=0)
        assert sorted(shares[0]) == list(range(10))

    def test_exact_split_two_classes(self):
        labels = labels_from_counts([10, 10])
        shares, _ = P.partition_fixed(labels, [0.5, 0.5], seed=1)
        for share in shares:
            hist = ClassHistogram.from_labels(labels[sorted(share)], 2)
            assert hist.counts == (5, 5)

    @pytest.mark.parametrize("name", TABLE_SPLITS)
    def test_published_client_totals_reproduced_exactly(self, name):
        # the three published client columns add up to the training pool;
        # cutting that pool 4:3:2 reproduces each of them exactly
        train_counts, table = TABLE_SPLITS[name]
        labels = labels_from_counts(train_counts)
        shares, _ = P.partition_fixed(labels, [0.4 / 0.9, 0.3 / 0.9, 0.2 / 0.9],
                                      seed=0)
        got = tuple(len(s) for s in shares)
        assert got == table[:3]

    def test_proportionality_within_one_per_class(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(5, 400, size=6)
        ratios = [0.4, 0.35, 0.25]
        labels = labels_from_counts(counts)
        shares, _ = P.partition_fixed(labels, ratios, seed=3)
        for j, share in enumerate(shares):
            hist = ClassHistogram.from_labels(labels[sorted(share)], 6)
            for c in range(6):
                assert abs(hist.counts[c] - ratios[j] * counts[c]) < 1.0

    def test_more_clients_than_samples_warns(self):
        labels = labels_from_counts([2, 50])
        shares, warnings = P.partition_fixed(labels, [0.25, 0.25, 0.25, 0.25], seed=0)
        assert any("class 0" in w for w in warnings)
        assert sum(len(s) for s in shares) == 52


class TestPartitionDirichlet:
    def test_single_client_degenerate(self):
        labels = labels_from_counts([5, 5])
        shares, _ = P.partition_dirichlet(labels, beta=0.5, num_shares=1, seed=0)
        assert sorted(shares[0]) == list(range(10))

    def test_concentration_limit_near_uniform(self):
        # beta -> inf concentrates on equal thirds; check 100 draws
        labels = labels_from_counts([900])
        for seed in range(100):
            shares, _ = P.partition_dirichlet(labels, beta=1e6, num_shares=3, seed=seed)
            sizes = np.array([len(s) for s in shares]) / 900.0
            assert np.all(np.abs(sizes - 1.0 / 3.0) < 0.02), seed

    def test_deterministic_given_seed(self):
        labels = labels_from_counts([40, 25, 11])
        a, _ = P.partition_dirichlet(labels, beta=0.4, num_shares=3, seed=7)
        b, _ = P.partition_dirichlet(labels, beta=0.4, num_shares=3, seed=7)
        assert a == b

    def test_invalid_beta_rejected(self):
        with pytest.raises(ConfigError):
            P.partition_dirichlet(labels_from_counts([4]), beta=0.0, num_shares=2, seed=0)


class TestHoldout:
    def test_tenth_of_one_class(self):
        labels = labels_from_counts([100])
        test = P.holdout_test(labels, 0.1, seed=0)
        assert len(test) == 10

    def test_stratified_within_one_per_class(self):
        counts = [103, 57, 11]
        labels = labels_from_counts(counts)
        test = P.holdout_test(labels, 0.25, seed=1)
        hist = ClassHistogram.from_labels(labels[test], 3)
        for c, n in enumerate(counts):
            assert abs(hist.counts[c] - 0.25 * n) < 1.0

    def test_published_scale_total_within_class_count(self):
        # the published rsna whole (pool plus a stratified 2507-sample test
        # share) at fraction 0.1 yields 2501 +- C; the published test split
        # is 2507 because it is 0.1002 of that whole, not because of rounding
        full = [10143, 5796, 5161, 3323, 587]
        labels = labels_from_counts(full)
        test = P.holdout_test(labels, 0.1, seed=0)
        assert abs(len(test) - 2501) <= len(full)

    def test_fraction_bounds(self):
        with pytest.raises(ContractError):
            P.holdout_test(labels_from_counts([10]), 0.0, seed=0)


class TestBuildPartition:
    def test_exactness_and_histogram_consistency(self):
        counts = [50, 30, 20, 7]
        labels = labels_from_counts(counts)
        spec = P.PartitionSpec(mode="fixed", ratios=(0.5, 0.3, 0.2),
                               num_clients=3, test_fraction=0.1, seed=0)
        result = P.build_partition(labels, spec)
        everything = sorted(i for s in result.client_indices for i in s)
        everything += sorted(result.test_indices)
        assert sorted(everything) == list(range(len(labels)))
        pooled = np.zeros(4, dtype=int)
        for h in result.histograms:
            pooled += np.array(h.counts)
        train_idx = sorted(i for s in result.client_indices for i in s)
        expected = np.bincount(labels[train_idx], minlength=4)
        assert np.array_equal(pooled, expected)

    def test_test_ratio_index_mode(self):
        labels = labels_from_counts([40, 40])
        spec = P.PartitionSpec(mode="fixed", ratios=(0.4, 0.3, 0.2, 0.1),
                               num_clients=3, test_fraction=0.0,
                               test_ratio_index=3, seed=0)
        result = P.build_partition(labels, spec)
        assert len(result.client_indices) == 3
        assert len(result.test_indices) == 8
        assert result.total == 80

    def test_deterministic_manifest_bytes(self):
        labels = labels_from_counts([33, 21, 9])
        spec = P.PartitionSpec(mode="dirichlet", beta=0.5, num_clients=3,
                               test_fraction=0.1, seed=5)
        a = P.manifest_text(P.build_partition(labels, spec))
        b = P.manifest_text(P.build_partition(labels, spec))
        assert a.encode() == b.encode()

    def test_manifest_round_trip(self, tmp_path):
        labels = labels_from_counts([12, 8])
        spec = P.PartitionSpec(mode="fixed", ratios=(0.6, 0.4), num_clients=2,
                               test_fraction=0.2, seed=2)
        result = P.build_partition(labels, spec)
        path = tmp_path / "partition.manifest"
        P.write_manifest(path, result)
        clients, test = P.read_manifest(path)
        assert [sorted(c) for c in clients] == [list(s) for s in result.client_indices]
        assert sorted(test) == list(result.test_indices)

    def test_malformed_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("0\tclient-0\nnot-a-line\n")
        with pytest.raises(IngestionError, match="bad.manifest:2"):
            P.read_manifest(path)

    @pytest.mark.parametrize("body", [b"\xff", b"0\tclient-x\n", b"0\tclient--1\n",
                                      b"-1\ttest\n", b"0\tclient-1000000\n",
                                      b"0\tclient-1000000000\n", b"1_0\ttest\n"],
                             ids=["non-ascii", "client-x", "client-minus-1", "negative-index",
                                  "client-1e6", "client-1e9", "underscore"])
    def test_hostile_manifest_rejected(self, tmp_path, body):
        path = tmp_path / "hostile.manifest"
        path.write_bytes(body)
        with pytest.raises(IngestionError):
            P.read_manifest(path)

    SPLITS = {
        "build": lambda labels, c: P.build_partition(labels, P.PartitionSpec(
            mode="fixed", ratios=(0.5, 0.5), num_clients=2, test_fraction=0.2, seed=0), c),
        "fixed": lambda labels, c: P.partition_fixed(labels, [0.5, 0.5], 0, num_classes=c),
        "dirichlet": lambda labels, c: P.partition_dirichlet(labels, 0.5, 2, 0,
                                                             num_classes=c),
    }

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("fraction", [0.0, 0.5], ids=["integral", "fractional"])
    @pytest.mark.parametrize("num_classes", [None, 3])
    def test_float_labels_rejected(self, num_classes, fraction, split):
        """partition_fixed once dropped a label of 2.5 without a word."""
        labels = labels_from_counts([20, 10, 5]).astype(np.float64)
        labels[-1] += fraction
        with pytest.raises(ContractError, match="integer"):
            self.SPLITS[split](labels, num_classes)

    @pytest.mark.parametrize("split", SPLITS)
    def test_class_count_of_no_labels_rejected(self, split):
        """Inferring it from an empty label array once raised numpy's ValueError."""
        with pytest.raises(ContractError, match="no labels"):
            self.SPLITS[split](np.zeros(0, dtype=np.int64), None)

    def test_negative_label_rejected(self):
        labels = np.append(labels_from_counts([20, 10]), -1)
        spec = P.PartitionSpec(mode="fixed", ratios=(0.5, 0.5), num_clients=2, seed=0)
        with pytest.raises(ContractError, match="-1"):
            P.build_partition(labels, spec, 2)


class TestSpecValidation:
    def test_ratio_sum_tolerance(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            P.PartitionSpec(mode="fixed", ratios=(0.333, 0.333, 0.333),
                            num_clients=3, test_fraction=0.0)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            P.PartitionSpec(mode="fixed", ratios=(1.2, -0.2), num_clients=2)

    def test_dirichlet_needs_beta(self):
        with pytest.raises(ConfigError):
            P.PartitionSpec(mode="dirichlet", beta=None)

    def test_both_test_mechanisms_rejected(self):
        with pytest.raises(ConfigError):
            P.PartitionSpec(mode="fixed", ratios=(0.5, 0.3, 0.1, 0.1),
                            num_clients=3, test_fraction=0.1, test_ratio_index=3)


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_partition_exactness_property(counts, seed):
    labels = labels_from_counts(counts)
    spec = P.PartitionSpec(mode="dirichlet", beta=0.5, num_clients=3,
                           test_fraction=0.25, seed=seed)
    result = P.build_partition(labels, spec)
    everything = [i for s in result.client_indices for i in s]
    everything += list(result.test_indices)
    assert sorted(everything) == list(range(len(labels)))
