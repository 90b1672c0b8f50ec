import numpy as np
import pytest

from fedfocal import data as D
from fedfocal import imbalance as I
from fedfocal.errors import ContractError, IngestionError
from fedfocal.tensor import save_array

ISIC_CLASS_NAMES = ("Vascular lesion", "Pigmented benign keratosis", "Nevus",
                    "Melanoma", "Dermatofibroma", "Actinic keratosis",
                    "Basal cell carcinoma")


class TestBundle:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        bundle = D.DatasetBundle(rng.normal(size=(10, 4)).astype(np.float32),
                                 rng.integers(0, 3, size=10),
                                 ("a", "b", "c"))
        D.save_dataset(tmp_path / "ds", bundle)
        back = D.load_dataset(tmp_path / "ds")
        assert back.features.tobytes() == bundle.features.tobytes()
        assert back.labels.tobytes() == bundle.labels.tobytes()
        assert back.class_names == bundle.class_names

    def test_label_out_of_range_names_first_offender(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        save_array(d / D.FEATURES_FILE, np.zeros((3, 2), dtype=np.float32))
        save_array(d / D.LABELS_FILE, np.array([0, 2, 1], dtype=np.int64))
        (d / D.CLASSES_FILE).write_text("x\ny\n")
        with pytest.raises(IngestionError, match="index 1"):
            D.load_dataset(d)

    def test_missing_file_diagnosed(self, tmp_path):
        with pytest.raises(IngestionError, match="classes.txt"):
            d = tmp_path / "ds"
            d.mkdir()
            save_array(d / D.FEATURES_FILE, np.zeros((1, 2), dtype=np.float32))
            save_array(d / D.LABELS_FILE, np.zeros(1, dtype=np.int64))
            D.load_dataset(d)

    def test_published_seven_class_names_load(self, tmp_path):
        bundle = D.DatasetBundle(np.zeros((7, 3), dtype=np.float32),
                                 np.arange(7), ISIC_CLASS_NAMES)
        D.save_dataset(tmp_path / "isic", bundle)
        back = D.load_dataset(tmp_path / "isic")
        assert back.num_classes == 7
        assert back.class_names == ISIC_CLASS_NAMES

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            D.DatasetBundle(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), ("a",))

    def test_fractional_label_rejected(self):
        """A label of 0.7 was once cast to class 0."""
        with pytest.raises(ContractError, match="integer"):
            D.DatasetBundle(np.zeros((2, 2)), np.array([1, 0.7]), ("a", "b"))


class TestSynthesizers:
    def test_requested_counts_exact(self):
        counts = [588, 217, 150, 48, 11]
        bundle = D.synthesize_longtail(counts, D.BlobSpec(dim=8), seed=0)
        assert bundle.histogram().counts == tuple(counts)

    def test_scaled_published_profile_reproduces_rarity_ranking(self):
        # one twentieth of the 7-class skin-lesion profile keeps the same
        # imbalance-score ordering and approximate values
        full = [11768, 4338, 2992, 2363, 959, 226, 221]
        scaled = [max(1, round(n / 20)) for n in full]
        bundle = D.synthesize_longtail(scaled, D.BlobSpec(dim=8), seed=1)
        counts = bundle.histogram().counts
        total = sum(counts)
        scores = [I.imbalance_score(total, n) for n in counts]
        full_total = sum(full)
        full_scores = [I.imbalance_score(full_total, n) for n in full]
        assert np.argsort(scores).tolist() == np.argsort(full_scores).tolist()
        for got, want in zip(scores, full_scores):
            assert got == pytest.approx(want, rel=0.05)
        tail, _ = I.head_tail_split(scores, 0.3)
        assert tail == [5, 6]

    def test_equal_counts_give_balanced_pool(self):
        bundle = D.synthesize_longtail([40, 40, 40], D.BlobSpec(dim=4), seed=2)
        c = I.client_imbalance(bundle.histogram(), eps=1e-12)
        assert c == pytest.approx(2.0, abs=1e-6)  # C - 1 for balanced pools

    def test_fixed_seed_bit_identical(self):
        a = D.synthesize_longtail([30, 10], D.BlobSpec(dim=5), seed=7)
        b = D.synthesize_longtail([30, 10], D.BlobSpec(dim=5), seed=7)
        assert a.features.tobytes() == b.features.tobytes()

    def test_image_mode_shapes_and_determinism(self):
        spec = D.TileSpec(image_size=16, channels=1, noise=0.1)
        a = D.synthesize_longtail([12, 5, 3], spec, seed=3)
        b = D.synthesize_longtail([12, 5, 3], spec, seed=3)
        assert a.features.shape == (20, 1, 16, 16)
        assert a.is_images
        assert a.features.tobytes() == b.features.tobytes()

    def test_image_size_cap(self):
        with pytest.raises(Exception):
            D.TileSpec(image_size=64)

    def test_zero_count_rejected(self):
        with pytest.raises(ContractError):
            D.synthesize_longtail([5, 0], D.BlobSpec(), seed=0)
