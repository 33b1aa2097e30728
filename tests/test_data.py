import numpy as np
import pytest

from aplt import data
from aplt.errors import (
    DataFormatError,
    DimensionMismatchError,
    InvalidParameterError,
    MissingLabeledClassError,
)


def nearest_mean_accuracy(ds):
    """Independent oracle: classify every sample by its nearest empirical
    class mean (computed from true labels)."""
    means = np.stack([ds.features[ds.true_labels == c].mean(axis=0)
                      for c in range(ds.num_classes)])
    d = np.linalg.norm(ds.features[:, None, :] - means[None, :, :], axis=-1)
    return float((d.argmin(axis=1) == ds.true_labels).mean())


class TestGenerateSynthetic:
    def test_zero_noise_is_separable(self):
        ds = data.generate_synthetic(2, 2, 10, overlap=0.0, seed=7)
        assert ds.n == 20
        assert nearest_mean_accuracy(ds) == 1.0

    def test_hard_instance_sits_between_chance_and_perfect(self):
        # nearest-mean oracle on this instance measured 0.8508 before the
        # band was frozen
        ds = data.generate_synthetic(12, 32, 100, overlap=0.35, seed=1)
        assert ds.n == 1200
        acc = nearest_mean_accuracy(ds)
        assert 1.0 / 12 < acc < 1.0
        assert 0.70 < acc < 0.95

    def test_small_dataset_supports_any_split_above_floor(self):
        ds = data.generate_synthetic(3, 2, 5, overlap=0.1, seed=3)
        split = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.2, seed=0))
        counts = np.bincount(split.true_labels[split.labeled_mask], minlength=3)
        assert (counts >= 1).all()

    def test_fully_labeled_until_split(self):
        ds = data.generate_synthetic(2, 3, 5, 0.0, seed=0)
        assert ds.labeled_mask.all()

    @pytest.mark.parametrize("kwargs", [
        dict(C=1, d=2, n_per_class=10),
        dict(C=2, d=1, n_per_class=10),
        dict(C=2, d=2, n_per_class=0),
        dict(C=2, d=2, n_per_class=-3),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            data.generate_synthetic(overlap=0.1, seed=0, **kwargs)

    def test_min_mean_gap_is_one(self):
        ds = data.generate_synthetic(5, 8, 10, 0.0, seed=4)
        means = np.stack([ds.features[ds.true_labels == c][0] for c in range(5)])
        gaps = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        off = gaps[~np.eye(5, dtype=bool)]
        assert off.min() == pytest.approx(1.0, abs=1e-9)


class TestApplySplit:
    def test_half_ratio_balanced_two_class(self):
        ds = data.generate_synthetic(2, 2, 10, 0.1, seed=0)
        split = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.5, seed=1))
        counts = np.bincount(split.true_labels[split.labeled_mask], minlength=2)
        assert counts.tolist() == [5, 5]

    def test_small_ratio_keeps_every_class(self):
        ds = data.generate_synthetic(12, 32, 100, 0.35, seed=1)
        split = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.1, seed=2))
        counts = np.bincount(split.true_labels[split.labeled_mask], minlength=12)
        assert (counts >= 1).all()

    def test_same_seed_same_mask(self):
        ds = data.generate_synthetic(4, 6, 25, 0.2, seed=5)
        spec = data.SplitSpec(labeled_ratio=0.3, seed=11)
        a = data.apply_split(ds, spec)
        b = data.apply_split(ds, spec)
        assert np.array_equal(a.labeled_mask, b.labeled_mask)

    def test_requires_fully_labeled_input(self):
        ds = data.generate_synthetic(2, 2, 10, 0.1, seed=0)
        split = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.5, seed=0))
        with pytest.raises(InvalidParameterError):
            data.apply_split(split, data.SplitSpec(labeled_ratio=0.5, seed=0))


class TestCsvRoundTrip:
    def test_save_load_exact(self, tmp_path):
        ds = data.generate_synthetic(3, 5, 4, 0.3, seed=9)
        ds = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.5, seed=0))
        path = tmp_path / "ds.csv"
        data.save_csv(ds, path)
        back = data.load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert np.array_equal(back.labeled_mask, ds.labeled_mask)
        assert back.num_classes == ds.num_classes

    def test_dimension_mismatch_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,labeled,f0,f1,f2\n"
                        "0,0,1,1.0,2.0,3.0\n"
                        "1,1,1,1.0,2.0\n")
        with pytest.raises(DimensionMismatchError, match="row 3"):
            data.load_csv(path)

    def test_missing_labeled_class_caught_by_validation(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("id,label,labeled,f0\n"
                        "0,0,1,0.0\n"
                        "1,1,1,1.0\n"
                        "2,2,0,2.0\n"
                        "3,2,0,2.5\n")
        ds = data.load_csv(path)
        assert ds.num_classes == 3
        with pytest.raises(MissingLabeledClassError, match="missing-labeled-class"):
            data.validate_for_training(ds)

    def test_class_index_beyond_expected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("id,label,labeled,f0\n0,0,1,0.0\n1,5,1,1.0\n")
        with pytest.raises(DataFormatError, match="row 3"):
            data.load_csv(path, num_classes=3)

    def test_garbage_value_names_row(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("id,label,labeled,f0\n0,0,1,zero\n")
        with pytest.raises(DataFormatError, match="row 2"):
            data.load_csv(path)


def test_poison_touches_only_unlabeled_labels():
    ds = data.generate_synthetic(4, 3, 30, 0.2, seed=2)
    ds = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.3, seed=0))
    poisoned = data.poison_eval_labels(ds, seed=99)
    lab = ds.labeled_indices()
    unl = ds.unlabeled_indices()
    assert np.array_equal(poisoned.true_labels[lab], ds.true_labels[lab])
    assert not np.array_equal(poisoned.true_labels[unl], ds.true_labels[unl])
    assert np.array_equal(poisoned.features, ds.features)
    assert np.array_equal(poisoned.labeled_mask, ds.labeled_mask)
