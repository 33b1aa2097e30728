"""A dataset copy for the leakage guard's tests."""

from dataclasses import replace

import numpy as np

from aplt.data import FeatureDataset


def poison_eval_labels(ds: FeatureDataset, seed: int = 0) -> FeatureDataset:
    """Randomize the true labels of unlabeled samples (leakage-guard harness).

    Training-path outputs must be bit-identical on the poisoned copy; only
    evaluation metrics may move.
    """
    rng = np.random.default_rng(seed)
    labels = ds.true_labels.copy()
    unl = ds.unlabeled_indices()
    labels[unl] = rng.integers(0, ds.num_classes, size=unl.size)
    return replace(ds, true_labels=labels)
