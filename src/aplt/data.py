"""Feature-vector datasets: synthetic generation, CSV IO, labeled/unlabeled splits.

A dataset carries every sample's true label, but after a split only the
labeled subset may feed training; the remaining true labels exist purely for
evaluation-time scoring (pseudo-label accuracy, test accuracy). Nothing on
the training path is allowed to read them, and ``poison_eval_labels`` exists
so tests can prove it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DataFormatError,
    DimensionMismatchError,
    InvalidParameterError,
    MissingLabeledClassError,
)


@dataclass
class FeatureDataset:
    features: np.ndarray      # (n, d) float64
    true_labels: np.ndarray   # (n,) int, values in [0, num_classes)
    labeled_mask: np.ndarray  # (n,) bool
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise DimensionMismatchError("features must be a 2-D array")
        if self.true_labels.shape != (n,) or self.labeled_mask.shape != (n,):
            raise DimensionMismatchError("labels/mask length must match feature rows")
        if self.num_classes < 1:
            raise InvalidParameterError("num_classes must be positive")
        if n and (self.true_labels.min() < 0 or self.true_labels.max() >= self.num_classes):
            raise InvalidParameterError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labeled_mask)

    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.labeled_mask)


@dataclass(frozen=True)
class SplitSpec:
    labeled_ratio: float
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not (0.0 < self.labeled_ratio < 1.0):
            raise InvalidParameterError("labeled_ratio must lie in (0, 1)")


def generate_synthetic(C: int, d: int, n_per_class: int, overlap: float,
                       seed: int) -> FeatureDataset:
    """Gaussian-mixture benchmark with a single hardness knob.

    Class means are random unit directions rescaled so the minimum pairwise
    mean distance is exactly 1.0; ``overlap`` is then the per-coordinate
    noise standard deviation, i.e. sigma divided by the closest mean gap.
    The returned dataset is fully labeled; apply a split afterwards.
    """
    if C < 2:
        raise InvalidParameterError("need at least 2 classes")
    if d < 2:
        raise InvalidParameterError("need dimension >= 2")
    if n_per_class < 4:
        raise InvalidParameterError("need at least 4 samples per class")
    if overlap < 0:
        raise InvalidParameterError("overlap must be nonnegative")

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(C, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    gaps = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=-1)
    min_gap = gaps[~np.eye(C, dtype=bool)].min()
    if min_gap < 1e-9:
        # two directions collided; nudge determinism-preservingly by resampling
        return generate_synthetic(C, d, n_per_class, overlap, seed + 104729)
    means = dirs / min_gap

    feats = np.empty((C * n_per_class, d))
    labels = np.empty(C * n_per_class, dtype=np.int64)
    for c in range(C):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        feats[block] = means[c] + overlap * rng.normal(size=(n_per_class, d))
        labels[block] = c
    return FeatureDataset(feats, labels, np.ones(C * n_per_class, dtype=bool), C)


def _per_class_quota(ratio: float, class_size: int) -> int:
    # half-up rounding; round() would banker-round .5 cases
    return max(1, int(np.floor(ratio * class_size + 0.5)))


def apply_split(ds: FeatureDataset, spec: SplitSpec) -> FeatureDataset:
    """Mark a labeled subset; every class keeps at least one labeled sample."""
    if not ds.labeled_mask.all():
        raise InvalidParameterError("apply_split expects a fully labeled dataset")
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros(ds.n, dtype=bool)

    if spec.stratified:
        for c in range(ds.num_classes):
            members = np.flatnonzero(ds.true_labels == c)
            if members.size == 0:
                raise MissingLabeledClassError(f"class {c} has no samples to label")
            take = min(_per_class_quota(spec.labeled_ratio, members.size), members.size)
            mask[rng.choice(members, size=take, replace=False)] = True
    else:
        take = max(1, int(np.floor(spec.labeled_ratio * ds.n + 0.5)))
        mask[rng.choice(ds.n, size=min(take, ds.n), replace=False)] = True
        for c in range(ds.num_classes):
            members = np.flatnonzero(ds.true_labels == c)
            if members.size == 0:
                raise MissingLabeledClassError(f"class {c} has no samples to label")
            if not mask[members].any():
                mask[rng.choice(members)] = True

    if not (~mask).any():
        raise InvalidParameterError("split left no unlabeled samples")
    return replace(ds, labeled_mask=mask)


def validate_for_training(ds: FeatureDataset) -> None:
    """Check the invariants the training pipeline relies on."""
    if not np.isfinite(ds.features).all():
        raise InvalidParameterError("features contain NaN/inf")
    if not ds.labeled_mask.any() or ds.labeled_mask.all():
        raise InvalidParameterError("training needs both labeled and unlabeled samples")
    labeled_classes = np.unique(ds.true_labels[ds.labeled_mask])
    missing = sorted(set(range(ds.num_classes)) - set(labeled_classes.tolist()))
    if missing:
        raise MissingLabeledClassError(
            f"missing-labeled-class: classes {missing} have no labeled sample")


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


# ---------------------------------------------------------------------------
# CSV schema: header  id,label,labeled,f0..f{d-1}
# ---------------------------------------------------------------------------

def save_csv(ds: FeatureDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "labeled"] + [f"f{j}" for j in range(ds.dim)])
        for i in range(ds.n):
            row = [str(i), str(int(ds.true_labels[i])), str(int(ds.labeled_mask[i]))]
            row += [format(v, ".17g") for v in ds.features[i]]
            writer.writerow(row)


def load_csv(path, num_classes: int | None = None) -> FeatureDataset:
    """Load a dataset; infers the class count as max(label)+1 unless given."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file") from None
        if len(header) < 4 or header[:3] != ["id", "label", "labeled"]:
            raise DataFormatError("header must start with id,label,labeled,f0,...")
        d = len(header) - 3
        if header[3:] != [f"f{j}" for j in range(d)]:
            raise DataFormatError("feature columns must be named f0..f{d-1}")

        feats, labels, mask = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 3:
                raise DimensionMismatchError(
                    f"row {rownum}: expected {d} feature columns, got {len(row) - 3}")
            try:
                labels.append(int(row[1]))
                flag = int(row[2])
                feats.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise DataFormatError(f"row {rownum}: {exc}") from None
            if flag not in (0, 1):
                raise DataFormatError(f"row {rownum}: labeled flag must be 0 or 1")
            if labels[-1] < 0:
                raise DataFormatError(f"row {rownum}: negative class index")
            mask.append(bool(flag))

    if not feats:
        raise DataFormatError("file has a header but no data rows")
    labels_arr = np.array(labels, dtype=np.int64)
    C = num_classes if num_classes is not None else int(labels_arr.max()) + 1
    too_big = np.flatnonzero(labels_arr >= C)
    if too_big.size:
        raise DataFormatError(
            f"row {too_big[0] + 2}: class index {labels_arr[too_big[0]]} >= C={C}")
    return FeatureDataset(np.array(feats), labels_arr, np.array(mask, dtype=bool), C)
