"""Feature-vector datasets: synthetic generation, CSV IO, labeled/unlabeled splits.

A dataset CSV holds one record per line with its fields split at commas and
no quoting, so a load error names the physical line the parser stopped on.

A dataset carries every sample's true label, but after a split only the
labeled subset may feed training; the remaining true labels exist purely for
evaluation-time scoring (pseudo-label accuracy, test accuracy). A run hands
them to its held-out probe (``engine._HeldOut``) and to nothing else; the
leakage tests check it on copies whose held-out labels are scrambled.
"""

from __future__ import annotations

import warnings
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

    def __post_init__(self):
        if not (0.0 < self.labeled_ratio < 1.0):
            raise InvalidParameterError("labeled_ratio must lie in (0, 1)")
        if self.seed < 0:
            raise InvalidParameterError(f"split seed must be nonnegative, got {self.seed}")


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
    if not 0 <= overlap < np.inf:
        raise InvalidParameterError(f"overlap must be finite and nonnegative, got {overlap}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be nonnegative, got {seed}")

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(C, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # one class at a time against the later ones: no (C, C, d) difference tensor
    min_gap = min(np.linalg.norm(dirs[c + 1:] - dirs[c], axis=1).min() for c in range(C - 1))
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

    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.true_labels == c)
        if members.size == 0:
            raise MissingLabeledClassError(f"class {c} has no samples to label")
        take = min(_per_class_quota(spec.labeled_ratio, members.size), members.size)
        mask[rng.choice(members, size=take, replace=False)] = True
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


# ---------------------------------------------------------------------------
# CSV schema: header  id,label,labeled,f0..f{d-1}
# ---------------------------------------------------------------------------

def save_csv(ds: FeatureDataset, path) -> None:
    """One header line, then ``id,label,labeled,f0,...`` per sample with
    every feature as ``%.17g``, which reads back to the same float64."""
    line = ",".join(["%d"] * 3 + ["%.17g"] * ds.dim) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id", "label", "labeled"] + [f"f{j}" for j in range(ds.dim)]) + "\n")
        labels, flags = ds.true_labels.tolist(), ds.labeled_mask.tolist()
        for i, values in enumerate(ds.features):
            fh.write(line % (i, labels[i], flags[i], *values.tolist()))


# Budget for one block of parsed records in ``load_csv``.
_BLOCK_BYTES = 1 << 20

# Bytes per read when ``load_csv`` counts lines. Reads of 1 MiB and their
# masks raised the peak RSS of a run on a 1,200-row file by about 1 MiB;
# 64 KiB reads did not, and counted fastest of 16 KiB to 1 MiB.
_READ_BYTES = 1 << 16


def _parse_rows(lines, dtype, max_rows=None):
    """Data lines (an iterable of strings) parsed to ``dtype`` records, at
    most ``max_rows`` of them. Integer columns reject ``1.0``, a quote is
    part of its field, and empty lines are skipped and not counted. numpy
    reads one line at a time: it reads no line past the last record it
    returns and stops on the line it fails on."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar=None,
                          comments=None, ndmin=1, max_rows=max_rows)


def _count_lines(path) -> int:
    """Lines in the file as text mode splits them (at \\n, \\r\\n or \\r),
    counting an unterminated last line. A \\r\\n that straddles two reads
    counts twice, so this is never fewer than the lines a parse sees."""
    lines, last = 0, b"\n"
    with open(path, "rb") as raw:
        while chunk := raw.read(_READ_BYTES):
            codes = np.frombuffer(chunk, dtype=np.uint8)
            lines += np.count_nonzero(codes == ord("\n"))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            last = chunk[-1:]
    return lines + (last not in b"\r\n")


def _numbered(fh, last: list, blanks: list):
    """The lines after the header as the parser reads them; ``last`` keeps
    the number and text of the last one read, ``blanks`` each blank's number."""
    for lineno, line in enumerate(fh, start=2):
        last[:] = lineno, line
        if line == "\n":
            blanks.append(lineno)
        yield line


def _line_error(path, lineno: int, line: str, names: list) -> ValueError:
    """The error that a data line which does not parse on its own is reported as."""
    row = line.rstrip("\n").split(",")
    if len(row) != len(names):
        return DimensionMismatchError(f"{path}: row {lineno}: expected {len(names) - 3} "
                                      f"feature columns, got {max(len(row) - 3, 0)}")
    for name, value in zip(names, row):
        kind = np.dtype(np.float64 if name.startswith("f") else np.int64)
        try:
            parsed = _parse_rows([value], kind).size == 1  # an empty field is no row
        except ValueError:
            parsed = False
        if not parsed:
            return DataFormatError(f"{path}: row {lineno}: column {name}: cannot parse "
                                   f"{value!r} as {kind.name}")
    return DataFormatError(f"{path}: row {lineno}: cannot parse the line")


def _first_problem(rows, num_classes: int | None):
    """(index, problem) of the first parsed record whose flag, label or
    features break the schema, or None. An inferred class count (the
    largest label plus one) is never too small, so only a given one is
    checked."""
    labels, flags = rows["label"], rows["labeled"]
    bad_flag = (flags != 0) & (flags != 1)
    negative = labels < 0
    non_finite = ~np.isfinite(rows["f"]).all(axis=1)
    bad = bad_flag | negative | non_finite
    if num_classes is not None:
        bad |= labels >= num_classes
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if bad_flag[k]:
        return k, "labeled flag must be 0 or 1"
    if negative[k]:
        return k, "negative class index"
    if non_finite[k]:
        return k, "features must be finite"
    return k, f"class index {labels[k]} >= C={num_classes}"


def load_csv(path, num_classes: int | None = None) -> FeatureDataset:
    """Load a dataset; infers the class count as max(label)+1 unless given.

    The data lines are parsed in blocks of about ``_BLOCK_BYTES`` of records
    straight into arrays sized from a line count, so a load holds the rows
    once plus one block. A line that does not parse is reported before a
    value that breaks the schema, as one parse of the whole file would.
    Every error names the file, and its physical line number as
    ``PATH: row N`` where one is at fault: the line the parser stopped on,
    or a bad record's index plus the blank lines before it. The file is
    not read again to find it. A file that is not UTF-8 text is a
    DataFormatError too."""
    try:
        return _load_rows(path, num_classes)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_rows(path, num_classes: int | None) -> FeatureDataset:
    """``load_csv`` of a file that decodes as UTF-8."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise DataFormatError(f"{path}: empty file")
        header = first.rstrip("\n").split(",")
        if len(header) < 4 or header[:3] != ["id", "label", "labeled"]:
            raise DataFormatError(f"{path}: header must start with id,label,labeled,f0,...")
        d = len(header) - 3
        if header[3:] != [f"f{j}" for j in range(d)]:
            raise DataFormatError(f"{path}: feature columns must be named f0..f{{d-1}}")
        dtype = np.dtype([("id", np.int64), ("label", np.int64), ("labeled", np.int64),
                          ("f", np.float64, (d,))])
        size = _count_lines(path) - 1  # the header is one line
        feats = np.empty((size, d))
        labels = np.empty(size, dtype=np.int64)
        labeled = np.empty(size, dtype=bool)
        block = max(1, _BLOCK_BYTES // dtype.itemsize)
        last, blanks = [1, first], []
        lines = _numbered(fh, last, blanks)
        n, problem = 0, None
        while n < size:
            want = min(block, size - n)
            try:
                rows = _parse_rows(lines, dtype, want)
            except UnicodeDecodeError:
                raise
            except ValueError:
                raise _line_error(path, *last, header) from None
            got = rows.size
            feats[n:n + got] = rows["f"]
            labels[n:n + got] = rows["label"]
            labeled[n:n + got] = rows["labeled"] == 1
            if problem is None and (found := _first_problem(rows, num_classes)):
                problem = (n + found[0], found[1])
            del rows  # so the next block parses without this one alive
            n += got
            if got < want:  # the file ended
                break

    if not n:
        raise DataFormatError(f"{path}: file has a header but no data rows")
    if problem is not None:
        k, what = problem
        lineno = 2 + k  # record k's line, one later for each blank line up to it
        for blank in blanks:
            if blank <= lineno:
                lineno += 1
        raise DataFormatError(f"{path}: row {lineno}: {what}")
    if n < size:  # blank lines were counted; no view of these arrays exists
        for a in (feats, labels, labeled):
            a.resize((n,) + a.shape[1:], refcheck=False)
    C = num_classes if num_classes is not None else int(labels.max()) + 1
    return FeatureDataset(feats, labels, labeled, C)
