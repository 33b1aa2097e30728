import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from aplt import data
from aplt.errors import (
    DataFormatError,
    DimensionMismatchError,
    InvalidParameterError,
    MissingLabeledClassError,
)
from data_helpers import poison_eval_labels


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
        dict(C=2, d=2, n_per_class=10, overlap=-0.1),
        dict(C=2, d=2, n_per_class=10, overlap=float("nan")),
        dict(C=2, d=2, n_per_class=10, overlap=float("inf")),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            data.generate_synthetic(**{"overlap": 0.1, "seed": 0, **kwargs})

    def test_min_mean_gap_is_one(self):
        ds = data.generate_synthetic(5, 8, 10, 0.0, seed=4)
        means = np.stack([ds.features[ds.true_labels == c][0] for c in range(5)])
        gaps = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        off = gaps[~np.eye(5, dtype=bool)]
        assert off.min() == pytest.approx(1.0, abs=1e-9)

    def test_gap_search_holds_no_class_by_class_tensor(self):
        C, d = 500, 32
        tracemalloc.start()
        try:
            ds = data.generate_synthetic(C, d, 4, 0.25, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.num_classes == C
        # a (C, C, d) difference tensor alone would be 64 MB
        assert peak < 4 * ds.features.nbytes


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


def csv_writer_reference(ds, path):
    """The writer save_csv replaced: csv.writer with format(v, ".17g")."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "labeled"] + [f"f{j}" for j in range(ds.dim)])
        for i in range(ds.n):
            row = [str(i), str(int(ds.true_labels[i])), str(int(ds.labeled_mask[i]))]
            row += [format(v, ".17g") for v in ds.features[i]]
            writer.writerow(row)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_save_bytes_equal_csv_writer(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(0, 60)), int(rng.integers(1, 9))
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0,
                            2.0 ** 53, 0.1, 1e-310, np.finfo(float).max])
        features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
        pick = rng.random((n, d)) < 0.4
        features[pick] = rng.choice(special, size=int(pick.sum()))
        ds = data.FeatureDataset(features, rng.integers(0, 5, size=n),
                                 rng.random(n) < 0.5, 5)
        data.save_csv(ds, tmp_path / "new.csv")
        csv_writer_reference(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = data.load_csv(tmp_path / "new.csv")
        assert back.features.tobytes() == ds.features.tobytes()

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

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (9, 1), (40, 3), (200, 7)])
    def test_round_trip_is_bit_identical(self, tmp_path, n, d):
        rng = np.random.default_rng(n * 10 + d)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3, 1e300, -1e300,
                            np.finfo(np.float64).max, 1e-300])
        feats = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
        pick = rng.random((n, d)) < 0.3
        feats[pick] = rng.choice(special, size=int(pick.sum()))
        C = 4
        ds = data.FeatureDataset(feats, rng.integers(0, C, size=n),
                                 rng.random(n) < 0.5, C)
        path = tmp_path / "ds.csv"
        data.save_csv(ds, path)
        lines = path.read_text().splitlines(keepends=True)
        for at in sorted(rng.integers(1, len(lines) + 1, size=3), reverse=True):
            lines.insert(at, "\n")  # blank lines anywhere after the header
        path.write_text("".join(lines))
        back = data.load_csv(path, num_classes=C)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.true_labels.tobytes() == ds.true_labels.tobytes()
        assert back.labeled_mask.tobytes() == ds.labeled_mask.tobytes()
        assert back.features.flags.c_contiguous

    @pytest.mark.parametrize("body,num_classes,error,message", [
        ("0,0,1,1,2\n\n1,1,1,1\n", None, DimensionMismatchError,
         "row 4: expected 2 feature columns, got 1"),
        ("0,0,1,1,2\n1,0,1,zero,2\n", None, DataFormatError,
         "row 3: column f0: cannot parse 'zero' as float64"),
        ("0,0,1,1,\n", None, DataFormatError,
         "row 2: column f1: cannot parse '' as float64"),
        ("\n0,1.0,1,1,2\n", None, DataFormatError,
         "row 3: column label: cannot parse '1.0' as int64"),
        ("0,0,1,1,2\n1,0,2,1,2\n", None, DataFormatError,
         "row 3: labeled flag must be 0 or 1"),
        ("\n\n0,-1,1,1,2\n", None, DataFormatError, "row 4: negative class index"),
        ("", None, DataFormatError, "file has a header but no data rows"),
        ("\n\n", None, DataFormatError, "file has a header but no data rows"),
        ("0,0,1,1,2\n  \n", None, DimensionMismatchError,
         "row 3: expected 2 feature columns, got 0"),
        ("0,0,1,nan,2\n", None, DataFormatError, "row 2: features must be finite"),
        ("0,0,1,1,2\n\n1,0,1,1,inf\n", None, DataFormatError,
         "row 4: features must be finite"),
        ("0,0,1,1,2\n\n1,5,1,1,2\n", 3, DataFormatError, "row 4: class index 5 >= C=3"),
    ], ids=["width_after_blank", "garbage", "empty_field", "float_label", "flag_2",
            "negative_label", "header_only", "header_and_blank_lines", "whitespace_line",
            "nan", "inf", "class_after_blank"])
    def test_malformed_file_names_physical_row(self, tmp_path, body, num_classes,
                                               error, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,labeled,f0,f1\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning must not leak
            with pytest.raises(error) as info:
                data.load_csv(path, num_classes=num_classes)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header,body,message", [
        ("id,label,labeled,f0,f1", '0,0,1,1,2\n4,0,1,"1.5",2\n',
         "row 3: column f0: cannot parse '\"1.5\"' as float64"),
        ('id,label,labeled,"f0","f1"', "0,0,1,1,2\n",
         "feature columns must be named f0..f{d-1}"),
    ], ids=["quoted_field", "quoted_header"])
    def test_a_quote_is_part_of_its_field(self, tmp_path, header, body, message):
        path = tmp_path / "quoted.csv"
        path.write_text(header + "\n" + body)
        with pytest.raises(DataFormatError) as info:
            data.load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_load_memory_is_a_small_multiple_of_the_features(self, tmp_path):
        """The rows once, plus one parse block of about 1 MiB: with 40,000 x
        32 features (10 MB) that is about 1.16x them, where a whole-file
        record array and a contiguous copy came to 2.2x."""
        n, d, distinct = 40_000, 32, 100
        rng = np.random.default_rng(0)
        ds = data.FeatureDataset(rng.normal(size=(distinct, d)),
                                 rng.integers(0, 100, size=distinct),
                                 rng.random(distinct) < 0.1, 100)
        path = tmp_path / "big.csv"
        data.save_csv(ds, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rows) * (n // distinct))
        tracemalloc.start()
        try:
            back = data.load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.n == n
        assert back.features[-distinct:].tobytes() == ds.features.tobytes()
        assert peak <= 1.2 * back.features.nbytes

    def test_line_count_reads_the_file_in_small_pieces(self, tmp_path):
        """A 1,200 x 32 file (0.8 MB) fits in one parse block, so the peak is
        the arrays and the block's records, about 2.6x the features. Counting
        lines in 1 MiB reads held the whole file and a mask of it: 6x."""
        n, d = 1200, 32
        rng = np.random.default_rng(1)
        ds = data.FeatureDataset(rng.normal(size=(n, d)), rng.integers(0, 12, size=n),
                                 rng.random(n) < 0.1, 12)
        data.save_csv(ds, tmp_path / "small.csv")
        tracemalloc.start()
        try:
            data.load_csv(tmp_path / "small.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ds.features.nbytes


def write_rows(path, rows, line_end="\n"):
    """A two-feature CSV of ``rows`` (strings, "" for a blank line)."""
    path.write_bytes(line_end.join(["id,label,labeled,f0,f1", *rows, ""]).encode())


def good_row(i, label=0):
    return f"{i},{label},{i % 2},{i * 0.5},{-i / 3}"


class TestLoadBlocks:
    """Files longer than one parse block; ``block_of_two`` shrinks the block
    to two records, so each case spans several, and the line count to reads
    of 7 bytes, so some reads split a CR LF pair."""

    @pytest.fixture
    def block_of_two(self, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * (24 + 8 * 2))
        monkeypatch.setattr(data, "_READ_BYTES", 7)

    def test_blank_run_longer_than_a_block_is_not_the_end(self, tmp_path, block_of_two):
        rows = [good_row(i) for i in range(3)] + [""] * 7 + [good_row(i) for i in range(3, 8)]
        write_rows(tmp_path / "gap.csv", rows)
        ds = data.load_csv(tmp_path / "gap.csv")
        assert ds.n == 8
        assert ds.features[:, 0].tolist() == [i * 0.5 for i in range(8)]
        assert ds.features.flags.c_contiguous and ds.features.flags.owndata

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_line_end_loads_the_same_arrays(self, tmp_path, line_end, block_of_two):
        rng = np.random.default_rng(5)
        ds = data.FeatureDataset(rng.normal(size=(9, 2)), rng.integers(0, 3, size=9),
                                 rng.random(9) < 0.5, 3)
        data.save_csv(ds, tmp_path / "lf.csv")
        lines = (tmp_path / "lf.csv").read_text().splitlines()
        lines.insert(4, "")
        (tmp_path / "ends.csv").write_bytes(line_end.join(lines).encode())  # no final break
        back = data.load_csv(tmp_path / "ends.csv")
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.true_labels.tobytes() == ds.true_labels.tobytes()
        assert back.labeled_mask.tobytes() == ds.labeled_mask.tobytes()

    @pytest.mark.parametrize("bad,num_classes,error,message", [
        ("7,0,1,1.5", None, DimensionMismatchError, "row 11: expected 2 feature columns, got 1"),
        ("7,0,1,1.5,x", None, DataFormatError, "row 11: column f1: cannot parse 'x' as float64"),
        ("7,0,3,1.5,2", None, DataFormatError, "row 11: labeled flag must be 0 or 1"),
        ("7,4,1,1.5,2", 3, DataFormatError, "row 11: class index 4 >= C=3"),
        ("7,0,1,1.5,-inf", None, DataFormatError, "row 11: features must be finite"),
    ], ids=["width", "value", "flag", "class", "non_finite"])
    def test_later_block_error_names_its_physical_line(self, tmp_path, block_of_two, bad,
                                                       num_classes, error, message):
        rows = [good_row(i) for i in range(4)] + ["", ""] + [good_row(i) for i in range(4, 7)]
        write_rows(tmp_path / "late.csv", rows + [bad, good_row(8)])
        with pytest.raises(error) as info:
            data.load_csv(tmp_path / "late.csv", num_classes=num_classes)
        assert str(info.value) == f"{tmp_path / 'late.csv'}: {message}"

    def test_earlier_class_error_beats_later_non_finite_in_one_block(self, tmp_path,
                                                                     block_of_two):
        rows = [good_row(0), good_row(1), good_row(2, label=5), "3,0,1,nan,1"]
        write_rows(tmp_path / "both.csv", rows)
        with pytest.raises(DataFormatError) as info:
            data.load_csv(tmp_path / "both.csv", num_classes=3)
        assert str(info.value).endswith(": row 4: class index 5 >= C=3")

    def test_a_line_that_does_not_parse_is_reported_first(self, tmp_path, block_of_two):
        """As one parse of the whole file did: a bad flag in the first block
        waits until every later block has parsed."""
        rows = [good_row(0), "1,0,2,1,1"] + [good_row(i) for i in range(2, 6)] + ["6,0,1,1"]
        write_rows(tmp_path / "order.csv", rows)
        with pytest.raises(DimensionMismatchError, match=": row 8: expected 2 feature columns"):
            data.load_csv(tmp_path / "order.csv")

    @pytest.mark.parametrize("rows,records,line", [
        (['0,0,1,"1.5', '",2', good_row(1), "3,0,3,1,2"], 2, 2),
        ([good_row(0), '1,0,1,"1.5', '",2', good_row(2), "3,0,1,x,2"], 2, 3),
        ([good_row(0), '1,0,1,"1.5', '",2', "2,0,1,x,2"], None, 3),
    ], ids=["bad_flag_later", "bad_value_later", "default_block"])
    def test_a_field_does_not_run_over_to_the_next_line(self, tmp_path, monkeypatch,
                                                        rows, records, line):
        """A quote does not carry a field over a line break, so the first
        line of a would-be quoted field over two lines is the one named,
        whatever the block size and whatever breaks later."""
        if records is not None:
            monkeypatch.setattr(data, "_BLOCK_BYTES", records * (24 + 8 * 2))
        write_rows(tmp_path / "spill.csv", rows)
        with pytest.raises(DimensionMismatchError) as info:
            data.load_csv(tmp_path / "spill.csv")
        assert str(info.value) == (f"{tmp_path / 'spill.csv'}: row {line}: "
                                   "expected 2 feature columns, got 1")

    def test_parse_error_reparses_only_the_failing_block(self, tmp_path, block_of_two,
                                                         monkeypatch):
        rows = [good_row(i) for i in range(9)] + ["9,0,1,1.5,x"]
        write_rows(tmp_path / "tail.csv", rows)
        parsed = []
        parse = data._parse_rows

        def counting(lines, dtype, max_rows=None):
            parsed.append((isinstance(lines, list), dtype.names is not None))
            return parse(lines, dtype, max_rows)

        monkeypatch.setattr(data, "_parse_rows", counting)
        with pytest.raises(DataFormatError, match=": row 11: column f1: cannot parse 'x'"):
            data.load_csv(tmp_path / "tail.csv")
        # five blocks of two records, then the bad line's five values one at
        # a time; no line of the failing block is parsed again
        assert parsed.count((False, True)) == 5
        assert parsed.count((True, True)) == 0
        assert parsed.count((True, False)) == 5


def test_parse_error_in_a_large_block_parses_only_the_bad_lines_columns(tmp_path,
                                                                        monkeypatch):
    """A block of 1,024 records with a bad value on its last line: naming
    it takes the bad line's columns one at a time, and no parse of the
    block's lines again."""
    block = 1024
    monkeypatch.setattr(data, "_BLOCK_BYTES", block * (24 + 8 * 2))
    write_rows(tmp_path / "tail.csv", [good_row(i) for i in range(2 * block - 1)]
               + [f"{2 * block - 1},0,1,1.5,abc"])
    calls = []
    parse = data._parse_rows

    def counting(lines, dtype, max_rows=None):
        calls.append((isinstance(lines, list), dtype.names is not None))
        return parse(lines, dtype, max_rows)

    monkeypatch.setattr(data, "_parse_rows", counting)
    with pytest.raises(DataFormatError) as info:
        data.load_csv(tmp_path / "tail.csv")
    assert str(info.value) == (f"{tmp_path / 'tail.csv'}: row {2 * block + 1}: "
                               "column f1: cannot parse 'abc' as float64")
    assert calls.count((False, True)) == 2  # the two blocks, from the file
    assert calls.count((True, True)) == 0
    assert calls.count((True, False)) == 5  # id, label, labeled, f0, f1


TWO_FEATURES = np.dtype([("id", np.int64), ("label", np.int64), ("labeled", np.int64),
                         ("f", np.float64, (2,))])


def counted(lines, read):
    """``lines`` one at a time, appending each to ``read`` as it is read."""
    for line in lines:
        read.append(line)
        yield line


def test_parse_reads_exactly_the_lines_of_its_records():
    """load_csv names a line from what numpy has read, so numpy must read
    no line past the last record of a block, blank lines included."""
    lines = ["\n", "0,0,1,1,2\n", "\n", "1,0,1,1,2\n", "2,0,1,1,2\n", "\n", "\n",
             "3,0,1,1,2\n", "\n"]
    read = []
    source = counted(lines, read)
    for want, ids, upto in ((1, [0], 2), (2, [1, 2], 5), (2, [3], 9)):
        rows = data._parse_rows(source, TWO_FEATURES, want)
        assert rows["id"].tolist() == ids
        assert read == lines[:upto]


@pytest.mark.parametrize("bad", ["1,0,1,x,2", "1,0,1,1", "1,0,1,1,2,3", "1.0,0,1,1,2",
                                 "1,0,1,,2"],
                         ids=["value", "short_row", "long_row", "float_in_int", "empty"])
def test_parse_stops_on_the_line_it_fails_on(bad):
    lines = ["0,0,1,1,2\n", "\n", bad + "\n", "2,0,1,1,2\n", "3,0,1,1,2\n"]
    read = []
    with pytest.raises(ValueError):
        data._parse_rows(counted(lines, read), TWO_FEATURES, 4)
    assert read == lines[:3]


def line_by_line_outcome(path, num_classes):
    """What loading a two-feature file should give, found one line at a
    time: the error of the first non-empty data line that does not parse
    on its own (named by ``_line_error``), else that of the first record
    that breaks the schema, else the features, labels and labeled mask as
    bytes."""
    names = ["id", "label", "labeled", "f0", "f1"]
    with open(path, encoding="utf-8") as fh:
        lines = list(enumerate(fh, start=1))[1:]
    records = []
    for lineno, line in lines:
        if line == "\n":
            continue
        try:
            records.append((lineno, data._parse_rows([line], TWO_FEATURES)[0]))
        except ValueError:
            exc = data._line_error(path, lineno, line, names)
            return type(exc), str(exc)
    if not records:
        return DataFormatError, f"{path}: file has a header but no data rows"
    for lineno, record in records:
        label, flag = int(record["label"]), int(record["labeled"])
        if flag not in (0, 1):
            what = "labeled flag must be 0 or 1"
        elif label < 0:
            what = "negative class index"
        elif not np.isfinite(record["f"]).all():
            what = "features must be finite"
        elif num_classes is not None and label >= num_classes:
            what = f"class index {label} >= C={num_classes}"
        else:
            continue
        return DataFormatError, f"{path}: row {lineno}: {what}"
    return (np.array([r["f"] for _, r in records]).tobytes(),
            np.array([r["label"] for _, r in records], dtype=np.int64).tobytes(),
            np.array([r["labeled"] == 1 for _, r in records]).tobytes())


def load_outcome(path, num_classes):
    """``load_csv``'s error as (type, message), or its arrays as bytes."""
    try:
        ds = data.load_csv(path, num_classes)
    except (DataFormatError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return ds.features.tobytes(), ds.true_labels.tobytes(), ds.labeled_mask.tobytes()


# lines a malformed file is made of besides good rows. A quote is part of
# its field, so every quoted line is a bad line, and '5,0,1,"1.5' with
# '",2' is two bad lines, not one row.
FUZZ_LINES = ["", "  ", "1,0,1,x,2", "2,0,1,1.5", "3,0,1,1,2,4", '4,0,1,"1.5",2',
              '5,0,1,"1.5', '",2', '5,0,1,"1.5\n",2', '5,0,1,"1.5,2', '"', "6,1.0,1,1,2",
              "8,0,1,1,-2"]

# lines that parse but break the schema of a file with 3 classes
SCHEMA_LINES = ["7,0,2,1,2", "7,-1,1,1,2", "7,0,1,nan,2", "7,3,1,1,2"]


@pytest.mark.parametrize("seed", range(60))
def test_parse_error_equals_a_line_by_line_search(tmp_path, monkeypatch, seed):
    """The whole outcome of a load equals the line-by-line reference on
    fuzzed files: bad lines, schema breaks, runs of blank lines, LF or
    CR LF line ends, and parse blocks of 1 to 8 records."""
    rng = np.random.default_rng(seed)
    lines = ["id,label,labeled,f0,f1"]
    for i in range(int(rng.integers(1, 30))):
        if rng.random() < 0.2:
            lines += [""] * int(rng.integers(1, 4))  # a run of blank lines
        pick = rng.random()
        if pick < 0.1:
            lines.append(FUZZ_LINES[rng.integers(0, len(FUZZ_LINES))])
        elif pick < 0.2:
            lines.append(SCHEMA_LINES[rng.integers(0, len(SCHEMA_LINES))])
        else:
            lines.append(good_row(i, label=int(rng.integers(0, 3))))
    line_end = "\r\n" if rng.random() < 0.5 else "\n"
    path = tmp_path / "fuzz.csv"
    path.write_bytes((line_end.join(lines) + line_end).encode())
    monkeypatch.setattr(data, "_BLOCK_BYTES", int(rng.integers(1, 9)) * (24 + 8 * 2))
    num_classes = 3 if rng.random() < 0.5 else None
    assert load_outcome(path, num_classes) == line_by_line_outcome(path, num_classes)


def test_bad_line_before_a_byte_that_is_not_utf8_is_named(tmp_path):
    """The parser stops on the bad line before the decoder reads the piece
    of the file that holds the byte, so the bad line is reported, as a
    line-by-line search reports it."""
    rows = [good_row(0), "1,0,1,1.5,x"] + [good_row(i) for i in range(2, 2000)]
    path = tmp_path / "late_byte.csv"
    path.write_bytes("\n".join(["id,label,labeled,f0,f1", *rows, "9,0,1,1,2\xff", ""])
                     .encode("latin-1"))
    with pytest.raises(DataFormatError) as info:
        data.load_csv(path)
    assert str(info.value) == f"{path}: row 3: column f1: cannot parse 'x' as float64"


@pytest.mark.parametrize("where", ["header", "first_row", "past_first_read"])
def test_file_that_is_not_utf8_is_a_format_error(tmp_path, where):
    """Whether the decoder meets the byte while the header is read or while
    a block is parsed."""
    rows = [good_row(i) for i in range(2000 if where == "past_first_read" else 3)]
    lines = ["id,label,labeled,f0,f1", *rows, "7,0,1,1.5,2"]
    lines[0 if where == "header" else -1] += "\xff"
    path = tmp_path / "latin.csv"
    path.write_bytes("\n".join(lines + [""]).encode("latin-1"))
    with pytest.raises(DataFormatError) as info:
        data.load_csv(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


def test_poison_touches_only_unlabeled_labels():
    ds = data.generate_synthetic(4, 3, 30, 0.2, seed=2)
    ds = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.3, seed=0))
    poisoned = poison_eval_labels(ds, seed=99)
    lab = ds.labeled_indices()
    unl = ds.unlabeled_indices()
    assert np.array_equal(poisoned.true_labels[lab], ds.true_labels[lab])
    assert not np.array_equal(poisoned.true_labels[unl], ds.true_labels[unl])
    assert np.array_equal(poisoned.features, ds.features)
    assert np.array_equal(poisoned.labeled_mask, ds.labeled_mask)
