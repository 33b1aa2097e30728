import contextlib
import csv
import io
import json
import re

import numpy as np
import pytest

from aplt import cli, cluster, config, data, nn
from aplt.errors import ConfigError

FAST = ["--set", "schedule.warmup_epochs=2", "--set", "schedule.main_epochs=4",
        "--set", "schedule.offline_every=2", "--set", "fixmatch.batch_size=16"]


def gen_args(out, extra=()):
    return ["gen", "--out", str(out), "--classes", "3", "--dim", "4",
            "--per-class", "20", "--overlap", "0.15", "--seed", "3",
            "--labeled-ratio", "0.3", *extra]


class TestGen:
    def test_same_args_same_checksum(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(gen_args(a)) == 0
        assert cli.main(gen_args(b)) == 0
        ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert ma["checksum_sha256"] == mb["checksum_sha256"]

    def test_hard12_preset(self, tmp_path):
        out = tmp_path / "hard.csv"
        assert cli.main(["gen", "--out", str(out), "--preset", "hard12"]) == 0
        manifest = json.loads((tmp_path / "hard.csv.manifest.json").read_text())
        assert manifest["synthetic"]["classes"] == 12
        assert manifest["num_classes"] == 12
        ds = data.load_csv(out)
        assert ds.n == 1200 and ds.dim == 32

    @pytest.mark.parametrize("flag", [["--classes", "5"], ["--dim", "8"],
                                      ["--per-class", "10"], ["--overlap", "0.9"],
                                      ["--seed", "2"]], ids=lambda f: f[0])
    def test_preset_with_a_parameter_flag_exits_one_without_outputs(self, tmp_path, capsys,
                                                                    flag):
        """A preset fixes all five parameters, so a flag that sets one would
        be silently dropped; it is refused before anything is written."""
        out = tmp_path / "data" / "x.csv"
        rc = cli.main(["gen", "--preset", "hard12", "--out", str(out), *flag])
        assert rc == 1
        assert (f"config error: --preset hard12 fixes the generator's parameters; "
                f"drop {flag[0]} or the preset") in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_invalid_class_count_exits_nonzero(self, tmp_path, capsys):
        rc = cli.main(["gen", "--out", str(tmp_path / "x.csv"), "--classes", "1"])
        assert rc != 0
        assert "classes" in capsys.readouterr().err


@pytest.fixture()
def dataset_csv(tmp_path):
    out = tmp_path / "ds.csv"
    cli.main(gen_args(out))
    return out


class TestTrain:
    def test_both_modes_and_outputs(self, tmp_path, dataset_csv):
        for mode in ("aplt", "fixmatch"):
            out = tmp_path / f"run-{mode}"
            rc = cli.main(["train", "--data", str(dataset_csv), "--mode", mode,
                           "--out", str(out), *FAST])
            assert rc == 0
            assert (out / "metrics.ndjson").exists()
            assert (out / "summary.csv").exists()
            assert (out / "resolved_config.json").exists()
            model, bank, _ = nn.load_checkpoint(out / "checkpoint.npz")
            assert model.num_classes == 3
            assert (bank is not None) == (mode == "aplt")

    def test_set_override_echoed_in_resolved_dump(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(dataset_csv), "--out", str(out),
                       "--set", "margin.lambda=0.5", *FAST])
        assert rc == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["margin"]["lambda"] == 0.5
        assert resolved["schedule"]["warmup_epochs"] == 2

    def test_missing_dataset_exits_one_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tmp_path / "nope.csv"),
                       "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eval", "--checkpoint", "{dir}", "--data", "{csv}"],
        ["eval", "--checkpoint", "{ckpt}", "--data", "{dir}"],
        ["train", "--data", "{dir}", "--out", "{out}"]])
    def test_directory_as_input_file_exits_one(self, tmp_path, dataset_csv, capsys,
                                               command):
        ckpt = tmp_path / "ckpt.npz"
        nn.save_checkpoint(ckpt, nn.EncoderModel.init(4, 3, 2, 3, np.random.default_rng(0)))
        names = {"dir": tmp_path, "csv": dataset_csv, "ckpt": ckpt, "out": tmp_path / "run"}
        rc = cli.main([arg.format(**names) for arg in command])
        assert rc == 1
        assert "path is not a file: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rows,message", [
        ("0,0,1,1.0,2.0\n1,1,1,1.0\n", "row 3: expected 2 feature columns, got 1"),
        ("0,0,1,1.0,2.0\n1,1,0,1.0,2.0\n2,0,0,0.5,0.5\n",
         "classes [1] have no labeled sample"),
        ("0,0,1,1.0,2.0\n\n1,1,1,-inf,2.0\n", "row 4: features must be finite")],
        ids=["wrong_width", "unlabeled_class", "non_finite"])
    def test_bad_csv_exits_one_without_outputs(self, tmp_path, capsys, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,labeled,f0,f1\n" + rows)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(path), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: " in err and message in err

    @pytest.mark.parametrize("line", [0, 2], ids=["header", "data_row"])
    def test_file_that_is_not_utf8_exits_one_without_outputs(self, tmp_path, capsys, line):
        lines = ["id,label,labeled,f0,f1", "0,0,1,1.0,2.0", "1,1,1,1.0,2.0"]
        lines[line] += "\xff"
        path = tmp_path / "latin.csv"
        path.write_bytes("\n".join(lines + [""]).encode("latin-1"))
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"config error: {path}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, fraction, message", [
        ("train", "0", "test_fraction must lie in (0, 1)"),
        ("ablate", "0", "test_fraction must lie in (0, 1)"),
        # 60 rows, 42 of them unlabeled: 0.005 of them rounds to no row, and
        # 0.9 of them leaves no unlabeled row to train on
        ("train", "0.005", "eval.test_fraction=0.005 holds out 0 of 60 rows"),
        ("ablate", "0.005", "eval.test_fraction=0.005 holds out 0 of 60 rows"),
        ("train", "0.9", "eval.test_fraction=0.9 holds out 54 of 60 rows")],
        ids=["train_zero", "ablate_zero", "train_rounds_to_zero", "ablate_rounds_to_zero",
             "train_leaves_no_pool"])
    def test_empty_test_split_exits_one_without_outputs(self, tmp_path, dataset_csv,
                                                        capsys, command, fraction, message):
        out = tmp_path / "run"
        rc = cli.main([command, "--data", str(dataset_csv), "--out", str(out), *FAST,
                       "--set", f"eval.test_fraction={fraction}"])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: " in err and message in err

    def test_bad_config_key_exits_one(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(dataset_csv), "--out", str(out),
                       "--set", "margin.nonsense=1"])
        assert rc == 1
        assert not out.exists()

    def test_output_root_env(self, tmp_path, dataset_csv, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        rc = cli.main(["train", "--data", str(dataset_csv), "--out", "nested/run",
                       *FAST])
        assert rc == 0
        assert (tmp_path / "root" / "nested" / "run" / "metrics.ndjson").exists()

    def test_split_labels_its_share_of_a_fully_labeled_csv(self, tmp_path):
        """The run on a fully labeled CSV with split.labeled_ratio=0.5 is the
        run on the CSV that gen splits at 0.5 (split seed 0 in both)."""
        full, half = tmp_path / "full.csv", tmp_path / "half.csv"
        assert cli.main(gen_args(full)[:-2]) == 0  # without --labeled-ratio 0.3
        assert cli.main(gen_args(half, ["--labeled-ratio", "0.5"])) == 0
        logs = []
        for csv_path, sets in ((full, ["--set", "split.labeled_ratio=0.5"]), (half, [])):
            out = tmp_path / csv_path.stem
            rc = cli.main(["train", "--data", str(csv_path), "--out", str(out), *FAST, *sets])
            assert rc == 0
            logs.append((out / "metrics.ndjson").read_text())
        events = [r for r in map(json.loads, logs[0].splitlines())
                  if r["kind"] == "offline_event"]
        # 30 of 60 rows unlabeled, less the 12 held out for the test split
        assert [e["n_unlabeled"] for e in events] == [18, 18]
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("command", ["train", "compare", "ablate"])
    def test_split_of_an_already_split_csv_exits_one_without_outputs(
            self, tmp_path, dataset_csv, capsys, command):
        """The CSV's own split would be used and the setting only recorded."""
        out = tmp_path / "run"
        rc = cli.main([command, "--data", str(dataset_csv), "--out", str(out), *FAST,
                       "--set", "split.labeled_ratio=0.5"])
        assert rc == 1
        assert not out.exists()
        assert (f"config error: {dataset_csv} is already split; split.* applies only "
                "to a CSV whose rows are all labeled") in capsys.readouterr().err


class TestFeatureNormGeometry:
    """Every run clusters unit-norm features against unit-norm centroids, so
    model.feature_norm is not a config key and every command rejects it."""

    def check_rejected(self, tmp_path, dataset_csv, capsys, command):
        out = tmp_path / "run"
        rc = cli.main([*command, "--data", str(dataset_csv), "--out", str(out),
                       "--set", "model.feature_norm=false", *FAST])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: unknown config key: model.feature_norm" in err

    @pytest.mark.parametrize("command", [["train", "--mode", "aplt"], ["compare"],
                                         ["ablate"]])
    def test_offline_phase_rejected_exit_one(self, tmp_path, dataset_csv, capsys,
                                             command):
        self.check_rejected(tmp_path, dataset_csv, capsys, command)

    def test_fixmatch_rejected_too(self, tmp_path, dataset_csv, capsys):
        self.check_rejected(tmp_path, dataset_csv, capsys, ["train", "--mode", "fixmatch"])


def _npz_with_meta(meta: bytes):
    def write(path):
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(meta, dtype=np.uint8))
    return write


def _npz_without_meta(path):
    with open(path, "wb") as fh:
        np.savez(fh, w1=np.zeros(3))


def _edited_checkpoint(edit):
    """A real checkpoint with a bank, its arrays and meta passed through
    ``edit(arrays, meta)`` before it is written."""
    def write(path):
        bank = cluster.PrototypeBank(rho=np.eye(3, 2), counts=np.ones(3, dtype=np.int64))
        nn.save_checkpoint(path, nn.EncoderModel.init(4, 3, 2, 3, np.random.default_rng(0)),
                           bank=bank)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(arrays, meta)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return write


def _checkpoint_without(key):
    """A real checkpoint with one array or meta key left out."""
    return _edited_checkpoint(lambda arrays, meta: (arrays.pop(key, None), meta.pop(key, None)))


def _short_b1(arrays, meta):
    arrays["b1"] = arrays["b1"][:-1]


# files that are not aplt checkpoints: (name, writer, expected message)
BAD_CHECKPOINTS = [
    ("notes.txt", lambda p: p.write_text("not a checkpoint\n"), "not an npz archive"),
    ("empty.npz", lambda p: p.write_bytes(b""), "not an npz archive"),
    ("truncated.npz", lambda p: p.write_bytes(b"PK\x03\x04junk"), "not an npz archive"),
    ("array.npy", lambda p: np.save(p, np.arange(3)), "not an npz archive"),
    ("nometa.npz", _npz_without_meta, "no readable checkpoint meta"),
    ("badmeta.npz", _npz_with_meta(b"{not json"), "no readable checkpoint meta"),
    ("othertag.npz", _npz_with_meta(b'{"format": "other"}'), "not an aplt-checkpoint-v1 file"),
    ("listmeta.npz", _npz_with_meta(b"[1]"), "not an aplt-checkpoint-v1 file"),
    ("now1.npz", _checkpoint_without("w1"), "incomplete checkpoint, missing w1"),
    ("nonorm.npz", _checkpoint_without("feature_norm"),
     "incomplete checkpoint, missing meta.feature_norm"),
    ("falsenorm.npz", _edited_checkpoint(lambda arrays, meta: meta.update(feature_norm=False)),
     "meta.feature_norm is false; only unit-norm features are supported"),
    ("nocounts.npz", _checkpoint_without("bank_counts"),
     "incomplete checkpoint, missing bank_counts"),
    ("shortb1.npz", _edited_checkpoint(_short_b1),
     "array shapes do not fit together: b1 (2,)"),
]


class TestEval:
    def test_eval_reports_both_accuracies(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "run"
        cli.main(["train", "--data", str(dataset_csv), "--out", str(out), *FAST])
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                       "--data", str(dataset_csv)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["test_acc_proto"] <= 1.0
        assert 0.0 <= report["test_acc_param"] <= 1.0
        assert report["n"] == 60

    @pytest.mark.parametrize("name,payload,message", BAD_CHECKPOINTS)
    def test_not_a_checkpoint_exits_one(self, tmp_path, dataset_csv, capsys,
                                        name, payload, message):
        path = tmp_path / name
        payload(path)
        rc = cli.main(["eval", "--checkpoint", str(path), "--data", str(dataset_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error: {path}: {message}" in err
        assert "Traceback" not in err

    def test_data_width_differs_from_checkpoint_exits_one(self, tmp_path, dataset_csv,
                                                         capsys):
        ckpt = tmp_path / "ckpt.npz"
        nn.save_checkpoint(ckpt, nn.EncoderModel.init(5, 3, 2, 3, np.random.default_rng(0)))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_csv)])
        assert rc == 1
        assert (f"config error: {dataset_csv}: 4 feature columns, but {ckpt} expects 5"
                in capsys.readouterr().err)

    def test_non_finite_feature_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("id,label,labeled,f0,f1\n0,0,1,1.0,2.0\n1,1,0,nan,2.0\n"
                        "2,1,0,1.0,inf\n")
        ckpt = tmp_path / "ckpt.npz"
        nn.save_checkpoint(ckpt, nn.EncoderModel.init(2, 3, 2, 2, np.random.default_rng(0)))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {path}: row 3: features must be finite" in captured.err

    def test_file_that_is_not_utf8_exits_one(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "run"
        cli.main(["train", "--data", str(dataset_csv), "--out", str(out), *FAST])
        path = tmp_path / "latin.csv"
        path.write_bytes(dataset_csv.read_bytes().replace(b"\n1,", b"\n1\xff,", 1))
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                       "--data", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {path}: not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err


class TestCompare:
    def test_one_row_per_epoch_per_method(self, tmp_path, dataset_csv):
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--data", str(dataset_csv), "--out", str(out),
                       *FAST])
        assert rc == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["method", "epoch", "pseudo_label_acc", "coverage",
                          "test_acc", "loss_total"]
        assert len(body) == 2 * 6  # two methods x six epochs
        methods = {r[0] for r in body}
        assert methods == {"fixmatch", "aplt"}

    @pytest.mark.parametrize("tau, silent", [(None, True), (0.05, False)])
    def test_says_when_the_consistency_term_never_fired(self, tmp_path, dataset_csv,
                                                        capsys, tau, silent):
        out = tmp_path / "cmp"
        sets = [] if tau is None else ["--set", f"fixmatch.tau={tau}"]
        assert cli.main(["compare", "--data", str(dataset_csv), "--out", str(out),
                         *FAST, *sets]) == 0
        lines = capsys.readouterr().out.splitlines()
        passed = [json.loads(line)["pass_count"]
                  for line in (out / "metrics_fixmatch.ndjson").read_text().splitlines()
                  if json.loads(line)["kind"] == "epoch"]
        assert (not any(passed)) == silent
        notes = [line for line in lines if "consistency term never contributed" in line]
        expected = 0.95 if tau is None else tau
        assert notes == ([f"fixmatch: no unlabeled row passed fixmatch.tau={expected} in any "
                          "epoch, so its consistency term never contributed"] if silent else [])

    def test_mode_key_is_ignored_and_left_out_of_the_dump(self, tmp_path, dataset_csv):
        """compare sets each cell's mode, so --set mode=fixmatch changes no
        output, and neither run records a mode."""
        outs = tmp_path / "plain", tmp_path / "moded"
        for out, sets in zip(outs, ([], ["--set", "mode=fixmatch"])):
            assert cli.main(["compare", "--data", str(dataset_csv), "--out", str(out),
                             *FAST, *sets]) == 0
            assert "mode" not in json.loads((out / "resolved_config.json").read_text())
        for name in ("trajectory.csv", "metrics_fixmatch.ndjson", "metrics_aplt.ndjson",
                     "resolved_config.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestAblate:
    def test_seven_rows_with_seed_column_append_and_force(self, tmp_path,
                                                          dataset_csv):
        out = tmp_path / "abl"
        args = ["ablate", "--data", str(dataset_csv), "--out", str(out), *FAST]
        assert cli.main(args) == 0
        table = out / "ablation.csv"
        with open(table) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "seed", "accuracy", "coverage",
                           "pseudo_label_acc"]
        assert len(rows) == 1 + 7
        names = [r[0] for r in rows[1:]]
        assert names == list(cli.engine.ABLATION_ROWS)
        assert all(r[1] == "0" for r in rows[1:])

        # rerun appends without a second header
        assert cli.main(args) == 0
        with open(table) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 14
        assert all(r[0] != "row" for r in rows[1:])

        # --force starts over
        assert cli.main(args + ["--force"]) == 0
        with open(table) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 7

    @pytest.mark.parametrize("seeds, message", [
        pytest.param(seeds, f"expected comma-separated integers, got {seeds!r}", id=seeds)
        for seeds in ("0,a", "0,,1", "1.5")] + [
        pytest.param("0,0", "each seed may appear once, got '0,0'", id="0,0")])
    def test_bad_seed_list_is_usage_error(self, tmp_path, dataset_csv, capsys, seeds,
                                          message):
        out = tmp_path / "abl"
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--data", str(dataset_csv), "--out", str(out),
                      "--seeds", seeds])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument --seeds: {message}" in err
        assert not out.exists()

    def test_append_only_under_the_stored_config(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "abl"
        args = ["ablate", "--data", str(dataset_csv), "--out", str(out), *FAST]
        assert cli.main(args + ["--seeds", "0"]) == 0
        table, stored = out / "ablation.csv", out / "resolved_config.json"
        before = table.read_bytes(), stored.read_bytes()
        capsys.readouterr()
        # another value is refused and leaves both files as they were; another
        # seed appends
        rc = cli.main(args + ["--seeds", "1", "--set", "margin.lambda=0.5",
                              "--set", "cluster.method=km"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: " in err and "cluster.method, margin.lambda" in err
        assert "--force" in err
        assert (table.read_bytes(), stored.read_bytes()) == before
        assert cli.main(args + ["--seed", "5", "--seeds", "1"]) == 0
        assert len(table.read_text().splitlines()) == 1 + 14
        assert "mode" not in json.loads(stored.read_text())
        # a table stored when ablate still recorded a mode appends too
        stored.write_text(json.dumps({**json.loads(stored.read_text()), "mode": "aplt"}))
        assert cli.main(args + ["--seeds", "2", "--set", "mode=fixmatch"]) == 0
        assert len(table.read_text().splitlines()) == 1 + 21
        assert "mode" not in json.loads(stored.read_text())
        # a table with no stored config is refused too
        stored.unlink()
        grown = table.read_bytes()
        assert cli.main(args + ["--seeds", "2"]) == 1
        assert "no readable resolved_config.json" in capsys.readouterr().err
        assert table.read_bytes() == grown and not stored.exists()


# values whose JSON type does not match their key's default, floats that
# are not finite, and a negative tol; each must be a config error (exit 1),
# not a TypeError or a nonfinite loss from deep inside a run
BAD_OVERRIDES = ["fixmatch.batch_size=8.5", "model.hidden=8.5", "cluster.max_iters=2.5",
                 "schedule.warmup_epochs=1.5", "cluster=5", "eval=3",
                 "optimizer.base_lr=NaN", "cluster.tol=NaN", "cluster.tol=-1",
                 "augment.weak_sigma=NaN", "margin.lambda=Infinity",
                 "margin.temperature=Infinity", "fixmatch.tau=-Infinity",
                 "optimizer.momentum=1.5", "optimizer.momentum=-3",
                 "optimizer.weight_decay=-1"]


# the removed dataset.synthetic section, as config files used to write it
SYNTH = {"synthetic": {"classes": 3, "dim": 4, "per_class": 10, "overlap": 0.1, "seed": 0}}


class TestConfigResolution:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: bogus"):
            config.resolve({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="margin.bogus"):
            config.resolve({"margin": {"bogus": 1}})

    @pytest.mark.parametrize("override", [
        "model.feature_norm=false", "cluster.prototype_members=all",
        "split.stratified=false", "cluster.use_labeled_aug=false"])
    def test_removed_knobs_are_unknown_keys(self, override):
        with pytest.raises(ConfigError, match="unknown config key: " + override.split("=")[0]):
            config.resolve(None, [override])

    def test_lambda_maps_to_margin_config(self):
        cfg, resolved = config.resolve({"margin": {"lambda": 0.25}})
        assert cfg.margin.lam == 0.25
        assert resolved["margin"]["lambda"] == 0.25

    def test_override_parsing_types(self):
        cfg, _ = config.resolve(None, ["schedule.sync_mode=true",
                                       "margin.view=weak",
                                       "fixmatch.tau=0.9"])
        assert cfg.schedule.sync_mode is True
        assert cfg.margin.view == "weak"
        assert cfg.fixmatch.tau == 0.9

    def test_dataset_section_shape_enforced(self):
        for section in ({"csv": "a", "synthetic": {}}, SYNTH, {"csv": 3}, {}, "a.csv"):
            with pytest.raises(ConfigError, match=re.escape('dataset must be {"csv": path}')):
                config.resolve({"dataset": section})
        cfg, resolved = config.resolve({"dataset": {"csv": "a.csv"}})
        assert cfg.dataset == resolved["dataset"] == {"csv": "a.csv"}
        assert config.resolve()[0].dataset is None

    def test_bad_synthetic_exits_one_without_outputs(self, tmp_path, capsys):
        """A dataset.synthetic section, valid before the section was removed,
        is a config error that points to aplt gen."""
        cfg_file = tmp_path / "synth.json"
        cfg_file.write_text(json.dumps({"dataset": SYNTH}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith('config error: dataset must be {"csv": path}')
        assert "aplt gen" in err

    @pytest.mark.parametrize("command, message", [
        (["train", "--data", "{csv}", "--out", "{out}", "--seed", "-1"],
         "config error: seed must be nonnegative, got -1"),
        (["ablate", "--data", "{csv}", "--out", "{out}", "--seeds", "-1"],
         "argument --seeds: seeds must be nonnegative, got '-1'"),
        (["gen", "--out", "{out}/gen.csv", "--seed", "-5"],
         "config error: seed must be nonnegative, got -5"),
        (["gen", "--out", "{out}/gen.csv", "--labeled-ratio", "0.1", "--split-seed", "-5"],
         "config error: split seed must be nonnegative, got -5"),
        (["train", "--data", "{csv}", "--out", "{out}", "--config", "{dir}"],
         "config error: cannot read config file {dir}: Is a directory"),
        (["train", "--data", "{csv}", "--out", "{out}", "--config", "{latin}"],
         "config error: config file {latin} is not UTF-8 text (invalid start byte)"),
        (["train", "--data", "{csv}", "--out", "{out}", "--config", "{comma}"],
         "config error: config file {comma} is not valid JSON: Expecting property name"),
        (["train", "--data", "{csv}", "--out", "{file}"],
         "config error: cannot write to {file}: {file} is not a directory"),
        (["compare", "--data", "{csv}", "--out", "{file}/sub"],
         "config error: cannot write to {file}/sub: {file} is not a directory"),
        (["ablate", "--data", "{csv}", "--out", "{file}/sub", "--seeds", "0"],
         "config error: cannot write to {file}/sub: {file} is not a directory"),
        (["gen", "--out", "{file}/x.csv"],
         "config error: cannot write to {file}: {file} is not a directory"),
        (["gen", "--preset", "hard12", "--out", "{dir}"],
         "config error: cannot write to {dir}: it is a directory"),
        (["train", "--data", "{dir}", "--out", "{out}"],
         "config error: dataset path is not a file: {dir}"),
        (["gen", "--out", "{out}/gen.csv", "--overlap", "nan"],
         "config error: overlap must be finite and nonnegative, got nan"),
    ], ids=["train_seed", "ablate_seeds", "gen_seed", "gen_split_seed", "config_dir",
            "config_not_utf8", "config_not_json", "train_out_file", "compare_out_under_file",
            "ablate_out_under_file", "gen_out_under_file", "gen_out_dir", "train_data_dir",
            "gen_overlap_nan"])
    def test_bad_seed_or_unreadable_config_exits_one_without_outputs(
            self, tmp_path, dataset_csv, capsys, command, message):
        """Each is a one-line error (``ablate --seeds`` a usage error, as
        its other malformed values are), not a traceback from numpy or
        ``open``, and an ``--out`` that cannot be a directory is refused
        before any data is read."""
        names = {"csv": dataset_csv, "out": tmp_path / "run", "dir": tmp_path / "conf.d",
                 "latin": tmp_path / "latin.json", "comma": tmp_path / "comma.json",
                 "file": tmp_path / "afile"}
        names["dir"].mkdir()
        names["latin"].write_bytes(b'{"seed": 1}\xff')
        names["comma"].write_text('{"seed": 1,}')
        names["file"].write_text("not a directory\n")
        try:
            rc = cli.main([arg.format(**names) for arg in command])
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
        assert rc == 1
        assert message.format(**names) in capsys.readouterr().err
        assert not names["out"].exists()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config.resolve({"fixmatch": {"tau": 2.0}})
        with pytest.raises(ConfigError):
            config.resolve({"mode": "sideways"})
        with pytest.raises(ConfigError):
            config.resolve({"eval": {"test_fraction": 1.0}})

    @pytest.mark.parametrize("fraction", [0.0, 0])
    def test_test_fraction_lies_strictly_between_zero_and_one(self, fraction):
        with pytest.raises(ConfigError, match=r"test_fraction must lie in \(0, 1\)"):
            config.resolve({"eval": {"test_fraction": fraction}})

    @pytest.mark.parametrize("override", BAD_OVERRIDES + [
        "seed=true", "seed=1.0", "mode=1", "schedule.sync_mode=1",
        "optimizer.base_lr=true", "margin.view=3", "cluster.method=null"])
    def test_wrong_type_rejected(self, override):
        with pytest.raises(ConfigError, match="must be"):
            config.resolve(None, [override])

    def test_section_replaced_by_scalar_in_file_rejected(self):
        with pytest.raises(ConfigError, match="margin must be an object"):
            config.resolve({"margin": 0.5})

    def test_int_accepted_for_float_and_kept_as_given(self):
        cfg, resolved = config.resolve(None, ["optimizer.base_lr=1",
                                              "margin.lambda=0"])
        assert cfg.optimizer.base_lr == 1 and cfg.margin.lam == 0
        assert resolved["optimizer"]["base_lr"] == 1
        assert type(resolved["optimizer"]["base_lr"]) is int

    @pytest.mark.parametrize("override", BAD_OVERRIDES)
    def test_wrong_type_exits_one_without_outputs(self, tmp_path, dataset_csv,
                                                  capsys, override):
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(dataset_csv), "--out", str(out),
                       "--set", override])
        assert rc == 1
        assert not out.exists()
        assert "config error:" in capsys.readouterr().err

    def test_resolved_dict_is_fresh_every_call(self):
        _, first = config.resolve()
        first["seed"] = 7
        first["margin"]["lambda"] = 9.0
        _, overridden = config.resolve(None, ["seed=1"])
        overridden["cluster"]["max_iters"] = 1
        _, again = config.resolve()
        assert again["seed"] == 0
        assert again["margin"]["lambda"] == 1.0
        assert again["cluster"]["max_iters"] == 100

    def test_defaults_come_from_the_dataclasses(self):
        cfg, resolved = config.resolve()
        assert cfg == config.RunConfig()
        assert resolved["margin"]["lambda"] == cfg.margin.lam
        assert "lam" not in resolved["margin"]
        assert resolved["cluster"]["method"] == "sskm"
        assert resolved["eval"] == {"test_fraction": 0.2}

    def test_run_reproducible_from_resolved_dump(self, tmp_path, dataset_csv):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        placeholder = tmp_path / "placeholder.json"
        placeholder.write_text(json.dumps({"dataset": {"csv": "placeholder.csv"}}))
        # --data replaces the file's dataset section and is recorded in the dump
        assert cli.main(["train", "--config", str(placeholder), "--data", str(dataset_csv),
                         "--out", str(out1), *FAST]) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert resolved["dataset"] == {"csv": str(dataset_csv)}
        cfg_file = tmp_path / "replay.json"
        cfg_file.write_text(json.dumps(resolved))
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(out2)]) == 0
        assert (out1 / "metrics.ndjson").read_bytes() == \
            (out2 / "metrics.ndjson").read_bytes()


def _warn_empty_class():
    """cluster.adaptive_thresholds warns once: class 1 gets no sample."""
    result = cluster.ClusterResult(centroids=np.eye(3), assignments=np.array([0, 0, 2]),
                                   distances=np.array([0.1, 0.2, 0.3]),
                                   iterations_run=1, objective=0.0)
    cluster.adaptive_thresholds(result, 3)


class TestLogging:
    WARNING = ("WARNING aplt.cluster: no unlabeled samples assigned to class 1; "
               "its local threshold is 0 (keeps nothing extra)\n")

    def test_warning_printed_once_with_level_and_logger(self, tmp_path, capsys):
        for name in ("a.csv", "b.csv"):
            assert cli.main(gen_args(tmp_path / name)) == 0
        capsys.readouterr()
        _warn_empty_class()
        assert capsys.readouterr().err == self.WARNING

    def test_handler_follows_redirected_stderr(self, tmp_path, capsys):
        assert cli.main(gen_args(tmp_path / "a.csv")) == 0
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            _warn_empty_class()
        assert sink.getvalue() == self.WARNING
        assert capsys.readouterr().err == ""
