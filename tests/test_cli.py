import csv
import json

import numpy as np
import pytest

from aplt import cli, config, data, nn
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


class TestFeatureNormGeometry:
    UNNORMALIZED = ["--set", "model.feature_norm=false"]

    @pytest.mark.parametrize("command", [["train", "--mode", "aplt"], ["compare"],
                                         ["ablate"]])
    def test_offline_phase_rejected_exit_one(self, tmp_path, dataset_csv, capsys,
                                             command):
        out = tmp_path / "run"
        rc = cli.main([*command, "--data", str(dataset_csv), "--out", str(out),
                       *self.UNNORMALIZED, *FAST])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: model.feature_norm=false cannot be used" in err

    def test_fixmatch_only_allowed(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        rc = cli.main(["train", "--mode", "fixmatch", "--data", str(dataset_csv),
                       "--out", str(out), *self.UNNORMALIZED, *FAST])
        assert rc == 0
        assert (out / "metrics.ndjson").exists()


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


class TestConfigResolution:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: bogus"):
            config.resolve({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="margin.bogus"):
            config.resolve({"margin": {"bogus": 1}})

    def test_lambda_maps_to_margin_config(self):
        cfg, resolved = config.resolve({"margin": {"lambda": 0.25}})
        assert cfg.margin.lam == 0.25
        assert resolved["margin"]["lambda"] == 0.25

    def test_override_parsing_types(self):
        cfg, _ = config.resolve(None, ["schedule.sync_mode=true",
                                       "margin.view=weak",
                                       "fixmatch.tau=0.9"])
        assert cfg.schedule.sync_mode is True
        assert cfg.margin_view == "weak"
        assert cfg.fixmatch.tau == 0.9

    def test_dataset_section_shape_enforced(self):
        with pytest.raises(ConfigError):
            config.resolve({"dataset": {"csv": "a", "synthetic": {}}})
        with pytest.raises(ConfigError):
            config.resolve({"dataset": {"synthetic": {"classes": 3}}})
        cfg, _ = config.resolve({"dataset": {"synthetic": {
            "classes": 3, "dim": 4, "per_class": 10, "overlap": 0.1,
            "seed": 0}}})
        assert "synthetic" in cfg.dataset

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config.resolve({"fixmatch": {"tau": 2.0}})
        with pytest.raises(ConfigError):
            config.resolve({"mode": "sideways"})
        with pytest.raises(ConfigError):
            config.resolve({"eval": {"test_fraction": 1.0}})

    def test_run_reproducible_from_resolved_dump(self, tmp_path, dataset_csv):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["train", "--data", str(dataset_csv), "--out", str(out1), *FAST])
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        cfg_file = tmp_path / "replay.json"
        cfg_file.write_text(json.dumps(resolved))
        cli.main(["train", "--config", str(cfg_file), "--data", str(dataset_csv),
                  "--out", str(out2)])
        assert (out1 / "metrics.ndjson").read_bytes() == \
            (out2 / "metrics.ndjson").read_bytes()
