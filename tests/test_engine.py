import json

import numpy as np
import pytest

from aplt import cluster, config, data, engine, nn, proto
from aplt.errors import InvalidParameterError


def small_dataset(C=3, d=6, n_per_class=40, overlap=0.15, seed=2, ratio=0.2):
    ds = data.generate_synthetic(C, d, n_per_class, overlap, seed=seed)
    return data.apply_split(ds, data.SplitSpec(labeled_ratio=ratio, seed=seed))


def small_config(*overrides, seed=0):
    base = [f"seed={seed}", "fixmatch.batch_size=16",
            "schedule.warmup_epochs=2", "schedule.main_epochs=6",
            "schedule.offline_every=3"]
    cfg, _ = config.resolve(None, base + list(overrides))
    return cfg


class TestPhaseSchedule:
    def test_default_schedule_event_epochs(self):
        sched = engine.PhaseSchedule()  # 15 warmup + 40 main, every 10
        assert sched.offline_epochs() == [15, 25, 35, 45]
        assert sched.total_epochs == 55

    @pytest.mark.parametrize("main,every", [(40, 10), (10, 10), (11, 10),
                                            (7, 3), (1, 1), (9, 4)])
    def test_event_count_contract(self, main, every):
        sched = engine.PhaseSchedule(warmup_epochs=5, main_epochs=main,
                                     offline_every=every)
        assert len(sched.offline_epochs()) == 1 + (main - 1) // every

    def test_sync_mode_fires_every_epoch(self):
        sched = engine.PhaseSchedule(warmup_epochs=3, main_epochs=4,
                                     offline_every=10, sync_mode=True)
        assert sched.offline_epochs() == [3, 4, 5, 6]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            engine.PhaseSchedule(offline_every=0)


class TestRun:
    def test_offline_events_recorded_at_schedule(self):
        ds = small_dataset()
        res = engine.run(ds, small_config())
        assert [e["epoch"] for e in res.metrics.events] == [2, 5]
        assert len(res.metrics.epochs) == 8
        assert res.bank is not None

    def test_degenerate_config_is_bitwise_fixmatch(self):
        # warm-up spanning the whole schedule never clusters, so an
        # all-warmup run in either mode walks identical rng streams
        ds = small_dataset()
        cfg_a = small_config("schedule.warmup_epochs=8", "schedule.main_epochs=0",
                             "margin.lambda=0.0")
        cfg_b = small_config("schedule.warmup_epochs=8", "schedule.main_epochs=0")
        res_a = engine.run(ds, cfg_a, mode="aplt")
        res_b = engine.run(ds, cfg_b, mode="fixmatch")
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(res_a.model, name),
                                  getattr(res_b.model, name))
        losses_a = [r["loss_total"] for r in res_a.metrics.epochs]
        losses_b = [r["loss_total"] for r in res_b.metrics.epochs]
        assert losses_a == losses_b

    def test_additivity_of_recorded_losses(self):
        ds = small_dataset()
        cfg = small_config("margin.lambda=0.7")
        res = engine.run(ds, cfg)
        for rec in res.metrics.epochs:
            assert rec["loss_total"] == pytest.approx(
                rec["loss_logits"] + 0.7 * rec["loss_margin"], abs=1e-9)

    def test_seed_determinism_byte_identical_logs(self):
        ds = small_dataset()
        a = engine.run(ds, small_config(seed=5)).metrics.to_ndjson()
        b = engine.run(ds, small_config(seed=5)).metrics.to_ndjson()
        assert a.encode() == b.encode()

    def test_different_seeds_differ(self):
        ds = small_dataset()
        a = engine.run(ds, small_config(seed=5)).metrics.to_ndjson()
        b = engine.run(ds, small_config(seed=6)).metrics.to_ndjson()
        assert a != b

    def test_asynchrony_digests_change_only_at_events(self):
        ds = small_dataset()
        res = engine.run(ds, small_config())
        event_epochs = {e["epoch"] for e in res.metrics.events}
        previous = None
        for rec in res.metrics.epochs:
            if rec["epoch"] in event_epochs:
                assert rec["bank_digest"] != previous
            else:
                assert rec["bank_digest"] == previous
            previous = rec["bank_digest"]

    def test_sync_mode_completes_and_refreshes_every_epoch(self):
        ds = small_dataset()
        res = engine.run(ds, small_config("schedule.sync_mode=true"))
        assert [e["epoch"] for e in res.metrics.events] == [2, 3, 4, 5, 6, 7]
        assert res.metrics.final["test_acc_proto"] is not None

    def test_leakage_guard_poisoned_labels_do_not_touch_training(self):
        ds = small_dataset()
        cfg = small_config(seed=3)
        res_clean = engine.run(ds, cfg)
        res_poisoned = engine.run(data.poison_eval_labels(ds, seed=1234), cfg)
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(res_clean.model, name),
                                  getattr(res_poisoned.model, name))
        assert np.array_equal(res_clean.pseudo.indices, res_poisoned.pseudo.indices)
        assert np.array_equal(res_clean.pseudo.labels, res_poisoned.pseudo.labels)
        for a, b in zip(res_clean.metrics.epochs, res_poisoned.metrics.epochs):
            assert a["loss_total"] == b["loss_total"]
            assert a["pass_count"] == b["pass_count"]
        # only evaluation metrics may move
        clean_acc = [e["pseudo_label_acc"] for e in res_clean.metrics.events]
        poisoned_acc = [e["pseudo_label_acc"] for e in res_poisoned.metrics.events]
        assert clean_acc != poisoned_acc

    def test_validation_errors_surface(self):
        ds = small_dataset()
        fully_labeled = data.generate_synthetic(2, 3, 10, 0.1, seed=0)
        with pytest.raises(InvalidParameterError):
            engine.run(fully_labeled, small_config())
        with pytest.raises(InvalidParameterError):
            engine.run(ds, small_config(), mode="nonsense")

    def test_metrics_stream_is_valid_ndjson(self):
        ds = small_dataset()
        res = engine.run(ds, small_config())
        lines = res.metrics.to_ndjson().strip().split("\n")
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds.count("epoch") == 8
        assert kinds.count("offline_event") == 2
        assert kinds[-1] == "final"


class TestPrototypeMembers:
    @pytest.mark.parametrize("members", ["filtered", "all"])
    def test_last_bank_counts_its_members(self, members):
        ds = small_dataset()
        res = engine.run(ds, small_config(f"cluster.prototype_members={members}"))
        n_labeled = int(ds.labeled_mask.sum())
        n_unlabeled_train = ds.n - n_labeled - res.test_indices.size
        assert res.pseudo.n_unlabeled == n_unlabeled_train
        # the threshold drops some rows, so the two settings differ
        assert res.pseudo.indices.size < n_unlabeled_train
        expected = n_unlabeled_train if members == "all" else res.pseudo.indices.size
        assert res.bank.counts.sum() == n_labeled + expected


class TestEvaluate:
    def test_prototypes_at_class_means_are_perfect_on_separable_data(self):
        rng = np.random.default_rng(0)
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        X = np.repeat(centers, 30, axis=0) + 0.01 * rng.normal(size=(90, 2))
        y = np.repeat(np.arange(3), 30)
        m = nn.EncoderModel(  # identity-ish 2d encoder via pos/neg split
            w1=np.concatenate([np.eye(2), -np.eye(2)], axis=1), b1=np.zeros(4),
            w2=np.concatenate([np.eye(2), -np.eye(2)], axis=0), b2=np.zeros(2),
            hw=np.eye(2, 3), hb=np.zeros(3), feature_norm=True)
        feats = nn.forward_features(m, X)
        rho = np.stack([feats[y == c].mean(axis=0) for c in range(3)])
        rho /= np.linalg.norm(rho, axis=1, keepdims=True)
        bank = cluster.PrototypeBank(rho=rho, counts=np.full(3, 30))
        proto_acc, _ = engine.evaluate(m, bank, X, y)
        assert proto_acc == 1.0

    def test_random_prototypes_score_near_chance(self):
        rng = np.random.default_rng(1)
        C, d, n = 12, 16, 3000
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        m = nn.EncoderModel.init(d, 8, 6, C, rng)
        bank = cluster.PrototypeBank(rho=rng.normal(size=(C, 6)),
                                     counts=np.ones(C, dtype=int))
        proto_acc, _ = engine.evaluate(m, bank, X, y)
        p = 1.0 / C
        band = 3 * np.sqrt(p * (1 - p) / n)
        assert abs(proto_acc - p) < band

    def test_deterministic(self):
        ds = small_dataset()
        res = engine.run(ds, small_config())
        X, y = ds.features[:20], ds.true_labels[:20]
        assert engine.evaluate(res.model, res.bank, X, y) == \
            engine.evaluate(res.model, res.bank, X, y)

    def test_no_bank_gives_none_proto_acc(self):
        m = nn.EncoderModel.init(3, 4, 2, 2, np.random.default_rng(0))
        proto_acc, param_acc = engine.evaluate(
            m, None, np.zeros((5, 3)), np.zeros(5, dtype=int))
        assert proto_acc is None and param_acc is not None


class TestAblationGrid:
    def test_grid_rows_and_ssl_equivalence(self):
        ds = small_dataset()
        cfg = small_config(seed=4)
        records = engine.run_ablation_grid(ds, cfg)
        assert [r["row"] for r in records] == list(engine.ABLATION_ROWS)
        assert len(records) == 7
        baseline = engine.run(ds, cfg, mode="fixmatch")
        ssl = next(r for r in records if r["row"] == "SSL")
        assert ssl["accuracy"] == baseline.metrics.final["test_acc"]
        assert ssl["seed"] == 4

    def test_multi_seed_grid_shape(self):
        ds = small_dataset()
        records = engine.run_ablation_grid(ds, small_config(), seeds=[0, 1])
        assert len(records) == 14
        assert {r["seed"] for r in records} == {0, 1}

    def test_km_row_uses_plain_clustering(self):
        ds = small_dataset()
        cfg = engine._row_config(small_config(), "SSL+KM")
        assert cfg.cluster.method == "km"
        assert cfg.mode == "aplt"
        res = engine.run(ds, cfg)
        assert res.bank is not None

    def test_view_toggle(self):
        weak_cfg = engine._row_config(small_config(), "SSL+SSKM(W)")
        strong_cfg = engine._row_config(small_config(), "SSL+SSKM(S)")
        assert weak_cfg.margin.view == "weak"
        assert strong_cfg.margin.view == "strong"
        full = engine._row_config(small_config(), "SSL+SSKM(S)+LA+SAT")
        assert full.cluster.use_labeled_aug
        assert full.cluster.use_adaptive_threshold
        bare = engine._row_config(small_config(), "SSL+SSKM(S)")
        assert not bare.cluster.use_labeled_aug
        assert not bare.cluster.use_adaptive_threshold


class TestBaselineFixmatch:
    def test_same_seed_reproducible(self):
        ds = small_dataset()
        a = engine.run(ds, small_config(seed=9), mode="fixmatch")
        b = engine.run(ds, small_config(seed=9), mode="fixmatch")
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))

    def test_easy_benchmark_reaches_095(self):
        # measured 0.979 when the easy preset was frozen
        ds = data.generate_synthetic(12, 32, 100, overlap=0.10, seed=0)
        ds = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.1, seed=0))
        cfg, _ = config.resolve(None, ["seed=0"])
        res = engine.run(ds, cfg, mode="fixmatch")
        assert res.metrics.final["test_acc_param"] >= 0.95


def test_prototype_bank_frozen_between_events():
    ds = small_dataset()
    res = engine.run(ds, small_config())
    # trainer re-hashes the bank every epoch and raises on mutation, so a
    # completed run plus unchanged digests is the contract
    digests = [r["bank_digest"] for r in res.metrics.epochs if r["bank_digest"]]
    assert len(set(digests)) == len(res.metrics.events)
