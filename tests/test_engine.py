import contextlib
import io
import json
import logging
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aplt import augment, cli, cluster, config, data, engine, nn, proto
from aplt.errors import InvalidParameterError
from data_helpers import poison_eval_labels
from model_helpers import count_encoder_passes, identity_encoder


def small_dataset(C=3, d=6, n_per_class=40, overlap=0.15, seed=2, ratio=0.2):
    ds = data.generate_synthetic(C, d, n_per_class, overlap, seed=seed)
    return data.apply_split(ds, data.SplitSpec(labeled_ratio=ratio, seed=seed))


SMALL = ["fixmatch.batch_size=16", "schedule.warmup_epochs=2",
         "schedule.main_epochs=6", "schedule.offline_every=3"]
SMALL_ARGS = [a for o in SMALL for a in ("--set", o)]


def small_config(*overrides, seed=0):
    cfg, _ = config.resolve(None, [f"seed={seed}", *SMALL, *overrides])
    return cfg


def warmed_up(ds, cfg, mode="fixmatch"):
    """A run of ``cfg`` trained to the end of its warm-up, ready to branch."""
    trainer = engine._Trainer(ds, replace(cfg, mode=mode))
    trainer.train(cfg.schedule.warmup_epochs)
    return trainer


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
        res_a = engine.run(ds, replace(cfg_a, mode="aplt"))
        res_b = engine.run(ds, replace(cfg_b, mode="fixmatch"))
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

    def test_each_epoch_steps_at_its_cosine_rate(self, monkeypatch):
        """Epoch e of T steps at base_lr * (1 + cos(pi * e / T)) / 2 and logs
        that rate, so the first epoch runs at base_lr."""
        cfg = small_config("optimizer.base_lr=0.01")
        T = cfg.schedule.total_epochs
        rates = [0.01 * 0.5 * (1.0 + math.cos(math.pi * e / T)) for e in range(T)]
        used = count_sgd_steps(monkeypatch)
        epochs = engine.run(small_dataset(), cfg).metrics.epochs
        assert [rec["lr"] for rec in epochs] == pytest.approx(rates, rel=1e-12)
        assert used == pytest.approx([rates[rec["epoch"]] for rec in epochs
                                      for _ in range(rec["steps"])], rel=1e-12)

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
        # sync mode is an offline event every epoch, byte for byte
        every_epoch = engine.run(ds, small_config("schedule.offline_every=1"))
        assert res.metrics.to_ndjson() == every_epoch.metrics.to_ndjson()

    def test_leakage_guard_poisoned_labels_do_not_touch_training(self):
        ds = small_dataset()
        cfg = small_config(seed=3)
        res_clean = engine.run(ds, cfg)
        res_poisoned = engine.run(poison_eval_labels(ds, seed=1234), cfg)
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(res_clean.model, name),
                                  getattr(res_poisoned.model, name))
        # the pseudo-label sets: their indices and labels
        assert [e["pseudo_digest"] for e in res_clean.metrics.events] == \
            [e["pseudo_digest"] for e in res_poisoned.metrics.events]
        for a, b in zip(res_clean.metrics.epochs, res_poisoned.metrics.epochs):
            assert a["loss_total"] == b["loss_total"]
            assert a["pass_count"] == b["pass_count"]
        # only evaluation metrics may move
        clean_acc = [e["pseudo_label_acc"] for e in res_clean.metrics.events]
        poisoned_acc = [e["pseudo_label_acc"] for e in res_poisoned.metrics.events]
        assert clean_acc != poisoned_acc

    def test_trainer_state_is_label_blind(self):
        """Only the held-out probe and the metrics may hold what the labels of
        unlabeled and held-out rows decide: every other trainer attribute
        pickles to the same bytes when those labels are scrambled, at
        construction, after warm-up, on a branch and after an offline event."""
        ds = small_dataset()
        poisoned = poison_eval_labels(ds, seed=1234)
        cfg = small_config(seed=3)
        warmup = cfg.schedule.warmup_epochs

        def label_blind(a, b):
            assert not np.array_equal(a.probe.pool_true, b.probe.pool_true)
            state = [{name: pickle.dumps(value) for name, value in vars(t).items()
                      if name not in ("probe", "metrics")} for t in (a, b)]
            assert state[0].keys() == state[1].keys()
            for name in state[0]:
                assert state[0][name] == state[1][name], name

        clean, dirty = (engine._Trainer(d, replace(cfg, mode="fixmatch")) for d in (ds, poisoned))
        label_blind(clean, dirty)
        for t in (clean, dirty):
            t.train(warmup)
        label_blind(clean, dirty)
        clean, dirty = (t.branch(replace(cfg, mode="aplt")) for t in (clean, dirty))
        label_blind(clean, dirty)
        for t in (clean, dirty):
            t.train(warmup + 1)
        assert [e["epoch"] for e in clean.metrics.events] == [warmup]
        label_blind(clean, dirty)

    def test_validation_errors_surface(self):
        ds = small_dataset()
        fully_labeled = data.generate_synthetic(2, 3, 10, 0.1, seed=0)
        with pytest.raises(InvalidParameterError):
            engine.run(fully_labeled, small_config())
        with pytest.raises(InvalidParameterError):
            engine.run(ds, replace(small_config(), mode="nonsense"))

    def test_metrics_stream_is_valid_ndjson(self):
        ds = small_dataset()
        res = engine.run(ds, small_config())
        lines = res.metrics.to_ndjson().strip().split("\n")
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds.count("epoch") == 8
        assert kinds.count("offline_event") == 2
        assert kinds[-1] == "final"


class TestPrototypeMembers:
    def test_last_bank_counts_its_members(self):
        ds = small_dataset()
        cfg = small_config()
        res = engine.run(ds, cfg)
        last = res.metrics.events[-1]
        n_labeled = int(ds.labeled_mask.sum())
        n_test = int(np.floor(cfg.eval.test_fraction * ds.n + 0.5))
        n_unlabeled_train = ds.n - n_labeled - n_test
        assert last["n_unlabeled"] == n_unlabeled_train
        # the threshold drops some rows, and the bank counts only survivors
        assert last["kept"] < n_unlabeled_train
        assert res.bank.counts.sum() == n_labeled + last["kept"]


class TestEvaluate:
    def test_prototypes_at_class_means_are_perfect_on_separable_data(self):
        rng = np.random.default_rng(0)
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        X = np.repeat(centers, 30, axis=0) + 0.01 * rng.normal(size=(90, 2))
        y = np.repeat(np.arange(3), 30)
        m = nn.EncoderModel(  # identity-ish 2d encoder via pos/neg split
            w1=np.concatenate([np.eye(2), -np.eye(2)], axis=1), b1=np.zeros(4),
            w2=np.concatenate([np.eye(2), -np.eye(2)], axis=0), b2=np.zeros(2),
            hw=np.eye(2, 3), hb=np.zeros(3))
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


@pytest.mark.parametrize("epochs", [(2, 6), (0, 0)], ids=["trained", "no_epoch"])
def test_final_scores_reuse_the_last_epoch_record(monkeypatch, epochs):
    """A run scores each epoch once and does not score its final model
    again; only a run with no epoch scores it at the end."""
    cfg = small_config(f"schedule.warmup_epochs={epochs[0]}",
                       f"schedule.main_epochs={epochs[1]}")
    trainer = engine._Trainer(small_dataset(), replace(cfg, mode="aplt"))
    scored = []
    monkeypatch.setattr(engine, "evaluate",
                        lambda *args, _real=engine.evaluate: scored.append(1) or _real(*args))
    final = trainer.finish().metrics.final
    assert len(scored) == max(sum(epochs), 1)
    assert (final["test_acc_proto"], final["test_acc_param"]) == trainer.probe.scores(
        trainer.model, trainer.bank, trainer.X)


def test_offline_passes_peak_memory_is_bounded():
    """Feature extraction and evaluation hold one row block's activations at
    a time: at n_u = 50,000 a one-pass encoder would add about 75 MiB (z1, a1,
    v and F at once) over their outputs."""
    n_l, n_u, d, C = 1200, 50000, 32, 12
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n_l + n_u, d))
    lab, unl = np.arange(n_l), np.arange(n_l, n_l + n_u)
    y = rng.integers(0, C, size=n_u)
    m = nn.EncoderModel.init(d, 64, 32, C, rng)
    bank = cluster.PrototypeBank(rho=rng.normal(size=(C, 32)), counts=np.ones(C, dtype=int))
    slack = 4 * 2**20
    tracemalloc.start()
    try:
        out = cluster.extract_all_features(m, X, lab, unl, cluster.ClusterConfig(),
                                           np.random.default_rng(1), augment.AugmentConfig())
        _, extract_peak = tracemalloc.get_traced_memory()
        outputs = sum(F.nbytes for F in out)
        del out
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        proto_acc, param_acc = engine.evaluate(m, bank, X, y, unl)
        _, evaluate_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert extract_peak < outputs + slack
    # the features and the head's probabilities, made in its logits' buffer
    assert evaluate_peak - before < 8 * n_u * (32 + C) + slack
    assert 0.0 <= proto_acc <= 1.0 and 0.0 <= param_acc <= 1.0


def test_evaluate_holds_one_class_score_array():
    """With C=100 an (n, C) array is three times the features: evaluation
    holds one of them, never the logits and the probabilities at once, nor
    the probabilities next to the prototype scores."""
    n, d, e, C = 20_000, 32, 32, 100
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(n, d)), rng.integers(0, C, size=n)
    m = nn.EncoderModel.init(d, 64, e, C, rng)
    bank = cluster.PrototypeBank(rho=rng.normal(size=(C, e)), counts=np.ones(C, dtype=int))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        engine.evaluate(m, bank, X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 8 * n * (e + C) + 2**20


class TestAblationGrid:
    def test_grid_rows_and_ssl_equivalence(self):
        ds = small_dataset()
        cfg = small_config(seed=4)
        records = engine.run_ablation_grid(ds, cfg)
        assert [r["row"] for r in records] == list(engine.ABLATION_ROWS)
        assert len(records) == 7
        baseline = engine.run(ds, replace(cfg, mode="fixmatch"))
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
        assert full.cluster.aug_copies == 3
        assert full.cluster.use_adaptive_threshold
        bare = engine._row_config(small_config(), "SSL+SSKM(S)")
        assert bare.cluster.aug_copies == 0
        assert not bare.cluster.use_adaptive_threshold


def count_sgd_steps(monkeypatch):
    """A list that gains one entry per optimizer step, the step's learning
    rate, with every run made in this process."""
    calls = []
    sgd_step = nn.sgd_step

    def counted(m, opt, grad, lr):
        calls.append(lr)
        return sgd_step(m, opt, grad, lr)

    monkeypatch.setattr(nn, "sgd_step", counted)
    monkeypatch.setattr(engine, "_pool_size", lambda n: 1)
    return calls


def _grid_via_full_runs(ds, cfg, seeds):
    """The ablation records as each row's own unbranched run gives them."""
    records = []
    for row in engine.ABLATION_ROWS:
        for seed in seeds:
            res = engine.run(ds, replace(engine._row_config(cfg, row), seed=seed))
            last_ev = res.metrics.events[-1] if res.metrics.events else None
            records.append({
                "row": row, "seed": seed, "accuracy": res.metrics.final["test_acc"],
                "coverage": last_ev["coverage"] if last_ev else None,
                "pseudo_label_acc": last_ev["pseudo_label_acc"] if last_ev else None})
    return records


class TestBranchedGrid:
    @pytest.mark.parametrize("warmup", [2, 0])
    def test_branches_equal_unbranched_runs(self, monkeypatch, warmup):
        ds = small_dataset()
        cfg = small_config(f"schedule.warmup_epochs={warmup}")
        monkeypatch.setattr(engine, "_pool_size", lambda n: 1)
        assert engine.run_ablation_grid(ds, cfg, seeds=[0, 1]) == \
            _grid_via_full_runs(ds, cfg, [0, 1])

    def test_branch_log_equals_unbranched_log(self):
        ds = small_dataset()
        cfg = small_config()
        warm = warmed_up(ds, cfg)
        for mode in ("fixmatch", "aplt"):
            branched = warm.branch(replace(cfg, mode=mode)).finish().metrics.to_ndjson()
            assert branched == engine.run(ds, replace(cfg, mode=mode)).metrics.to_ndjson()

    @pytest.mark.parametrize("via_pickle", [False, True])
    def test_branch_owns_its_parameters(self, via_pickle):
        # a branch steps its own theta and momentum and leaves the warm-up's
        # bits alone; the pickled case guards EncoderModel.__reduce__, which
        # branch's deep copy goes through
        ds = small_dataset()
        cfg = small_config()
        warm = warmed_up(ds, cfg)
        twin = warm.branch(replace(cfg, mode="aplt"))
        if via_pickle:
            twin = pickle.loads(pickle.dumps(twin))
        before = warm.model.theta.tobytes(), warm.opt.velocity.tobytes()
        for name in nn.PARAM_NAMES:
            assert np.shares_memory(getattr(twin.model, name), twin.model.theta), name
            assert not np.shares_memory(getattr(twin.model, name), warm.model.theta), name
        assert not np.shares_memory(twin.opt.velocity, warm.opt.velocity)
        twin_w1 = twin.model.w1.copy()
        grad = np.random.default_rng(0).normal(size=twin.model.theta.shape)
        nn.sgd_step(twin.model, twin.opt, grad, lr=0.1)
        assert not np.array_equal(twin.model.w1, twin_w1)
        assert (warm.model.theta.tobytes(), warm.opt.velocity.tobytes()) == before

    def test_ablation_csv_same_at_one_and_two_workers(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "ds.csv"
        data.save_csv(small_dataset(), csv_path)
        tables = []
        for workers in (1, 2):
            monkeypatch.setattr(engine, "_pool_size", lambda n, w=workers: w)
            out = tmp_path / f"abl{workers}"
            assert cli.main(["ablate", "--data", str(csv_path), "--out", str(out),
                             "--seeds", "0,1", *SMALL_ARGS]) == 0
            tables.append((out / "ablation.csv").read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 1 + 14

    def test_optimizer_steps_are_warmup_once_plus_seven_continuations(self, monkeypatch):
        ds = small_dataset()
        cfg, _ = config.resolve(None, ["fixmatch.batch_size=16"])  # default schedule
        steps_per_epoch = warmed_up(ds, cfg).metrics.epochs[0]["steps"]
        calls = count_sgd_steps(monkeypatch)
        engine.run_ablation_grid(ds, cfg, seeds=[0, 1])
        assert len(calls) == 2 * (15 + 7 * 40) * steps_per_epoch  # 295 epochs a seed

    def test_branch_warnings_reach_the_caller_at_one_and_two_workers(self, tmp_path,
                                                                     monkeypatch):
        # prototypes are built only after warm-up, so in the branches
        def noisy_build(*args, **kwargs):
            bank = build_prototypes(*args, **kwargs)
            logging.getLogger("aplt.test").warning("bank %s at epoch %d",
                                                   bank.digest()[:12], bank.build_epoch)
            return bank

        build_prototypes = cluster.build_prototypes
        monkeypatch.setattr(cluster, "build_prototypes", noisy_build)
        csv_path = tmp_path / "ds.csv"
        data.save_csv(small_dataset(), csv_path)
        texts = []
        for workers in (1, 2):
            monkeypatch.setattr(engine, "_pool_size", lambda n, w=workers: w)
            sink = io.StringIO()
            with contextlib.redirect_stderr(sink):
                assert cli.main(["ablate", "--data", str(csv_path), "--out",
                                 str(tmp_path / f"abl{workers}"), "--seeds", "0,1",
                                 *SMALL_ARGS]) == 0
            texts.append(sink.getvalue())
        assert texts[0] == texts[1]
        # 6 aplt rows x 2 seeds x 2 offline events, in branch order
        assert texts[0].count("WARNING aplt.test: bank ") == 24

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nonfinite_in_a_branch_exits_two_without_table(self, tmp_path, monkeypatch,
                                                           capsys, workers):
        # the margin terms run only after warm-up, so in the branches
        def nan_margin(*args):
            logging.getLogger("aplt.test").warning("margin term turns nan")
            return replace(margin_loss_labeled(*args), value=float("nan"))

        margin_loss_labeled = proto.margin_loss_labeled
        monkeypatch.setattr(proto, "margin_loss_labeled", nan_margin)
        monkeypatch.setattr(engine, "_pool_size", lambda n: workers)
        csv_path = tmp_path / "ds.csv"
        data.save_csv(small_dataset(), csv_path)
        out = tmp_path / "abl"
        assert cli.main(["ablate", "--data", str(csv_path), "--out", str(out),
                         *SMALL_ARGS]) == 2
        err = capsys.readouterr().err
        assert "runtime error: nonfinite total loss" in err
        # the failing branch's warnings still reach the caller, at any pool size
        assert err.count("WARNING aplt.test: margin term turns nan") == 1
        assert not (out / "ablation.csv").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_caller_branches_only_without_a_pool(self, monkeypatch, workers):
        # forked workers count their own branch calls in their own copy of
        # the list, so the caller's list holds only its own
        calls = []
        branch = engine._Trainer.branch

        def counted(self, cfg):
            calls.append(cfg.mode)
            return branch(self, cfg)

        monkeypatch.setattr(engine._Trainer, "branch", counted)
        monkeypatch.setattr(engine, "_pool_size", lambda n: workers)
        records = engine.run_ablation_grid(small_dataset(), small_config(), seeds=[0, 1])
        assert len(calls) == (len(records) if workers == 1 else 0)

    def test_the_caller_holds_no_copy_of_the_features_beyond_its_warmups(self,
                                                                         monkeypatch):
        # the features dominate a trainer's pickle here: 6,000 x 64 float64
        # against an encoder of 64 -> 16 -> 8 units
        ds = small_dataset(C=3, d=64, n_per_class=2000)
        cfg = small_config("model.hidden=16", "model.embed=8", "fixmatch.batch_size=256",
                           "schedule.warmup_epochs=1", "schedule.main_epochs=1",
                           "schedule.offline_every=1")
        monkeypatch.setattr(engine, "_pool_size", lambda n: 2)
        tracemalloc.start()
        try:
            warmups = [warmed_up(ds, replace(cfg, seed=seed)) for seed in (0, 1)]
            _, warmup_peak = tracemalloc.get_traced_memory()
            del warmups
            tracemalloc.reset_peak()
            engine.run_ablation_grid(ds, cfg, seeds=[0, 1])
            _, grid_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid_peak - warmup_peak < ds.features.nbytes


class TestEncoderPassesPerStep:
    """nn.forward and nn.backward calls in one optimizer step."""

    def step_counts(self, monkeypatch, mode, tau, with_bank):
        cfg = small_config(f"fixmatch.tau={tau}")
        trainer = engine._Trainer(small_dataset(), replace(cfg, mode=mode))
        if with_bank:
            trainer.offline_phase(0)
        calls = count_encoder_passes(monkeypatch)
        chunk = trainer._epoch_chunks()[0]
        _, _, uns = trainer._train_step(chunk, trainer._draw(chunk), 0.01, cfg.margin.lam)
        return calls["forward"], calls["backward"], uns

    @pytest.mark.parametrize("mode, with_bank, none_past, some_past", [
        ("aplt", True, (4, 3), (5, 4)),      # after warm-up
        ("aplt", False, (2, 1), (3, 2)),     # warm-up
        ("fixmatch", False, (2, 1), (3, 2)),
    ])
    def test_counts(self, monkeypatch, mode, with_bank, none_past, some_past):
        forwards, backwards, uns = self.step_counts(monkeypatch, mode, 0.95, with_bank)
        assert uns.pass_count == 0
        assert (forwards, backwards) == none_past
        forwards, backwards, uns = self.step_counts(monkeypatch, mode, 0.4, with_bank)
        assert 0 < uns.pass_count
        assert (forwards, backwards) == some_past

    @pytest.mark.parametrize("tau", [0.95, 0.4])
    def test_labeled_only_counts(self, monkeypatch, tau):
        # one supervised forward and backward, and no consistency term
        assert self.step_counts(monkeypatch, "labeled_only", tau, False) == (1, 1, None)

    def test_evaluate_runs_one_forward(self, monkeypatch):
        trainer = engine._Trainer(small_dataset(), replace(small_config(), mode="aplt"))
        trainer.offline_phase(0)
        calls = count_encoder_passes(monkeypatch)
        proto_acc, param_acc = trainer.probe.scores(trainer.model, trainer.bank, trainer.X)
        assert proto_acc is not None and param_acc is not None
        assert calls == {"forward": 1, "backward": 0}


class TestStepTerms:
    """Two terms of a step that no gated run tells apart: every gated run
    has margin.lambda 1.0, and none has a row past tau."""

    def test_lambda_scales_the_margin_gradient(self, monkeypatch):
        # steps from one state: the warm-up's, then the first offline event
        ds, cfg = small_dataset(), small_config()
        warm = warmed_up(ds, cfg)
        seen = []
        monkeypatch.setattr(nn, "sgd_step", lambda m, state, grad, lr: seen.append(grad.copy()))
        grads = {}
        for mode, lam in (("fixmatch", 1.0), ("aplt", 0.0), ("aplt", 0.5), ("aplt", 1.0)):
            t = warm.branch(replace(cfg, mode=mode, margin=replace(cfg.margin, lam=lam)))
            t._open_epoch()
            chunk = t._epoch_chunks()[0]
            t._step(chunk, t._draw(chunk))
            grads[mode, lam] = seen.pop()
        g0, g_half, g1 = (grads["aplt", lam] for lam in (0.0, 0.5, 1.0))
        # at lambda 0 the margin terms add nothing to the consistency step
        assert np.array_equal(g0, grads["fixmatch", 1.0])
        margin = g1 - g0
        assert np.abs(margin).max() > 1e-3 * np.abs(g1).max()
        np.testing.assert_allclose(g_half - g0, 0.5 * margin, rtol=0,
                                   atol=1e-12 * np.abs(g1).max())

    def test_consistency_labels_come_from_the_weak_view(self):
        """Planted views: every weak row argmaxes to class 0 and every strong
        row to class 1, on a head confident enough that every row passes tau.
        The strong view learns class 0, so its loss is large."""
        trainer = engine._Trainer(small_dataset(), replace(small_config(), mode="fixmatch"))
        d = trainer.X.shape[1]
        trainer.model = identity_encoder(d, hw=50.0 * np.eye(d)[:, :trainer.C])
        chunk = trainer._epoch_chunks()[0]
        views = trainer._draw(chunk)
        weak, strong = (np.tile(np.eye(d)[c], (chunk.size, 1)) for c in (0, 1))
        _, _, uns = trainer._train_step(chunk, [*views[:2], weak, strong], 0.0, 0.0)
        assert uns.pass_count == chunk.size
        assert not uns.pseudo_labels.any()
        assert uns.value > 40.0  # -log p(class 0) on e_1 is log(e^50 + 2), about 50


class TestWarmupSharing:
    def test_rows_and_compare_modes_share_every_field_warmup_reads(self):
        cfg, _ = config.resolve(None, [])
        cells = [engine._row_config(cfg, row) for row in engine.ABLATION_ROWS]
        cells += [replace(cfg, mode=mode) for mode in ("fixmatch", "aplt")]
        keys = [engine._warmup_key(c) for c in cells]
        assert len(keys) == 9
        assert all(key == keys[0] for key in keys)

    def test_keys_hash_and_leave_out_the_dataset(self):
        """``run_cells`` trains every cell on its ``ds``, so the dataset entry
        is not part of what a warm-up reads, and the keys group through dicts."""
        cfg, _ = config.resolve(None, [])
        on_csv = replace(cfg, dataset={"csv": "hard.csv"})
        keys = {engine._warmup_key(replace(c, mode=mode))
                for c in (cfg, on_csv) for mode in ("aplt", "fixmatch")}
        assert keys == {engine._warmup_key(replace(cfg, mode="aplt"))}
        assert len({engine._stream_key(replace(c, mode="aplt")) for c in (cfg, on_csv)}) == 1

    def test_branch_refuses_what_warmup_does_not_share(self):
        ds = small_dataset()
        cfg = small_config()
        warm = warmed_up(ds, cfg)
        faster = replace(cfg, optimizer=replace(cfg.optimizer, base_lr=0.01))
        for other_cfg, mode in ((faster, "aplt"), (cfg, "labeled_only"), (cfg, "nonsense")):
            with pytest.raises(InvalidParameterError, match="cannot branch"):
                warm.branch(replace(other_cfg, mode=mode))
        # the warm-up does not read the offline cadence
        for cadence in ("schedule.offline_every=1", "schedule.sync_mode=true"):
            warm.branch(replace(small_config(cadence), mode="aplt"))
        warm.train(cfg.schedule.warmup_epochs + 1)
        with pytest.raises(InvalidParameterError, match="cannot branch"):
            warm.branch(replace(cfg, mode="aplt"))


class TestRunCells:
    def test_one_warmup_per_key_and_every_log_equals_its_own_run(self, monkeypatch):
        ds = small_dataset()
        cells = [replace(small_config(seed=seed), mode=mode) for seed in (0, 1)
                 for mode in ("fixmatch", "aplt", "labeled_only")]
        cells.append(replace(small_config("optimizer.base_lr=0.01"), mode="aplt"))
        cells.append(replace(small_config("schedule.offline_every=1"), mode="aplt"))
        sched = cells[0].schedule
        steps_per_epoch = warmed_up(ds, cells[0]).metrics.epochs[0]["steps"]
        calls = count_sgd_steps(monkeypatch)
        logs = [metrics.to_ndjson() for metrics in engine.run_cells(ds, cells)]
        # seed 0 and seed 1 train one warm-up each for fixmatch and aplt and
        # one for labeled_only, and the other base_lr one more; the other
        # cadence shares seed 0's
        warmups = 5
        assert len(calls) == (warmups * sched.warmup_epochs
                              + len(cells) * sched.main_epochs) * steps_per_epoch
        assert logs == [engine.run(ds, cfg).metrics.to_ndjson() for cfg in cells]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_cell_listed_twice_gives_two_independent_results(self, monkeypatch, workers):
        monkeypatch.setattr(engine, "_pool_size", lambda n: workers)
        cfg = small_config()
        a, b = engine.run_cells(small_dataset(), [replace(cfg, mode="aplt")] * 2)
        assert a is not b
        assert a.to_ndjson() == b.to_ndjson()
        a.epochs[0]["lr"] = None
        a.events.clear()
        assert b.epochs[0]["lr"] is not None and b.events
        assert b.to_ndjson() == engine.run(small_dataset(), cfg).metrics.to_ndjson()

    def test_no_cells_no_results(self):
        assert engine.run_cells(small_dataset(), []) == []
        assert engine.run_ablation_grid(small_dataset(), small_config(), seeds=[]) == []


class TestStreamGroups:
    def test_equal_stream_keys_end_with_equal_rng_states(self):
        # each cell runs alone here, so equal states show that the key
        # names everything its draws read
        ds, cfg = small_dataset(), small_config()
        cells = [engine._row_config(cfg, row) for row in engine.ABLATION_ROWS]
        cells.append(replace(cfg, mode="labeled_only"))
        cells.append(engine._row_config(small_config("schedule.offline_every=1"),
                                        "SSL+SSKM(S)"))
        keys, states = [], []
        for c in cells:
            trainer = engine._Trainer(ds, c)
            trainer.finish()
            keys.append(engine._stream_key(c))
            states.append(trainer.rng_train.bit_generator.state)
        for i in range(len(cells)):
            for j in range(len(cells)):
                assert (keys[i] == keys[j]) == (states[i] == states[j])
        rows = [*engine.ABLATION_ROWS, "labeled_only", "SSL+SSKM(S), offline_every=1"]
        shared = [row for row, key in zip(rows, keys) if key == keys[1]]
        assert shared == ["SSL+KM", "SSL+SSKM(S)", "SSL+SSKM(S)+LA", "SSL+SSKM(S)+SAT",
                          "SSL+SSKM(S)+LA+SAT", "SSL+SSKM(S), offline_every=1"]
        for row in ("SSL", "SSL+SSKM(W)", "labeled_only"):
            assert keys.count(keys[rows.index(row)]) == 1

    @pytest.mark.parametrize("seeds, workers, sizes", [
        (1, 2, [3, 2, 1, 1]),
        (1, 1, [5, 1, 1]),
        (5, 2, [5] * 5 + [1] * 10),
    ])
    def test_tasks_split_only_groups_above_a_workers_share(self, seeds, workers, sizes):
        cfg, _ = config.resolve(None, [])
        cells = [replace(engine._row_config(cfg, row), seed=seed)
                 for seed in range(seeds) for row in engine.ABLATION_ROWS]
        tasks = engine._tasks(cells, workers)
        assert [len(task) for task in tasks] == sizes
        assert sorted(i for task in tasks for i in task) == list(range(len(cells)))

    def test_aplt_tasks_go_before_fixmatch_tasks_of_their_size(self):
        cfg, _ = config.resolve(None, [])
        cells = [engine._row_config(cfg, row) for row in engine.ABLATION_ROWS]
        tasks = [[engine.ABLATION_ROWS[i] for i in task] for task in engine._tasks(cells, 2)]
        assert tasks == [["SSL+SSKM(S)+LA", "SSL+SSKM(S)+SAT", "SSL+SSKM(S)+LA+SAT"],
                         ["SSL+KM", "SSL+SSKM(S)"], ["SSL+SSKM(W)"], ["SSL"]]

    def test_a_one_seed_grid_draws_strong_views_once_per_task(self, monkeypatch):
        # no labeled augmentation, so every strong view is a step's draw
        ds, cfg = small_dataset(), small_config("cluster.aug_copies=0")
        calls = []
        strong = augment.strong

        def counted(*args):
            calls.append(1)
            return strong(*args)

        monkeypatch.setattr(augment, "strong", counted)
        monkeypatch.setattr(engine, "_pool_size", lambda n: 1)
        warmed_up(ds, cfg)
        warmup = len(calls)
        after_warmup = {}
        for row in engine.ABLATION_ROWS:
            calls.clear()
            engine.run(ds, engine._row_config(cfg, row))
            after_warmup[row] = len(calls) - warmup
        calls.clear()
        engine.run_ablation_grid(ds, cfg)
        # one task per stream group: SSL, SSL+SSKM(W) and the other five
        per_task = [after_warmup[row] for row in ("SSL", "SSL+SSKM(W)", "SSL+KM")]
        assert len(calls) == warmup + sum(per_task)
        assert len(calls) < warmup + sum(after_warmup.values())

    def test_draws_are_read_only(self):
        ds, cfg = small_dataset(), small_config()
        for mode, n in (("labeled_only", 2), ("fixmatch", 4), ("aplt", 6)):
            trainer = engine._Trainer(ds, replace(cfg, mode=mode))
            if mode == "aplt":
                trainer.offline_phase(0)
            views = trainer._draw(trainer._epoch_chunks()[0])
            assert len(views) == n
            assert not any(view.flags.writeable for view in views)

    def test_two_identical_cells_in_one_group_log_as_their_own_run(self):
        ds, cfg = small_dataset(), small_config()
        cells = [replace(cfg, mode="aplt")] * 2
        metrics, _ = engine._finish_group(cells, {engine._warmup_key(cfg): warmed_up(ds, cfg)})
        logs = [m.to_ndjson() for m in metrics]
        assert logs[0] == logs[1] == engine.run(ds, cfg).metrics.to_ndjson()


class TestBaselineFixmatch:
    def test_same_seed_reproducible(self):
        ds = small_dataset()
        a = engine.run(ds, replace(small_config(seed=9), mode="fixmatch"))
        b = engine.run(ds, replace(small_config(seed=9), mode="fixmatch"))
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))

    def test_easy_benchmark_reaches_095(self):
        # measured 0.979 when the easy preset was frozen
        ds = data.generate_synthetic(12, 32, 100, overlap=0.10, seed=0)
        ds = data.apply_split(ds, data.SplitSpec(labeled_ratio=0.1, seed=0))
        cfg, _ = config.resolve(None, ["seed=0"])
        res = engine.run(ds, replace(cfg, mode="fixmatch"))
        assert res.metrics.final["test_acc_param"] >= 0.95


def test_prototype_bank_frozen_between_events():
    ds = small_dataset()
    res = engine.run(ds, small_config())
    # trainer re-hashes the bank every epoch and raises on mutation, so a
    # completed run plus unchanged digests is the contract
    digests = [r["bank_digest"] for r in res.metrics.epochs if r["bank_digest"]]
    assert len(set(digests)) == len(res.metrics.events)
