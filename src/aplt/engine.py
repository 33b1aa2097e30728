"""Training driver: warm-up, alternating offline/online phases, evaluation.

The offline phase (feature extraction, anchored clustering, threshold
filtering, prototype build) runs at the end of warm-up and then on a fixed
epoch cadence; everything it produces is frozen in between, which the driver
enforces by re-hashing the bank every epoch. Online steps always optimize
the thresholded-consistency objective and, once a bank exists, add the
prototype margin terms scaled by lambda.

Per-epoch and per-event records go into RunMetrics; serialization is
timestamp-free so identical configs and seeds produce byte-identical logs.
True labels of unlabeled samples are touched only by evaluation metrics,
never by anything that feeds a loss or the optimizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment as aug_mod
from . import cluster as cluster_mod
from . import fixmatch as fm_mod
from . import nn
from . import proto as proto_mod
from .data import FeatureDataset, validate_for_training
from .errors import ApltError, ConfigError, InvalidParameterError, NonFiniteError

MODES = ("aplt", "fixmatch", "labeled_only")

ABLATION_ROWS = (
    "SSL",
    "SSL+KM",
    "SSL+SSKM(W)",
    "SSL+SSKM(S)",
    "SSL+SSKM(S)+LA",
    "SSL+SSKM(S)+SAT",
    "SSL+SSKM(S)+LA+SAT",
)


@dataclass(frozen=True)
class PhaseSchedule:
    warmup_epochs: int = 15
    main_epochs: int = 40
    offline_every: int = 10
    sync_mode: bool = False

    def __post_init__(self):
        if self.warmup_epochs < 0 or self.main_epochs < 0:
            raise InvalidParameterError("epoch counts must be nonnegative")
        if self.offline_every < 1:
            raise InvalidParameterError("offline_every must be >= 1")

    @property
    def total_epochs(self) -> int:
        return self.warmup_epochs + self.main_epochs

    def offline_epochs(self) -> list[int]:
        """Epochs at whose start the offline phase runs."""
        if self.sync_mode:
            return list(range(self.warmup_epochs, self.total_epochs))
        return [e for e in range(self.warmup_epochs, self.total_epochs)
                if (e - self.warmup_epochs) % self.offline_every == 0]


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)
    events: list = field(default_factory=list)
    final: dict = field(default_factory=dict)

    def records(self):
        """Chronological stream: each offline event before its epoch record."""
        by_epoch = {}
        for ev in self.events:
            by_epoch.setdefault(ev["epoch"], []).append(ev)
        for rec in self.epochs:
            for ev in by_epoch.get(rec["epoch"], []):
                yield {"kind": "offline_event", **ev}
            yield {"kind": "epoch", **rec}
        if self.final:
            yield {"kind": "final", **self.final}

    def to_ndjson(self) -> str:
        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.records())


@dataclass
class RunResult:
    metrics: RunMetrics
    model: nn.EncoderModel
    bank: cluster_mod.PrototypeBank | None
    pseudo: cluster_mod.PseudoLabelSet | None
    test_indices: np.ndarray


def evaluate(m: nn.EncoderModel, bank, X_test: np.ndarray, y_test: np.ndarray):
    """Top-1 accuracy of the prototype classifier (None without a bank) and
    of the parametric head, on the same held-out samples."""
    if X_test.shape[0] == 0:
        return None, None
    param_pred = nn.forward_logits(m, X_test).argmax(axis=1)
    param_acc = float((param_pred == y_test).mean())
    proto_acc = None
    if bank is not None:
        feats = nn.forward_features(m, X_test)
        proto_acc = float((proto_mod.predict(bank, feats) == y_test).mean())
    return proto_acc, param_acc


def _float_or_none(x):
    return None if x is None else float(x)


class _Trainer:
    """One run: owns the rng streams, partitions, and the epoch loop."""

    def __init__(self, ds: FeatureDataset, cfg, mode: str):
        if mode not in MODES:
            raise InvalidParameterError(f"unknown mode {mode!r}")
        if mode == "aplt" and not cfg.model.feature_norm:
            raise ConfigError("model.feature_norm=false cannot be used with the "
                              "offline phase (train --mode aplt, compare, ablate): "
                              "clustering compares features with unit-norm centroids")
        validate_for_training(ds)
        self.cfg = cfg
        self.mode = mode
        self.sched: PhaseSchedule = cfg.schedule
        seq = np.random.SeedSequence(cfg.seed)
        k_model, k_split, k_train, k_cluster = seq.spawn(4)
        self.rng_train = np.random.default_rng(k_train)
        self.rng_cluster = np.random.default_rng(k_cluster)

        unl = ds.unlabeled_indices()
        n_test = int(np.floor(cfg.eval.test_fraction * ds.n + 0.5))
        if n_test >= unl.size:
            raise InvalidParameterError(
                "test split would leave no unlabeled training samples")
        rng_split = np.random.default_rng(k_split)
        # label-blind draw: the leakage guard forbids reading unlabeled labels
        test_idx = np.sort(rng_split.choice(unl, size=n_test, replace=False))
        self.test_idx = test_idx
        train_unl = np.setdiff1d(unl, test_idx)
        lab = ds.labeled_indices()

        self.X_l = ds.features[lab]
        self.y_l = ds.true_labels[lab]
        self.X_u = ds.features[train_unl]
        self.u_true = ds.true_labels[train_unl]      # evaluation-only
        self.X_test = ds.features[test_idx]
        self.y_test = ds.true_labels[test_idx]
        self.C = ds.num_classes

        self.model = nn.EncoderModel.init(
            ds.dim, cfg.model.hidden, cfg.model.embed, self.C,
            np.random.default_rng(k_model), feature_norm=cfg.model.feature_norm)
        self.opt = nn.OptimizerState(momentum=cfg.optimizer.momentum,
                                     weight_decay=cfg.optimizer.weight_decay)
        self.bank = None
        self.pseudo = None
        self._bank_digest = None
        self.metrics = RunMetrics()

    # -- offline phase ------------------------------------------------------

    def offline_phase(self, epoch: int) -> None:
        ccfg: cluster_mod.ClusterConfig = self.cfg.cluster
        F_l, F_u, F_sl = cluster_mod.extract_all_features(
            self.model, self.X_l, self.X_u, ccfg, self.rng_cluster, aug=self.cfg.augment)
        if ccfg.method == "km":
            result = cluster_mod.pure_kmeans(F_l, F_u, self.y_l, self.C, ccfg)
        else:
            result = cluster_mod.ss_kmeans(F_l, F_u, F_sl, self.y_l, ccfg,
                                           num_classes=self.C)
        thresholds = cluster_mod.adaptive_thresholds(result, self.C)
        pseudo = cluster_mod.filter_pseudo_labels(result, thresholds, ccfg)
        if ccfg.prototype_members == "all":
            members = replace(pseudo,
                              indices=np.arange(result.assignments.shape[0]),
                              labels=result.assignments, coverage=1.0)
        else:
            members = pseudo
        bank = cluster_mod.build_prototypes(F_l, self.y_l, F_u[members.indices],
                                            members, build_epoch=epoch)
        self.bank = bank
        self.pseudo = pseudo
        self._bank_digest = bank.digest()

        kept_true = self.u_true[pseudo.indices]
        empty = np.flatnonzero(pseudo.tau_local == 0.0)
        self.metrics.events.append({
            "epoch": epoch,
            "iterations_run": int(result.iterations_run),
            "coverage": float(pseudo.coverage),
            "kept": int(pseudo.indices.size),
            "n_unlabeled": int(pseudo.n_unlabeled),
            "tau_global": float(pseudo.tau_global),
            "tau_local": [float(t) for t in pseudo.tau_local],
            "pseudo_label_acc": (float((pseudo.labels == kept_true).mean())
                                 if pseudo.indices.size else None),
            "objective": float(result.objective),
            "monotonic": bool(result.monotonic),
            "empty_threshold_classes": [int(c) for c in empty],
            "bank_digest": bank.digest(),
            "pseudo_digest": pseudo.digest(),
        })

    # -- online steps -------------------------------------------------------

    def _labeled_batch(self, size: int) -> np.ndarray:
        n = self.X_l.shape[0]
        return self.rng_train.choice(n, size=size, replace=n < size)

    def run(self) -> RunResult:
        cfg = self.cfg
        sched = self.sched
        total = sched.total_epochs
        offline_at = set(sched.offline_epochs()) if self.mode == "aplt" else set()
        lam = cfg.margin.lam
        view_fn = aug_mod.strong if cfg.margin.view == "strong" else aug_mod.weak

        for epoch in range(total):
            lr = nn.cosine_lr(epoch, total, cfg.optimizer.base_lr)
            if epoch in offline_at:
                self.offline_phase(epoch)

            sums = {"logits": 0.0, "margin": 0.0, "total": 0.0}
            pass_count = 0
            passed_correct = 0
            steps = 0
            for chunk in self._epoch_chunks():
                step_logits, step_margin, uns = self._train_step(chunk, lr, lam, view_fn)
                sums["logits"] += step_logits
                sums["margin"] += step_margin
                sums["total"] += step_logits + lam * step_margin
                steps += 1
                if uns is not None and uns.pass_count:
                    pass_count += uns.pass_count
                    truth = self.u_true[chunk[uns.passed]]
                    passed_correct += int((uns.pseudo_labels[uns.passed] == truth).sum())

            if self.bank is not None and self.bank.digest() != self._bank_digest:
                raise ApltError("prototype bank mutated during online training")

            proto_acc, param_acc = evaluate(self.model, self.bank,
                                            self.X_test, self.y_test)
            last_ev = self.metrics.events[-1] if self.metrics.events else None
            self.metrics.epochs.append({
                "epoch": epoch,
                "mode": self.mode,
                "lr": float(lr),
                "steps": steps,
                "loss_logits": sums["logits"] / max(steps, 1),
                "loss_margin": sums["margin"] / max(steps, 1),
                "loss_total": sums["total"] / max(steps, 1),
                "pass_count": pass_count,
                "fixmatch_pass_frac": (pass_count / max(self.X_u.shape[0], 1)
                                       if self.mode != "labeled_only" else None),
                "fixmatch_pseudo_acc": (passed_correct / pass_count
                                        if pass_count else None),
                "offline_coverage": last_ev["coverage"] if last_ev else None,
                "offline_pseudo_acc": last_ev["pseudo_label_acc"] if last_ev else None,
                "test_acc_proto": _float_or_none(proto_acc),
                "test_acc_param": _float_or_none(param_acc),
                "bank_digest": self._bank_digest,
                "pseudo_digest": self.pseudo.digest() if self.pseudo else None,
            })

        proto_acc, param_acc = evaluate(self.model, self.bank, self.X_test, self.y_test)
        self.metrics.final = {
            "mode": self.mode,
            "seed": int(cfg.seed),
            "epochs": total,
            "offline_events": len(self.metrics.events),
            "test_acc_proto": _float_or_none(proto_acc),
            "test_acc_param": _float_or_none(param_acc),
            # headline number: prototype path when it exists, head otherwise
            "test_acc": _float_or_none(proto_acc if proto_acc is not None else param_acc),
        }
        return RunResult(metrics=self.metrics, model=self.model, bank=self.bank,
                         pseudo=self.pseudo, test_indices=self.test_idx)

    def _epoch_chunks(self):
        # every mode takes the same number of optimizer steps per epoch;
        # labeled_only just ignores the unlabeled rows the chunk names
        B = self.cfg.fixmatch.batch_size
        order = self.rng_train.permutation(self.X_u.shape[0])
        return [order[i:i + B] for i in range(0, order.size, B)]

    def _train_step(self, chunk, lr, lam, view_fn):
        """One optimizer step. Returns the logit-path loss, the margin loss
        and the unlabeled consistency term (None in labeled_only mode)."""
        m, cfg = self.model, self.cfg
        lidx = self._labeled_batch(chunk.size)
        total = fm_mod.supervised_loss(m, self.X_l[lidx], self.y_l[lidx],
                                       cfg.augment, self.rng_train)
        uns = None
        if self.mode != "labeled_only":
            uns = fm_mod.unlabeled_loss(m, self.X_u[chunk], cfg.fixmatch,
                                        cfg.augment, self.rng_train)
            total = fm_mod.warmup_objective(total, uns)
        grads = dict(total.grads)
        margin_value = 0.0
        if self.bank is not None:
            xl_v = view_fn(self.X_l[lidx], cfg.augment, self.rng_train)
            xu_v = view_fn(self.X_u[chunk], cfg.augment, self.rng_train)
            F_lv = nn.forward_features(m, xl_v)
            F_uv = nn.forward_features(m, xu_v)
            msup = proto_mod.margin_loss_labeled(self.bank, F_lv, self.y_l[lidx],
                                                 cfg.margin)
            munsup = proto_mod.margin_loss_unlabeled(self.bank, F_uv, chunk,
                                                     self.pseudo, cfg.margin)
            margin_value = msup.value + munsup.value
            nn.add_grads(grads, nn.backward(m, xl_v, d_feats=msup.d_feats), lam)
            nn.add_grads(grads, nn.backward(m, xu_v, d_feats=munsup.d_feats), lam)
        self._finite_or_die(total.value + lam * margin_value, "total loss")
        nn.sgd_step(m, self.opt, grads, lr)
        return total.value, margin_value, uns

    def _finite_or_die(self, value, what):
        if not np.isfinite(value):
            raise NonFiniteError(
                f"nonfinite {what} at step {self.opt.step_count} "
                f"(mode={self.mode}); aborting run")


def run(ds: FeatureDataset, cfg, mode: str | None = None) -> RunResult:
    """Full training run; ``mode`` falls back to cfg.mode."""
    return _Trainer(ds, cfg, mode or cfg.mode).run()


def _row_config(cfg, row: str):
    """Config toggles for one ablation grid row."""
    return replace(
        cfg,
        mode="fixmatch" if row == "SSL" else "aplt",
        cluster=replace(cfg.cluster,
                        method="km" if row == "SSL+KM" else "sskm",
                        use_labeled_aug="+LA" in row,
                        use_adaptive_threshold="+SAT" in row),
        margin=replace(cfg.margin, view="weak" if "(W)" in row else "strong"),
    )


def run_ablation_grid(ds: FeatureDataset, cfg, seeds=None) -> list[dict]:
    """All seven component-toggle rows, one record per (row, seed)."""
    seeds = [cfg.seed] if seeds is None else list(seeds)
    records = []
    for row in ABLATION_ROWS:
        for seed in seeds:
            row_cfg = replace(_row_config(cfg, row), seed=int(seed))
            res = run(ds, row_cfg)
            last_ev = res.metrics.events[-1] if res.metrics.events else None
            records.append({
                "row": row,
                "seed": int(seed),
                "accuracy": res.metrics.final["test_acc"],
                "coverage": last_ev["coverage"] if last_ev else None,
                "pseudo_label_acc": last_ev["pseudo_label_acc"] if last_ev else None,
            })
    return records
