"""Training driver: warm-up, alternating offline/online phases, evaluation.

Each epoch is three plain trainer calls. ``_open_epoch`` runs the offline
phase (feature extraction, anchored clustering, threshold filtering,
prototype build) at the end of warm-up and then on a fixed epoch cadence.
``_step`` runs each batch. ``_close_epoch`` re-hashes the bank, which is
frozen between events, and scores and records the epoch. Online steps
always optimize the thresholded-consistency objective and, once a bank
exists, add the prototype margin terms scaled by lambda.

Runs with equal ``_warmup_key``s train the same warm-up, since nothing
before the first offline event reads the rest. ``run_cells``, behind
``compare`` and the ablation grid, trains each such warm-up once. Branches
with equal ``_stream_key``s then make the same random draws, so a pool
worker makes each call on all of them in turn (``_train_group``).

Per-epoch and per-event records go into RunMetrics; serialization is
timestamp-free so identical configs and seeds produce byte-identical logs.
The true labels of unlabeled and held-out rows stay in the held-out probe
(``_HeldOut``), which only scores; the trainer never holds them.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment as aug_mod
from . import cluster as cluster_mod
from . import fixmatch as fm_mod
from . import nn
from . import proto as proto_mod
from .data import FeatureDataset, validate_for_training
from .errors import ApltError, InvalidParameterError, NonFiniteError

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
        step = 1 if self.sync_mode else self.offline_every
        return list(range(self.warmup_epochs, self.total_epochs, step))


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)
    events: list = field(default_factory=list)
    final: dict = field(default_factory=dict)

    def to_ndjson(self) -> str:
        """The records in time order: each offline event before its epoch's."""
        events = {}
        for ev in self.events:
            events.setdefault(ev["epoch"], []).append({"kind": "offline_event", **ev})
        recs = [r for rec in self.epochs
                for r in events.get(rec["epoch"], []) + [{"kind": "epoch", **rec}]]
        recs += [{"kind": "final", **self.final}] if self.final else []
        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs)


@dataclass
class RunResult:
    metrics: RunMetrics
    model: nn.EncoderModel
    bank: cluster_mod.PrototypeBank | None


def evaluate(m: nn.EncoderModel, bank, X: np.ndarray, y: np.ndarray,
             rows: np.ndarray | None = None):
    """Top-1 accuracy of the prototype classifier (None without a bank) and
    of the parametric head against the labels y, on the same held-out
    samples X[rows] (all of X without ``rows``).

    The encoder runs in row blocks (``nn.encode_rows``). The head and the
    prototype scores are each one product over all rows, since a blocked
    head product would round differently. They are made one after the
    other and the softmax works in the logits' buffer, so evaluation holds
    one (n, C) array at a time."""
    feats = nn.encode_rows(m, X, rows)
    param_acc = float((nn.head_probs(m, feats).argmax(axis=1) == y).mean())
    proto_acc = None
    if bank is not None:
        proto_acc = float((proto_mod.predict(bank, feats) == y).mean())
    return proto_acc, param_acc


class _HeldOut:
    """The only holder of evaluation labels: those of the unlabeled training
    pool and of the test rows, a label-blind draw from the unlabeled rows.
    A trainer gets the pool's indices and asks this probe for every score."""

    def __init__(self, ds: FeatureDataset, fraction: float, key):
        unl = ds.unlabeled_indices()
        n_test = int(np.floor(fraction * ds.n + 0.5))
        if not 0 < n_test < unl.size:
            raise InvalidParameterError(
                f"eval.test_fraction={fraction} holds out {n_test} of {ds.n} rows, but the "
                f"test split and the training pool each need one of the {unl.size} "
                "unlabeled rows at least")
        self.test_idx = np.sort(np.random.default_rng(key).choice(unl, n_test, replace=False))
        self.pool = np.setdiff1d(unl, self.test_idx)
        self.pool_true = ds.true_labels[self.pool]
        self.y_test = ds.true_labels[self.test_idx]

    def correct(self, at: np.ndarray, labels: np.ndarray) -> int:
        """How many ``labels`` are right at pool positions ``at``."""
        return int((labels == self.pool_true[at]).sum())

    def scores(self, m: nn.EncoderModel, bank, X: np.ndarray):
        """``evaluate`` of a model and a bank on the test rows of X."""
        return evaluate(m, bank, X, self.y_test, self.test_idx)


class _Trainer:
    """One run: owns the rng streams, partitions, and the epoch loop."""

    def __init__(self, ds: FeatureDataset, cfg):
        if cfg.mode not in MODES:
            raise InvalidParameterError(f"unknown mode {cfg.mode!r}")
        validate_for_training(ds)
        self.cfg = cfg
        k_model, k_split, k_train, k_cluster = np.random.SeedSequence(cfg.seed).spawn(4)
        self.rng_train = np.random.default_rng(k_train)
        self.rng_cluster = np.random.default_rng(k_cluster)

        self.probe = _HeldOut(ds, cfg.eval.test_fraction, k_split)
        # one copy of the rows: every pass gathers them from X by index
        self.X = ds.features
        self.lab = ds.labeled_indices()
        self.y_l = ds.true_labels[self.lab]
        self.unl = self.probe.pool
        self.C = ds.num_classes

        self.model = nn.EncoderModel.init(
            ds.dim, cfg.model.hidden, cfg.model.embed, self.C,
            np.random.default_rng(k_model))
        self.opt = nn.OptimizerState(momentum=cfg.optimizer.momentum,
                                     weight_decay=cfg.optimizer.weight_decay)
        self.bank = self._targets = None
        self.metrics = RunMetrics()
        self.epoch = 0                               # the next epoch train() runs

    # -- offline phase ------------------------------------------------------

    def offline_phase(self, epoch: int) -> None:
        ccfg: cluster_mod.ClusterConfig = self.cfg.cluster
        F_l, F_u, F_sl = cluster_mod.extract_all_features(
            self.model, self.X, self.lab, self.unl, ccfg, self.rng_cluster,
            aug=self.cfg.augment)
        if ccfg.method == "km":
            result = cluster_mod.pure_kmeans(F_l, F_u, self.y_l, self.C, ccfg)
        else:
            result = cluster_mod.ss_kmeans(F_l, F_u, F_sl, self.y_l, ccfg,
                                           num_classes=self.C)
        thresholds = cluster_mod.adaptive_thresholds(result, self.C)
        tau_global, tau_local, _ = thresholds
        pseudo = cluster_mod.filter_pseudo_labels(result, thresholds, ccfg)
        self.bank = cluster_mod.build_prototypes(F_l, self.y_l, F_u[pseudo.indices],
                                                 pseudo.labels, self.C, build_epoch=epoch)
        # the steps read each pool row's pseudo-label, -1 where discarded
        self._targets = np.full(self.unl.size, -1, dtype=np.int64)
        self._targets[pseudo.indices] = pseudo.labels

        kept = pseudo.indices.size
        self.metrics.events.append({
            "epoch": epoch,
            "iterations_run": int(result.iterations_run),
            "coverage": float(pseudo.coverage),
            "kept": kept,
            "n_unlabeled": int(pseudo.n_unlabeled),
            "tau_global": float(tau_global),
            "tau_local": [float(t) for t in tau_local],
            "pseudo_label_acc": (self.probe.correct(pseudo.indices, pseudo.labels) / kept
                                 if kept else None),
            "objective": float(result.objective),
            "monotonic": bool(result.monotonic),
            "empty_threshold_classes": [int(c) for c in np.flatnonzero(tau_local == 0.0)],
            "bank_digest": self.bank.digest(),
            "pseudo_digest": pseudo.digest(),
        })

    # -- online steps -------------------------------------------------------

    def train(self, until: int) -> None:
        """Trains epochs [self.epoch, until), offline events included."""
        _train_group([self], until)

    def _open_epoch(self) -> None:
        """Runs this epoch's offline event if it has one (aplt only), sets
        its cosine ``_lr`` and zeroes its sums."""
        cfg = self.cfg
        if cfg.mode == "aplt" and self.epoch in cfg.schedule.offline_epochs():
            self.offline_phase(self.epoch)
        self._lr = nn.cosine_lr(self.epoch, cfg.schedule.total_epochs, cfg.optimizer.base_lr)
        self._sums = {"logits": 0.0, "margin": 0.0, "total": 0.0}
        self._steps = self._passed = self._right = 0

    def _step(self, chunk, views) -> None:
        """``_train_step`` on ``_draw(chunk)``'s views, added to the sums:
        the losses, the step, the rows past tau and the right ones among them."""
        lam, sums = self.cfg.margin.lam, self._sums
        step_logits, step_margin, uns = self._train_step(chunk, views, self._lr, lam)
        sums["logits"] += step_logits
        sums["margin"] += step_margin
        sums["total"] += step_logits + lam * step_margin
        self._steps += 1
        if uns is not None and uns.pass_count:
            self._passed += uns.pass_count
            self._right += self.probe.correct(chunk[uns.passed], uns.pseudo_labels[uns.passed])

    def _close_epoch(self) -> None:
        """Checks that the bank stayed frozen, scores the epoch through the
        probe, records it and moves on to the next."""
        last_ev = self.metrics.events[-1] if self.metrics.events else {}
        if last_ev and self.bank.digest() != last_ev["bank_digest"]:
            raise ApltError("prototype bank mutated during online training")
        proto_acc, param_acc = self.probe.scores(self.model, self.bank, self.X)
        sums, steps = self._sums, max(self._steps, 1)
        self.metrics.epochs.append({
            "epoch": self.epoch,
            "mode": self.cfg.mode,
            "lr": float(self._lr),
            "steps": self._steps,
            "loss_logits": sums["logits"] / steps,
            "loss_margin": sums["margin"] / steps,
            "loss_total": sums["total"] / steps,
            "pass_count": self._passed,
            "fixmatch_pass_frac": (self._passed / max(self.unl.size, 1)
                                   if self.cfg.mode != "labeled_only" else None),
            "fixmatch_pseudo_acc": self._right / self._passed if self._passed else None,
            "offline_coverage": last_ev.get("coverage"),
            "offline_pseudo_acc": last_ev.get("pseudo_label_acc"),
            "test_acc_proto": proto_acc,
            "test_acc_param": param_acc,
            "bank_digest": last_ev.get("bank_digest"),
            "pseudo_digest": last_ev.get("pseudo_digest"),
        })
        self.epoch += 1

    def branch(self, cfg) -> "_Trainer":
        """A copy of this run that goes on under ``cfg``.

        Only a warm-up can be shared: this run may not have gone past
        warm-up, and the two runs' ``_warmup_key``s must be equal. The
        copied epoch records are relabeled with the new mode."""
        if (cfg.mode not in MODES or self.epoch > self.cfg.schedule.warmup_epochs
                or _warmup_key(cfg) != _warmup_key(self.cfg)):
            raise InvalidParameterError(
                f"cannot branch a {cfg.mode} run from this {self.cfg.mode} run")
        # the data splits and the probe are read-only, so every branch shares them
        shared = (self.X, self.lab, self.y_l, self.unl, self.probe)
        twin = copy.deepcopy(self, memo={id(a): a for a in shared})
        twin.cfg = cfg
        for rec in twin.metrics.epochs:
            rec["mode"] = cfg.mode
        return twin

    def finish(self) -> RunResult:
        """Trains the remaining epochs and reports the final model's scores."""
        total = self.cfg.schedule.total_epochs
        self.train(total)
        # the last epoch's record scored this model and bank already
        last = self.metrics.epochs[-1] if self.metrics.epochs else None
        proto_acc, param_acc = ((last["test_acc_proto"], last["test_acc_param"]) if last
                                else self.probe.scores(self.model, self.bank, self.X))
        self.metrics.final = {
            "mode": self.cfg.mode,
            "seed": int(self.cfg.seed),
            "epochs": total,
            "offline_events": len(self.metrics.events),
            "test_acc_proto": proto_acc,
            "test_acc_param": param_acc,
            # headline number: prototype path when it exists, head otherwise
            "test_acc": proto_acc if proto_acc is not None else param_acc,
        }
        return RunResult(metrics=self.metrics, model=self.model, bank=self.bank)

    def _epoch_chunks(self):
        # every mode takes the same number of optimizer steps per epoch;
        # labeled_only just ignores the unlabeled rows the chunk names
        B = self.cfg.fixmatch.batch_size
        order = self.rng_train.permutation(self.unl.size)
        return [order[i:i + B] for i in range(0, order.size, B)]

    def _draw(self, chunk) -> dict:
        """Every ``rng_train`` draw of a step on ``chunk``, by role and in order:
        ``lidx`` (positions in ``lab``) and ``l_weak``; unless labeled_only,
        ``u_weak`` and ``u_strong``; once a bank exists, ``margin_l`` and ``margin_u``.
        A role not drawn has no key. Read-only: a whole stream group steps on them."""
        cfg, rng, n = self.cfg, self.rng_train, self.lab.size
        lidx = rng.choice(n, size=chunk.size, replace=n < chunk.size)
        x_l = self.X[self.lab[lidx]]
        views = {"lidx": lidx, "l_weak": aug_mod.weak(x_l, cfg.augment, rng)}
        if cfg.mode != "labeled_only":
            x_u = self.X[self.unl[chunk]]
            views["u_weak"] = aug_mod.weak(x_u, cfg.augment, rng)
            views["u_strong"] = aug_mod.strong(x_u, cfg.augment, rng)
            if self.bank is not None:  # only aplt runs build one
                view_fn = aug_mod.strong if cfg.margin.view == "strong" else aug_mod.weak
                views["margin_l"] = view_fn(x_l, cfg.augment, rng)
                views["margin_u"] = view_fn(x_u, cfg.augment, rng)
        for role in views:
            views[role].flags.writeable = False
        return views

    def _train_step(self, chunk, views, lr, lam):
        """One optimizer step with a term for each role ``_draw(chunk)`` drew. Returns
        the logit-path loss, the margin loss and the consistency term (None if not drawn)."""
        m, cfg = self.model, self.cfg
        y_l = self.y_l[views["lidx"]]
        sup = fm_mod.supervised_loss(m, views["l_weak"], y_l)
        value, grad, uns = sup.value, sup.grad, None
        if "u_weak" in views:
            uns = fm_mod.unlabeled_loss(m, views["u_weak"], views["u_strong"], cfg.fixmatch)
            value += uns.value
            if uns.pass_count:  # else uns.grad is zero and grad keeps its bits
                grad += uns.grad
        margin_value = 0.0
        if "margin_l" in views:
            xl_v, xu_v = views["margin_l"], views["margin_u"]
            acts_l, acts_u = nn.forward(m, xl_v), nn.forward(m, xu_v)
            msup = proto_mod.margin_loss_labeled(self.bank, acts_l.feats, y_l, cfg.margin)
            munsup = proto_mod.margin_loss_unlabeled(self.bank, acts_u.feats,
                                                     self._targets[chunk], cfg.margin)
            margin_value = msup.value + munsup.value
            # grad + lam * g_l + lam * g_u, added in place in that order
            for x_v, loss, acts in ((xl_v, msup, acts_l), (xu_v, munsup, acts_u)):
                g = nn.backward(m, x_v, acts, d_feats=loss.d_feats)
                grad += np.multiply(lam, g, out=g)
        if not np.isfinite(value + lam * margin_value):
            raise NonFiniteError(f"nonfinite total loss at step {self.opt.step_count} "
                                 f"(mode={cfg.mode}); aborting run")
        nn.sgd_step(m, self.opt, grad, lr)
        return value, margin_value, uns


def run(ds: FeatureDataset, cfg) -> RunResult:
    """Full training run in mode ``cfg.mode``."""
    return _Trainer(ds, cfg).finish()


def _warmup_key(cfg):
    """What a run's warm-up reads: its config less the dataset entry (the
    engine trains on the ``ds`` it is handed), the cluster and margin sections
    and the offline cadence (the first event falls after the warm-up, whatever
    the cadence), with the mode reduced to whether it is ``labeled_only``.
    Runs with equal keys train the same warm-up bit for bit."""
    schedule = replace(cfg.schedule, offline_every=1, sync_mode=False)
    return replace(cfg, dataset=None, mode=cfg.mode == "labeled_only", cluster=None,
                   margin=None, schedule=schedule)


def _stream_key(cfg):
    """What a run's ``rng_train`` draws read (no data, no model): branches of
    one warm-up with equal keys draw the same permutations and views."""
    return _warmup_key(cfg), cfg.mode, cfg.margin.view


def _train_group(group: list, until: int, collect=None) -> None:
    """Trains epochs [group[0].epoch, until) of branches of one warm-up with
    equal ``_stream_key``s, which share the first one's ``rng_train``. Each
    epoch, every branch opens it, then steps in turn on each of the first
    one's chunks and draws, then closes it. ``collect.at`` is the index of
    the trainer that runs."""
    lead = group[0]
    for t in group:
        t.rng_train = lead.rng_train

    def each(method, *args):
        for i, t in enumerate(group):
            if collect is not None:
                collect.at = i
            method(t, *args)

    for _ in range(lead.epoch, until):
        each(_Trainer._open_epoch)
        for chunk in lead._epoch_chunks():
            each(_Trainer._step, chunk, lead._draw(chunk))
        each(_Trainer._close_epoch)


def _pool_size(n_tasks: int) -> int:
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        usable = os.cpu_count() or 1
    return min(usable, n_tasks)


class _Collect(logging.Handler):
    """Keeps each record in ``cells[at]``, the list of the cell that runs."""

    def emit(self, record):
        self.cells[self.at].append(record)


_WARMUPS: dict = {}  # a pool worker's inherited warm-ups (_inherit fills it in place)


def _finish_group(cfgs: list, warmups: dict = _WARMUPS):
    """The metrics and ``aplt`` log records of each config of a stream
    group, branched from the warm-up under its ``_warmup_key`` and finished
    together. The first failing cell stops the group; its error carries the
    records up to it."""
    logger = logging.getLogger("aplt")
    collect = _Collect()
    collect.cells, collect.at = [[] for _ in cfgs], 0
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [collect], False
    try:
        group = [warmups[_warmup_key(cfg)].branch(cfg) for cfg in cfgs]
        _train_group(group, group[0].cfg.schedule.total_epochs, collect)
        return [t.finish().metrics for t in group], collect.cells
    except Exception as exc:
        exc.log_records = [r for cell in collect.cells[:collect.at + 1] for r in cell]
        raise
    finally:
        logger.handlers, logger.propagate = saved


def _inherit(warmups: dict) -> None:
    """Pool initializer: keeps the warm-ups that ``fork`` hands over unpickled."""
    _WARMUPS.update(warmups)
    _one_blas_thread()


def _one_blas_thread() -> None:
    """One OpenBLAS thread per pool worker, or each worker's BLAS helper
    threads spin on the CPUs the other workers need: on a 2-vCPU VM with
    ``OPENBLAS_NUM_THREADS`` unset, the README's C=100 grid took a median
    5.56 s without the pin and 3.43 s with it. Best effort: a BLAS that is
    not OpenBLAS keeps its own setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads"):
                if hasattr(lib, name):
                    set_threads = getattr(lib, name)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    set_threads(1)
                    return
    except OSError:
        pass


def _tasks(cfgs: list, workers: int) -> list[list[int]]:
    """The positions of the configs as pool tasks: one per stream group
    (equal ``_stream_key``), in near-equal parts when it has more than
    ceil(cfgs / workers) configs. Largest first, and among equal sizes in
    ``MODES`` order, which is by work per step."""
    groups = {}  # in first-seen order
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_stream_key(cfg), []).append(i)
    limit = -(-len(cfgs) // workers)
    tasks = [g[len(g) * p // parts:len(g) * (p + 1) // parts]
             for g in groups.values() for parts in [-(-len(g) // limit)] for p in range(parts)]
    return sorted(tasks, key=lambda t: (len(t), -MODES.index(cfgs[t[0]].mode)), reverse=True)


def _row_config(cfg, row: str):
    """Config toggles for one ablation grid row."""
    return replace(
        cfg,
        mode="fixmatch" if row == "SSL" else "aplt",
        cluster=replace(cfg.cluster,
                        method="km" if row == "SSL+KM" else "sskm",
                        aug_copies=cfg.cluster.aug_copies if "+LA" in row else 0,
                        use_adaptive_threshold="+SAT" in row),
        margin=replace(cfg.margin, view="weak" if "(W)" in row else "strong"),
    )


def run_cells(ds: FeatureDataset, cfgs) -> list[RunMetrics]:
    """The metrics of a run of every config, in order. Each ``_warmup_key``'s
    warm-up is trained once, here; its cells finish as ``_tasks`` on a pool
    of forked workers, one per usable CPU at most (``fork``: an unguarded
    script that calls ``cli.main`` cannot be re-imported by ``spawn``), or
    in this process with one worker. Workers inherit the warm-ups by
    ``fork``. An error in a task is raised after the tasks not yet started
    are cancelled. Log records are handled here, in cell order."""
    if not cfgs:
        return []
    # imported here: a train run does not need them, and they add to its
    # start-up time and memory
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    warmups = {}  # _warmup_key -> its trained warm-up
    for cfg in cfgs:
        key = _warmup_key(cfg)
        if key not in warmups:
            warmups[key] = _Trainer(ds, cfg)
            warmups[key].train(cfg.schedule.warmup_epochs)
    workers = _pool_size(len(cfgs))
    tasks = _tasks(cfgs, workers)
    jobs = [[cfgs[i] for i in task] for task in tasks]
    pool = None
    if workers <= 1 or "fork" not in mp.get_all_start_methods():
        outs = (_finish_group(job, warmups) for job in jobs)
    else:
        pool = ProcessPoolExecutor(min(workers, len(jobs)), mp_context=mp.get_context("fork"),
                                   initializer=_inherit, initargs=(warmups,))
        outs = pool.map(_finish_group, jobs)
    done = {}  # cell position -> (metrics, log records)
    try:
        for task, (metrics, records) in zip(tasks, outs):
            done.update(zip(task, zip(metrics, records)))
    except Exception as exc:
        done[len(cfgs)] = None, getattr(exc, "log_records", ())  # after the finished cells
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        for i in sorted(done):
            for record in done[i][1]:
                logging.getLogger(record.name).handle(record)
    return [done[i][0] for i in range(len(cfgs))]


def run_ablation_grid(ds: FeatureDataset, cfg, seeds=None) -> list[dict]:
    """All seven component-toggle rows, one record per (row, seed), run as
    ``run_cells``: the rows of a seed share its warm-up."""
    seeds = [cfg.seed] if seeds is None else [int(s) for s in seeds]
    cells = [(row, seed) for row in ABLATION_ROWS for seed in seeds]
    configs = [replace(_row_config(cfg, row), seed=seed) for row, seed in cells]
    records = []
    for (row, seed), metrics in zip(cells, run_cells(ds, configs)):
        last_ev = metrics.events[-1] if metrics.events else None
        records.append({
            "row": row,
            "seed": seed,
            "accuracy": metrics.final["test_acc"],
            "coverage": last_ev["coverage"] if last_ev else None,
            "pseudo_label_acc": last_ev["pseudo_label_acc"] if last_ev else None,
        })
    return records
