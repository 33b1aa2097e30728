"""Benchmark workloads: inputs made from a seed, CLI arguments, output checks.

Each workload runs a fixed list of cells. A cell is one dataset CSV (a
labeled split drawn from the bench seed) plus one fixed training seed. The
generator seed is fixed, as in the CLI's ``hard12`` preset: with C=100 the
generator's min-gap rescaling makes class separation, and so accuracy and
k-means iteration counts, swing widely between generator seeds (test
accuracy 0.46 to 0.60 over three seeds), which would measure the dataset
rather than the program. The split seed changes which rows are labeled and
which are held out.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GENERATOR_SEED = 1
LABELED_RATIO = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand: "train" or "ablate"
    classes: int
    dim: int
    per_class: int
    overlap: float
    overrides: tuple = ()   # --set values
    cells: int = 1          # datasets per run; accuracy is their mean


WORKLOADS = {w.name: w for w in (
    Workload("train_hard12", "train", 12, 32, 100, 0.25, cells=12),
    Workload("ablate_hard12", "ablate", 12, 32, 100, 0.25, cells=4),
    Workload("offline_c100", "train", 100, 32, 100, 0.25,
             overrides=("schedule.warmup_epochs=1", "schedule.main_epochs=4",
                        "schedule.sync_mode=true"), cells=3),
)}


class CheckFailed(Exception):
    """An invocation's outputs broke the output contract."""


@dataclass
class Outcome:
    fingerprint: str              # sha256 of metrics.ndjson (ablation.csv for ablate)
    test_acc: float               # mean final test accuracy over the runs
    pseudo_label_acc: float | None
    empty_classes: int | None     # empty_threshold_classes summed over events


def split_seed(bench_seed: int, cell: int) -> int:
    return bench_seed * 1000 + cell


def write_inputs(w: Workload, bench_seed: int, folder: Path) -> list[Path]:
    """One CSV per cell, made with the program's own generator and split."""
    from aplt import data

    full = data.generate_synthetic(w.classes, w.dim, w.per_class, w.overlap,
                                   GENERATOR_SEED)
    paths = []
    for cell in range(w.cells):
        spec = data.SplitSpec(labeled_ratio=LABELED_RATIO,
                              seed=split_seed(bench_seed, cell))
        path = folder / f"cell{cell}.csv"
        data.save_csv(data.apply_split(full, spec), path)
        paths.append(path)
    return paths


def cli_args(w: Workload, csv_path: Path, out: Path, train_seed: int) -> list[str]:
    sets = [a for o in w.overrides for a in ("--set", o)]
    if w.command == "train":
        return ["train", "--data", str(csv_path), "--out", str(out),
                "--mode", "aplt", "--seed", str(train_seed), *sets]
    return ["ablate", "--data", str(csv_path), "--out", str(out),
            "--seeds", str(train_seed), "--force", *sets]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fraction(value, what):
    if value is None or not 0.0 <= value <= 1.0:  # NaN fails the comparison too
        raise CheckFailed(f"{what}={value!r} is not a fraction in [0, 1]")
    return value


def check_train(out: Path) -> Outcome:
    """metrics.ndjson parses; offline events fall on the resolved schedule;
    the bank digest holds between events; the checkpoint round-trips and
    carries the last event's bank."""
    import numpy as np
    from aplt import engine, nn

    try:
        records = [json.loads(line) for line in
                   (out / "metrics.ndjson").read_text().splitlines()]
        resolved = json.loads((out / "resolved_config.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"unreadable run output: {exc}") from None
    events = [r for r in records if r["kind"] == "offline_event"]
    epochs = [r for r in records if r["kind"] == "epoch"]
    finals = [r for r in records if r["kind"] == "final"]
    if len(finals) != 1 or records[-1]["kind"] != "final":
        raise CheckFailed("metrics.ndjson must end with exactly one final record")

    schedule = engine.PhaseSchedule(**resolved["schedule"])
    expected = schedule.offline_epochs()
    if [e["epoch"] for e in events] != expected:
        raise CheckFailed(f"offline events at {[e['epoch'] for e in events]}, "
                          f"schedule says {expected}")
    bank = None
    for rec in records:
        if rec["kind"] == "offline_event":
            bank = rec["bank_digest"]
        elif rec["kind"] == "epoch" and rec["bank_digest"] != bank:
            raise CheckFailed(f"bank digest changed between events at epoch {rec['epoch']}")
    if len(epochs) != schedule.total_epochs:
        raise CheckFailed(f"{len(epochs)} epoch records")

    model, loaded_bank, extra = nn.load_checkpoint(out / "checkpoint.npz")
    if events and (loaded_bank is None or loaded_bank.digest() != bank):
        raise CheckFailed("checkpoint bank differs from the last offline event")
    copy = out / "roundtrip.npz"
    nn.save_checkpoint(copy, model, bank=loaded_bank, extra=extra)
    model2, bank2, extra2 = nn.load_checkpoint(copy)
    same = all(np.array_equal(a, b) for a, b in
               zip(model.params().values(), model2.params().values()))
    if not same or extra2 != extra or (
            loaded_bank is not None and bank2.digest() != loaded_bank.digest()):
        raise CheckFailed("checkpoint does not round-trip exactly")
    final = finals[0]
    if extra.get("final") != {k: v for k, v in final.items() if k != "kind"}:
        raise CheckFailed("checkpoint final summary differs from metrics.ndjson")

    return Outcome(
        fingerprint=_sha256(out / "metrics.ndjson"),
        test_acc=_fraction(final["test_acc"], "test_acc"),
        pseudo_label_acc=(_fraction(events[-1]["pseudo_label_acc"], "pseudo_label_acc")
                          if events else None),
        empty_classes=sum(len(e["empty_threshold_classes"]) for e in events))


def check_ablate(out: Path, train_seed: int) -> Outcome:
    """ablation.csv holds the 7 grid rows for the seed, accuracies in [0, 1]."""
    from aplt import engine

    table = out / "ablation.csv"
    try:
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        accs = [float(r["accuracy"]) for r in rows]
        pseudo = [float(r["pseudo_label_acc"]) for r in rows if r["pseudo_label_acc"]]
        coverage = [float(r["coverage"]) for r in rows if r["coverage"]]
    except (OSError, KeyError, ValueError) as exc:
        raise CheckFailed(f"unreadable ablation.csv: {exc}") from None
    if [r["row"] for r in rows] != list(engine.ABLATION_ROWS):
        raise CheckFailed(f"ablation rows {[r['row'] for r in rows]}")
    if any(int(r["seed"]) != train_seed for r in rows):
        raise CheckFailed("ablation.csv rows carry the wrong seed")
    for value in accs + pseudo + coverage:
        _fraction(value, "ablation.csv value")
    return Outcome(fingerprint=_sha256(table), test_acc=sum(accs) / len(accs),
                   pseudo_label_acc=sum(pseudo) / len(pseudo) if pseudo else None,
                   empty_classes=None)


def check(w: Workload, out: Path, train_seed: int) -> Outcome:
    return check_train(out) if w.command == "train" else check_ablate(out, train_seed)
