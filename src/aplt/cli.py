"""Command-line entry point.

Subcommands: gen, train, eval, compare, ablate. Runs are driven by a JSON
config (the schema is config.RunConfig and its section dataclasses) plus
``--set`` overrides; the resolved config is dumped into the output
directory so any run can be reproduced from its artifacts. Exit codes: 0
success, 1 usage or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import data as data_mod
from . import engine, nn
from .errors import (ApltError, ConfigError, DataFormatError, DimensionMismatchError,
                     InvalidParameterError, MissingLabeledClassError)

OUT_ROOT_ENV = "APLT_OUT_ROOT"

# benchmark presets. At "hard12", a labeled-only run with the default
# base_lr 0.002 lands midway between chance and separable (5-seed mean 0.48
# at 10% labels). That band measures the optimizer budget, not how hard the
# data are: labeled-only scores 0.460 at base_lr 0.002 and 0.825 at 0.5
# (seeds 0-2). "easy12" is comfortably separable.
PRESETS = {
    "easy12": {"classes": 12, "dim": 32, "per_class": 100, "overlap": 0.10, "seed": 1},
    "hard12": {"classes": 12, "dim": 32, "per_class": 100, "overlap": 0.25, "seed": 1},
}
# gen's parameters without a preset; a preset takes none of them
GEN_DEFAULTS = {"classes": 12, "dim": 32, "per_class": 100, "overlap": 0.35, "seed": 1}


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted, so a
    caller's ``redirect_stderr`` catches the warnings too."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


# one instance: addHandler ignores a handler the logger already has
_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed_list(raw: str) -> list[int]:
    try:
        seeds = [int(s) for s in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}") from None
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"each seed may appear once, got {raw!r}")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be nonnegative, got {raw!r}")
    return seeds


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return _check_out(path)


def _check_out(out: Path) -> Path:
    """``out``, once a directory can be made there: its nearest existing
    ancestor is a directory. Nothing is made yet, so a later config error
    leaves no output behind."""
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"cannot write to {out}: {existing} is not a directory")
    return out


def _need_file(path, what: str) -> None:
    """A config error unless ``path`` is a regular file, naming one that exists as not a file."""
    if not Path(path).is_file():
        problem = "path is not a file" if Path(path).exists() else "file not found"
        raise ConfigError(f"{what} {problem}: {path}")


def _read_csv(path, num_classes: int | None = None) -> data_mod.FeatureDataset:
    """A dataset CSV; a row of the wrong width is a bad input file (exit 1).
    Every load error already names the file."""
    _need_file(path, "dataset")
    try:
        return data_mod.load_csv(path, num_classes=num_classes)
    except DimensionMismatchError as exc:
        raise DataFormatError(str(exc)) from None


def _load_dataset(cfg: config_mod.RunConfig):
    """The config's CSV, split by ``cfg.split`` if all its rows are labeled.
    An already split CSV keeps its split and refuses a non-default one."""
    if cfg.dataset is None:
        raise ConfigError("no dataset: pass --data or set the dataset section")
    path = cfg.dataset["csv"]
    ds = _read_csv(path)
    if ds.labeled_mask.all():
        return data_mod.apply_split(ds, cfg.split)
    if cfg.split != config_mod.RunConfig.split:
        raise ConfigError(f"{path} is already split; split.* applies only to a CSV "
                          "whose rows are all labeled")
    return ds


def _resolve_from_args(args) -> tuple[config_mod.RunConfig, dict]:
    """Config file <- --set <- --mode/--seed; --data replaces the dataset
    section, so the resolved dump names the CSV the run read. Only train
    has --mode: compare and ablate set each cell's mode themselves, so their
    dump leaves ``mode`` out."""
    file_cfg = config_mod.load_file(args.config) if args.config else None
    overrides = list(args.set or [])
    if getattr(args, "mode", None):
        overrides.append(f"mode={args.mode}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    cfg, resolved = config_mod.resolve(file_cfg, overrides)
    if args.data is not None:
        resolved["dataset"] = {"csv": args.data}
        cfg = replace(cfg, dataset=resolved["dataset"])
    if "mode" not in args:
        del resolved["mode"]
    return cfg, resolved


def _changed_keys(old, new, path: str = "") -> list[str]:
    """Dotted keys whose values differ between two resolved configs."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [path.rstrip(".")]
    return [key for name in sorted(set(old) | set(new))
            for key in _changed_keys(old.get(name), new.get(name), f"{path}{name}.")]


def _check_appendable(out: Path, resolved: dict) -> None:
    """An ablation table grows only under the config stored next to it; the
    seed may differ, since the table has a seed column. ``mode`` is ignored
    too: ablate sets each row's mode, and a table stored before its dump
    left ``mode`` out holds one."""
    try:
        stored = json.loads((out / "resolved_config.json").read_text())
    except (OSError, ValueError):
        stored = None
    if not isinstance(stored, dict):
        raise ConfigError(f"{out / 'ablation.csv'} has no readable resolved_config.json "
                          "to append under; pass --force to start a new table")
    changed = [k for k in _changed_keys(stored, resolved) if k not in ("seed", "mode")]
    if changed:
        raise ConfigError(f"{out / 'ablation.csv'} was written under another config "
                          f"(differs in {', '.join(changed)}); pass --force to start "
                          "a new table")


def _write_resolved(out: Path, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _write_run_outputs(out: Path, resolved: dict, result: engine.RunResult):
    _write_resolved(out, resolved)
    (out / "metrics.ndjson").write_text(result.metrics.to_ndjson())
    nn.save_checkpoint(out / "checkpoint.npz", result.model, bank=result.bank,
                       extra={"final": result.metrics.final})
    final = result.metrics.final
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(sorted(final))
        writer.writerow([final[k] for k in sorted(final)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    out = Path(args.out)
    _check_out(out.parent)
    if out.is_dir():
        raise ConfigError(f"cannot write to {out}: it is a directory")
    given = {k: v for k, v in vars(args).items() if k in GEN_DEFAULTS and v is not None}
    if args.preset and given:
        flags = ", ".join("--" + k.replace("_", "-") for k in given)
        raise ConfigError(f"--preset {args.preset} fixes the generator's parameters; "
                          f"drop {flags} or the preset")
    params = dict(PRESETS[args.preset]) if args.preset else {**GEN_DEFAULTS, **given}
    ds = data_mod.generate_synthetic(params["classes"], params["dim"],
                                     params["per_class"], params["overlap"],
                                     params["seed"])
    manifest: dict = {"synthetic": params}
    if args.labeled_ratio is not None:
        spec = data_mod.SplitSpec(labeled_ratio=args.labeled_ratio,
                                  seed=args.split_seed)
        ds = data_mod.apply_split(ds, spec)
        manifest["split"] = {"labeled_ratio": args.labeled_ratio,
                             "seed": args.split_seed, "stratified": True}
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_csv(ds, out)
    manifest["checksum_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
    manifest["rows"] = ds.n
    manifest["num_classes"] = ds.num_classes
    out.with_suffix(out.suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({ds.n} rows, checksum {manifest['checksum_sha256'][:12]}...)")
    return 0


def cmd_train(args) -> int:
    cfg, resolved = _resolve_from_args(args)
    out = _out_dir(args.out)
    ds = _load_dataset(cfg)
    result = engine.run(ds, cfg)
    _write_run_outputs(out, resolved, result)
    final = result.metrics.final
    print(f"mode={final['mode']} seed={final['seed']} "
          f"test_acc={final['test_acc']} (proto={final['test_acc_proto']}, "
          f"param={final['test_acc_param']})")
    return 0


def cmd_eval(args) -> int:
    _need_file(args.checkpoint, "checkpoint")
    model, bank, _ = nn.load_checkpoint(args.checkpoint)
    ds = _read_csv(args.data, num_classes=model.num_classes)
    if ds.dim != model.input_dim:
        raise DataFormatError(f"{args.data}: {ds.dim} feature columns, but "
                              f"{args.checkpoint} expects {model.input_dim}")
    proto_acc, param_acc = engine.evaluate(model, bank, ds.features, ds.true_labels)
    print(json.dumps({"n": ds.n, "test_acc_proto": proto_acc,
                      "test_acc_param": param_acc}, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    cfg, resolved = _resolve_from_args(args)
    out = _out_dir(args.out)
    ds = _load_dataset(cfg)

    methods = ("fixmatch", "aplt")  # one warm-up key, so one warm-up
    results = dict(zip(methods, engine.run_cells(ds, [replace(cfg, mode=m) for m in methods])))
    _write_resolved(out, resolved)
    rows_path = out / "trajectory.csv"
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # pseudo_label_acc/coverage: thresholded weak-view stats for fixmatch,
        # most recent offline-event stats for aplt (blank before first event)
        columns = {"fixmatch": ("fixmatch_pseudo_acc", "fixmatch_pass_frac", "test_acc_param"),
                   "aplt": ("offline_pseudo_acc", "offline_coverage", "test_acc_proto")}
        writer.writerow(["method", "epoch", "pseudo_label_acc", "coverage",
                         "test_acc", "loss_total"])
        writer.writerows([method, rec["epoch"], *(rec[k] for k in columns[method]),
                          rec["loss_total"]]
                         for method, metrics in results.items() for rec in metrics.epochs)
        for method, metrics in results.items():
            (out / f"metrics_{method}.ndjson").write_text(metrics.to_ndjson())
    print(f"wrote {rows_path}")
    for method, metrics in results.items():
        print(f"{method}: final test_acc={metrics.final['test_acc']}")
    if not any(rec["pass_count"] for rec in results["fixmatch"].epochs):
        # then FixMatch trained as labeled-only with extra random draws
        print(f"fixmatch: no unlabeled row passed fixmatch.tau={cfg.fixmatch.tau} "
              "in any epoch, so its consistency term never contributed")
    return 0


def cmd_ablate(args) -> int:
    cfg, resolved = _resolve_from_args(args)
    out = _out_dir(args.out)
    table = out / "ablation.csv"
    fresh = args.force or not table.exists()
    if not fresh:
        _check_appendable(out, resolved)
    ds = _load_dataset(cfg)
    records = engine.run_ablation_grid(ds, cfg, seeds=args.seeds)
    _write_resolved(out, resolved)
    fields = ["row", "seed", "accuracy", "coverage", "pseudo_label_acc"]
    with open(table, "a" if not fresh else "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            writer.writerow(fields)
        writer.writerows([rec[k] for k in fields] for rec in records)
    for row in engine.ABLATION_ROWS:
        accs = [r["accuracy"] for r in records if r["row"] == row]
        print(f"{row:24s} mean_acc={np.mean(accs):.4f} over {len(accs)} seed(s)")
    print(f"wrote {table}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="aplt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="fixed parameters; takes none of the five flags below")
    for key, value in GEN_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(value),
                       help=f"default {value}")
    p.add_argument("--labeled-ratio", type=float, default=None,
                   help="apply a stratified split before writing")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    for name, func in (("train", cmd_train), ("compare", cmd_compare),
                       ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--data", help="dataset CSV; replaces the config's dataset "
                       "section and is recorded in resolved_config.json as "
                       '{"csv": DATA}')
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("--seed", type=int, default=None)
        if name == "train":
            p.add_argument("--mode", choices=["aplt", "fixmatch"])
        if name == "ablate":
            p.add_argument("--seeds", type=_seed_list,
                           help="comma-separated training seeds")
            p.add_argument("--force", action="store_true",
                           help="overwrite the ablation table instead of appending")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    logging.getLogger("aplt").addHandler(_LOG_HANDLER)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError, DataFormatError,
            MissingLabeledClassError) as exc:
        # bad arguments, bad config, bad input files: usage errors
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ApltError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
