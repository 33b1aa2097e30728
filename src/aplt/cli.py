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
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import data as data_mod
from . import engine, nn
from .errors import ApltError, ConfigError, DataFormatError, InvalidParameterError

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load_dataset(cfg: config_mod.RunConfig, data_flag: str | None):
    source = {"csv": data_flag} if data_flag else cfg.dataset
    if source is None:
        raise ConfigError("no dataset: pass --data or set the dataset section")
    if "csv" in source:
        path = source["csv"]
        if not Path(path).exists():
            raise ConfigError(f"dataset file not found: {path}")
        ds = data_mod.load_csv(path)
    else:
        s = source["synthetic"]
        ds = data_mod.generate_synthetic(s["classes"], s["dim"], s["per_class"],
                                         s["overlap"], s["seed"])
    if ds.labeled_mask.all():
        ds = data_mod.apply_split(ds, cfg.split)
    return ds


def _resolve_from_args(args) -> tuple[config_mod.RunConfig, dict]:
    file_cfg = config_mod.load_file(args.config) if args.config else None
    overrides = list(args.set or [])
    if getattr(args, "mode", None):
        overrides.append(f"mode={args.mode}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return config_mod.resolve(file_cfg, overrides)


def _write_run_outputs(out: Path, resolved: dict, result: engine.RunResult):
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")
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
    if args.preset:
        params = dict(PRESETS[args.preset])
    else:
        params = {"classes": args.classes, "dim": args.dim,
                  "per_class": args.per_class, "overlap": args.overlap,
                  "seed": args.seed}
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
    out = Path(args.out)
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
    ds = _load_dataset(cfg, args.data)
    result = engine.run(ds, cfg)
    _write_run_outputs(_out_dir(args.out), resolved, result)
    final = result.metrics.final
    print(f"mode={final['mode']} seed={final['seed']} "
          f"test_acc={final['test_acc']} (proto={final['test_acc_proto']}, "
          f"param={final['test_acc_param']})")
    return 0


def cmd_eval(args) -> int:
    if not Path(args.checkpoint).exists():
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    if not Path(args.data).exists():
        raise ConfigError(f"dataset file not found: {args.data}")
    model, bank, _ = nn.load_checkpoint(args.checkpoint)
    ds = data_mod.load_csv(args.data, num_classes=model.num_classes)
    proto_acc, param_acc = engine.evaluate(model, bank, ds.features, ds.true_labels)
    print(json.dumps({"n": ds.n, "test_acc_proto": proto_acc,
                      "test_acc_param": param_acc}, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    cfg, resolved = _resolve_from_args(args)
    ds = _load_dataset(cfg, args.data)
    out = _out_dir(args.out)

    results = {"fixmatch": engine.run(ds, cfg, mode="fixmatch"),
               "aplt": engine.run(ds, cfg, mode="aplt")}
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    rows_path = out / "trajectory.csv"
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # pseudo_label_acc/coverage: thresholded weak-view stats for fixmatch,
        # most recent offline-event stats for aplt (blank before first event)
        writer.writerow(["method", "epoch", "pseudo_label_acc", "coverage",
                         "test_acc", "loss_total"])
        for method, res in results.items():
            for rec in res.metrics.epochs:
                if method == "fixmatch":
                    pseudo_acc = rec["fixmatch_pseudo_acc"]
                    coverage = rec["fixmatch_pass_frac"]
                    acc = rec["test_acc_param"]
                else:
                    pseudo_acc = rec["offline_pseudo_acc"]
                    coverage = rec["offline_coverage"]
                    acc = rec["test_acc_proto"]
                writer.writerow([method, rec["epoch"],
                                 "" if pseudo_acc is None else pseudo_acc,
                                 "" if coverage is None else coverage,
                                 "" if acc is None else acc,
                                 rec["loss_total"]])
        for method, res in results.items():
            (out / f"metrics_{method}.ndjson").write_text(res.metrics.to_ndjson())
    print(f"wrote {rows_path}")
    for method, res in results.items():
        print(f"{method}: final test_acc={res.metrics.final['test_acc']}")
    return 0


def cmd_ablate(args) -> int:
    cfg, resolved = _resolve_from_args(args)
    ds = _load_dataset(cfg, args.data)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
    records = engine.run_ablation_grid(ds, cfg, seeds=seeds)
    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    table = out / "ablation.csv"
    fields = ["row", "seed", "accuracy", "coverage", "pseudo_label_acc"]
    fresh = args.force or not table.exists()
    with open(table, "a" if not fresh else "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            writer.writerow(fields)
        for rec in records:
            writer.writerow(["" if rec[k] is None else rec[k] for k in fields])
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
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--classes", type=int, default=12)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--overlap", type=float, default=0.35)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--labeled-ratio", type=float, default=None,
                   help="apply a stratified split before writing")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    for name, func in (("train", cmd_train), ("compare", cmd_compare),
                       ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--data", help="dataset CSV (overrides config dataset.csv)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("--seed", type=int, default=None)
        if name == "train":
            p.add_argument("--mode", choices=["aplt", "fixmatch"])
        if name == "ablate":
            p.add_argument("--seeds", help="comma-separated training seeds")
            p.add_argument("--force", action="store_true",
                           help="overwrite the ablation table instead of appending")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError, DataFormatError) as exc:
        # bad arguments, bad config, bad input files: usage errors
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ApltError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
