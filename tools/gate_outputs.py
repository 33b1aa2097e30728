"""Byte-identity gate: run a fixed set of aplt runs and hash their outputs.

Usage:
    PYTHONPATH=src python tools/gate_outputs.py OUTDIR > hashes.txt

Generates the ``hard12`` preset at 10% labels into OUTDIR, runs 39 outputs'
worth of train, labeled-only, ablate, compare and eval runs on it, then
generates a C=100 dataset (10,000 rows, an offline event every epoch, as in
the bench's ``offline_c100``) and trains on it with anchored and plain
k-means, 44 outputs in all. It prints one ``run output sha256`` line per
output. A pure refactor must leave every line unchanged, so the whole check
is a ``diff`` of the printouts made from the code before and after the
change. Give both runs
the same OUTDIR path: each ``resolved_config.json`` records the ``--data``
path as given, so its hash depends on OUTDIR. It imports ``aplt`` from
``PYTHONPATH``, so pointing that at another checkout's ``src`` hashes that
checkout. It takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from aplt import cli, config, data, engine

# one aplt train run per variant, default seed
VARIANTS = ("cluster.method=km", "margin.view=weak", "schedule.sync_mode=true",
            "cluster.aug_copies=0")

# C=100 runs: many classes and rows, so most Lloyd rounds change little
C100_GEN = ("--classes", "100", "--dim", "32", "--per-class", "100", "--overlap", "0.25",
            "--seed", "1", "--labeled-ratio", "0.1")
C100_SETS = ("schedule.warmup_epochs=1", "schedule.main_epochs=4", "schedule.offline_every=1")
C100_VARIANTS = ((), ("cluster.method=km",))

SEEDS = range(5)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _cli(*argv: str) -> str:
    """Runs aplt in-process and returns its stdout, echoed to stderr so that
    this script's stdout holds only hash lines."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    sys.stderr.write(stdout.getvalue())
    if code != 0:
        raise SystemExit(f"aplt {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def gate(out: Path):
    """Yields (run, output, sha256) for every gate output."""
    csv_path = out / "hard.csv"
    _cli("gen", "--preset", "hard12", "--labeled-ratio", "0.1", "--out", str(csv_path))
    yield "gen", "hard.csv", _sha(csv_path.read_bytes())

    train_runs = [(f"train {mode} seed={seed}", ["--mode", mode, "--seed", str(seed)])
                  for mode in ("aplt", "fixmatch") for seed in SEEDS]
    train_runs += [(f"train {v}", ["--set", v]) for v in VARIANTS]
    for i, (name, extra) in enumerate(train_runs):
        run_dir = out / f"train{i}"
        _cli("train", "--data", str(csv_path), "--out", str(run_dir), *extra)
        for output in ("metrics.ndjson", "resolved_config.json"):
            yield name, output, _sha((run_dir / output).read_bytes())

    ds = data.load_csv(csv_path)
    for seed in SEEDS:
        cfg, _ = config.resolve(None, [f"seed={seed}"])
        ndjson = engine.run(ds, cfg, mode="labeled_only").metrics.to_ndjson()
        yield f"labeled_only seed={seed}", ".metrics.to_ndjson()", _sha(ndjson.encode())

    _cli("ablate", "--data", str(csv_path), "--out", str(out / "ablate"),
         "--seeds", "0,1", "--force")
    yield "ablate", "ablation.csv", _sha((out / "ablate" / "ablation.csv").read_bytes())

    _cli("compare", "--data", str(csv_path), "--out", str(out / "compare"))
    for output in ("trajectory.csv", "metrics_fixmatch.ndjson", "metrics_aplt.ndjson"):
        yield "compare", output, _sha((out / "compare" / output).read_bytes())

    # eval reads the CSV through the CLI, so its stdout covers the loader
    printed = _cli("eval", "--checkpoint", str(out / "train0" / "checkpoint.npz"),
                   "--data", str(csv_path))
    yield "eval train0", "stdout", _sha(printed.encode())

    c100_path = out / "c100.csv"
    _cli("gen", *C100_GEN, "--out", str(c100_path))
    yield "gen", "c100.csv", _sha(c100_path.read_bytes())
    for i, variant in enumerate(C100_VARIANTS):
        run_dir = out / f"c100_train{i}"
        sets = [a for v in C100_SETS + variant for a in ("--set", v)]
        _cli("train", "--data", str(c100_path), "--out", str(run_dir), *sets)
        for output in ("metrics.ndjson", "resolved_config.json"):
            yield " ".join(["train c100", *variant]), output, _sha((run_dir / output).read_bytes())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    for run, output, digest in gate(out):
        print(f"{run}\t{output}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
