"""Byte-identity gate: run a fixed set of aplt runs and hash their outputs.

Usage:
    PYTHONPATH=src python tools/gate_outputs.py OUTDIR > hashes.txt
    PYTHONPATH=src python tools/gate_outputs.py --check tools/gate_hashes.txt OUTDIR

Generates the ``hard12`` preset at 10% labels into OUTDIR, runs 39 outputs'
worth of train, labeled-only, ablate, compare and eval runs on it, then
generates a C=100 dataset (10,000 rows, an offline event every epoch, as in
the bench's ``offline_c100``) and trains on it with anchored and plain
k-means. Last come three ``hard12`` train runs that reach the terms the
others leave silent: the consistency term past tau, and lambda below 1.
That makes 50 outputs in all. It prints one ``run output sha256`` line per
output, after ``#`` lines that name the numpy and BLAS builds. A pure
refactor must leave every line unchanged. Every run works inside OUTDIR with
relative paths, so no hash depends on where OUTDIR is.

``--check FILE`` compares the printout with FILE (``tools/gate_hashes.txt``
is the committed one) and exits 1 on any difference, printing the lines
that differ and both sides' numpy and BLAS builds: a different BLAS may
round differently. It imports ``aplt`` from ``PYTHONPATH``, so pointing that
at another checkout's ``src`` hashes that checkout. It takes about 11 s
with one OpenBLAS thread on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from aplt import cli, config, data, engine

HARD12_GEN = ("gen", "--preset", "hard12", "--labeled-ratio", "0.1", "--out", "hard.csv")

# one aplt train run per variant, default seed
VARIANTS = ("cluster.method=km", "margin.view=weak", "schedule.sync_mode=true",
            "cluster.aug_copies=0")

# C=100 runs: many classes and rows, so most Lloyd rounds change little
C100_GEN = ("--classes", "100", "--dim", "32", "--per-class", "100", "--overlap", "0.25",
            "--seed", "1", "--labeled-ratio", "0.1")
C100_SETS = ("schedule.warmup_epochs=1", "schedule.main_epochs=4", "schedule.offline_every=1")
C100_VARIANTS = ((), ("cluster.method=km",))

# train runs on gate data where the consistency term passes tau (base_lr 0.5)
# or lambda scales the margin gradient: no run above reaches either
ACTIVE_RUNS = (("fixmatch", "optimizer.base_lr=0.5"), ("aplt", "optimizer.base_lr=0.5"),
               ("aplt", "margin.lambda=0.5"))

SEEDS = range(5)


def versions() -> list[str]:
    """The builds a hash depends on besides the code, as ``#`` lines."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# blas {blas.get('name')} {blas.get('version')}"]


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _cli(*argv: str) -> str:
    """Runs aplt in-process and returns its stdout, echoed to stderr so that
    this script's stdout holds only the printout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    sys.stderr.write(stdout.getvalue())
    if code != 0:
        raise SystemExit(f"aplt {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def _train(name: str, run_dir: str, *argv: str):
    _cli("train", "--out", run_dir, *argv)
    for output in ("metrics.ndjson", "resolved_config.json"):
        yield name, output, _sha(Path(run_dir, output).read_bytes())


def gate():
    """Yields (run, output, sha256) for every gate output, writing the runs
    into the current directory: the ``hard12`` set, the C=100 set, then the
    active-term set."""
    yield from gate_hard12()
    yield from gate_c100()
    yield from gate_active()


def gate_hard12():
    """The 39 ``hard12`` outputs. The first five are the dataset and the
    seed-0 aplt and fixmatch runs."""
    _cli(*HARD12_GEN)
    yield "gen", "hard.csv", _sha(Path("hard.csv").read_bytes())

    train_runs = [(f"train {mode} seed={seed}", ["--mode", mode, "--seed", str(seed)])
                  for seed in SEEDS for mode in ("aplt", "fixmatch")]
    train_runs += [(f"train {v}", ["--set", v]) for v in VARIANTS]
    for i, (name, extra) in enumerate(train_runs):
        yield from _train(name, f"train{i}", "--data", "hard.csv", *extra)

    ds = data.load_csv("hard.csv")
    for seed in SEEDS:
        cfg, _ = config.resolve(None, [f"seed={seed}"])
        ndjson = engine.run(ds, replace(cfg, mode="labeled_only")).metrics.to_ndjson()
        yield f"labeled_only seed={seed}", ".metrics.to_ndjson()", _sha(ndjson.encode())

    yield from gate_ablate()
    yield from gate_compare()

    # eval reads the CSV through the CLI, so its stdout covers the loader
    printed = _cli("eval", "--checkpoint", "train0/checkpoint.npz", "--data", "hard.csv")
    yield "eval train0", "stdout", _sha(printed.encode())


def _hard12_csv():
    """Generates the ``hard12`` dataset unless the current directory holds it."""
    if not Path("hard.csv").exists():
        _cli(*HARD12_GEN)


def gate_ablate():
    """The ``ablate`` output: the seven-row grid over seeds 0 and 1, 14 cells
    with one warm-up a seed, finished on the worker pool. It generates the
    ``hard12`` dataset if the current directory does not hold it yet, so it
    can run alone."""
    _hard12_csv()
    _cli("ablate", "--data", "hard.csv", "--out", "ablate", "--seeds", "0,1", "--force")
    yield "ablate", "ablation.csv", _sha(Path("ablate", "ablation.csv").read_bytes())


def gate_compare():
    """The three ``compare`` outputs: two cells, fixmatch and aplt, that share
    one warm-up and are finished on the worker pool. Like ``gate_ablate``,
    it can run alone."""
    _hard12_csv()
    _cli("compare", "--data", "hard.csv", "--out", "compare")
    for output in ("trajectory.csv", "metrics_fixmatch.ndjson", "metrics_aplt.ndjson"):
        yield "compare", output, _sha(Path("compare", output).read_bytes())


def gate_c100():
    """The five C=100 outputs: the dataset and two train runs on it. It
    reads none of the ``hard12`` outputs, so it can run alone."""
    _cli("gen", *C100_GEN, "--out", "c100.csv")
    yield "gen", "c100.csv", _sha(Path("c100.csv").read_bytes())
    for i, variant in enumerate(C100_VARIANTS):
        sets = [a for v in C100_SETS + variant for a in ("--set", v)]
        yield from _train(" ".join(["train c100", *variant]), f"c100_train{i}",
                          "--data", "c100.csv", *sets)


def gate_active():
    """The six outputs of three train runs on ``hard12`` data whose terms
    the runs above leave silent: a fixmatch and an aplt run whose unlabeled
    rows pass tau, and an aplt run at lambda 0.5. Like ``gate_ablate``, it
    can run alone."""
    _hard12_csv()
    for i, (mode, variant) in enumerate(ACTIVE_RUNS):
        yield from _train(f"train {mode} {variant}", f"active{i}", "--data", "hard.csv",
                          "--mode", mode, "--set", variant)


def format_line(run: str, output: str, digest: str) -> str:
    return f"{run}\t{output}\t{digest}"


def check(expected: list[str], got: list[str]) -> list[str]:
    """The hash lines that differ between two printouts (``-`` expected,
    ``+`` got), with both sides' ``#`` lines when any does."""
    want = [line for line in expected if not line.startswith("#")]
    have = [line for line in got if not line.startswith("#")]
    if want == have:
        return []
    lines = [f"-{line}" for line in want if line not in have]
    lines += [f"+{line}" for line in have if line not in want]
    return lines + ["expected with:"] + [line for line in expected if line.startswith("#")] \
        + ["got with:"] + [line for line in got if line.startswith("#")]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    expected = None
    if len(args) == 3 and args[0] == "--check":
        expected = Path(args[1]).read_text().splitlines()
        args = args[2:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    got = versions()
    print("\n".join(got), flush=True)
    with contextlib.chdir(out):
        for line in gate():
            got.append(format_line(*line))
            print(got[-1], flush=True)
    if expected is None:
        return 0
    diff = check(expected, got)
    print("\n".join(diff or ["gate: all lines match"]), file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
