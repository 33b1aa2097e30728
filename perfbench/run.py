"""Benchmark for the aplt CLI, measured from outside the program.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --workload all ...   (every workload, one table)

The bench builds each workload's dataset CSVs from --seed, then drives
``aplt.cli.main`` in-process, one invocation after another (a closed loop of
one caller), until every cell has run once and no further invocation fits
in --seconds. Every
invocation's outputs are checked (see workloads.check); a rerun of a cell
must reproduce its first log byte for byte.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced invocations of the same cell and reports per-layer metrics from the
traced ones, plus the tracing overhead. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full record,
environment included, goes to perfbench/results/. Exit code 0 only when every
invocation passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPEATS = 7
EMPTY_CLASS_MSG = "no unlabeled samples assigned to class"


class WarningCounter(logging.Handler):
    """Counts log records by message template, so warnings the CLI would
    print through logging's last-resort handler become counts."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        self.counts[record.msg] += 1

    def empty_class_events(self) -> int:
        return sum(n for msg, n in self.counts.items() if msg.startswith(EMPTY_CLASS_MSG))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "aplt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_commit": commit,
            "source_sha256": src.hexdigest()}


def measure_setup(csv_path: Path, overrides, repeats: int) -> list[float]:
    """Times from spawning a fresh process until it has imported aplt, loaded
    the CSV and resolved the config (the probe prints its wall-clock end
    time)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(csv_path),
           *overrides]
    times = []
    for _ in range(repeats):
        start = time.time_ns()
        done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        times.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return times


class Bench:
    def __init__(self, workload, seed: int, work: Path, warnings: WarningCounter):
        from workloads import write_inputs

        self.w = workload
        self.seed = seed
        self.work = work
        self.warnings = warnings
        self.csvs = write_inputs(workload, seed, work)
        self.first = {}          # cell -> fingerprint of its first run
        self.invocations = []

    def invoke(self, cell: int, tracer=None) -> dict:
        """One CLI invocation of a cell, timed and checked."""
        from aplt import cli
        from workloads import CheckFailed, check, cli_args

        k = len(self.invocations)
        out = self.work / f"inv{k}"
        argv = cli_args(self.w, self.csvs[cell], out, train_seed=cell)
        empty_before = self.warnings.empty_class_events()
        sink = io.StringIO()
        if tracer is not None:
            tracer.install(run_id=k)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}: {sink.getvalue()[-500:]}"
        except Exception:  # a crash is one failed invocation, not a dead bench
            error = traceback.format_exc(limit=5)
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        rec = {"cell": cell, "traced": tracer is not None, "seconds": elapsed,
               "empty_class_events": self.warnings.empty_class_events() - empty_before}
        if error is None:
            try:
                outcome = check(self.w, out, train_seed=cell)
                if outcome.empty_classes not in (None, rec["empty_class_events"]):
                    raise CheckFailed(f"{rec['empty_class_events']} empty-class warnings, "
                                      f"log lists {outcome.empty_classes}")
                expected = self.first.setdefault(cell, outcome.fingerprint)
                if outcome.fingerprint != expected:
                    raise CheckFailed("rerun of the cell is not byte-identical")
                rec.update(fingerprint=outcome.fingerprint, test_acc=outcome.test_acc,
                           pseudo_label_acc=outcome.pseudo_label_acc)
            except Exception as exc:  # any broken output fails the invocation
                error = f"{type(exc).__name__}: {exc}"
        rec["error"] = error
        shutil.rmtree(out, ignore_errors=True)
        self.invocations.append(rec)
        return rec


def end_to_end(bench: Bench, seconds: float) -> dict:
    import resource

    # set-up probes are spread over the run, so that the median sees the
    # same machine load as the invocations; the first (cold caches) is dropped
    measure_setup(bench.csvs[0], bench.w.overrides, 1)
    probes = -(-SETUP_REPEATS // bench.w.cells)
    setup = []
    start = time.perf_counter()
    k = 0
    # every cell runs once; after that, another invocation only if it is
    # expected to finish within the window
    while k < bench.w.cells or (time.perf_counter() - start + statistics.median(
            r["seconds"] for r in bench.invocations) <= seconds):
        cell = k % bench.w.cells
        setup += measure_setup(bench.csvs[cell], bench.w.overrides, probes)
        bench.invoke(cell)
        k += 1
    runs = bench.invocations
    first = runs[:bench.w.cells]
    ok = [r for r in runs if r["error"] is None]
    pseudo = [r["pseudo_label_acc"] for r in first if r.get("pseudo_label_acc") is not None]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(r["seconds"] for r in runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "test_acc": (statistics.fmean(r.get("test_acc", 0.0) for r in first), "fraction"),
        "pseudo_label_acc": (statistics.fmean(pseudo) if pseudo else 0.0, "fraction"),
        "ok_frac": (len(ok) / len(runs), "fraction"),
    }
    return {"metrics": metrics, "setup_samples": setup}


def per_layer(bench: Bench, seconds: float) -> dict:
    from tracer import OFFLINE, TRACED, Tracer

    tracer = Tracer()
    start = time.perf_counter()
    pairs = []
    while not pairs or (time.perf_counter() - start + statistics.median(
            p["seconds"] + t["seconds"] for p, t in pairs) <= seconds):
        cell = len(pairs) % bench.w.cells
        plain = bench.invoke(cell)
        traced = bench.invoke(cell, tracer=tracer)
        pairs.append((plain, traced))
    run_ids = [i for i, r in enumerate(bench.invocations) if r["traced"]]
    tables = tracer.per_run(run_ids)
    n = len(run_ids)

    metrics = {}
    for key in TRACED:
        for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"),
                            ("rows", "count")):
            metrics[f"{key}.{field}"] = (sum(t[key][field] for t in tables) / n, unit)

    def total(name):
        return sum(tracer.counter(i, name) for i in run_ids)

    def ratio(num, den):
        return num / den if den else 0.0

    def rows(key):
        return sum(t[key]["rows"] for t in tables)

    offline = [sum(t[k]["total_s"] for k in OFFLINE) / bench.invocations[i]["seconds"]
               for t, i in zip(tables, run_ids)]
    plain_s = statistics.median(p["seconds"] for p, _ in pairs)
    overhead = statistics.median(t["seconds"] - p["seconds"] for p, t in pairs)
    metrics.update({
        "fixmatch.pass_frac": (ratio(total("fixmatch.passed"),
                                     rows("fixmatch.unlabeled_loss")), "fraction"),
        "proto.kept_frac": (ratio(total("proto.kept"),
                                  rows("proto.margin_loss_unlabeled")), "fraction"),
        "cluster.kmeans_iterations": (total("cluster.kmeans_iterations") / n, "count"),
        "cluster.distance_evals": (total("cluster.distance_evals") / n, "count"),
        "cluster.coverage": (ratio(total("cluster.kept"), total("cluster.offered")),
                             "fraction"),
        "cluster.empty_class_events": (sum(bench.invocations[i]["empty_class_events"]
                                           for i in run_ids) / n, "count"),
        "engine.offline_share": (statistics.fmean(offline), "fraction"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / plain_s, "fraction"),
    })
    return {"metrics": metrics, "tracer": tracer}


def run_one(args) -> int:
    from workloads import WORKLOADS, split_seed

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    warnings = WarningCounter()
    logging.getLogger("aplt").addHandler(warnings)
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH_DIR / "_work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, warnings)
        measure = per_layer if args.trace else end_to_end
        report = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        report.pop("tracer").write(results / f"{stem}-spans.csv.gz")

    runs = bench.invocations
    failed = sum(r["error"] is not None for r in runs)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report["metrics"].items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "split_seeds": [split_seed(bench.seed, c) for c in range(bench.w.cells)],
              "metrics": metrics, "setup_samples": report.get("setup_samples"),
              "invocations": runs, "warnings": dict(warnings.counts)}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:36s} {m['value']:.6g} {m['unit']}")
    for r in runs:
        if r["error"]:
            print(f"FAILED cell {r['cell']}: {r['error']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aplt" / "__init__.py").is_file():
        print(f"aplt sources not found under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy loads; children (setup probes) inherit it
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
