"""Self-tests for the benchmark's tracer and output checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from aplt import cluster  # noqa: E402

# hard12 shape on a short schedule: two offline events, a few seconds per run
TINY = workloads.Workload("tiny", "train", 12, 32, 100, 0.25, cells=1, overrides=(
    "schedule.warmup_epochs=2", "schedule.main_epochs=4", "schedule.offline_every=2"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    counter = run.WarningCounter()
    logger = logging.getLogger("aplt")
    logger.addHandler(counter)
    try:
        bench = run.Bench(TINY, seed=7, work=tmp_path_factory.mktemp("bench"),
                          warnings=counter)
        report = run.per_layer(bench, seconds=0)
    finally:
        logger.removeHandler(counter)
    return bench, report


def test_traced_run_log_is_byte_identical_to_untraced(traced):
    bench, _ = traced
    plain, tr = bench.invocations
    assert not plain["traced"] and tr["traced"]
    assert plain["error"] is None and tr["error"] is None
    assert plain["fingerprint"] == tr["fingerprint"]


def test_engine_run_self_times_sum_to_its_wall_time(traced):
    _, report = traced
    tracer = report["tracer"]
    run_span = tracer.names.index("engine.run")
    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s[0] == run_span)
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][1] in inside:
            inside.add(i)
    self_s = tracer.self_times()
    wall = spans[root][4] - spans[root][3]
    assert len(inside) > 1000
    assert sum(self_s[i] for i in inside) == pytest.approx(wall, rel=1e-9)
    assert all(t >= 0.0 for t in self_s)


def test_per_layer_metrics_match_benchmark_json(traced):
    _, report = traced
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, (_, unit) in report["metrics"].items()}
    assert report["metrics"]["engine.run.calls"][0] == 1
    assert report["metrics"]["cluster.ss_kmeans.calls"][0] == 2


def test_output_check_rejects_a_bank_change_between_events(tmp_path):
    from aplt import cli

    csv_path = workloads.write_inputs(TINY, 3, tmp_path)[0]
    out = tmp_path / "out"
    assert cli.main(workloads.cli_args(TINY, csv_path, out, train_seed=0)) == 0
    assert workloads.check_train(out).test_acc > 0.0
    log = out / "metrics.ndjson"
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    last = max(i for i, r in enumerate(lines) if r["kind"] == "epoch")
    lines[last]["bank_digest"] = "0" * 64
    log.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))
    with pytest.raises(workloads.CheckFailed, match="bank digest"):
        workloads.check_train(out)


def test_empty_class_warning_becomes_a_count():
    counter = run.WarningCounter()
    logger = logging.getLogger("aplt")
    logger.addHandler(counter)
    try:
        result = cluster.ClusterResult(centroids=np.eye(3), assignments=np.array([0, 0, 2]),
                                       distances=np.array([0.1, 0.2, 0.3]),
                                       iterations_run=1, objective=0.0)
        cluster.adaptive_thresholds(result, 3)
    finally:
        logger.removeHandler(counter)
    assert counter.empty_class_events() == 1
