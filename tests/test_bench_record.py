import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402

DECLARED = {"run_s": "lower", "test_acc": "higher"}


def record(run_s, test_acc=0.5, fingerprint="f0", source="a", workload="w"):
    return {"workload": workload, "seed": 1, "trace": 0,
            "environment": {"numpy": "2", "source_sha256": source},
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "test_acc": {"value": test_acc, "unit": "fraction"}},
            "invocations": [{"cell": 0, "fingerprint": fingerprint}]}


def test_pairs_wins_quartiles_and_fingerprints():
    parent = [record(t) for t in (1.0, 1.2, 1.1, 1.3, 1.0)]
    change = [record(t, source="b") for t in (0.8, 0.9, 1.2, 0.9, 0.8)]
    out = bench_record.merge(parent, change, DECLARED)
    w = out["workloads"]["w/seed1/trace0"]
    run_s = w["metrics"]["run_s"]
    assert w["pairs"] == 5 and run_s["wins"] == 4
    assert run_s["parent"]["median"] == 1.1 and run_s["change"]["median"] == 0.9
    assert (run_s["parent"]["q1"], run_s["parent"]["q3"]) == (1.0, 1.2)
    assert run_s["gain_shown"] is False  # 4 of 5 pairs is below nine tenths
    assert w["metrics"]["test_acc"]["wins"] == 0  # equal values are ties
    assert w["fingerprints_equal"] and w["fingerprints"]["change"] == {"0": ["f0"]}
    assert out["environment"]["change"]["source_sha256"] == "b"


def test_a_gain_needs_nine_tenths_and_a_gap_past_the_parent_spread():
    parent = [record(1.0 + 0.01 * i) for i in range(10)]
    change = [record(0.5, fingerprint="f1") for _ in range(10)]
    w = bench_record.merge(parent, change, DECLARED)["workloads"]["w/seed1/trace0"]
    assert w["metrics"]["run_s"]["gain_shown"] is True
    assert not w["fingerprints_equal"]


@pytest.mark.parametrize("parent, change, message", [
    ([record(1.0), record(1.0)], [record(1.0)], "must pair up"),
    ([record(1.0), record(1.0, source="x")], [record(1.0), record(1.0)],
     "more than one environment"),
])
def test_refuses_records_that_do_not_pair(parent, change, message):
    with pytest.raises(SystemExit, match=message):
        bench_record.merge(parent, change, DECLARED)


def test_main_writes_the_merged_file(tmp_path):
    paths = {}
    for side, t in (("p", 1.0), ("c", 0.9)):
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(record(t)))
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(out), "--parent", str(paths["p"]),
                              "--change", str(paths["c"])]) == 0
    assert json.loads(out.read_text())["workloads"]["w/seed1/trace0"]["metrics"]["run_s"]["wins"] == 1
