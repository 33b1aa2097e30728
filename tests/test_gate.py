"""The behaviour contract on every test run: part of the byte-identity gate
(``tools/gate_outputs.py``) must hash as ``tools/gate_hashes.txt`` records.
That part is the first five lines, the ``hard12`` dataset and the seed-0
aplt and fixmatch runs on it; the ``ablate`` line, whose 14 cells share one
warm-up a seed; the three ``compare`` lines, two cells that share one
warm-up (both cell lists go through ``engine.run_cells`` and its worker
pool); the five C=100 lines, which cover the many-class offline path; and
the two lines of the fixmatch run at ``optimizer.base_lr=0.5``, whose
unlabeled rows pass tau, so its consistency term trains.
The full check of all 50 lines is
``tools/gate_outputs.py --check tools/gate_hashes.txt OUTDIR``."""

import importlib.util
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location("gate_outputs",
                                                  ROOT / "tools" / "gate_outputs.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def _check_against_committed(gate, lines):
    """Formats the gate lines, checks them against the committed hashes of
    the same runs and outputs, and returns their (run, output) keys."""
    got = [gate.format_line(*line) for line in lines]
    keys = {line.rsplit("\t", 1)[0] for line in got}
    expected = [line for line in (ROOT / "tools" / "gate_hashes.txt").read_text().splitlines()
                if line.startswith("#") or line.rsplit("\t", 1)[0] in keys]
    diff = gate.check(expected, gate.versions() + got)
    assert not diff, "\n".join(diff)
    return [line.split("\t")[:2] for line in got]


def test_seed_zero_runs_hash_as_committed(tmp_path, monkeypatch):
    gate = _load_gate()
    monkeypatch.chdir(tmp_path)
    assert _check_against_committed(gate, itertools.islice(gate.gate(), 5)) == [
        ["gen", "hard.csv"],
        ["train aplt seed=0", "metrics.ndjson"], ["train aplt seed=0", "resolved_config.json"],
        ["train fixmatch seed=0", "metrics.ndjson"],
        ["train fixmatch seed=0", "resolved_config.json"]]


def test_ablate_grid_hashes_as_committed(tmp_path, monkeypatch):
    gate = _load_gate()
    monkeypatch.chdir(tmp_path)
    assert _check_against_committed(gate, gate.gate_ablate()) == [["ablate", "ablation.csv"]]


def test_compare_branches_hash_as_committed(tmp_path, monkeypatch):
    gate = _load_gate()
    monkeypatch.chdir(tmp_path)
    assert _check_against_committed(gate, gate.gate_compare()) == [
        ["compare", "trajectory.csv"], ["compare", "metrics_fixmatch.ndjson"],
        ["compare", "metrics_aplt.ndjson"]]


def test_c100_runs_hash_as_committed(tmp_path, monkeypatch):
    gate = _load_gate()
    monkeypatch.chdir(tmp_path)
    assert _check_against_committed(gate, gate.gate_c100()) == [
        ["gen", "c100.csv"],
        ["train c100", "metrics.ndjson"], ["train c100", "resolved_config.json"],
        ["train c100 cluster.method=km", "metrics.ndjson"],
        ["train c100 cluster.method=km", "resolved_config.json"]]


def test_active_consistency_run_hashes_as_committed(tmp_path, monkeypatch):
    gate = _load_gate()
    monkeypatch.chdir(tmp_path)
    assert _check_against_committed(gate, itertools.islice(gate.gate_active(), 2)) == [
        ["train fixmatch optimizer.base_lr=0.5", "metrics.ndjson"],
        ["train fixmatch optimizer.base_lr=0.5", "resolved_config.json"]]


def test_check_lists_the_lines_that_differ_with_both_builds():
    gate = _load_gate()
    expected = ["# numpy 1", "gen\ta.csv\t00", "train\tm.ndjson\t11"]
    assert gate.check(expected, ["# numpy 2", "gen\ta.csv\t00", "train\tm.ndjson\t11"]) == []
    assert gate.check(expected, ["# numpy 2", "gen\ta.csv\t00", "train\tm.ndjson\t22"]) == [
        "-train\tm.ndjson\t11", "+train\tm.ndjson\t22",
        "expected with:", "# numpy 1", "got with:", "# numpy 2"]
