"""Merge perfbench result records of a parent and a change into one BENCH file.

Usage:
    python tools/bench_record.py OUT.json --parent P1.json P2.json ... \
        --change C1.json C2.json ...

Each input is a record that ``perfbench/run.py`` wrote to
``perfbench/results/`` (copy it away after each run: the next run of the same
workload, seed and trace setting overwrites it). Records are grouped by
``WORKLOAD/seedN/traceT``; within a group the i-th parent record and the i-th
change record make a pair, so give them in the order they ran, as many of
one side as of the other.

OUT.json holds the environment of each side (all records of one side must
share it, source hash included) and, per group, for every metric
``BENCHMARK.json`` declares: each side's runs, median and quartiles
(``statistics.quantiles(..., method="inclusive")``), the pair count, how many
pairs the change won (ties count for neither), and whether that is a shown
gain (wins in at least nine tenths of the pairs, and medians further apart
than the parent's quartile spread). It also holds the output fingerprints per
cell of each side. Span tables are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def _fingerprints(records: list[dict]) -> dict:
    cells = {}
    for rec in records:
        for inv in rec["invocations"]:
            if inv.get("fingerprint"):
                cells.setdefault(str(inv["cell"]), set()).add(inv["fingerprint"])
    return {cell: sorted(prints) for cell, prints in sorted(cells.items())}


def _environment(records: list[dict], side: str) -> dict:
    envs = {json.dumps(rec["environment"], sort_keys=True) for rec in records}
    if len(envs) > 1:
        raise SystemExit(f"--{side} records ran in more than one environment or source tree")
    return records[0]["environment"]


def merge(parent: list[dict], change: list[dict], declared: dict) -> dict:
    groups = {}
    for side, records in (("parent", parent), ("change", change)):
        for rec in records:
            key = f"{rec['workload']}/seed{rec['seed']}/trace{rec['trace']}"
            groups.setdefault(key, {"parent": [], "change": []})[side].append(rec)
    workloads = {}
    for key, sides in sorted(groups.items()):
        n = len(sides["parent"])
        if n != len(sides["change"]):
            raise SystemExit(f"{key}: {n} parent records but {len(sides['change'])} "
                             "change records; they must pair up")
        first = sides["parent"][0]["metrics"]
        metrics = {}
        for name, better in declared.items():
            if name not in first:
                continue
            vals = {side: [rec["metrics"][name]["value"] for rec in sides[side]]
                    for side in ("parent", "change")}
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in zip(vals["parent"], vals["change"]))
            entry = {"unit": first[name]["unit"], "better": better,
                     "parent": _spread(vals["parent"]), "change": _spread(vals["change"]),
                     "wins": wins}
            gap = sign * (entry["parent"]["median"] - entry["change"]["median"])
            entry["gain_shown"] = (wins >= 0.9 * n
                                   and gap > entry["parent"]["q3"] - entry["parent"]["q1"])
            metrics[name] = entry
        prints = {side: _fingerprints(sides[side]) for side in ("parent", "change")}
        workloads[key] = {"pairs": n, "metrics": metrics, "fingerprints": prints,
                          "fingerprints_equal": prints["parent"] == prints["change"]}
    return {"environment": {"parent": _environment(parent, "parent"),
                            "change": _environment(change, "change")},
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    load = [[json.loads(p.read_text()) for p in paths] for paths in (args.parent, args.change)]
    args.out.write_text(json.dumps(merge(*load, declared), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
