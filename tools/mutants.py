"""Mutation check: does tier-1 catch each of thirteen one-line semantic bugs?

    python tools/mutants.py [NAME ...]

Copies what tier-1 reads (``COPIED``) into a temporary directory and runs
tier-1 there without ``tests/test_gate.py`` and ``tests/test_mutants.py``
(``python -m pytest -x``), which must pass. Then, one mutant at a time, it
replaces one line of ``src/aplt`` there, runs the same tests again, and
puts the line back. Leaving the gate tests out checks the protection that
is left once a change regenerates ``tools/gate_hashes.txt``: the semantic
tests alone. ``tests/test_mutants.py`` only checks that each original line
is in place, so it would fail on every mutant. It prints one line per
mutant, ``caught`` with the first failing test or ``survived``, and exits
1 if any survived. NAME runs only the named mutants. It changes no file of
the repo. All thirteen took about 265 s on a 2-core machine with one
OpenBLAS thread, so it is not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml", "BENCHMARK.json")


class Mutant(NamedTuple):
    name: str
    path: str   # relative to src/aplt
    old: str    # occurs exactly once in src/aplt
    new: str


MUTANTS = (
    Mutant("margin gradient without its temperature", "proto.py",
           "d_feats=p @ bank.rho / (B * cfg.temperature))",
           "d_feats=p @ bank.rho / B)"),
    Mutant("SAT cutoffs rescaled by the smallest local mean", "cluster.py",
           "top = tau_local.max()",
           "top = tau_local.min()"),
    Mutant("prototypes without their labeled anchors", "cluster.py",
           "sums, counts = _class_sums(C, F_l.shape[1], (F_l, labels), (F_su, su_labels))",
           "sums, counts = _class_sums(C, F_l.shape[1], (F_su, su_labels))"),
    Mutant("cosine schedule one epoch late", "engine.py",
           "self._lr = nn.cosine_lr(self.epoch, cfg.schedule.total_epochs, "
           "cfg.optimizer.base_lr)",
           "self._lr = nn.cosine_lr(self.epoch - 1, cfg.schedule.total_epochs, "
           "cfg.optimizer.base_lr)"),
    Mutant("weight decay with the wrong sign", "nn.py",
           "v += state.weight_decay * theta",
           "v -= state.weight_decay * theta"),
    Mutant("unlabeled margin rows keep discarded labels", "proto.py",
           "return _margin(bank, F, np.where(kept, targets, 0), kept, cfg)",
           "return _margin(bank, F, np.where(kept, targets, 0), None, cfg)"),
    Mutant("strong view never masked", "augment.py",
           "np.putmask(out, rng.random(x.shape) < cfg.strong_mask_prob, 0.0)",
           "np.putmask(out, rng.random(x.shape) < 0.0, 0.0)"),
    Mutant("offline cadence of offline_every + 1", "engine.py",
           "step = 1 if self.sync_mode else self.offline_every",
           "step = 1 if self.sync_mode else self.offline_every + 1"),
    Mutant("consistency labels from the strong view", "engine.py",
           "uns = fm_mod.unlabeled_loss(m, views[2], views[3], cfg.fixmatch)",
           "uns = fm_mod.unlabeled_loss(m, views[3], views[3], cfg.fixmatch)"),
    Mutant("margin gradients added without lambda", "engine.py",
           "grad += np.multiply(lam, g, out=g)",
           "grad += g"),
    Mutant("consistency keeps max(q) > tau, not >=", "fixmatch.py",
           "passed = q[np.arange(qhat.size), qhat] >= cfg.tau",
           "passed = q[np.arange(qhat.size), qhat] > cfg.tau"),
    Mutant("SAT filter compares with tau_local, not tau_adapt", "cluster.py",
           "keep = result.distances <= tau_adapt[result.assignments]",
           "keep = result.distances <= thresholds[1][result.assignments]"),
    Mutant("a fully labeled CSV trained unsplit", "cli.py",
           "return data_mod.apply_split(ds, cfg.split)",
           "return ds"),
)


def first_failure(output: str) -> str | None:
    """The first test id pytest's short summary names as failed or errored."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def tier1(copy: Path) -> str | None:
    """Tier-1 without the gate and mutant tests on ``copy``, stopping at the first
    failure: None if every test passed, else what failed first."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--ignore=tests/test_gate.py", "--ignore=tests/test_mutants.py"],
        cwd=copy, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode == 0:
        return None
    return first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def run(copy: Path, mutant: Mutant) -> str:
    """Tier-1 on ``copy`` with ``mutant`` applied: "caught by TEST" or
    "survived". The copy is restored afterwards."""
    path = copy / "src" / "aplt" / mutant.path
    original = path.read_text()
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its line does not occur exactly once in "
                         f"src/aplt/{mutant.path}")
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        failed = tier1(copy)
    finally:
        path.write_text(original)
    return "survived" if failed is None else f"caught by {failed}"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}; known: {[m.name for m in MUTANTS]}",
              file=sys.stderr)
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="aplt-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "results", "_work"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        failed = tier1(copy)
        if failed is not None:  # it would be credited with catching every mutant
            print(f"the unmutated copy fails {failed}", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            verdict = run(copy, mutant)
            survived += verdict == "survived"
            print(f"{mutant.name}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
