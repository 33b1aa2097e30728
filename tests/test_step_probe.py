"""Smoke test of ``tools/step_probe.py``: a few timed steps, and call counts
under those of the online step before its call diet (213 Python-level and
188 C-level calls per post-warm-up step)."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probe_counts_calls_then_times_steps():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "step_probe.py"), "--steps", "3"],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    counts, timing = proc.stdout.splitlines()
    python_calls, c_calls = map(int, re.fullmatch(
        r"calls per step: (\d+) Python-level, (\d+) C-level", counts).groups())
    assert 0 < python_calls < 213 and 0 < c_calls < 188
    assert re.fullmatch(r"step time over 3 steps: median \d+ us \(quartiles \d+-\d+ us\); "
                        r"median _draw \d+ us, _train_step \d+ us", timing)


def test_nonpositive_steps_is_a_usage_error_before_training():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for steps in ("0", "-2"):
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "step_probe.py"),
                               "--steps", steps], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "usage:" in proc.stderr and "must be a positive integer" in proc.stderr


def test_negative_seed_is_a_usage_error_before_training():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "step_probe.py"),
                           "--seed", "-1"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage:" in proc.stderr and "must be a nonnegative integer" in proc.stderr
    assert "Traceback" not in proc.stderr
