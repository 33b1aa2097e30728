"""Calls and time of one post-warm-up APLT optimizer step at the default config.

    PYTHONPATH=src python tools/step_probe.py [--steps 400] [--seed 0]

Trains the default warm-up on the ``hard12`` preset at 10% labels (the gate
data) and opens the next epoch (``_open_epoch``), which runs the first
offline event and sets the epoch's learning rate. A step is the trainer's
draws (``_draw``) plus its optimizer step on them (``_train_step``) at that
rate, as a run of one cell makes it. The probe counts one online step's
Python-level and C-level calls (the ``call`` and ``c_call`` events of
``sys.setprofile``) and prints the median and quartiles of ``--steps`` more
steps' times, and the median times of their ``_draw`` and ``_train_step``
parts, with one BLAS thread pinned before numpy loads.
"""

import argparse
import itertools
import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from aplt import cli, config, data, engine  # noqa: E402


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {raw!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=positive_int, default=400, help="timed steps")
    parser.add_argument("--seed", type=nonnegative_int, default=0, help="training seed")
    args = parser.parse_args(argv)
    cfg, _ = config.resolve(overrides=["mode=aplt", f"seed={args.seed}"])
    p = cli.PRESETS["hard12"]
    ds = data.apply_split(data.generate_synthetic(p["classes"], p["dim"], p["per_class"],
                                                  p["overlap"], p["seed"]),
                          data.SplitSpec(labeled_ratio=0.1))
    trainer = engine._Trainer(ds, cfg)
    trainer.train(cfg.schedule.warmup_epochs)
    trainer._open_epoch()
    lr, lam = trainer._lr, cfg.margin.lam
    feed = itertools.chain.from_iterable(iter(trainer._epoch_chunks, None))  # epoch after epoch

    def step(chunk):
        trainer._train_step(chunk, trainer._draw(chunk), lr, lam)

    step(next(feed))  # first-call effects out of the count
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    chunk = next(feed)
    sys.setprofile(count)
    step(chunk)
    sys.setprofile(None)
    print(f"calls per step: {counts['call']} Python-level, {counts['c_call']} C-level")
    times, draws, steps = [], [], []
    for _ in range(args.steps):
        chunk = next(feed)
        start = time.perf_counter()
        views = trainer._draw(chunk)
        drawn = time.perf_counter()
        trainer._train_step(chunk, views, lr, lam)
        end = time.perf_counter()
        times.append((end - start) * 1e6)
        draws.append((drawn - start) * 1e6)
        steps.append((end - drawn) * 1e6)
    q1, med, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                   if len(times) > 1 else times * 3)
    print(f"step time over {len(times)} steps: median {med:.0f} us "
          f"(quartiles {q1:.0f}-{q3:.0f} us); median _draw {statistics.median(draws):.0f} us, "
          f"_train_step {statistics.median(steps):.0f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
