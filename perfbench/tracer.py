"""Outside-in span tracer for the aplt modules.

While installed, each traced function is replaced on its module by a wrapper
that records one span per call: name, start, end, parent span and run id.
The program itself is not modified; every call site that looks the function
up on its module at call time (``nn.backward``, ``engine.run`` ...) sees the
wrapper. ``engine.run`` binds ``augment.strong`` into the margin view when a
run starts, so the tracer must be installed before the CLI is invoked.

Spans stay in memory until ``write``; self time is a span's duration minus
the durations of its direct children (children of one call never overlap,
since the program is single-threaded).
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict


def _rows(arg: int, name: str):
    """Items processed = leading dimension of one array argument."""
    def get(args, kwargs, out):
        x = args[arg] if len(args) > arg else kwargs[name]
        return int(x.shape[0])
    return get


def _one(args, kwargs, out):
    return 1


def _pure_kmeans_rows(args, kwargs, out):
    return int(args[0].shape[0] + args[1].shape[0])


# traced function -> rows extractor. "rows" is the number of samples the call
# processed; calls with no batch argument count one item per call.
TRACED = {
    "nn.forward_features": _rows(1, "x"),
    "nn.forward_logits": _rows(1, "x"),
    "nn.backward": _rows(1, "x"),
    "nn.sgd_step": _one,
    "nn.save_checkpoint": _one,
    "augment.weak": _rows(0, "x"),
    "augment.strong": _rows(0, "x"),
    "fixmatch.supervised_loss": _rows(1, "x"),
    "fixmatch.unlabeled_loss": _rows(1, "x"),
    "proto.margin_loss_labeled": _rows(1, "F"),
    "proto.margin_loss_unlabeled": _rows(1, "F"),
    "proto.predict": _rows(1, "F"),
    "cluster.extract_all_features": lambda a, k, out: sum(int(f.shape[0]) for f in out),
    "cluster.ss_kmeans": _rows(1, "F_u"),
    "cluster.pure_kmeans": _pure_kmeans_rows,
    "cluster.adaptive_thresholds": lambda a, k, out: int(a[0].distances.shape[0]),
    "cluster.filter_pseudo_labels": lambda a, k, out: int(out.n_unlabeled),
    "cluster.build_prototypes": lambda a, k, out: int(a[0].shape[0] + a[2].shape[0]),
    "engine.evaluate": _rows(2, "X_test"),
    "engine.run": lambda a, k, out: int(a[0].n),
    "data.load_csv": lambda a, k, out: int(out.n),
    "config.resolve": _one,
}

OFFLINE = tuple(k for k in TRACED if k.startswith("cluster."))

# functions whose results feed outcome counters (see _counts)
COUNTED = {"fixmatch.unlabeled_loss", "proto.margin_loss_unlabeled",
           "cluster.ss_kmeans", "cluster.pure_kmeans",
           "cluster.filter_pseudo_labels"}


def _counts(key, args, out):
    """Outcome counters read from a call's result: {counter: value}."""
    if key == "fixmatch.unlabeled_loss":
        return {"fixmatch.passed": out.pass_count}
    if key == "proto.margin_loss_unlabeled":
        return {"proto.kept": out.pass_count}
    if key in ("cluster.ss_kmeans", "cluster.pure_kmeans"):
        n = args[1].shape[0] + (args[0].shape[0] if key == "cluster.pure_kmeans" else 0)
        return {"cluster.kmeans_iterations": out.iterations_run,
                # derived from the outputs, not counted inside the loop
                "cluster.distance_evals": (out.iterations_run + 1) * n
                * out.centroids.shape[0]}
    if key == "cluster.filter_pseudo_labels":
        return {"cluster.kept": int(out.indices.size),
                "cluster.offered": int(out.n_unlabeled)}
    return {}


class Tracer:
    """Collects spans for the traced functions across many CLI invocations."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans = []          # [name id, parent index, run id, start, end, rows]
        self.counters = defaultdict(float)   # (run id, counter) -> value
        self.run_id = -1
        self._stack = []
        self._saved = []

    def _wrap(self, key, fn, rows):
        spans, stack, counters = self.spans, self._stack, self.counters
        name_id = self.names.index(key)
        counted = key in COUNTED

        def traced(*args, **kwargs):
            rec = [name_id, stack[-1] if stack else -1, self.run_id, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            rec[5] = rows(args, kwargs, out)
            if counted:
                for name, value in _counts(key, args, out).items():
                    counters[(self.run_id, name)] += value
            return out

        return traced

    def install(self, run_id: int) -> None:
        """Replace every traced function on its module by its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        for key, rows in TRACED.items():
            mod_name, fn_name = key.split(".")
            mod = importlib.import_module(f"aplt.{mod_name}")
            fn = getattr(mod, fn_name)
            self._saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, self._wrap(key, fn, rows))

    def uninstall(self):
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()
        self._stack.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4] - s[3]
        return out

    def per_run(self, run_ids) -> list[dict]:
        """Per given run id: {function: {calls, self_s, total_s, rows}}."""
        tables = {i: {k: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "rows": 0}
                      for k in self.names} for i in run_ids}
        for s, self_s in zip(self.spans, self.self_times()):
            if s[2] not in tables:
                continue
            row = tables[s[2]][self.names[s[0]]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += s[4] - s[3]
            row["rows"] += s[5]
        return [tables[i] for i in run_ids]

    def counter(self, run_id: int, name: str) -> float:
        return self.counters.get((run_id, name), 0.0)

    def write(self, path) -> None:
        """All spans as gzip CSV: name,parent,run,start,end,rows."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,parent,run,start,end,rows\n")
            for s in self.spans:
                fh.write(f"{self.names[s[0]]},{s[1]},{s[2]},{s[3]!r},{s[4]!r},{s[5]}\n")
