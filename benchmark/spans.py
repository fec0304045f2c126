"""In-memory span recorder that times calls into the rankwin modules.

The package modules import each other's functions by name, so a function is
patched in every namespace its callers look it up from (for example both
``rankwin.engine.make_window`` and ``rankwin.refdb.make_window``), not only
in the module that defines it.  Methods of ``RelativeRegressor`` are patched
on the class.  Spans stay in memory until :meth:`SpanRecorder.write_csv`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np


def _rows(arr) -> int:
    return 1 if np.ndim(arr) == 1 else len(arr)


# (namespace the caller looks the name up in, attribute, span name, count of
# work done by one call as a function of (args, kwargs, result))
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("rankwin.experiments", "run_train", "experiments.run_train", None),
    ("rankwin.experiments", "run_build_refdb", "experiments.run_build_refdb", None),
    ("rankwin.experiments", "run_eval", "experiments.run_eval", None),
    ("rankwin.experiments", "run_simulate", "experiments.run_simulate", None),
    ("rankwin.experiments", "file_digest", "experiments.file_digest", None),
    ("rankwin.experiments", "load_dataset", "data.load_dataset", None),
    ("rankwin.experiments", "partition_golden", "partition.partition_golden", None),
    ("rankwin.experiments", "train", "training.train", None),
    ("rankwin.experiments", "save_checkpoint", "nets.save_checkpoint", None),
    ("rankwin.experiments", "load_checkpoint", "nets.load_checkpoint", None),
    ("rankwin.experiments", "build_database", "refdb.build_database", None),
    ("rankwin.experiments", "save_database", "refdb.save_database", None),
    ("rankwin.experiments", "load_database", "refdb.load_database", None),
    ("rankwin.experiments", "estimate_rank", "engine.estimate_rank", None),
    ("rankwin.engine", "estimate_rank", "engine.estimate_rank", None),
    ("rankwin.experiments", "mae", "metrics.mae", None),
    ("rankwin.experiments", "cumulative_score", "metrics.cumulative_score", None),
    ("rankwin.experiments", "epsilon_error", "metrics.epsilon_error", None),
    ("rankwin.experiments", "accuracy", "metrics.accuracy", None),
    ("rankwin.training", "sample_triplets", "training.sample_triplets",
     lambda a, k, out: len(out)),
    ("rankwin.training", "adam_step", "nets.adam_step", None),
    ("rankwin.nets:RelativeRegressor", "loss_and_gradients", "nets.loss_and_gradients",
     lambda a, k, out: _rows(a[1])),
    ("rankwin.nets:RelativeRegressor", "regress_grid", "nets.regress_grid",
     lambda a, k, out: int(np.size(out))),
    ("rankwin.nets:RelativeRegressor", "encode", "nets.encode",
     lambda a, k, out: _rows(a[1])),
    ("rankwin.nets:RelativeRegressor", "regress", "nets.regress",
     lambda a, k, out: _rows(a[1])),
    ("rankwin.engine", "knn_ranks", "refdb.knn_ranks", None),
    ("rankwin.engine", "select_references", "refdb.select_references", None),
    ("rankwin.engine", "mwr_step", "engine.mwr_step", None),
    ("rankwin.engine", "groups_containing", "partition.groups_containing", None),
    ("rankwin.engine", "make_window", "windows.make_window", None),
    ("rankwin.refdb", "make_window", "windows.make_window", None),
    ("rankwin.engine", "reconstruct_rank", "windows.reconstruct_rank", None),
)


def _resolve(path: str):
    """``package.module`` or ``package.module:Class``."""
    module, _, owner = path.partition(":")
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


class SpanRecorder:
    """Spans as (id, parent id, name, trace id, start, end, count) tuples.

    ``trace_id`` names the stage or query that the spans recorded next
    belong to; the caller sets it before each stage or query.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trace_id = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = count(args, kwargs, out) if (count is not None and out is not None) else 1
                spans[sid] = (sid, parent, name, self.trace_id, t0, t1, n)

        return traced

    @contextlib.contextmanager
    def patched(self) -> Iterator["SpanRecorder"]:
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for path, attr, name, count in PATCHES:
                target = _resolve(path)
                original = getattr(target, attr)
                saved.append((target, attr, original))
                setattr(target, attr, self.wrap(name, original, count))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, calls, count."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, _, t0, t1, n in self.spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[sid]
            row["calls"] += 1
            row["count"] += n
        return out

    def module_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, row in self.summary().items():
            totals[name.split(".")[0]] += row["self_s"]
        return dict(totals)

    def write_csv(self, path: str) -> None:
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "trace", "start_us", "dur_us", "count"])
            for sid, parent, name, trace, t0, t1, n in self.spans:
                writer.writerow([sid, parent, name, trace, round((t0 - base) * 1e6, 1),
                                 round((t1 - t0) * 1e6, 1), n])
