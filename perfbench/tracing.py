"""Span tracing of mfmc's layers from outside the package.

``Tracer.installed()`` wraps the public functions listed in ``SPANS`` for
the duration of a ``with`` block. A function is replaced wherever an mfmc
module holds a reference to it (``study`` imports most names directly), and
a method is replaced on its class. Each call records a span: name, parent
span, start, end and the benchmark unit it belongs to. Spans stay in memory;
a layer's self time is its span's duration minus the time its child spans
cover. Calls into functions not listed count towards the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_rows_drawn(counts, result, args):
    counts["sampling.rows_drawn"] += result.n


def _count_model_rows(counts, result, args):
    counts["hierarchy.model_rows"] += result.shape[0]


def _count_predict_rows(counts, result, args):
    counts["regression.predict_rows"] += np.size(result)


def _count_plan(counts, result, args):
    counts["allocation.budget_used_sum"] += result.budget_used / result.budget
    counts["allocation.models_retained_sum"] += int(np.sum(result.retained))


# (mfmc module, attribute, span name, counter or None)
SPANS = (
    ("sampling", "draw_inputs", "sampling.draw_inputs", _count_rows_drawn),
    ("sampling", "build_sobol_block", "sampling.build_sobol_block", None),
    ("sampling", "evaluate_nested", "sampling.evaluate", None),
    ("sampling", "evaluate_sobol_nested", "sampling.evaluate", None),
    ("hierarchy", "Model.evaluate_batch", "hierarchy.evaluate_batch", _count_model_rows),
    ("pilot", "estimate_moment_stats", "pilot.estimate_stats", None),
    ("pilot", "estimate_q_stats", "pilot.estimate_stats", None),
    ("pilot", "estimate_g_stats", "pilot.estimate_stats", None),
    ("regression", "GaussianProcessBridge.fit", "regression.fit", None),
    ("regression", "GaussianProcessBridge.predict_mean", "regression.predict_mean",
     _count_predict_rows),
    ("allocation", "optimal_allocation", "allocation.optimal_allocation", _count_plan),
    ("allocation", "budget_for_tolerance", "allocation.budget_for_tolerance", None),
    ("estimators", "evaluate_for_plan", "estimators.evaluate_for_plan", None),
    ("estimators", "evaluate_sobol_for_plan", "estimators.evaluate_for_plan", None),
    ("estimators", "mfmc_expectation", "estimators.combine", None),
    ("estimators", "mfmc_statistic", "estimators.combine", None),
    ("estimators", "mfmc_nonlinear", "estimators.combine", None),
    ("estimators", "apply_bridges", "estimators.apply_bridges", None),
    ("study", "run_replicate", "study.run_replicate", None),
    ("study", "run_study", "study.run_study", None),
)

UNIT_SPAN = "bench.unit"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start ns, end ns, unit)
        self.counts = defaultdict(float)
        self.missing = set()
        self._stack = []
        self._unit = None

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, parent, start, end, self._unit)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in ``SPANS``; undo it on exit."""
        patches = []  # (owner, attribute, original)
        packages = [mod for key, mod in sys.modules.items()
                    if key == "mfmc" or key.startswith("mfmc.")]
        try:
            for module_name, attr, name, count in SPANS:
                owner = importlib.import_module(f"mfmc.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.add(f"mfmc.{module_name}.{attr}")
                    continue
                wrapped = self._wrap(name, original, count)
                if path:
                    patches.append((owner, leaf, original))
                    setattr(owner, leaf, wrapped)
                    continue
                for module in packages:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    @contextmanager
    def unit(self, index: int):
        """Group the spans of one benchmark unit under a root span."""
        self._unit = index
        span_index = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_index] = (UNIT_SPAN, -1, start, end, index)
            self._unit = None

    def self_times(self) -> dict:
        """Per span name: (total self time in ns, number of calls)."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = defaultdict(lambda: [0, 0])
        for i, (name, _, start, end, _) in enumerate(self.spans):
            totals[name][0] += end - start - child_ns[i]
            totals[name][1] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_ns", "end_ns", "unit"],
                    "names": names,
                    "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                },
                fh,
            )
