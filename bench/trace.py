"""Span tracer for the traced run, installed from outside the program.

Every traced layer function is wrapped once, and every ``qsell.*``
module attribute that refers to it is rebound to the wrapper: ``cli``,
``revenue`` and ``verify`` import the functions they call by name, so
patching only the defining module would miss most calls.  Each call
becomes a span (name, start, end, parent, operation id, counts) kept in
memory; the spans are written out after the run.  Counts come from the
call arguments.  Peak memory comes from ``tracemalloc``, which runs only
inside the first call of a peak-tracked function per instance: the peak
is a property of the instance, and tracing every call would triple the
pass time and inflate the self times it is meant to measure.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = {
    "cli": ("main", "load_instance"),
    "dist": ("sublevel_integral", "sublevel_mass", "quantile"),
    "virtual": ("iron",),
    "mechanism": ("build_optimal_mechanism", "interim_tables", "allocate_many"),
    "revenue": (
        "revenue_direct",
        "revenue_virtual",
        "simulate",
        "best_constant_price",
        "myerson_baseline",
    ),
    "verify": ("check_feasibility", "ic_deviation_search", "obedience_check"),
    "info": ("partition_summary", "acceptance_set"),
}

PEAK_TRACKED = {"mechanism.interim_tables", "verify.check_feasibility"}

# Keys each traced function reports besides calls, self_s and total_s.
EXTRA_KEYS = {
    "dist.sublevel_integral": ("cells", "scalar_calls"),
    "dist.sublevel_mass": ("cells", "scalar_calls"),
    "dist.quantile": ("points",),
    "mechanism.interim_tables": ("useful_ratio", "peak_mb"),
    "mechanism.allocate_many": ("samples",),
    "revenue.best_constant_price": ("cutoffs",),
    "verify.check_feasibility": ("peak_mb",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_counts(c_pos, grid_nodes):
    """cells = levels x (grid - 1), from the kernel call's arguments."""

    def counts(args, kwargs):
        c = _arg(args, kwargs, c_pos, "c")
        return {
            "cells": np.size(c) * (grid_nodes(args, kwargs) - 1),
            "scalar_calls": int(np.ndim(c) == 0),
        }

    return counts


COUNTERS = {
    "dist.sublevel_integral": _kernel_counts(3, lambda a, k: len(_arg(a, k, 0, "grid"))),
    "dist.sublevel_mass": _kernel_counts(2, lambda a, k: _arg(a, k, 0, "d").grid.size),
    "dist.quantile": lambda a, k: {"points": np.size(_arg(a, k, 1, "u"))},
    "mechanism.allocate_many": lambda a, k: {"samples": len(_arg(a, k, 2, "qualities"))},
    # best_constant_price sweeps every distinct xi value plus two sentinels.
    "revenue.best_constant_price": lambda a, k: {
        "cutoffs": np.unique(_arg(a, k, 0, "inst").quality.xi.vals).size + 2
    },
}


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id, counts)
        self.op_id = None
        self.instance = None
        self._peak_done = set()  # (function, instance) pairs already measured
        self._stack = []
        self._peaks = []  # [base bytes, peak seen before a nested reset]
        self._curves = defaultdict(dict)  # op id -> {id(curves): curves}
        self._patched = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "qsell" or n.startswith("qsell.")]
        for mod_name, names in LAYERS.items():
            module = importlib.import_module(f"qsell.{mod_name}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracked = name in PEAK_TRACKED
        tables = name == "mechanism.interim_tables"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = counter(args, kwargs) if counter else {}
            if tables:
                curves = _arg(args, kwargs, 1, "curves")
                self._curves[self.op_id][id(curves)] = curves
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            peak = tracked and (name, self.instance) not in self._peak_done
            if peak:
                self._peak_done.add((name, self.instance))
                self._peak_enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    counts["peak_mb"] = self._peak_exit() / 2**20
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id, counts)

        return wrapper

    # tracemalloc runs only inside the outermost peak-tracked span, which
    # keeps its cost off the rest of the traced pass.  A nested tracked span
    # resets the peak; the enclosing span keeps the peak it had seen so far,
    # so both peaks stay exact.
    def _peak_enter(self):
        if not self._peaks:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._peaks:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _peak_exit(self):
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._peaks.pop()
        peak = max(peak, seen)
        for frame in self._peaks:
            frame[1] = max(frame[1], peak)
        if not self._peaks:
            tracemalloc.stop()
        return peak - base

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _c in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_n, start, end, *_rest) in enumerate(self.spans)]

    def layer_metrics(self):
        """Per-layer totals of this tracer's spans; zeros for layers never called."""
        selfs = self.self_times()
        agg = {
            f"{mod}.{fn}": dict.fromkeys(
                ("calls", "self_s", "total_s", *EXTRA_KEYS.get(f"{mod}.{fn}", ())), 0.0
            )
            for mod, names in LAYERS.items()
            for fn in names
        }
        for (name, start, end, _parent, _op, counts), own in zip(self.spans, selfs):
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += own
            a["total_s"] += end - start
            for key, value in counts.items():
                if key == "peak_mb":
                    a[key] = max(a[key], value)
                else:
                    a[key] += value
        distinct = sum(len(v) for v in self._curves.values())
        calls = agg["mechanism.interim_tables"]["calls"]
        agg["mechanism.interim_tables"]["useful_ratio"] = distinct / calls if calls else 0.0
        return agg

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts},
                                    default=float) + "\n")
