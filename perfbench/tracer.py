"""Spans and counters around tclgen's public functions, installed from outside.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are turned into per-layer self times and counts when the run ends.
In resource mode every span also records its minor page faults, system CPU
time and tracemalloc peak, so those can be attributed to a layer's own calls.
"""

from __future__ import annotations

import importlib
import math
import resource
import time
import tracemalloc
from collections import Counter, defaultdict

QUERY_METHODS = ("pair_free", "triple_slice", "chain_rows", "value")

# (module, attribute path, span name)
TARGETS = [
    ("tclgen.cli", "main", "cli.main"),
    ("tclgen.terms", "generator_terms", "terms.generate"),
    ("tclgen.terms", "momentum_terms", "terms.generate"),
    ("tclgen.terms", "momentum_derivative_terms", "terms.generate"),
    ("tclgen.baths", "correlator_table", "baths.table_build"),
    ("tclgen.baths", "two_point_from_samples", "baths.table_build"),
    *[("tclgen.baths", f"{cls}.{meth}", "baths.query")
      for cls in ("ExactCorrelatorTable", "GaussianCorrelatorTable")
      for meth in QUERY_METHODS],
    ("tclgen.superops", "build_system_superops", "superops.system_superops"),
    ("tclgen.superops", "GeneratorEngine.cluster_value", "superops.cluster"),
    ("tclgen.superops", "generator_table", "superops.recursion"),
    ("tclgen.propagate", "propagate_state", "propagate.rk4"),
    ("tclgen.propagate", "propagate_observable", "propagate.rk4"),
    ("tclgen.propagate", "trajectory_to_csv", "propagate.csv"),
    ("tclgen.oracle", "exact_reduced_trajectory", "oracle.exact"),
    ("tclgen.oracle", "tcl_vs_exact_error", "oracle.distance"),
]
MODULES = ("tclgen.cli", "tclgen.terms", "tclgen.baths", "tclgen.superops",
           "tclgen.propagate", "tclgen.oracle")
KERNEL_FACTORIES = ("two_point_from_samples", "thermal_mode_two_point")

# span name -> per-layer self-time metric
TIME_METRICS = {
    "cli.main": "cli.self_s",
    "terms.generate": "terms.generate_s",
    "baths.table_build": "baths.table_build_s",
    "baths.query": "baths.query_s",
    "superops.system_superops": "superops.system_superops_s",
    "superops.cluster": "superops.cluster_self_s",
    "superops.recursion": "superops.recursion_self_s",
    "propagate.rk4": "propagate.rk4_self_s",
    "propagate.csv": "propagate.csv_s",
    "oracle.exact": "oracle.exact_s",
    "oracle.distance": "oracle.distance_self_s",
}
RESOURCE_LAYERS = ("baths", "superops", "oracle")


def _key(args):
    try:
        hash(args)
        return args
    except TypeError:
        return repr(args)


def self_times(spans, lo=-math.inf, hi=math.inf, untraced=frozenset()):
    """Self time of every span, clipped to the window [lo, hi].

    Spans whose index is in ``untraced`` are treated as if their function
    were not wrapped: their time counts as their nearest traced ancestor's.
    """
    own = [max(0.0, min(e, hi) - max(s, lo)) for _, s, e, _ in spans]
    self_t = [0.0 if idx in untraced else t for idx, t in enumerate(own)]
    for idx, (_, _, _, parent) in enumerate(spans):
        if idx in untraced:
            continue
        while parent in untraced:
            parent = spans[parent][3]
        if parent >= 0:
            self_t[parent] -= own[idx]
    return self_t


def unexplained_time(spans, t_engine, t_end, untraced=frozenset()):
    """Task time that no layer below ``cli.main`` covers.

    This is the root span's self time inside the task window [t_engine,
    t_end]: output formatting today.  It grows when task work moves out of
    every traced function, e.g. into an untraced helper.
    """
    return sum(st for (name, _, _, _), st
               in zip(spans, self_times(spans, t_engine, t_end, untraced))
               if name == "cli.main")


class Tracer:
    def __init__(self, resources=False):
        self.resources = resources
        self.spans = []        # [name, start, end, parent]
        self.usage = []        # per span: [faults, sys_s, self_peak_bytes]
        self.stack = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._frames = []      # resource mode: [entry_bytes, segment_peak]

    # -- span recording -------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        if self.resources:
            ru = resource.getrusage(resource.RUSAGE_SELF)
            cur, peak = tracemalloc.get_traced_memory()
            if self._frames:
                top = self._frames[-1]
                top[1] = max(top[1], peak)
            self._frames.append([cur, cur])
            self.usage.append([ru.ru_minflt, ru.ru_stime, 0])
            tracemalloc.reset_peak()
        self.spans.append([name, time.monotonic(), None, parent])
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.monotonic()
        self.stack.pop()
        if self.resources:
            ru = resource.getrusage(resource.RUSAGE_SELF)
            _, peak = tracemalloc.get_traced_memory()
            entry, seg_peak = self._frames.pop()
            use = self.usage[idx]
            use[0] = ru.ru_minflt - use[0]
            use[1] = ru.ru_stime - use[1]
            use[2] = max(seg_peak, peak) - entry
            tracemalloc.reset_peak()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, out)
                return out
            finally:
                self._exit(idx)
        return traced

    # -- counters -------------------------------------------------------

    def _count_terms(self, args, out):
        self.counts["terms.terms"] += len(out)

    def _count_query(self, method):
        def count(args, out):
            self.counts["baths.query_calls"] += 1
            self.distinct["baths.query"].add((method, id(args[0]),
                                              _key(args[1:])))
        return count

    def _count_cluster(self, args, out):
        self.counts["superops.cluster_calls"] += 1
        self.distinct["superops.cluster"].add((id(args[0]), _key(args[1:])))

    def _count_steps(self, args, out):
        self.counts["propagate.steps"] += len(out.times) - 1

    def _counting_kernel(self, factory):
        def make(*args, **kwargs):
            kernel = factory(*args, **kwargs)

            def counted(tau, s):
                self.counts["baths.kernel_evals"] += 1
                return kernel(tau, s)
            return counted
        return make

    # -- installation ---------------------------------------------------

    def install(self):
        """Rebind every target in every tclgen module that imported it."""
        mods = {name: importlib.import_module(name) for name in MODULES}
        baths = mods["tclgen.baths"]
        for factory in KERNEL_FACTORIES:
            self._rebind(mods, getattr(baths, factory),
                         self._counting_kernel(getattr(baths, factory)))
        for mod_name, path, span in TARGETS:
            owner = mods[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            hook = None
            if span == "terms.generate":
                hook = self._count_terms
            elif span == "baths.query":
                hook = self._count_query(attr)
            elif span == "superops.cluster":
                hook = self._count_cluster
            elif span == "propagate.rk4":
                hook = self._count_steps
            traced = self.wrap(span, fn, hook)
            if cls_path:
                setattr(owner, attr, traced)
            else:
                self._rebind(mods, fn, traced)

    @staticmethod
    def _rebind(mods, original, replacement):
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)

    # -- reduction ------------------------------------------------------

    def metrics(self, t_engine, t_end):
        """Per-layer metrics over the whole run plus the unexplained time."""
        out = {name: 0.0 for name in TIME_METRICS.values()}
        for (name, _, _, _), st in zip(self.spans, self_times(self.spans)):
            out[TIME_METRICS[name]] += st
        out["trace.unexplained_s"] = unexplained_time(self.spans, t_engine,
                                                      t_end)
        for name in ("terms.terms", "baths.kernel_evals", "baths.query_calls",
                     "superops.cluster_calls", "propagate.steps"):
            out[name] = self.counts[name]
        out["baths.query_distinct"] = len(self.distinct["baths.query"])
        out["superops.cluster_evals"] = len(self.distinct["superops.cluster"])
        out["baths.query_useful_ratio"] = (
            out["baths.query_distinct"] / max(1, out["baths.query_calls"]))
        return out

    def resource_metrics(self):
        """Self page faults, self system time and self alloc peak per layer."""
        faults = [u[0] for u in self.usage]
        sys_s = [u[1] for u in self.usage]
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                faults[parent] -= self.usage[idx][0]
                sys_s[parent] -= self.usage[idx][1]
        out = {}
        for layer in RESOURCE_LAYERS:
            out[f"{layer}.minor_faults"] = 0
            out[f"{layer}.sys_s"] = 0.0
            out[f"{layer}.peak_alloc_mb"] = 0.0
        for idx, (name, _, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer not in RESOURCE_LAYERS:
                continue
            out[f"{layer}.minor_faults"] += faults[idx]
            out[f"{layer}.sys_s"] += sys_s[idx]
            out[f"{layer}.peak_alloc_mb"] = max(
                out[f"{layer}.peak_alloc_mb"], self.usage[idx][2] / 2 ** 20)
        return out
