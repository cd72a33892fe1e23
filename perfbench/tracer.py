"""Layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces each traced hilbdiag function by a wrapper and
rebinds every module attribute that held the original, so names imported
elsewhere (`tangent.rank_sparse`, `groebner.rank_sparse`,
`verify.k_polynomial`, the package exports) are traced too.  A wrapper
records one span per call (function, start, end, parent span, op id) in
memory, plus the counts that can be read from the call's arguments and
result.  Self time is a span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from collections import Counter
from functools import wraps

LAYERS = ("gridcore", "h33", "treespace", "tangent", "linalg", "groebner",
          "borel", "embeddings")

TRACED = {
    "gridcore": ("k_polynomial", "stanley_reisner", "minimal_transversals",
                 "hf_at", "series_equals_diagonal"),
    "h33": ("enumerate_h33", "symmetry_classes", "table1_report",
            "complex_to_ideal"),
    "treespace": ("enumerate_trees", "tree_to_ideal"),
    "tangent": ("tangent_dimension", "syzygy_system"),
    "linalg": ("rank_sparse", "rank_dense"),
    "groebner": ("buchberger", "normal_form", "weight_initial_route",
                 "apply_matrices", "matrix_det", "saturate_z",
                 "special_fiber", "graded_piece_dim"),
    "borel": ("build_z", "shelling"),
    "embeddings": ("plucker_param", "collineation_matrices"),
}

FUNCTIONS = tuple("%s.%s" % (m, f) for m in LAYERS for f in TRACED[m])

# Counters read from arguments and results, then the derived ratios:
# (name, unit, better).
COUNTERS = (
    ("tangent.syzygy_system.unknowns", "count", "lower"),
    ("tangent.syzygy_system.rows", "count", "lower"),
    ("linalg.rank_sparse.rows", "count", "lower"),
    ("groebner.buchberger.input_gens", "count", "lower"),
    ("groebner.buchberger.basis_size", "count", "lower"),
    ("h33.enumerate_h33.found", "count", "higher"),
    ("gridcore.minimal_transversals.edges_in", "count", "lower"),
    ("gridcore.minimal_transversals.transversals_out", "count", "lower"),
    ("gridcore.k_polynomial.terms", "count", "lower"),
    ("groebner.normal_form.zero_ratio", "ratio", "lower"),
    ("groebner.weight_initial_route.decisive_ratio", "ratio", "higher"),
    ("h33.enumerate_h33.hit_ratio", "ratio", "higher"),
    ("treespace.enumerate_trees.dedup_ratio", "ratio", "higher"),
)

# Metrics that depend on timing or on the interpreter, not on the program's
# results; every other layer metric repeats exactly for a given seed.
TIMED_SUFFIXES = (".self_s", ".loop_share", "runtime.gc_s",
                  "runtime.gc_collections", "trace.overhead_frac")


def layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in FUNCTIONS:
        out += [(name + ".calls", "count", "lower"),
                (name + ".self_s", "s", "lower")]
    out += COUNTERS
    out += [(layer + ".loop_share", "ratio", "lower") for layer in LAYERS]
    out += [("runtime.gc_s", "s", "lower"),
            ("runtime.gc_collections", "count", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


# Functions an arriving argument must be listed for, because the caller
# may pass a one-shot iterator that the count would otherwise consume.
_LISTED_ARG = {"linalg.rank_sparse", "gridcore.minimal_transversals"}


def _count(c, name, args, result):
    """Update the counters `c` from the arguments and result of one call
    that returned; a call that raised counts nothing."""
    if name == "tangent.syzygy_system":
        index, rows = result
        c["tangent.syzygy_system.unknowns"] += len(index)
        c["tangent.syzygy_system.rows"] += len(rows)
    elif name == "linalg.rank_sparse":
        c["linalg.rank_sparse.rows"] += len(args[0])
    elif name == "groebner.buchberger":
        c["groebner.buchberger.input_gens"] += len(args[0])
        c["groebner.buchberger.basis_size"] += len(result)
    elif name == "groebner.normal_form":
        c["groebner.normal_form.zero"] += result.is_zero()
    elif name == "groebner.weight_initial_route":
        c["groebner.weight_initial_route.decisive"] += 1
    elif name == "h33.enumerate_h33":
        c["h33.enumerate_h33.found"] += len(result)
    elif name == "treespace.enumerate_trees":
        n = args[0]
        c["treespace.enumerate_trees.trees"] += len(result)
        c["treespace.enumerate_trees.space"] += (n + 1) ** max(n - 1, 0) * 2 ** n
    elif name == "gridcore.minimal_transversals":
        c["gridcore.minimal_transversals.edges_in"] += len(args[0])
        c["gridcore.minimal_transversals.transversals_out"] += len(result)
    elif name == "gridcore.k_polynomial":
        c["gridcore.k_polynomial.terms"] += len(result.terms)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []      # [function index, start, end, parent, op]
        self.stack = []      # indices of the open spans
        self.op = None       # id of the op being run; None during set-up
        self.counts = Counter()
        self.calls = [0] * len(FUNCTIONS)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._gc_on = False

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the traced functions and rebind every alias in hilbdiag."""
        for m in LAYERS + ("verify",):
            importlib.import_module("hilbdiag." + m)
        owners = [mod for key, mod in sys.modules.items()
                  if key == "hilbdiag" or key.startswith("hilbdiag.")]
        for fid, name in enumerate(FUNCTIONS):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules["hilbdiag." + mod_name], fn_name)
            wrapper = self._wrap(fid, name, original)
            for mod in owners:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, fid, name, fn):
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts
        listed = name in _LISTED_ARG
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if listed:
                args = (list(args[0]),) + args[1:]
            idx = len(spans)
            span = [fid, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            calls[fid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            _count(counts, name, args, result)
            return result
        return traced

    def _on_gc(self, phase, info):
        if not self._gc_on:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def count_gc(self, on):
        """Switch the garbage-collector timing on (op loop) or off."""
        self._gc_on = on

    # -- results ---------------------------------------------------------

    def self_times(self, loop_only=False):
        """Self time per traced function, optionally only inside ops."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [0.0] * len(FUNCTIONS)
        for k, (fid, start, end, _, op) in enumerate(self.spans):
            if loop_only and op is None:
                continue
            out[fid] += end - start - child[k]
        return out

    def summary(self, loop_s):
        """Calls, self times, counters and per-layer op-loop shares."""
        c = self.counts
        self_s = self.self_times()
        loop_self = self.self_times(loop_only=True)
        out = {}
        for fid, name in enumerate(FUNCTIONS):
            out[name + ".calls"] = self.calls[fid]
            out[name + ".self_s"] = self_s[fid]
        calls = dict(zip(FUNCTIONS, self.calls))
        for key, unit, _ in COUNTERS:
            if unit == "count":
                out[key] = c[key]
        out["groebner.normal_form.zero_ratio"] = _ratio(
            c["groebner.normal_form.zero"], calls["groebner.normal_form"])
        out["groebner.weight_initial_route.decisive_ratio"] = _ratio(
            c["groebner.weight_initial_route.decisive"],
            calls["groebner.weight_initial_route"])
        out["h33.enumerate_h33.hit_ratio"] = _ratio(
            c["h33.enumerate_h33.found"],
            calls["h33.enumerate_h33"] * _candidate_space())
        out["treespace.enumerate_trees.dedup_ratio"] = _ratio(
            c["treespace.enumerate_trees.trees"],
            c["treespace.enumerate_trees.space"])
        for layer in LAYERS:
            busy = sum(t for name, t in zip(FUNCTIONS, loop_self)
                       if name.startswith(layer + "."))
            out[layer + ".loop_share"] = _ratio(busy, loop_s)
        out["runtime.gc_s"] = self.gc_s
        out["runtime.gc_collections"] = self.gc_collections
        return out

    def write_spans(self, path):
        """Write every span, times in seconds from the tracer's start."""
        t0 = self.t0
        with open(path, "w") as fh:
            json.dump({"functions": list(FUNCTIONS),
                       "columns": ["function", "start", "end", "parent", "op"],
                       "spans": [[f, round(s - t0, 9), round(e - t0, 9), p, op]
                                 for f, s, e, p, op in self.spans]},
                      fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def _candidate_space():
    from hilbdiag.h33 import CANDIDATE_SPACE
    return CANDIDATE_SPACE
