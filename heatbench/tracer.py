"""Layer tracer for the heatlab benchmark.

The tracer wraps public heatlab functions from outside the package: every
module attribute bound to a traced function (``heatlab.solver.duhamel_map``,
``heatlab.duhamel_map``, the names ``heatlab.cli`` imports, ...) is replaced
by a wrapper, so calls made inside heatlab are seen as well. Each call records
one span (name, start, end, parent) in flat arrays; self time is a span's
duration minus the durations of its direct children.

Each thread keeps its own span stack. A span opened on another thread with
nothing open there (the equivalence-suite thread pool) is detached: it counts
for its own function, while the caller waiting on the pool keeps that wall
time as its self time.

Next to the spans the wrappers record work counts computed from the arguments
and results (array shapes, iteration counts, accepted steps). Counts never
depend on timing, so two passes over the same inputs must give equal counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs traced in every workload, keyed by layer name
TRACED = {
    "nonlinearity": ("parse_nonlinearity", "builtin_family",
                     "monotonicity_audit", "sup_ratio_envelope"),
    "criteria": ("classify_lq", "classify_l1", "classify_whole_space",
                 "equivalence_check", "critical_exponent_report"),
    "heatkernel": ("heat_on_ball", "kernel_constants", "verify_lower_bounds"),
    "solver": ("build_propagator", "duhamel_map", "duhamel_iterate",
               "supersolution_check", "find_existence_horizon",
               "semigroup_apply", "simulate_forward"),
    "databuilder": ("build_t1_data",),
}

FLOAT_BYTES = 8
TOP, DETACHED = -1, -2   # parent of a top-level span on the tracing thread,
                         # and of one opened on any other thread


def duhamel_map_work(n_time: int, m: int) -> tuple:
    """(flops, bytes) of one duhamel_map call on n_time slices of m modes,
    computed from the array shapes of the seed implementation:

    - decay table e^(-lam t_j): n_time*m exponentials, written once;
    - modal transform of f(v): one (n_time x m) @ (m x m) product;
    - history sums: for slice j a three-way product over (j+1) x m entries;
    - back transform: one m x m matrix-vector product per slice.

    Bytes count each operand streamed once per use, in float64; caches are
    ignored, so the figure is "computed", not measured.
    """
    T, m = int(n_time), int(m)
    hist = T * (T + 1) // 2 - 1           # sum over j = 1..T-1 of (j + 1)
    flops = (T * m                        # decay
             + 2 * T * m * m              # fv_hat
             + 3 * m * hist               # einsum history
             + 2 * T * m * m + 2 * T * m  # from_modal + initial term
             + 2 * m * m)                 # to_modal(u0)
    words = (2 * T * m                    # decay write, f(v) read
             + m * m + 2 * T * m          # fv_hat: modes, fv, result
             + 2 * m * hist               # history reads
             + T * (m * m + 3 * m)        # from_modal per slice + output
             + m * m + 2 * m)             # to_modal(u0)
    return flops, words * FLOAT_BYTES


def semigroup_apply_bytes(m: int) -> int:
    """Bytes streamed by one semigroup_apply on m interior nodes: two m x m
    modal products plus about ten length-m vector passes (computed)."""
    return (2 * m * m + 10 * m) * FLOAT_BYTES


def _observe_duhamel_map(counts, args, kwargs, result):
    P, times = args[0], args[4]
    flops, nbytes = duhamel_map_work(len(times), P.grid.n_interior)
    counts["solver.duhamel_map.flops_computed"] += flops
    counts["solver.duhamel_map.bytes_computed"] += nbytes


def _observe_semigroup_apply(counts, args, kwargs, result):
    counts["solver.semigroup_apply.bytes_computed"] += \
        semigroup_apply_bytes(args[0].grid.n_interior)


def _observe_verdict(counts, args, kwargs, result):
    counts["criteria.verdicts"] += 1
    counts["criteria.decided"] += int(result.decided)


def _observe_verify(counts, args, kwargs, result):
    lemma = [c for c in result.checks if c.bound == "lemma"]
    counts["heatkernel.points_certified"] += sum(c.n_checked for c in lemma)


OBSERVERS = {
    "nonlinearity.sup_ratio_envelope": lambda c, a, k, r: c.update(
        {"nonlinearity.envelope_points": len(r.grid)}),
    "criteria.classify_lq": _observe_verdict,
    "criteria.classify_l1": _observe_verdict,
    "criteria.classify_whole_space": _observe_verdict,
    "heatkernel.verify_lower_bounds": _observe_verify,
    "solver.build_propagator": lambda c, a, k, r: c.update(
        {"solver.build_propagator.nodes": r.grid.n}),
    "solver.duhamel_map": _observe_duhamel_map,
    "solver.semigroup_apply": _observe_semigroup_apply,
    "solver.duhamel_iterate": lambda c, a, k, r: c.update(
        {"solver.duhamel_iterate.iterations": r.n_iter}),
    "solver.simulate_forward": lambda c, a, k, r: c.update(
        {"solver.simulate.steps_accepted": len(r.times) - 1}),
    "databuilder.build_t1_data": lambda c, a, k, r: c.update(
        {"databuilder.nodes": r[1].grid.n}),
}


class Tracer:
    """Spans in flat arrays plus a counter of computed work."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        observe = OBSERVERS.get(name)
        local, lock, counts, home = (self._local, self._lock, self.counts,
                                     self._home)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else
                              TOP if threading.get_ident() == home
                              else DETACHED)
                end.append(0.0)
                start.append(0.0)
            stack.append(idx)
            start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = time.perf_counter()
                stack.pop()
                with lock:
                    counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            end[idx] = time.perf_counter()
            stack.pop()
            if observe is not None:
                with lock:
                    observe(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Rebind every heatlab module attribute that is a traced function
        (plus the (module, function, span name) triples in ``extra``) to its
        wrapper; restore the originals on exit."""
        targets = [(f"heatlab.{layer}", fn, f"{layer}.{fn}")
                   for layer, fns in TRACED.items() for fn in fns]
        targets += list(extra)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "heatlab"
                                         or n.startswith("heatlab."))]
        restore = []
        for module_name, fn_name, span_name in targets:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in restore:
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls and self time per span name, the time covered by top-level
        spans of the tracing thread, and the work counts."""
        n = len(self.start)
        names = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        return {"calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
                "self_s": {nm: float(self_s[i])
                           for i, nm in enumerate(self.names)},
                "covered_s": float(dur[parents == TOP].sum()),
                "counts": dict(self.counts)}
