"""Spans around the library's public functions, installed from outside.

The traced run replaces each layer's public functions (and the kernel
set that ``backends.active_kernels`` hands out) with wrappers that
record a span per call: its layer name, its duration and the time its
traced children took. Nothing in the library changes; ``installed()``
restores every original on exit. With ``alloc=True`` each span also
records, through ``tracemalloc``, the peak bytes allocated above its
entry, summed per operation over the outermost span of each group.
"""
from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
import tracemalloc
from collections import defaultdict

from inforcer import backends, cli, composition, core, duality, engine, registry

# span name, allocation group, and every (owner, attribute) through which
# the library reaches that function.
PATCHES = [
    ("registry.evaluate_named", None, [(registry, "evaluate_named")]),
    ("registry.check_params", None, [(registry.MeasureSpec, "check_params")]),
    ("registry.build_weights", None, [(registry.MeasureSpec, "build_weights")]),
    ("core.validate", "core", [
        (core.Distribution, "__post_init__"),
        (core.WeightVector, "__post_init__"),
        (core.UtilityVector, "__post_init__"),
    ]),
    ("core.product", "core", [
        (core, "direct_product"), (core, "weight_product"),
        (engine, "direct_product"), (engine, "weight_product"),
    ]),
    ("engine.quasi_mean", "engine", [(engine, "quasi_mean_exponent")]),
    ("composition.apply_h", None, [(engine, "apply_h"), (duality, "apply_h"), (composition, "apply_h")]),
    ("composition.compose", None, [(engine, "compose"), (composition, "compose")]),
    ("duality.dual_check", None, [(registry, "dual_check"), (duality, "dual_check")]),
    ("cli.read_vector", None, [(cli, "read_vector")]),
    ("cli.run", None, [(cli, "run")]),
]

KERNELS = {
    "weighted_log2_sumexp": "backends.log2_sumexp",
    "weighted_sum": "backends.weighted_sum",
    "shifted_exp2_weights": "backends.exp2_weights",
    "outer_flatten": "backends.outer_flatten",
}

# per-layer metric -> (span name, "total" or "self"), in microseconds
TIME_METRICS = {
    "registry.check_params_us": ("registry.check_params", "total"),
    "registry.build_weights_us": ("registry.build_weights", "total"),
    "registry.self_us": ("registry.evaluate_named", "self"),
    "core.validate_us": ("core.validate", "total"),
    "core.product_us": ("core.product", "total"),
    "engine.quasi_mean_us": ("engine.quasi_mean", "total"),
    "engine.self_us": ("engine.quasi_mean", "self"),
    "backends.log2_sumexp_us": ("backends.log2_sumexp", "total"),
    "backends.weighted_sum_us": ("backends.weighted_sum", "total"),
    "backends.exp2_weights_us": ("backends.exp2_weights", "total"),
    "backends.outer_flatten_us": ("backends.outer_flatten", "total"),
    "composition.apply_h_us": ("composition.apply_h", "total"),
    "composition.compose_us": ("composition.compose", "total"),
    "duality.dual_check_us": ("duality.dual_check", "total"),
    "cli.read_vector_us": ("cli.read_vector", "total"),
    "cli.run_us": ("cli.run", "total"),
}

ALLOC_METRICS = {"core.alloc_mb": "core", "engine.alloc_mb": "engine", "backends.alloc_mb": "backends"}


class _Frame:
    __slots__ = ("child_ns", "start_bytes", "peak_bytes")

    def __init__(self) -> None:
        self.child_ns = 0
        self.start_bytes = 0
        self.peak_bytes = 0


class Tracer:
    """Collects spans per operation; medians are taken over operations
    that reached the layer at least once."""

    def __init__(self, alloc: bool = False) -> None:
        self.alloc = alloc
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._op_total: dict[str, int] = defaultdict(int)
        self._op_self: dict[str, int] = defaultdict(int)
        self._op_alloc: dict[str, int] = defaultdict(int)
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)

    def begin_op(self) -> None:
        self._op_total.clear()
        self._op_self.clear()
        self._op_alloc.clear()

    def end_op(self) -> None:
        for name, ns in self._op_total.items():
            self.samples[(name, "total")].append(ns)
            self.samples[(name, "self")].append(self._op_self[name])
        for group, nbytes in self._op_alloc.items():
            self.samples[(group, "alloc")].append(nbytes)

    def _wrap(self, name: str, group: str | None, fn):
        stack, depth = self._stack, self._depth
        op_total, op_self, op_alloc = self._op_total, self._op_self, self._op_alloc
        alloc = self.alloc

        def traced(*args, **kwargs):
            frame = _Frame()
            if alloc:
                current, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1].peak_bytes = max(stack[-1].peak_bytes, peak)
                tracemalloc.reset_peak()
                frame.start_bytes = frame.peak_bytes = current
            if group:
                depth[group] += 1
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                op_total[name] += dt
                op_self[name] += dt - frame.child_ns
                if stack:
                    stack[-1].child_ns += dt
                if alloc:
                    peak = max(frame.peak_bytes, tracemalloc.get_traced_memory()[1])
                    if stack:
                        stack[-1].peak_bytes = max(stack[-1].peak_bytes, peak)
                    if group and depth[group] == 1:
                        op_alloc[group] += peak - frame.start_bytes
                if group:
                    depth[group] -= 1

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, group, sites in PATCHES:
                for owner, attr in sites:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, group, original))
            kernels = backends.active_kernels()
            wrapped = dataclasses.replace(kernels, **{
                field: self._wrap(span, "backends", getattr(kernels, field))
                for field, span in KERNELS.items()
            })
            saved.append((backends, "active_kernels", backends.active_kernels))
            backends.active_kernels = lambda: wrapped
            if self.alloc:
                tracemalloc.start()
            yield self
        finally:
            if self.alloc:
                tracemalloc.stop()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def time_metrics(self) -> dict[str, float]:
        """Median us per operation, over operations that reached the
        layer; 0.0 for a layer the workload never reaches."""
        return {metric: self._median((span, kind)) / 1e3 for metric, (span, kind) in TIME_METRICS.items()}

    def alloc_metrics(self) -> dict[str, float]:
        """Median MB (2^20 bytes) per operation, as time_metrics."""
        return {metric: self._median((group, "alloc")) / 2**20 for metric, group in ALLOC_METRICS.items()}

    def _median(self, key) -> float:
        values = self.samples.get(key)
        return float(statistics.median(values)) if values else 0.0
