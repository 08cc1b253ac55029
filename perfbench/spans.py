"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` replaces public callables of ``plainscan`` with
wrappers that record one span per call: name, start, end, parent span,
the op it ran in, MACs metered inside it, and, while ``tracemalloc`` is
on, the peak bytes allocated during it.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gc
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass

import plainscan.data
import plainscan.model
import plainscan.netpbm
import plainscan.ops
import plainscan.paths
import plainscan.scan
import plainscan.train
import plainscan.weights
from plainscan.tensor import Tensor, count_macs

MIB = 2**20


@dataclass(slots=True)
class Span:
    name: str
    start: float
    index: int = 0
    end: float = 0.0
    parent: int | None = None
    op: object = None      # index of the timed op, "memory", or None (set-up)
    macs: int = 0
    peak_bytes: int = 0
    batch: int = 0         # leading extent of the first argument, for scans

    @property
    def seconds(self):
        return self.end - self.start


def _targets():
    """(owner, attribute, span name) for every wrapped callable.

    A function imported by name into another module is wrapped in both
    places, since callers there look it up in their own namespace.
    """
    ops = plainscan.ops
    targets = [(ops, f, f"ops.{f}") for f in
               ("activation", "layernorm", "depthwise_conv2d", "conv2d", "linear",
                "cross_entropy", "grad_check")]
    return targets + [
        (plainscan.train, "cross_entropy", "ops.cross_entropy"),
        (plainscan.model.Model, "forward", "model.forward"),
        (plainscan.model.Model, "tokenize", "model.tokenize"),
        (plainscan.model.Model, "block_forward", "model.block"),
        (plainscan.model, "direction_aware_scan_2d", "scan.scan2d"),
        (plainscan.scan, "direction_aware_scan_2d", "scan.scan2d"),
        (plainscan.model, "generate_continuous_paths", "paths.generate"),
        (plainscan.paths, "generate_continuous_paths", "paths.generate"),
        (Tensor, "backward", "tensor.backward"),
        (plainscan.train, "toy_train", "train.toy_train"),
        (plainscan.train, "accuracy", "train.accuracy"),
        (plainscan.weights, "load_weights", "weights.load"),
        (plainscan.weights, "save_weights", "weights.save"),
        (plainscan.netpbm, "load_image", "netpbm.load"),
        (plainscan.data, "make_stripes", "data.make_stripes"),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None          # see begin_op and end_op
        self.n_ops = 0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._open: list[tuple[Span, list]] = []  # (span, [running peak])
        self._saved = []
        self._gc_start = None

    def begin_op(self, op=None):
        """Attribute spans and collections to the next timed op, or to ``op``."""
        if op is None:
            op = self.n_ops
            self.n_ops += 1
        self.op = op

    def end_op(self):
        self.op = None

    # -- installing ----------------------------------------------------

    def install(self):
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if not isinstance(self.op, int):
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, index=len(self.spans),
                        parent=parent[0].index if parent else None, op=self.op)
            if name == "scan.scan2d":
                shape = args[0].shape
                span.batch = shape[0] if len(shape) == 4 else 1
            self.spans.append(span)
            memory = tracemalloc.is_tracing()
            running = [0]
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent:
                    parent[1][0] = max(parent[1][0], peak)
                tracemalloc.reset_peak()
                base = running[0] = current
            self._open.append((span, running))
            try:
                with count_macs() as tally:
                    span.start = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        span.end = time.perf_counter()
            finally:
                self._open.pop()
                span.macs = tally.total
                if memory:
                    running[0] = max(running[0], tracemalloc.get_traced_memory()[1])
                    span.peak_bytes = running[0] - base
                    if parent:
                        parent[1][0] = max(parent[1][0], running[0])

        return traced

    def dump(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def layer_metrics(tracer: Tracer, workload) -> dict:
    """Per-layer metrics from the spans of the timed and memory ops.

    Times ending in ``_ms`` are totals per timed op, except the set-up
    layers ``paths.generate_ms`` and ``data.make_stripes_ms``, which are
    per call because they may run in set-up only.
    """
    spans, n_ops = tracer.spans, tracer.n_ops
    timed = [s for s in spans if isinstance(s.op, int)]
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def of(name, among=timed):
        return [s for s in among if s.name == name]

    def ms_per_op(name):
        return 1e3 * sum(s.seconds for s in of(name)) / n_ops

    def ms_per_call(name):
        calls = of(name, spans)
        return 1e3 * sum(s.seconds for s in calls) / len(calls) if calls else 0.0

    def gmacs_per_s(name):
        calls = of(name)
        busy = sum(s.seconds for s in calls)
        return sum(s.macs for s in calls) / busy / 1e9 if busy else 0.0

    def peak_mib(name):
        return max((s.peak_bytes for s in spans if s.op == "memory" and s.name == name),
                   default=0) / MIB

    model_self = sum(s.seconds - child_seconds[s.index] for s in timed
                     if s.name.startswith("model."))
    step_s, update_s = _train_steps(spans, timed)
    loads = of("weights.load")
    load_s = sum(s.seconds for s in loads)
    load_mib = len(loads) * workload.weight_file.stat().st_size / MIB if workload.weight_file else 0
    scans = [s for s in spans if s.op == "memory" and s.name == "scan.scan2d"]
    peak_ratio = max((s.peak_bytes / (s.batch * workload.model_bytes_per_image) for s in scans),
                     default=0.0)
    return {
        "model.tokenize_ms": (ms_per_op("model.tokenize"), "ms"),
        "model.block_ms": (ms_per_op("model.block"), "ms"),
        "model.self_ms": (1e3 * model_self / n_ops, "ms"),
        "model.block_peak_mb": (peak_mib("model.block"), "MiB"),
        "ops.conv2d_ms": (ms_per_op("ops.conv2d"), "ms"),
        "ops.conv2d_gmacs_per_s": (gmacs_per_s("ops.conv2d"), "GMAC/s"),
        "ops.linear_ms": (ms_per_op("ops.linear"), "ms"),
        "ops.linear_gmacs_per_s": (gmacs_per_s("ops.linear"), "GMAC/s"),
        "ops.depthwise_conv2d_ms": (ms_per_op("ops.depthwise_conv2d"), "ms"),
        "ops.layernorm_ms": (ms_per_op("ops.layernorm"), "ms"),
        "ops.cross_entropy_ms": (ms_per_op("ops.cross_entropy"), "ms"),
        "scan.scan2d_ms": (ms_per_op("scan.scan2d"), "ms"),
        "scan.scan2d_gmacs_per_s": (gmacs_per_s("scan.scan2d"), "GMAC/s"),
        "scan.scan2d_peak_mb": (peak_mib("scan.scan2d"), "MiB"),
        "analysis.peak_ratio": (peak_ratio, "ratio"),
        "tensor.backward_ms": (ms_per_op("tensor.backward"), "ms"),
        "tensor.macs": (workload.reference_macs, "count"),
        "tensor.gc_ms": (1e3 * tracer.gc_seconds / n_ops, "ms"),
        "tensor.gc_collections": (tracer.gc_collections / n_ops, "count"),
        "train.step_ms": (1e3 * step_s / n_ops, "ms"),
        "train.update_ms": (1e3 * update_s / n_ops, "ms"),
        "train.accuracy_ms": (ms_per_op("train.accuracy"), "ms"),
        "weights.load_ms": (ms_per_op("weights.load"), "ms"),
        "weights.load_mb_per_s": (load_mib / load_s if load_s else 0.0, "MiB/s"),
        "weights.save_ms": (ms_per_op("weights.save"), "ms"),
        "netpbm.load_ms": (ms_per_op("netpbm.load"), "ms"),
        "paths.generate_ms": (ms_per_call("paths.generate"), "ms"),
        "paths.generate_calls": (len(of("paths.generate")) / n_ops, "count"),
        "data.make_stripes_ms": (ms_per_call("data.make_stripes"), "ms"),
    }


def _train_steps(spans, timed):
    """Total SGD step time and its self part (the update) over timed ops.

    ``toy_train`` has no per-step function, so a step is cut from the
    spans: it starts at each ``model.forward`` called directly by
    ``toy_train`` and ends where the next one starts, or where
    ``train.accuracy`` starts after the last step.  The update is the
    step time not covered by its forward, loss and backward spans.
    """
    kids = {}
    for s in timed:
        if s.parent is not None and spans[s.parent].name == "train.toy_train":
            kids.setdefault(s.parent, []).append(s)
    step_s = covered_s = 0.0
    for parent, children in kids.items():
        children.sort(key=lambda s: s.start)
        starts = [s.start for s in children if s.name == "model.forward"]
        end = next((s.start for s in children if s.name == "train.accuracy"),
                   spans[parent].end)
        step_s += end - starts[0]
        covered_s += sum(s.seconds for s in children if starts[0] <= s.start < end)
    return step_s, step_s - covered_s
