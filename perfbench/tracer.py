"""Per-layer host-time tracing by wrapping each layer's public entry points.

The simulator itself is never edited: :class:`Tracer` replaces the public
methods and functions listed in :data:`LAYERS` with timing wrappers while it
is installed, and puts the originals back on :meth:`Tracer.uninstall`.  A
module-level function is wrapped in every ``repro`` module that imported it
by name, because that is where its callers look it up.

Each wrapped call is a span.  A layer's self time is the sum of its spans'
durations minus the time covered by the spans nested inside them, so the
self times of all layers never exceed the traced wall time; the remainder is
host time spent outside every listed layer (the trainer's own control flow,
the cost model, array glue).  Counters are taken at the outermost span of a
layer only, so a batched call that delegates to its per-row form is counted
once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CountFn = Callable[[tuple, dict], float]


def _one(args, kwargs) -> float:
    return 1.0


def _rows(position: int) -> CountFn:
    """Count the length of the positional argument at *position*."""

    def count(args, kwargs) -> float:
        return float(len(args[position])) if len(args) > position else 1.0

    return count


def _distance_gflop(args, kwargs) -> float:
    n, d = args[0].shape
    return 2.0 * n * n * d / 1e9


def _not_yet_cancelled(args, kwargs) -> float:
    return 0.0 if args[0].cancelled else 1.0


def _batch_size(args, kwargs) -> float:
    return float(args[0].batch_size)


@dataclass(frozen=True)
class Hook:
    """Public callables of one layer: a class's methods or module functions.

    *target* is ``"module:Class"`` (then *names* are methods, wrapped on the
    class and on every subclass that overrides them) or ``"module"`` (then
    *names* are functions).  Each ``(name, counter, fn)`` in *counts* adds
    ``fn(args, kwargs)`` to *counter* on every outermost call of *name*.
    """

    target: str
    names: Sequence[str]
    counts: Tuple[Tuple[str, str, CountFn], ...] = ()


#: metric name of each layer's self time -> the hooks that make up the layer.
LAYERS: Dict[str, Tuple[Hook, ...]] = {
    "events.host_s": (
        Hook("repro.cluster.events:EventQueue",
             ("push", "push_many", "pop", "peek", "peek_time", "__len__", "__bool__")),
        Hook("repro.cluster.events:EventLoop", ("schedule", "schedule_many", "step")),
        Hook("repro.cluster.events:Event", ("cancel",),
             (("cancel", "events.tombstones", _not_yet_cancelled),)),
    ),
    "codec.host_s": (
        Hook("repro.cluster.codec:WireCodec",
             ("encode", "encode_batch", "encode_decode_batch", "decode"),
             (("encode", "codec.rows", _one),
              ("encode_batch", "codec.rows", _rows(1)),
              ("encode_decode_batch", "codec.rows", _rows(1)),
              ("decode", "codec.rows", _one))),
        Hook("repro.cluster.codec", ("encode_delta", "decode_frame", "decode_frames"),
             (("encode_delta", "codec.rows", _one),
              ("decode_frame", "codec.rows", _one),
              ("decode_frames", "codec.rows", _rows(0)))),
    ),
    "link.host_s": (
        Hook("repro.cluster.link:LinkScheduler",
             ("open", "open_many", "advance", "next_completion", "pop_completed", "simulate"),
             (("open", "link.sessions", _one),
              ("open_many", "link.sessions", _rows(2)),
              ("simulate", "link.sessions", _rows(1)))),
        Hook("repro.cluster.link:LinkFabric",
             ("solo_seconds", "solo_seconds_batch", "uplink_seconds", "uplink_seconds_batch",
              "simulate", "scheduler_for", "session_kwargs", "region_of"),
             (("simulate", "link.sessions", _rows(1)),)),
    ),
    "service.host_s": (
        Hook("repro.cluster.service:ServerFabric",
             ("account_pushes", "account_fetches", "gather_seconds",
              "shard_distance_flops", "observe_update", "region_of_worker")),
    ),
    "compute.host_s": (
        Hook("repro.cluster.worker:HonestWorker", ("compute_gradient",),
             (("compute_gradient", "compute.samples", _batch_size),)),
    ),
    "attacks.host_s": (
        Hook("repro.cluster.worker", ("craft_fleet",)),
        Hook("repro.cluster.worker:ByzantineWorker", ("craft_gradient",)),
        Hook("repro.attacks.base:Attack", ("craft",)),
    ),
    "kernels.distance_host_s": (
        Hook("repro.core.kernels", ("pairwise_squared_distances",),
             (("pairwise_squared_distances", "kernels.distance_gflop", _distance_gflop),)),
    ),
    "gar.select_host_s": (
        Hook("repro.core.kernels",
             ("neighbour_sum_scores", "multi_krum_select", "bulyan_select", "brute_select")),
    ),
    "gar.host_s": (
        Hook("repro.core.base:GradientAggregationRule",
             ("aggregate", "aggregate_detailed", "aggregate_validated")),
    ),
    "server.host_s": (
        Hook("repro.cluster.server:ParameterServer",
             ("apply_update", "validate_rows", "validate_submission", "stack_submissions",
              "aggregate", "aggregate_detailed", "parameters_at", "has_version",
              "pin_version", "release_version", "track_version", "delta_since")),
    ),
    "pool.host_s": (
        Hook("repro.cluster.fleet:PendingPool",
             ("put", "rescan", "step_of", "honest_matrix", "payload_matrix", "drain",
              "__len__")),
    ),
    "telemetry.host_s": (
        Hook("repro.cluster.telemetry:TrainingHistory",
             ("record_step", "record_evaluation", "record_server_busy", "record_wire",
              "record_wire_batch", "record_interserver", "record_version_lag",
              "record_version_lag_batch", "timeline_for"),
             (("record_step", "telemetry.records", _one),
              ("record_evaluation", "telemetry.records", _one),
              ("record_server_busy", "telemetry.records", _one),
              ("record_wire", "telemetry.records", _one),
              ("record_wire_batch", "telemetry.records", _rows(1)),
              ("record_interserver", "telemetry.records", _one),
              ("record_version_lag", "telemetry.records", _one),
              ("record_version_lag_batch", "telemetry.records", _rows(1)))),
    ),
    "eval.host_s": (
        Hook("repro.cluster.trainer:BaseTrainer", ("evaluate",)),
    ),
}

#: Every counter a trace can report, so absent work reads as 0.
COUNTERS = tuple(sorted({
    counter for hooks in LAYERS.values() for hook in hooks for _, counter, _ in hook.counts
}))


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


class Tracer:
    """Self-time and counter accounting over the layers in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    def _wrap(self, layer: str, fn, count: Optional[Tuple[str, CountFn]]):
        stack, self_s, counters = self._stack, self.self_s, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and (not stack or stack[-1][0] != layer):
                counters[count[0]] += count[1](args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _patch(self, owner, name: str, raw, layer: str, count) -> None:
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(layer, raw.__func__, count))
        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
            wrapped = self._wrap(layer, raw, count)
        else:
            return  # properties and generators are not timed spans
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def install(self) -> None:
        """Zero the accounts and wrap every hook."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.self_s.clear()
        self.counters.clear()
        for layer, hooks in LAYERS.items():
            for hook in hooks:
                counts = {name: (counter, fn) for name, counter, fn in hook.counts}
                module, cls = _resolve(hook.target)
                for name in hook.names:
                    if cls is not None:
                        for owner in _subclasses(cls):
                            if name in vars(owner):
                                self._patch(owner, name, vars(owner)[name], layer,
                                            counts.get(name))
                        continue
                    original = getattr(module, name)
                    for loaded in list(sys.modules.values()):
                        if getattr(loaded, "__name__", "").startswith("repro") and (
                            vars(loaded).get(name) is original
                        ):
                            self._patch(loaded, name, original, layer, counts.get(name))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
