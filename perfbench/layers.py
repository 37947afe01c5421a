"""Outside-in layer tracing: span wrappers installed at run time.

The traced run wraps the public entry points of every layer (the
:data:`ENTRY_POINTS` table) from the benchmark's own files, before the
system is built, and restores the originals afterwards; nothing under
``src/`` is edited.  Each call of a wrapped function is one span.  A
generator entry point is timed per resume, because its work happens
inside kernel steps: each ``send``/``throw`` into it opens a span that
closes when it yields again.  Processes handed to
``Environment.process`` are wrapped the same way and attributed to the
layer of the module that defines their generator, so background
processes (arrival sources, write-backs, destages, restore workers)
are charged to their layer rather than to the kernel.

Spans nest on one stack.  A span records its layer, its start, its
end, and its parent (the span below it on the stack); it is folded
into per-layer totals as it closes, so memory stays flat over long
runs.  A layer's self time is its spans' time minus the time their
child spans cover, so the self times of all layers add up exactly to
the time of the root spans (``Environment.run`` for the simulation,
``prewarm`` / ``generate_trace`` for set-up).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ENTRY_POINTS",
    "LAYERS",
    "MODULE_LAYERS",
    "SpanRecorder",
    "installed",
]

#: Layers, named after the package's modules.
LAYERS: Tuple[str, ...] = (
    "sim", "resources", "rng", "workload", "tm", "cc", "cpu", "bm",
    "lru", "storage", "metrics", "recovery", "cluster",
)

#: Module (path under ``repro``) -> layer; first matching prefix wins.
#: Used for processes: a generator is charged to the layer of the
#: module that defines it.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/core.py", "sim"),
    ("sim/scheduler.py", "sim"),
    ("sim/resources.py", "resources"),
    ("sim/rng.py", "rng"),
    ("sim/stats.py", "metrics"),
    ("core/metrics.py", "metrics"),
    ("cluster/workload.py", "workload"),
    ("workload/", "workload"),
    ("core/tm.py", "tm"),
    ("core/cc.py", "cc"),
    ("core/cpu.py", "cpu"),
    ("core/bm.py", "bm"),
    ("storage/lru.py", "lru"),
    ("storage/policies.py", "lru"),
    ("storage/", "storage"),
    ("recovery/", "recovery"),
    ("cluster/", "cluster"),
    ("distributed/messages.py", "cluster"),
)

_CORE = ("repro.sim.core", "Environment")
#: (module, class or None for module functions, attributes, layer).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    (*_CORE, ("run", "process", "timeout", "schedule", "event",
              "any_of", "all_of"), "sim"),
    ("repro.sim.resources", "Resource",
     ("request", "release", "cancel", "serve_event", "serve"), "resources"),
    ("repro.sim.resources", "Store", ("put", "get"), "resources"),
    ("repro.sim.rng", "RandomStreams",
     ("exponential", "uniform", "uniform_int", "bernoulli",
      "choice_weighted", "geometric_like_size", "zipf", "shuffle"), "rng"),
    ("repro.workload.debit_credit", "DebitCreditWorkload",
     ("make_transaction", "prewarm"), "workload"),
    ("repro.cluster.workload", "ShardedDebitCreditWorkload",
     ("make_transaction", "prewarm"), "workload"),
    ("repro.workload.trace", "TraceWorkload",
     ("prewarm", "_to_transaction"), "workload"),
    ("repro.experiments.trace_setup", None, ("generate_trace",), "workload"),
    ("repro.core.tm", "TransactionManager", ("submit", "_lifecycle"), "tm"),
    ("repro.core.cc", "LockManager",
     ("acquire", "release_all", "withdraw"), "cc"),
    ("repro.core.cpu", "CPUPool",
     ("execute_event", "execute", "execute_with_sync_access"), "cpu"),
    ("repro.core.bm", "BufferManager",
     ("fix_page_fast", "fix_page_miss", "fix_page", "commit", "write_log",
      "force_log_record", "prewarm_reference"), "bm"),
    ("repro.storage.lru", "LRUCache",
     ("peek", "get", "touch", "insert", "remove", "victim"), "lru"),
    ("repro.storage.policies", "ClockPolicy",
     ("peek", "get", "touch", "insert", "remove", "victim"), "lru"),
    ("repro.storage.policies", "TwoQPolicy",
     ("peek", "get", "touch", "insert", "remove", "victim"), "lru"),
    ("repro.storage.hierarchy", "StorageSubsystem",
     ("read_page", "write_page", "write_log_to_unit",
      "read_log_from_unit"), "storage"),
    ("repro.storage.disk", "DiskUnit", ("read", "write"), "storage"),
    ("repro.storage.nvem", "NVEMDevice", ("access",), "storage"),
    ("repro.storage.device", "FlashSSDDevice", ("read", "write"), "storage"),
    ("repro.storage.device", "BatteryDRAMDevice", ("read", "write"),
     "storage"),
    ("repro.storage.faults", "DeviceFaultGate",
     ("read", "write", "loss_wait"), "storage"),
    ("repro.storage.faults", "NVEMFaultGate", ("access", "loss_wait"),
     "storage"),
    ("repro.core.metrics", "MetricsCollector",
     ("record_commit", "record_abort", "record_page_access", "record_io",
      "record_lock_request", "record_lock_wait", "record_deadlock",
      "note_input_queue", "record_cluster_commit", "record_in_doubt",
      "record_io_retry", "record_media_recovery"), "metrics"),
    ("repro.sim.stats", "Accumulator", ("add",), "metrics"),
    ("repro.sim.stats", "TimeWeighted", ("record",), "metrics"),
    ("repro.sim.stats", "CategoryCounter", ("add",), "metrics"),
    ("repro.sim.stats", "Histogram", ("add",), "metrics"),
    ("repro.recovery.media", "MediaRecoverer",
     ("recover_device", "recover_log_copy"), "recovery"),
    ("repro.recovery.media", "MediaTracker",
     ("note_write", "refresh_archive"), "recovery"),
    ("repro.cluster.system", "ClusterRouter", ("submit",), "cluster"),
    ("repro.distributed.messages", "MessageBus",
     ("one_way", "round_trip"), "cluster"),
    ("repro.cluster.twopc", "ClusterTransactionManager",
     ("_execute", "spawn_piece"), "cluster"),
)


class SpanRecorder:
    """Folds closed spans into per-layer self time and per-entry counts.

    ``clock`` is injectable so tests can drive the accounting with a
    deterministic counter.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans, innermost last: ``[layer, start, child_time]``.
        #: The parent of a span is the frame below it.
        self.stack: List[list] = []
        self.self_s = [0.0] * len(LAYERS)
        #: Time of root spans (no parent), by layer.
        self.root_s = [0.0] * len(LAYERS)
        #: Per entry (``"Class.attr"``): calls and inclusive time.
        self.entries: List[str] = []
        self.calls: List[int] = []
        self.inclusive: List[float] = []
        self._mark: List[int] = []
        self.active = False
        self._file_layer: Dict[str, Optional[int]] = {}

    # -- bookkeeping ---------------------------------------------------------
    def entry(self, key: str) -> int:
        self.entries.append(key)
        self.calls.append(0)
        self.inclusive.append(0.0)
        return len(self.entries) - 1

    def mark(self) -> None:
        """Snapshot the call counts (the warm-up boundary)."""
        self._mark = list(self.calls)

    def window_calls(self) -> Dict[str, int]:
        """Calls per entry since :meth:`mark`."""
        base = self._mark or [0] * len(self.calls)
        return {key: self.calls[i] - base[i]
                for i, key in enumerate(self.entries)}

    def self_time(self) -> Dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    def root_time(self) -> Dict[str, float]:
        return dict(zip(LAYERS, self.root_s))

    def inclusive_time(self, key: str) -> float:
        return sum(t for k, t in zip(self.entries, self.inclusive)
                   if k == key)

    def layer_of_code(self, code: types.CodeType) -> Optional[int]:
        filename = code.co_filename
        try:
            return self._file_layer[filename]
        except KeyError:
            pass
        path = filename.replace("\\", "/")
        layer = None
        if "/repro/" in path:
            rel = path.rsplit("/repro/", 1)[1]
            for prefix, name in MODULE_LAYERS:
                if rel.startswith(prefix):
                    layer = LAYERS.index(name)
                    break
        self._file_layer[filename] = layer
        return layer

    # -- wrappers ------------------------------------------------------------
    def wrap_function(self, fn: Callable, layer: int, idx: int) -> Callable:
        """One span per call."""
        rec = self
        stack = self.stack
        self_s = self.self_s
        root_s = self.root_s
        calls = self.calls
        inclusive = self.inclusive
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            calls[idx] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self_s[layer] += duration - frame[2]
                inclusive[idx] += duration
                if stack:
                    stack[-1][2] += duration
                else:
                    root_s[layer] += duration

        return wrapper

    def wrap_generator_function(self, fn: Callable, layer: int,
                                idx: int) -> Callable:
        """One span per resume of the generator the function returns."""
        rec = self
        calls = self.calls
        traced = self.traced_generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not rec.active:
                return gen
            calls[idx] += 1
            return traced(gen, layer, idx)

        return wrapper

    def traced_generator(self, gen, layer: int, idx: Optional[int]):
        """Drive ``gen`` exactly as ``yield from`` would, timing each
        resume as a span of ``layer``."""
        rec = self
        stack = self.stack
        self_s = self.self_s
        root_s = self.root_s
        inclusive = self.inclusive
        clock = self.clock
        send = gen.send
        throw = gen.throw
        value = None
        error = None
        # The yielded event leaves this frame before the suspension so
        # the kernel's refcount-gated timeout pool sees no extra owner.
        box: list = []
        while True:
            frame = None
            if rec.active:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
            try:
                if error is None:
                    box.append(send(value))
                else:
                    pending, error = error, None
                    box.append(throw(pending))
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    duration = clock() - frame[1]
                    stack.pop()
                    self_s[layer] += duration - frame[2]
                    if idx is not None:
                        inclusive[idx] += duration
                    if stack:
                        stack[-1][2] += duration
                    else:
                        root_s[layer] += duration
            try:
                value = yield box.pop()
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error = exc
                value = None

    def wrap_process(self, fn: Callable, layer: int, idx: int) -> Callable:
        """``Environment.process``: a kernel span, plus per-resume spans
        for the new process charged to its generator's module."""
        plain = self.wrap_function(fn, layer, idx)
        rec = self
        traced = self.traced_generator
        own_code = self.traced_generator.__code__

        @functools.wraps(fn)
        def process(env, generator):
            if rec.active and type(generator) is types.GeneratorType \
                    and generator.gi_code is not own_code:
                gen_layer = rec.layer_of_code(generator.gi_code)
                if gen_layer is not None:
                    generator = traced(generator, gen_layer, None)
            return plain(env, generator)

        return process


def _resolve(module: str, owner: Optional[str]):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


class installed:
    """Context manager: wrap every entry point, restore on exit.

    ``with installed(recorder): ...`` — the recorder is active inside
    the block only, so generators that outlive it (closed later by the
    garbage collector) open no spans.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        rec = self.recorder
        for module, owner, attrs, layer_name in ENTRY_POINTS:
            target = _resolve(module, owner)
            layer = LAYERS.index(layer_name)
            for attr in attrs:
                key = f"{owner or module}.{attr}"
                idx = rec.entry(key)
                original = (target.__dict__.get(attr, _MISSING)
                            if isinstance(target, type)
                            else getattr(target, attr))
                fn = getattr(target, attr)
                if key == "Environment.process":
                    wrapped = rec.wrap_process(fn, layer, idx)
                elif inspect.isgeneratorfunction(fn):
                    wrapped = rec.wrap_generator_function(fn, layer, idx)
                else:
                    wrapped = rec.wrap_function(fn, layer, idx)
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapped)
        rec.active = True
        return rec

    def __exit__(self, *exc_info) -> None:
        self.recorder.active = False
        for target, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._saved.clear()


_MISSING = object()
