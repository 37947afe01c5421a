"""Measurement: run points of a workload, check them, report metrics.

A *point* is one sweep point end to end: build (config, trace, system),
prewarm, warm-up and measurement.  Each point is one operation of the
benchmark.  An exception, a watchdog timeout or a failed output check
makes it a failed operation.  The host drives points as a closed loop:
one at a time, in this process and thread.  Inside each point the
simulated workload is an open Poisson source at the workload's rate.

End-to-end metrics come from untraced points only.  The traced run
(``trace=True``) alternates untraced and traced points and reports the
per-layer metrics of :data:`PER_LAYER`.  Reported host times are scaled
to the reference machine by a yardstick timed between points (see
:data:`YARDSTICK_REF_S`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, SpanRecorder, installed
from workloads import Workload, common_checks, warmup_state

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "PointResult",
    "PointTimeout",
    "results_digest",
    "run_benchmark",
    "run_point",
    "yardstick",
]

#: name -> unit of the end-to-end metrics (``trace=False`` runs).
END_TO_END: Dict[str, str] = {
    "sim_tx_per_host_s": "tx/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the per-layer metrics (``trace=True`` runs).
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sim.events_per_tx": "1/tx",
    "sim.events_per_host_s": "1/s",
    "resources.requests_per_tx": "1/tx",
    "rng.draws_per_tx": "1/tx",
    "workload.prewarm_s": "s",
    "workload.tracegen_s": "s",
    "workload.refs_per_tx": "1/tx",
    "tm.restarts_per_tx": "1/tx",
    "tm.input_queue_peak": "count",
    "cc.requests_per_tx": "1/tx",
    "cc.conflict_ratio": "ratio",
    "cc.deadlocks": "count",
    "cc.wait_ms": "ms",
    "cpu.bursts_per_tx": "1/tx",
    "cpu.utilization": "ratio",
    "cpu.wait_ms": "ms",
    "bm.fixes_per_tx": "1/tx",
    "bm.mm_hit_ratio": "ratio",
    "bm.second_level_hit_ratio": "ratio",
    "bm.log_writes_per_tx": "1/tx",
    "lru.ops_per_tx": "1/tx",
    "lru.evictions_per_tx": "1/tx",
    "storage.io_per_tx": "1/tx",
    "storage.max_device_utilization": "ratio",
    "storage.io_ms": "ms",
    "recovery.restore_pages": "count",
    "recovery.redo_pages": "count",
    "recovery.log_pages": "count",
    "recovery.mttr_s": "s",
    "cluster.messages_per_tx": "1/tx",
    "cluster.distributed_commit_ratio": "ratio",
    "cluster.commit_phase_ms": "ms",
    "bench.trace_overhead": "ratio",
}

#: Host-time per-layer metrics; every other per-layer metric is an
#: exact count or simulated ratio and must repeat exactly.
HOST_TIMED = frozenset(
    [f"{layer}.self_s" for layer in LAYERS]
    + ["sim.events_per_host_s", "workload.prewarm_s", "workload.tracegen_s",
       "bench.trace_overhead"])

#: A point running longer than this (host seconds) is a failed operation.
WATCHDOG_S = 60.0
#: Points (pairs, when traced) per run at least, so every run compares
#: two same-seed digests.
MIN_POINTS = 2
#: Share of the run's host time given to set-up-only builds, made
#: between points so that a burst of host noise cannot own every
#: set-up sample.
SETUP_SHARE = 0.1

_CLOCK = time.perf_counter

#: Host seconds :func:`yardstick` takes on the machine the benchmark
#: was built on (a 2-vCPU VM at 2.0 GHz, Python 3.11.7), unloaded.
#: Every reported host time is scaled to that machine: measured seconds
#: times ``YARDSTICK_REF_S`` over the run's mean yardstick time.  On a
#: shared host the speed of this process drifts by tens of percent over
#: minutes, and the yardstick, run between points, drifts with it.
YARDSTICK_REF_S = 0.028


class PointTimeout(Exception):
    """The watchdog fired: the point overran :data:`WATCHDOG_S`."""


@dataclasses.dataclass
class PointResult:
    setup_s: float
    wall_s: float
    measure_s: float
    committed: int
    events: int
    digest: str
    #: Exact per-layer counts and simulated ratios (see :func:`counters`).
    counters: Dict[str, float]
    problems: List[str]
    #: Per-layer self seconds and entry counts; traced points only.
    self_s: Optional[Dict[str, float]] = None
    calls: Optional[Dict[str, int]] = None
    prewarm_s: float = 0.0
    tracegen_s: float = 0.0


def results_digest(results, events: int) -> str:
    """sha256 over the simulated results and the event count: two runs
    with equal digests produced equal simulated statistics."""
    payload = json.dumps({"results": dataclasses.asdict(results),
                          "events": events}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _per_tx(count: float, committed: int) -> float:
    return count / committed if committed else 0.0


def counters(system, results, events: int) -> Dict[str, float]:
    """Per-layer counts and ratios read off public state after a run."""
    committed = results.committed
    comp = results.composition
    degraded = results.degraded or {}
    messages = (system.message_stats().get("messages", 0)
                if hasattr(system, "message_stats") else 0)
    hits = results.hit_ratios
    utilizations = [value for report in results.device_utilization.values()
                    for value in report.values()]
    return {
        "sim.events_per_tx": _per_tx(events, committed),
        "workload.refs_per_tx": _per_tx(results.page_accesses, committed),
        "tm.restarts_per_tx": _per_tx(system.metrics.restarts, committed),
        "tm.input_queue_peak": float(results.input_queue_peak),
        "cc.requests_per_tx": results.lock_stats.get("requests_per_tx", 0.0),
        "cc.conflict_ratio": results.lock_stats.get("conflict_ratio", 0.0),
        "cc.deadlocks": results.lock_stats.get("deadlocks", 0.0),
        "cc.wait_ms": comp.get("lock_wait", 0.0) * 1000.0,
        "cpu.utilization": results.cpu_utilization,
        "cpu.wait_ms": comp.get("cpu_wait", 0.0) * 1000.0,
        "bm.mm_hit_ratio": hits.get("main_memory", 0.0),
        "bm.second_level_hit_ratio": (hits.get("nvem_cache", 0.0)
                                      + hits.get("disk_cache", 0.0)),
        "bm.log_writes_per_tx": sum(v for k, v in results.io_per_tx.items()
                                    if k.startswith("log")),
        "storage.io_per_tx": sum(results.io_per_tx.values()),
        "storage.max_device_utilization": max(utilizations, default=0.0),
        "storage.io_ms": (comp.get("sync_io", 0.0) + comp.get("async_io", 0.0)
                          + comp.get("nvem", 0.0)) * 1000.0,
        "recovery.restore_pages": degraded.get("media_restore_pages", 0.0),
        "recovery.redo_pages": degraded.get("media_redo_pages", 0.0),
        "recovery.log_pages": degraded.get("media_log_pages", 0.0),
        "recovery.mttr_s": degraded.get("media_mttr_mean", 0.0),
        "cluster.messages_per_tx": _per_tx(messages, committed),
        "cluster.distributed_commit_ratio": results.dist_fraction,
        "cluster.commit_phase_ms": results.commit_phase_ms,
    }


#: (per-layer metric, entry points whose window calls it counts).
CALL_COUNTERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("resources.requests_per_tx", ("Resource.request",)),
    ("rng.draws_per_tx", tuple(
        f"RandomStreams.{name}" for name in (
            "exponential", "uniform", "uniform_int", "bernoulli",
            "choice_weighted", "geometric_like_size", "zipf", "shuffle"))),
    ("cpu.bursts_per_tx", ("CPUPool.execute_event",
                           "CPUPool.execute_with_sync_access")),
    ("bm.fixes_per_tx", ("BufferManager.fix_page_fast",
                         "BufferManager.fix_page")),
    ("lru.ops_per_tx", tuple(
        f"{cls}.{op}" for cls in ("LRUCache", "ClockPolicy", "TwoQPolicy")
        for op in ("peek", "get", "touch", "insert", "remove", "victim"))),
    ("lru.evictions_per_tx", ("LRUCache.victim", "ClockPolicy.victim",
                              "TwoQPolicy.victim")),
)

_PREWARM_ENTRIES = ("DebitCreditWorkload.prewarm",
                    "ShardedDebitCreditWorkload.prewarm",
                    "TraceWorkload.prewarm")
_TRACEGEN_ENTRY = "repro.experiments.trace_setup.generate_trace"


class _Node:
    __slots__ = ("key", "next")


def _count(n: int):
    for i in range(n):
        yield i


def yardstick() -> float:
    """Host seconds for a fixed piece of interpreter work.

    Half of it, by time, creates small slotted objects and stores them
    in a dict, with short lists and generators; the other half is plain
    integer arithmetic.  Host contention slows the first kind more than
    the simulator and the second kind less; the sum tracks the
    simulator.  It calls nothing in the package, so no change to the
    simulator moves it; editing it rescales every reported time.
    """
    start = _CLOCK()
    table = {}
    acc = 0
    for i in range(24_000):
        node = _Node()
        node.key = i
        node.next = None
        table[i & 1023] = node
        items = [i, i + 1, i + 2]
        acc += sum(_count(3)) + len(items) + (table[i & 1023].key & 7)
    for i in range(360_000):
        acc += i & 7
    return _CLOCK() - start


def _on_alarm(signum, frame):
    raise PointTimeout(f"point exceeded the {WATCHDOG_S:g} s watchdog")


def _build_and_start(workload: Workload, seed: int):
    """Config to first simulated instant; returns (system, seconds)."""
    start = _CLOCK()
    system = workload.build(seed)
    system.start_workload()
    return system, _CLOCK() - start


def run_point(workload: Workload, seed: int,
              recorder: Optional[SpanRecorder] = None) -> PointResult:
    """Build, prewarm, warm up and measure one point; check its output."""
    clock = _CLOCK
    start = clock()
    system, setup_s = _build_and_start(workload, seed)
    boundary = {}
    reset = system._reset_measurements

    def reset_and_mark():
        boundary["state"] = warmup_state(system)
        reset()
        boundary["t"] = clock()
        boundary["seq"] = system.env._seq
        if recorder is not None:
            recorder.mark()

    # Instance attribute: times the warm-up boundary from outside.
    system._reset_measurements = reset_and_mark
    results = system.run(warmup=workload.warmup, duration=workload.duration)
    end = clock()
    if recorder is not None:
        recorder.active = False
    events = system.env._seq - boundary["seq"]
    point = PointResult(
        setup_s=setup_s,
        wall_s=end - start,
        measure_s=end - boundary["t"],
        committed=results.committed,
        events=events,
        digest=results_digest(results, events),
        counters=counters(system, results, events),
        problems=[],
    )
    # Checks last: a check may advance the finished system.
    point.problems = (common_checks(system, results)
                      + workload.check(system, results, boundary["state"]))
    if recorder is not None:
        point.self_s = recorder.self_time()
        point.calls = recorder.window_calls()
        point.prewarm_s = sum(recorder.inclusive_time(key)
                              for key in _PREWARM_ENTRIES)
        point.tracegen_s = recorder.inclusive_time(_TRACEGEN_ENTRY)
        for name, keys in CALL_COUNTERS:
            point.counters[name] = _per_tx(
                sum(point.calls.get(key, 0) for key in keys),
                results.committed)
    return point


def _guarded(fn, *args, **kwargs):
    """Run ``fn`` under the watchdog; (value, problem or None)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # any failure of a point is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _traced_point(workload: Workload, seed: int) -> PointResult:
    recorder = SpanRecorder()
    with installed(recorder):
        return run_point(workload, seed, recorder=recorder)


class _Tally:
    """Attempted/failed operations.  Every point is compared with the
    run's first good untraced point (same seed, so the same simulation),
    and a traced point also with the run's first good traced point."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: Optional[PointResult] = None
        self.first_traced: Optional[PointResult] = None

    def record(self, point: Optional[PointResult], problem: Optional[str],
               label: str) -> Optional[PointResult]:
        self.attempted += 1
        problems = [problem] if problem else list(point.problems)
        if point is not None:
            problems += self._compare(point)
        if problems:
            self.failed += 1
            for text in problems:
                print(f"[perfbench] {label}: FAILED: {text}",
                      file=sys.stderr)
            return None
        if point.calls is None and self.first is None:
            self.first = point
        if point.calls is not None and self.first_traced is None:
            self.first_traced = point
        return point

    def _compare(self, point: PointResult) -> List[str]:
        problems: List[str] = []
        if self.first is not None and point.digest != self.first.digest:
            problems.append("simulated results differ from the first "
                            "same-seed point")
        same_kind = (self.first_traced if point.calls is not None
                     else self.first)
        if same_kind is not None and same_kind.calls == point.calls:
            for key, value in point.counters.items():
                if value != same_kind.counters[key]:
                    problems.append(f"counter {key} differs between "
                                    f"same-seed points")
        elif same_kind is not None:
            problems.append("entry-point call counts differ between "
                            "same-seed points")
        return problems


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on
    Linux).  One process runs one workload, so the peak is its own."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_build(workload: Workload, seed: int,
                 tally: "_Tally") -> Optional[float]:
    """One set-up-only build (config to first simulated instant), one
    operation; returns its host seconds, or None if it failed."""
    gc.collect()
    tally.attempted += 1
    built, problem = _guarded(_build_and_start, workload, seed)
    if problem is not None:
        tally.failed += 1
        print(f"[perfbench] {workload.name} set-up: FAILED: {problem}",
              file=sys.stderr)
        return None
    return built[1]


def run_benchmark(workload: Workload, seed: int, seconds: float,
                  trace: bool) -> Tuple[dict, List[PointResult], float]:
    """Run points of ``workload`` for ``seconds`` host seconds.

    Returns the result object (``correct``/``attempted``/``failed``/
    ``metrics``), the good points, and the scale from this run's host
    seconds to seconds on the reference machine (see
    :data:`YARDSTICK_REF_S`).
    """
    name = workload.name
    tally = _Tally()
    untraced: List[PointResult] = []
    traced: List[PointResult] = []
    setup_samples: List[float] = []
    if not trace:
        # Untimed: pays the lazy imports a sweep pays once per process.
        _setup_build(workload, seed, tally)
    setup_spent = 0.0
    yardstick_s: List[float] = []
    started = _CLOCK()
    points = 0
    while True:
        points += 1
        gc.collect()
        yardstick_s.append(yardstick())
        point, problem = _guarded(run_point, workload, seed)
        point = tally.record(point, problem, f"{name} point")
        if point is not None:
            untraced.append(point)
            setup_samples.append(point.setup_s)
        if trace:
            gc.collect()
            yardstick_s.append(yardstick())
            point, problem = _guarded(_traced_point, workload, seed)
            point = tally.record(point, problem, f"{name} traced point")
            if point is not None:
                traced.append(point)
        else:
            while True:
                yardstick_s.append(yardstick())
                before = _CLOCK()
                sample = _setup_build(workload, seed, tally)
                setup_spent += _CLOCK() - before
                if sample is None:
                    break
                setup_samples.append(sample)
                if setup_spent >= SETUP_SHARE * (_CLOCK() - started):
                    break
        if (_CLOCK() - started >= seconds
                and points >= MIN_POINTS):
            break
    # Seconds on the reference machine per measured second.  The mean,
    # not the median: host slowdowns come in bursts shorter than a
    # point, and a point's time carries their average.
    scale = YARDSTICK_REF_S / statistics.fmean(yardstick_s)
    if trace:
        metrics = _per_layer_metrics(untraced, traced, scale)
        units = PER_LAYER
    else:
        metrics = {
            "sim_tx_per_host_s": _median(
                [p.committed / p.measure_s for p in untraced]) / scale,
            "wall_s": _median([p.wall_s for p in untraced]) * scale,
            "setup_s": _median(setup_samples) * scale,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    result = {
        "correct": tally.failed == 0 and bool(untraced),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics.get(key, 0.0), "unit": unit}
                    for key, unit in units.items()},
    }
    return result, untraced + traced, scale


def _per_layer_metrics(untraced: List[PointResult],
                       traced: List[PointResult],
                       scale: float) -> Dict[str, float]:
    if not traced or not untraced:
        return {}
    metrics: Dict[str, float] = dict(traced[0].counters)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median(
            [p.self_s[layer] for p in traced]) * scale
    metrics["sim.events_per_host_s"] = _median(
        [p.events / p.measure_s for p in untraced]) / scale
    metrics["workload.prewarm_s"] = _median(
        [p.prewarm_s for p in traced]) * scale
    metrics["workload.tracegen_s"] = _median(
        [p.tracegen_s for p in traced]) * scale
    metrics["bench.trace_overhead"] = (_median([p.wall_s for p in traced])
                                       / _median([p.wall_s for p in untraced]))
    return metrics
