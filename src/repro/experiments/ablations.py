"""Ablation studies for design choices the paper discusses but fixes.

Four ablations, each toggling one mechanism the paper names:

* **Group commit** (§3.2 footnote 3, §4.2): batching log writes of
  multiple transactions into one I/O.  The paper argues non-volatile
  semiconductor memory removes the need for it — we measure the
  single-log-disk configuration, where group commit lifts the ~200 TPS
  throughput wall.
* **Asynchronous page replacement** (§4.3): writing replacement victims
  to disk without blocking the faulting transaction.  The paper notes a
  smarter buffer manager would cut the disk configuration's response
  time by one disk write; we measure exactly that.
* **Deferred NVEM propagation** (§3.2): postponing the disk update of
  modified pages in the NVEM cache until replacement, instead of
  starting it immediately.
* **NVEM migration modes** (§3.2/§4.6): which pages move from main
  memory into the NVEM cache — modified only, unmodified only, or all.
  The paper found "the best NVEM hit ratios result if all pages
  migrate" for the read-dominated trace workload.

Each ablation is a registered experiment (``ablation_group_commit``,
``ablation_async_replacement``, ``ablation_deferred_propagation``,
``ablation_migration_modes``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import NVEMCachingMode, UpdateStrategy
from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.defaults import (
    debit_credit_config,
    disk_only,
    second_level_cache_scheme,
)
from repro.experiments.fig4_1 import log_on_single_disk
from repro.experiments.runner import ExperimentResult
from repro.experiments.trace_setup import (
    MEAN_TX_SIZE,
    trace_config,
    trace_for,
    trace_workload,
)
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["migration_summary"]


# ---------------------------------------------------------------------------
# Group commit


def _gc_curves() -> List[CurveSpec]:
    def curve(label, gc_size):
        def build(rate: float) -> Tuple:
            config = debit_credit_config(log_on_single_disk())
            config.cm.group_commit_size = gc_size
            config.cm.group_commit_timeout = 0.002
            return config, DebitCreditWorkload(arrival_rate=rate)

        return CurveSpec(label=label, build=build)

    return [curve("log disk, no GC", 1), curve("log disk, GC=8", 8)]


@experiment("ablation_group_commit")
def gc_spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="ablation_group_commit",
        title="Group commit (size 8) vs single log writes",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms); * = saturated",
        curves=_gc_curves(),
        profiles={
            "full": SweepProfile(xs=(100, 200, 300, 400, 500),
                                 warmup=3.0, duration=8.0),
            "fast": SweepProfile(xs=(100, 200, 300), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: group commit raises the single-log-disk "
            "saturation point well beyond 200 TPS",
        ),
    )


# ---------------------------------------------------------------------------
# Asynchronous page replacement


def _ar_curves() -> List[CurveSpec]:
    def curve(label, flag):
        def build(rate: float) -> Tuple:
            config = debit_credit_config(disk_only())
            config.cm.async_replacement = flag
            return config, DebitCreditWorkload(arrival_rate=rate)

        return CurveSpec(label=label, build=build)

    return [curve("sync write-back", False), curve("async write-back", True)]


@experiment("ablation_async_replacement")
def ar_spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="ablation_async_replacement",
        title="Asynchronous page replacement (disk configuration)",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms)",
        curves=_ar_curves(),
        profiles={
            "full": SweepProfile(xs=(100, 300, 500, 700), warmup=3.0,
                                 duration=8.0),
            "fast": SweepProfile(xs=(100, 500), warmup=3.0, duration=4.0),
        },
        notes=(
            "expected: async write-back removes ~one 16.4 ms disk write "
            "from response time, most of the write-buffer benefit",
        ),
    )


# ---------------------------------------------------------------------------
# Deferred NVEM propagation


def _dp_curves() -> List[CurveSpec]:
    def curve(label, flag):
        def build(rate: float) -> Tuple:
            config = debit_credit_config(
                second_level_cache_scheme("nvem", 1000),
                update_strategy=UpdateStrategy.FORCE,
            )
            config.cm.deferred_nvem_propagation = flag
            return config, DebitCreditWorkload(arrival_rate=rate)

        return CurveSpec(label=label, build=build)

    return [curve("immediate propagation", False),
            curve("deferred propagation", True)]


@experiment("ablation_deferred_propagation")
def dp_spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="ablation_deferred_propagation",
        title="Deferred NVEM->disk propagation (FORCE, NVEM cache 1000)",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms)",
        curves=_dp_curves(),
        profiles={
            "full": SweepProfile(xs=(100, 300, 500), warmup=3.0,
                                 duration=8.0),
            "fast": SweepProfile(xs=(100, 300), warmup=3.0, duration=4.0),
        },
        notes=(
            "expected: deferral saves repeated disk writes for "
            "re-modified pages but adds NVEM reads at replacement "
            "(§3.2's trade-off)",
        ),
    )


# ---------------------------------------------------------------------------
# NVEM migration modes (trace workload)

#: The second-level NVEM cache size all migration modes run against.
MIGRATION_CACHE_SIZE = 2000
MIGRATION_MODES = (NVEMCachingMode.MODIFIED, NVEMCachingMode.UNMODIFIED,
                   NVEMCachingMode.ALL)


def _mm_curves(profile: str) -> List[CurveSpec]:
    trace = trace_for(profile == "fast")

    def curve(mode):
        def build(size: float) -> Tuple:
            config = trace_config(trace, "nvem", mm_size=1000,
                                  second_level=int(size))
            for part in config.partitions:
                part.nvem_caching = mode
            return config, trace_workload(trace)

        return CurveSpec(label=mode.value, build=build)

    return [curve(mode) for mode in MIGRATION_MODES]


def migration_summary(result: ExperimentResult
                      ) -> Dict[str, Tuple[float, float]]:
    """{mode: (NVEM hit ratio %, normalized response ms)}."""
    out: Dict[str, Tuple[float, float]] = {}
    for series in result.series:
        r = series.points[0].results
        out[series.label] = (
            r.hit_ratio("nvem_cache") * 100,
            r.normalized_response_time(MEAN_TX_SIZE) * 1000,
        )
    return out


def _mm_render(result: ExperimentResult) -> str:
    lines = ["NVEM migration modes (trace workload):"]
    for mode, (hit, rt) in migration_summary(result).items():
        lines.append(f"  {mode:12s} nvem_hit={hit:5.1f}%  rt={rt:7.1f} ms")
    return "\n".join(lines)


@experiment("ablation_migration_modes")
def mm_spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="ablation_migration_modes",
        title="NVEM migration modes (trace workload, MM=1000)",
        x_label="NVEM cache (pages)",
        y_label="NVEM hit ratio / normalized response time",
        curves=_mm_curves,
        profiles={
            "full": SweepProfile(xs=(MIGRATION_CACHE_SIZE,), warmup=4.0,
                                 duration=40.0),
            "fast": SweepProfile(xs=(MIGRATION_CACHE_SIZE,), warmup=4.0,
                                 duration=15.0),
        },
        notes=(
            "expected: migrating all pages gives the best NVEM hit "
            "ratios (§4.6)",
        ),
        metric=lambda r: r.hit_ratio("nvem_cache") * 100,
        metric_fmt="{:8.1f}",
        renderer=_mm_render,
        truncate_on_saturation=False,
    )
