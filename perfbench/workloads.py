"""The benchmark's workloads: one sweep point each, built from a seed.

Every workload is assembled through the package's public constructors
(:mod:`repro.experiments.defaults`, :mod:`repro.experiments.trace_setup`,
:mod:`repro.cluster`) and run through ``TransactionSystem.run`` /
``ClusterSystem.run``.  The seed reaches the simulator only through the
built config (``config.seed``): it sets every random stream of the run
(arrivals, record choices, service times); nothing else is passed in.

Each :class:`Workload` also owns the output checks that turn a wrong
run into a failed operation (see :func:`common_checks` and the
per-workload ``check`` functions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.cluster import ShardedDebitCreditWorkload, cluster_config, node_scheme
from repro.core.config import DeviceFault
from repro.core.model import TransactionSystem
from repro.experiments import trace_setup
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.experiments.media import ARCHIVE_BATCH_PAGES, FAST_LOSS_AT, MEDIA_TPS
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["WORKLOADS", "Workload", "common_checks", "nodes_of",
           "warmup_state"]

#: Pages in the ``db0`` unit of the Debit-Credit database: what a full
#: media rebuild must restore from the archive.
DB0_PAGES = 5_500_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build a point and how to judge it."""

    name: str
    why: str
    #: seed -> an unstarted system (config, workload, construction).
    build: Callable[[int], object]
    #: Simulated seconds of warm-up and of measurement per point.
    warmup: float
    duration: float
    #: (system, results, warmup_state) -> list of problems; empty when
    #: the point is good.  ``warmup_state`` holds what the collectors
    #: held just before the warm-up reset (see :func:`warmup_state`).
    check: Callable[[object, object, dict], List[str]]


def nodes_of(system) -> list:
    """The per-node stacks of a system (one for the central case)."""
    return list(getattr(system, "nodes", [system]))


def warmup_state(system) -> dict:
    """Counters that the warm-up reset clears but a whole-run check
    needs (the message counts of a cluster)."""
    if hasattr(system, "message_stats"):
        return {"messages": dict(system.message_stats())}
    return {}


def common_checks(system, results) -> List[str]:
    """Checks every workload's point must pass."""
    problems: List[str] = []
    if results.saturated:
        problems.append("run saturated (input queue diverged)")
    if results.committed <= 0:
        problems.append("no transaction committed")
    for node in nodes_of(system):
        for problem in node.bm.check_invariants():
            problems.append(f"buffer invariant: {problem}")
    if not 0.0 <= results.cpu_utilization <= 1.0:
        problems.append(f"cpu utilization {results.cpu_utilization!r} "
                        "outside [0, 1]")
    for device, report in results.device_utilization.items():
        for part, value in report.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"utilization {device}.{part}={value!r} "
                                "outside [0, 1]")
    total = sum(results.hit_ratios.values())
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        problems.append(f"hit ratios sum to {total!r}, not 1")
    return problems


# -- dc_disk ------------------------------------------------------------------

def _build_dc_disk(seed: int):
    config = debit_credit_config(disk_only(), seed=seed)
    return TransactionSystem(config, DebitCreditWorkload(arrival_rate=500))


# -- trace_nvem ---------------------------------------------------------------

def _build_trace_nvem(seed: int):
    # The trace is the experiment's fixed input (the paper replays one
    # recorded trace; Fig. 4.6 uses ``trace_for``'s default seed), so
    # the workload seed drives the replay: arrivals and service draws.
    # A per-seed trace would change the per-transaction work itself
    # (heavy-tailed sizes): host time would then measure the seed.
    # ``trace_for`` memoizes; its undecorated body regenerates the trace
    # so every point pays trace generation, as a fresh sweep point does.
    trace = trace_setup.trace_for.__wrapped__(fast=True)
    config = trace_setup.trace_config(trace, "nvem", 500, second_level=2000,
                                      seed=seed)
    return TransactionSystem(config, trace_setup.trace_workload(trace))


def _no_check(system, results, state) -> List[str]:
    return []


def _check_trace_nvem(system, results, state) -> List[str]:
    if results.hit_ratio("nvem_cache") <= 0.0:
        return ["NVEM cache served no page access"]
    return []


# -- cluster_2pc --------------------------------------------------------------

def _build_cluster_2pc(seed: int):
    config = cluster_config(node_scheme(log="nvem"), num_nodes=4, seed=seed)
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=100.0, distributed_fraction=0.3)
    return config.build_system(workload)


#: Simulated seconds the cluster check runs on with admission closed,
#: so 2PC rounds cut by the end of the window complete (a commit phase
#: takes well under a millisecond).
DRAIN_S = 1.0


def _check_cluster_2pc(system, results, state) -> List[str]:
    """Every PREPARE got a vote and every vote round a COMMIT.

    The warm-up reset and the end of the window both cut 2PC rounds in
    flight, so the counts are taken over the whole run: the counts held
    at the warm-up reset plus the window's, after closing admission and
    letting the rounds in flight finish.  Runs after the results and
    counters were taken; it only advances the finished system.
    """
    problems: List[str] = []
    if results.cluster["distributed_commits"] <= 0:
        problems.append("no distributed commit")
    for node in system.nodes:
        node.tm.take_offline()
    system.env.run(until=system.env.now + DRAIN_S)
    before = state.get("messages", {})
    stats = system.message_stats()
    prepare, vote, commit = (before.get(kind, 0) + stats.get(kind, 0)
                             for kind in ("2pc_prepare", "2pc_vote",
                                          "2pc_commit"))
    if not prepare == vote == commit:
        problems.append(f"2PC messages disagree: prepare={prepare} "
                        f"vote={vote} commit={commit}")
    return problems


# -- media_loss ---------------------------------------------------------------

def _build_media_loss(seed: int):
    # The fig_media_recovery fast "disk log" point at archive interval 4.
    config = debit_credit_config(disk_only(), seed=seed)
    config.media.enabled = True
    config.media.faults = (
        DeviceFault(device="db0", time=FAST_LOSS_AT, kind="loss"),)
    config.media.archive_interval = 4.0
    config.media.archive_batch_pages = ARCHIVE_BATCH_PAGES
    return TransactionSystem(config, DebitCreditWorkload(
        arrival_rate=MEDIA_TPS))


def _check_media_loss(system, results, state) -> List[str]:
    degraded = results.degraded or {}
    problems: List[str] = []
    if degraded.get("media_recoveries") != 1:
        problems.append(f"expected one media recovery, got "
                        f"{degraded.get('media_recoveries')!r}")
    if degraded.get("media_restore_pages") != DB0_PAGES:
        problems.append(f"restored {degraded.get('media_restore_pages')!r} "
                        f"pages, expected {DB0_PAGES}")
    if not degraded.get("media_redo_pages", 0) > 0:
        problems.append("media recovery redid no page")
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="dc_disk",
            why="the paper's all-write Debit-Credit on disks at 500 TPS: "
                "buffer misses keep bm, lru, storage and the kernel busy",
            build=_build_dc_disk, warmup=3.0, duration=8.0,
            check=_no_check),
        Workload(
            name="trace_nvem",
            why="Fig. 4.6 trace replay with a 2000-page NVEM cache: "
                "read-heavy, ~57 refs/tx, second-level migration",
            build=_build_trace_nvem, warmup=4.0, duration=45.0,
            check=_check_trace_nvem),
        Workload(
            name="cluster_2pc",
            why="4-node sharded Debit-Credit, 30% distributed: the only "
                "workload running repro.cluster (2PC, message bus)",
            build=_build_cluster_2pc, warmup=3.0, duration=8.0,
            check=_check_cluster_2pc),
        Workload(
            name="media_loss",
            why="db0 lost at 7.9 s and rebuilt from the archive: the only "
                "workload running repro.recovery",
            build=_build_media_loss, warmup=2.0, duration=40.0,
            check=_check_media_loss),
    )
}
