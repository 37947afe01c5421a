"""Figure 4.1 — influence of log file allocation (Debit-Credit, NOFORCE).

Four log allocations are compared while all database partitions stay on
plain disks sized to avoid bottlenecks:

1. log on a single disk;
2. log on a single disk whose controller has a non-volatile cache used
   as a write buffer (500 pages);
3. log on solid-state disk;
4. log in non-volatile extended memory.

Expected shape (paper): the single log disk saturates around 180–200
TPS (5 ms service time); the write buffer keeps response times low and
flat until the same disk-rate limit; SSD and NVEM logs sustain 700 TPS,
NVEM with the lowest response times.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import (
    DiskUnitType,
    LogAllocation,
    NVEM,
)
from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.defaults import (
    StorageScheme,
    db_disk_unit,
    debit_credit_config,
    log_disk_unit,
)
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["ALTERNATIVES", "spec"]

RATES = [10, 50, 100, 150, 200, 300, 500, 700]
FAST_RATES = [50, 200, 500]


def _scheme(log_units, log_alloc: LogAllocation) -> StorageScheme:
    return StorageScheme(
        name="fig4.1",
        db_allocation="db0",
        bt_allocation="bt0",
        log=log_alloc,
        disk_units=[
            db_disk_unit("db0"),
            db_disk_unit("bt0", num_disks=24, num_controllers=4),
            *log_units,
        ],
    )


def log_on_single_disk() -> StorageScheme:
    return _scheme([log_disk_unit("log0", num_disks=1)],
                   LogAllocation(device="log0"))


def log_on_disk_with_nv_cache(cache_size: int = 500) -> StorageScheme:
    return _scheme(
        [log_disk_unit("log0", num_disks=1,
                       unit_type=DiskUnitType.NONVOLATILE_CACHE,
                       cache_size=cache_size, write_buffer_only=True)],
        LogAllocation(device="log0"),
    )


def log_on_ssd() -> StorageScheme:
    return _scheme(
        [log_disk_unit("ssdlog", unit_type=DiskUnitType.SSD,
                       num_controllers=2)],
        LogAllocation(device="ssdlog"),
    )


def log_in_nvem() -> StorageScheme:
    return _scheme([], LogAllocation(device=NVEM))


ALTERNATIVES = [
    ("log on single disk", log_on_single_disk),
    ("disk + nv cache WB", log_on_disk_with_nv_cache),
    ("log on SSD", log_on_ssd),
    ("log in NVEM", log_in_nvem),
]


def _curves() -> List[CurveSpec]:
    def curve(label, scheme_fn):
        def build(rate: float) -> Tuple:
            config = debit_credit_config(scheme_fn())
            workload = DebitCreditWorkload(arrival_rate=rate)
            return config, workload

        return CurveSpec(label=label, build=build)

    return [curve(label, scheme_fn) for label, scheme_fn in ALTERNATIVES]


@experiment("fig4_1")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_1",
        title="Influence of log file allocation (Debit-Credit, NOFORCE)",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms); * = saturated",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(RATES), warmup=3.0, duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_RATES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: single log disk saturates near 200 TPS; write "
            "buffer stays flat to the same limit; SSD/NVEM carry 700 "
            "TPS, NVEM best",
        ),
    )
