"""Figure 4.8 — page- vs. object-level locking under data contention.

The §4.7 synthetic workload: one transaction type of variable size
(mean 10 object accesses, all updates); 80% of accesses go to a small
partition of 10,000 objects, 20% to a larger one of 100,000 objects
(blocking factor 10 for both, i.e. 1,000 and 10,000 pages).  Three
storage allocations are crossed with two lock granularities:

* disk-based — both partitions and the log on disks;
* mixed — the small partition and the log in NVEM, the large partition
  on disk;
* NVEM-resident — everything in NVEM.

Expected shape (paper): with page-level locking the disk-based and
mixed allocations thrash on locks (throughput limits near 120 and 150
TPS); object-level locking removes the bottleneck; with everything
NVEM-resident even page locking sustains 700 TPS because I/O delays —
and hence lock holding times — nearly vanish.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import (
    CCMode,
    LogAllocation,
    NVEM,
    PartitionConfig,
    SystemConfig,
    TransactionTypeConfig,
)
from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.defaults import (
    db_disk_unit,
    default_cm,
    default_nvem,
    log_disk_unit,
)
from repro.workload.synthetic import SyntheticWorkload

__all__ = ["ALLOCATIONS", "build_config", "spec"]

RATES = [10, 50, 100, 150, 200, 300, 500, 700]
FAST_RATES = [50, 150]

#: (label prefix, small-partition allocation, large-partition allocation,
#:  log device)
ALLOCATIONS = [
    ("disk-based", "db0", "db0", "log0"),
    ("mixed", NVEM, "db0", NVEM),
    ("NVEM-resident", NVEM, NVEM, NVEM),
]


def build_config(small_alloc: str, large_alloc: str, log_device: str,
                 cc_mode: CCMode, arrival_rate: float,
                 seed: int = 1) -> SystemConfig:
    partitions = [
        PartitionConfig(
            name="small",
            num_objects=10_000,
            block_factor=10,
            cc_mode=cc_mode,
            allocation=small_alloc,
        ),
        PartitionConfig(
            name="large",
            num_objects=100_000,
            block_factor=10,
            cc_mode=cc_mode,
            allocation=large_alloc,
        ),
    ]
    units = []
    if "db0" in (small_alloc, large_alloc):
        units.append(db_disk_unit("db0"))
    if log_device == "log0":
        units.append(log_disk_unit("log0", num_disks=8))
    tx_type = TransactionTypeConfig(
        name="update",
        arrival_rate=arrival_rate,
        tx_size=10,
        write_prob=1.0,
        reference_matrix={"small": 0.8, "large": 0.2},
        var_size=True,
    )
    cm = default_cm(buffer_size=2000)
    # "Like for Debit-Credit, an average pathlength of 250,000
    # instructions per transaction has been chosen" (§4.7): with ten
    # object references that means 16k instructions per reference
    # (40k BOT + 10 x 16k + 50k EOT = 250k), so the CPU capacity is
    # the same 800 TPS as in the Debit-Credit experiments.
    cm.instr_or = 16_000
    config = SystemConfig(
        partitions=partitions,
        disk_units=units,
        nvem=default_nvem(),
        cm=cm,
        log=LogAllocation(device=log_device),
        tx_types=[tx_type],
        seed=seed,
    )
    config.validate()
    return config


def _curves() -> List[CurveSpec]:
    curves = []
    for label, small_alloc, large_alloc, log_device in ALLOCATIONS:
        for cc_mode in (CCMode.PAGE, CCMode.OBJECT):
            if label == "NVEM-resident" and cc_mode is CCMode.OBJECT:
                # The paper plots NVEM-resident only with page locks
                # (object locks are trivially fine there too).
                continue

            def build(rate: float, small_alloc=small_alloc,
                      large_alloc=large_alloc, log_device=log_device,
                      cc_mode=cc_mode) -> Tuple:
                config = build_config(small_alloc, large_alloc,
                                      log_device, cc_mode, rate)
                return config, SyntheticWorkload(config)

            curves.append(CurveSpec(
                label=f"{label} - {cc_mode.value} locks", build=build,
            ))
    return curves


@experiment("fig4_8")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_8",
        title="Page- vs object-locking for different allocation "
              "strategies (§4.7 workload)",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms); * = saturated (lock thrash)",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(RATES), warmup=3.0, duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_RATES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: page locks thrash near 120 TPS (disk) / 150 TPS "
            "(mixed); object locks remove the bottleneck; NVEM-resident "
            "never thrashes",
        ),
    )
