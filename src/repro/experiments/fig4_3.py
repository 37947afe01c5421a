"""Figure 4.3 — FORCE vs. NOFORCE update strategy (Debit-Credit).

Three storage allocations (plain disks, disks with non-volatile cache
write buffers, NVEM-resident) are run under both update strategies.

Expected shape (paper): FORCE costs ~2–3 extra page writes per commit,
a heavy penalty on disks but shrinking as the write target gets faster;
FORCE with a write buffer beats disk-based NOFORCE; with NVEM residence
the two strategies are nearly indistinguishable.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import UpdateStrategy
from repro.experiments.api import (
    CurveSpec,
    ExperimentSpec,
    SweepProfile,
    experiment,
)
from repro.experiments.defaults import (
    debit_credit_config,
    disk_only,
    disk_with_nv_cache_write_buffer,
    nvem_resident,
)
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["ALTERNATIVES", "spec"]

RATES = [100, 200, 300, 400, 500, 600, 700]
FAST_RATES = [100, 500]

ALTERNATIVES = [
    ("FORCE: disk", disk_only, UpdateStrategy.FORCE),
    ("NOFORCE: disk", disk_only, UpdateStrategy.NOFORCE),
    ("FORCE: cache WB", disk_with_nv_cache_write_buffer,
     UpdateStrategy.FORCE),
    ("NOFORCE: cache WB", disk_with_nv_cache_write_buffer,
     UpdateStrategy.NOFORCE),
    ("FORCE: NVEM", nvem_resident, UpdateStrategy.FORCE),
    ("NOFORCE: NVEM", nvem_resident, UpdateStrategy.NOFORCE),
]


def _curves() -> List[CurveSpec]:
    def curve(label, scheme_fn, strategy):
        def build(rate: float) -> Tuple:
            config = debit_credit_config(scheme_fn(),
                                         update_strategy=strategy)
            workload = DebitCreditWorkload(arrival_rate=rate)
            return config, workload

        return CurveSpec(label=label, build=build)

    return [curve(label, scheme_fn, strategy)
            for label, scheme_fn, strategy in ALTERNATIVES]


@experiment("fig4_3")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_3",
        title="FORCE vs NOFORCE (Debit-Credit)",
        x_label="arrival rate (TPS)",
        y_label="mean response time (ms); * = saturated",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(RATES), warmup=3.0, duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_RATES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: FORCE>>NOFORCE on disk; gap shrinks with write "
            "buffers; FORCE+WB beats disk-based NOFORCE; ~equal on NVEM",
        ),
    )
