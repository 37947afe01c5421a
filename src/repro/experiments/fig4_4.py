"""Figure 4.4 — caching for different main-memory buffer sizes
(Debit-Credit, NOFORCE, 500 TPS).

The main-memory buffer varies from 200 to 5000 pages against six
second-level configurations: none, a volatile disk cache (1000 pages),
a non-volatile disk-cache write buffer, a non-volatile disk cache
(1000), and NVEM caches of 500 and 1000 pages.

Expected shape (paper): growing the MM buffer matters most below 2000
pages (the BRANCH/TELLER working set); the volatile disk cache helps
only while it is larger than the MM buffer; non-volatile memory
dominates because all synchronous writes disappear; even a 500-page
NVEM cache beats a 1000-page non-volatile disk cache.
"""

from __future__ import annotations

from typing import List, Tuple

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
from repro.workload.debit_credit import DebitCreditWorkload

__all__ = ["CONFIGURATIONS", "build_config", "spec"]

BUFFER_SIZES = [200, 500, 1000, 2000, 5000]
FAST_BUFFER_SIZES = [500, 2000]
ARRIVAL_RATE = 500.0

#: (label, second-level kind, second-level size); kind=None -> MM only.
CONFIGURATIONS = [
    ("MM caching only", None, 0),
    ("vol. disk cache 1000", "volatile", 1000),
    ("write buffer (nv cache)", "write-buffer", 500),
    ("nv disk cache 1000", "nonvolatile", 1000),
    ("NVEM buffer 500", "nvem", 500),
    ("NVEM buffer 1000", "nvem", 1000),
]


def build_config(kind, size, mm_size: int):
    scheme = disk_only() if kind is None else \
        second_level_cache_scheme(kind, size)
    return debit_credit_config(scheme, buffer_size=mm_size)


def _curves() -> List[CurveSpec]:
    def curve(label, kind, size):
        def build(mm: float) -> Tuple:
            config = build_config(kind, size, int(mm))
            workload = DebitCreditWorkload(arrival_rate=ARRIVAL_RATE)
            return config, workload

        return CurveSpec(label=label, build=build)

    return [curve(label, kind, size)
            for label, kind, size in CONFIGURATIONS]


@experiment("fig4_4")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        id="fig4_4",
        title="Impact of caching for different MM buffer sizes "
              "(NOFORCE, 500 TPS)",
        x_label="MM buffer (pages)",
        y_label="mean response time (ms); * = saturated",
        curves=_curves(),
        profiles={
            "full": SweepProfile(xs=tuple(BUFFER_SIZES), warmup=3.0,
                                 duration=8.0),
            "fast": SweepProfile(xs=tuple(FAST_BUFFER_SIZES), warmup=3.0,
                                 duration=4.0),
        },
        notes=(
            "expected: vol. cache converges to MM-only once MM >= cache; "
            "nv memory variants dominate; NVEM 500 beats nv disk cache "
            "1000",
        ),
    )
