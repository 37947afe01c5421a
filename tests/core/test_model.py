"""Unit tests for system wiring and the run harness (repro.core.model)."""

import pytest

from repro.core.config import (
    CMConfig,
    LogAllocation,
    NVEM,
    NVEMConfig,
    PartitionConfig,
    SystemConfig,
)
from repro.core.model import TransactionSystem
from repro.workload.debit_credit import DebitCreditWorkload
from repro.workload.base import PoissonArrivals
from repro.core.transaction import ObjectRef, Transaction


def nvem_config(mpl=50, buffer_size=64):
    config = SystemConfig(
        partitions=[PartitionConfig("p0", num_objects=1000,
                                    block_factor=10, allocation=NVEM)],
        disk_units=[],
        nvem=NVEMConfig(),
        cm=CMConfig(mpl=mpl, buffer_size=buffer_size),
        log=LogAllocation(device=NVEM),
    )
    config.validate()
    return config


class SimpleWorkload:
    """Minimal workload: fixed-size update transactions at `rate` TPS."""

    def __init__(self, rate=100.0):
        self.rate = rate
        self.prewarmed = False
        self._counter = 0

    def _factory(self, _n):
        self._counter += 1
        page = self._counter % 100
        return Transaction(self._counter, "simple",
                           [ObjectRef(0, page * 10, page, True)])

    def prewarm(self, system):
        self.prewarmed = True

    def start(self, system):
        PoissonArrivals(self.rate, self._factory).start(system)


class TestRunHarness:
    def test_run_produces_results(self):
        system = TransactionSystem(nvem_config(), SimpleWorkload())
        results = system.run(warmup=1.0, duration=3.0)
        assert results.committed > 100
        assert results.throughput == pytest.approx(100, rel=0.2)
        assert results.simulated_time == pytest.approx(3.0)

    def test_prewarm_hook_called(self):
        workload = SimpleWorkload()
        system = TransactionSystem(nvem_config(), workload)
        system.run(warmup=0.5, duration=1.0)
        assert workload.prewarmed

    def test_warmup_discards_measurements(self):
        system = TransactionSystem(nvem_config(), SimpleWorkload())
        results = system.run(warmup=2.0, duration=2.0)
        # Throughput computed over the measurement window only.
        assert results.committed == pytest.approx(200, rel=0.25)

    def test_zero_warmup_allowed(self):
        system = TransactionSystem(nvem_config(), SimpleWorkload())
        results = system.run(warmup=0.0, duration=2.0)
        assert results.committed > 0

    def test_invalid_durations_rejected(self):
        system = TransactionSystem(nvem_config(), SimpleWorkload())
        with pytest.raises(ValueError):
            system.run(warmup=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            system.run(warmup=1.0, duration=0.0)

    def test_saturation_guard_flags_overload(self):
        # MPL 2 with 1000 TPS of work: the input queue diverges.
        system = TransactionSystem(nvem_config(mpl=2),
                                   SimpleWorkload(rate=5000.0))
        results = system.run(warmup=0.5, duration=5.0,
                             saturation_queue_limit=50)
        assert results.saturated

    def test_snapshot_without_run(self):
        system = TransactionSystem(nvem_config(), SimpleWorkload())
        results = system.snapshot()
        assert results.committed == 0

    def test_config_validated_at_construction(self):
        config = nvem_config()
        config.partitions = []
        with pytest.raises(ValueError):
            TransactionSystem(config, SimpleWorkload())

    def test_seed_override(self):
        a = TransactionSystem(nvem_config(), SimpleWorkload(), seed=5)
        b = TransactionSystem(nvem_config(), SimpleWorkload(), seed=5)
        ra = a.run(warmup=0.5, duration=1.5)
        rb = b.run(warmup=0.5, duration=1.5)
        assert ra.committed == rb.committed

    def test_debit_credit_smoke(self):
        from repro.experiments.defaults import debit_credit_config, disk_only
        config = debit_credit_config(disk_only())
        system = TransactionSystem(config,
                                   DebitCreditWorkload(arrival_rate=50))
        results = system.run(warmup=1.0, duration=3.0)
        assert results.committed > 50
        assert not results.saturated
