"""Tests for parallel sweep evaluation through ``ExperimentRunner``."""

import pytest

from repro.experiments import api
from repro.experiments.runner import point_seed
from tests.experiments.conftest import tiny_build


def run_curve(xs, build, parallel, warmup=0.5, duration=1.0):
    """Run one curve over ``xs`` (no store) and return its series."""
    spec = api.ExperimentSpec(
        id="_curve", title="t", x_label="x", y_label="y",
        curves=[api.CurveSpec(label="s", build=build)],
        profiles={name: api.SweepProfile(xs=tuple(xs), warmup=warmup,
                                         duration=duration)
                  for name in ("fast", "full")},
    )
    runner = api.ExperimentRunner(parallel=parallel, max_workers=2)
    return runner.run_one(spec).series[0]


class TestPointSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [point_seed(1, i) for i in range(10)]
        assert seeds == [point_seed(1, i) for i in range(10)]
        assert len(set(seeds)) == 10

    def test_varies_with_base_seed(self):
        assert point_seed(1, 0) != point_seed(2, 0)


class TestParallelSweep:
    XS = [20, 40, 60]

    def test_parallel_matches_serial_byte_identically(self):
        serial = run_curve(self.XS, tiny_build, parallel=False)
        parallel = run_curve(self.XS, tiny_build, parallel=True)
        assert serial.xs() == parallel.xs()
        for sp, pp in zip(serial.points, parallel.points):
            assert sp.results == pp.results

    def test_unpicklable_workload_degrades_to_serial(self):
        def build_unpicklable(rate):
            config, workload = tiny_build(rate)
            workload.hook = lambda: None  # closures cannot be pickled
            return config, workload

        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            series = run_curve([20, 30], build_unpicklable, parallel=True,
                               warmup=0.2, duration=0.5)
        assert series.xs() == [20, 30]

    def test_parallel_truncates_at_saturation_like_serial(self):
        xs = [20, 100_000, 200_000]
        serial = run_curve(xs, tiny_build, parallel=False, warmup=0.2)
        parallel = run_curve(xs, tiny_build, parallel=True, warmup=0.2)
        assert serial.xs() == parallel.xs()
        assert 200_000 not in parallel.xs()

    def test_single_point_skips_worker_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single point must not start a pool")

        monkeypatch.setattr(api, "ProcessPoolExecutor", no_pool)
        series = run_curve([20], tiny_build, parallel=True, warmup=0.2,
                           duration=0.5)
        assert len(series.points) == 1
