"""Tests of the benchmark itself: names, checks, tracing, failure paths.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import END_TO_END, HOST_TIMED, PER_LAYER, run_benchmark, run_point
from layers import LAYERS, SpanRecorder, installed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Simulated (warm-up, duration) small enough for a unit test.  The
#: media rebuild needs its full window: db0 is lost at 7.9 s and takes
#: ~12 s to rebuild.
TINY = {
    "dc_disk": (0.5, 1.0),
    "trace_nvem": (1.0, 4.0),
    "cluster_2pc": (0.5, 1.0),
    "media_loss": (2.0, 40.0),
}


def tiny(name: str, **changes):
    warmup, duration = TINY[name]
    return dataclasses.replace(WORKLOADS[name], warmup=warmup,
                               duration=duration, **changes)


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    for name, workload in WORKLOADS.items():
        assert workload.why == next(w["why"] for w in spec["workloads"]
                                    if w["name"] == name)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_point_passes_checks(name):
    point = run_point(tiny(name), seed=3)
    assert point.problems == []
    assert point.committed > 0 and point.events > 0
    assert 0 < point.setup_s < point.wall_s


def test_failing_check_is_a_failed_operation():
    failing = tiny("dc_disk", check=lambda system, results, state:
                   ["deliberately failed"])
    result, points, _ = run_benchmark(failing, seed=1, seconds=0.0, trace=False)
    # Both points failed; the set-up-only builds passed.
    assert result["failed"] == 2
    assert result["attempted"] > 2
    assert result["correct"] is False
    assert points == []


def test_exception_is_a_failed_operation():
    def broken(seed):
        raise RuntimeError("deliberately broken build")

    result, _, _ = run_benchmark(tiny("dc_disk", build=broken), seed=1,
                              seconds=0.0, trace=False)
    assert result["failed"] == result["attempted"] >= 2
    assert result["correct"] is False


def test_good_run_reports_every_end_to_end_metric():
    result, points, _ = run_benchmark(tiny("dc_disk"), seed=1, seconds=0.0,
                                   trace=False)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len({p.digest for p in points}) == 1


@pytest.mark.parametrize("name", ["dc_disk", "cluster_2pc"])
def test_traced_run_changes_no_simulated_result(name):
    workload = tiny(name)
    plain = run_point(workload, seed=5)
    recorder = SpanRecorder()
    with installed(recorder):
        traced = run_point(workload, seed=5, recorder=recorder)
    assert traced.digest == plain.digest
    assert traced.problems == []
    for key, value in plain.counters.items():
        assert traced.counters[key] == value, key


def test_traced_counts_repeat_exactly():
    result, points, _ = run_benchmark(tiny("cluster_2pc"), seed=2, seconds=0.0,
                                   trace=True)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER)
    traced = [p for p in points if p.calls is not None]
    again = SpanRecorder()
    with installed(again):
        repeat = run_point(tiny("cluster_2pc"), seed=2, recorder=again)
    assert repeat.calls == traced[0].calls
    exact = set(PER_LAYER) - HOST_TIMED
    for key in exact & set(repeat.counters):
        assert repeat.counters[key] == traced[0].counters[key], key
    assert result["metrics"]["cluster.messages_per_tx"]["value"] > 0
    assert result["metrics"]["recovery.self_s"]["value"] == 0


def test_layer_self_times_add_up_to_root_spans():
    recorder = SpanRecorder()
    with installed(recorder):
        point = run_point(tiny("dc_disk"), seed=1, recorder=recorder)
    assert point.problems == []
    self_total = sum(recorder.self_s)
    root_total = sum(recorder.root_s)
    assert self_total == pytest.approx(root_total, rel=1e-9)
    # Roots outside the simulation: the prewarm, the arrival-process
    # spawn and the run loop's queue samples between slices.
    roots = {layer: t for layer, t in recorder.root_time().items() if t}
    assert set(roots) == {"sim", "workload", "metrics"}
    assert roots["workload"] == pytest.approx(
        recorder.inclusive_time("DebitCreditWorkload.prewarm"), rel=1e-9)
    run_time = recorder.inclusive_time("Environment.run")
    assert 0.9 * roots["sim"] <= run_time <= roots["sim"]


def test_self_time_accounting_is_exact_with_a_counting_clock():
    ticks = iter(range(10**9))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    from repro.sim import Environment, Resource

    with installed(recorder):
        env = Environment()
        server = Resource(env, capacity=1)

        def customer(env):
            for _ in range(3):
                req = server.request()
                yield req
                yield env.timeout(1.0)
                server.release(req)

        for _ in range(4):
            env.process(customer(env))
        env.run()
    self_time = recorder.self_time()
    assert sum(self_time.values()) == sum(recorder.root_s)
    assert self_time["resources"] > 0 and self_time["sim"] > 0
    assert recorder.window_calls()["Resource.request"] == 12
    assert recorder.stack == []


def test_traced_generator_is_transparent():
    recorder = SpanRecorder()
    recorder.active = True

    def inner():
        try:
            got = yield "a"
        except KeyError as exc:
            got = f"caught {exc.args[0]}"
        yield got
        return "done"

    def outer(gen):
        value = yield from gen
        yield value

    plain = outer(inner())
    traced = outer(recorder.traced_generator(inner(), 0, None))
    for gen in (plain, traced):
        assert next(gen) == "a"
    assert plain.throw(KeyError("k")) == traced.throw(KeyError("k")) \
        == "caught k"
    assert next(plain) == next(traced) == "done"
    assert recorder.stack == []
    assert set(LAYERS) == set(recorder.self_time())


def test_run_fails_cleanly_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dc_disk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
