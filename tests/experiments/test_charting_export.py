"""Tests for ASCII charting and CSV/JSON export."""

import csv
import dataclasses
import json

import pytest

from repro.experiments.charting import render_chart, _nice_ticks
from repro.experiments.export import (
    experiment_to_rows,
    results_to_dict,
    write_csv,
    write_json,
)
from repro.experiments.runner import ExperimentResult, Series, SeriesPoint
from tests.experiments.test_harness import fake_results


def sample_experiment():
    result = ExperimentResult("FigX", "sample", "rate", "ms")
    s1 = Series("alpha")
    s1.points = [SeriesPoint(100, fake_results(0.010)),
                 SeriesPoint(300, fake_results(0.020)),
                 SeriesPoint(500, fake_results(0.060))]
    s2 = Series("beta")
    s2.points = [SeriesPoint(100, fake_results(0.050)),
                 SeriesPoint(300, fake_results(0.055, saturated=True))]
    result.series = [s1, s2]
    return result


class TestCharting:
    def test_chart_contains_markers_and_legend(self):
        chart = render_chart(sample_experiment())
        assert "1 = alpha" in chart
        assert "2 = beta" in chart
        assert "1" in chart and "2" in chart
        assert "*" in chart  # saturated marker

    def test_chart_axes_labels(self):
        chart = render_chart(sample_experiment())
        assert "(rate)" in chart
        assert "(ms)" in chart

    def test_empty_experiment(self):
        result = ExperimentResult("E", "t", "x", "y")
        assert "(no data)" in render_chart(result)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            render_chart(sample_experiment(), width=4)
        with pytest.raises(ValueError):
            render_chart(sample_experiment(), height=2)

    def test_custom_metric(self):
        chart = render_chart(sample_experiment(),
                             metric=lambda r: r.throughput)
        assert "FigX" in chart

    def test_log_x_axis(self):
        chart = render_chart(sample_experiment(), log_x=True)
        assert "FigX" in chart

    def test_flat_series_does_not_crash(self):
        result = ExperimentResult("E", "t", "x", "y")
        s = Series("flat")
        s.points = [SeriesPoint(1, fake_results(0.05)),
                    SeriesPoint(2, fake_results(0.05))]
        result.series = [s]
        assert "flat" in render_chart(result)

    def test_nice_ticks_cover_range(self):
        ticks = _nice_ticks(0.0, 100.0, 4)
        assert ticks[0] >= 0.0
        assert ticks[-1] <= 100.0
        assert len(ticks) >= 2

    def test_nice_ticks_degenerate(self):
        assert _nice_ticks(5.0, 5.0) == [5.0]

    def test_chart_on_real_experiment(self):
        """End-to-end: chart a real (tiny) fig4_2 run via the registry."""
        from repro.experiments.api import ExperimentRunner, get_experiment
        spec = get_experiment("fig4_2")
        short = dataclasses.replace(spec.profile("fast"), duration=2.0)
        spec = dataclasses.replace(spec, profiles={"fast": short,
                                                   "full": short})
        result = ExperimentRunner().run_one(spec, "fast")
        chart = render_chart(result)
        assert "fig4_2" in chart


class TestExport:
    def test_results_to_dict_roundtrips_json(self):
        payload = results_to_dict(fake_results())
        text = json.dumps(payload)
        assert json.loads(text)["committed"] == 100

    def test_experiment_rows(self):
        rows = experiment_to_rows(sample_experiment())
        assert len(rows) == 5
        assert rows[0]["series"] == "alpha"
        assert rows[0]["x"] == 100
        assert rows[-1]["saturated"] is True

    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(sample_experiment(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert float(rows[0]["response_time_ms"]) == pytest.approx(10.0)

    def test_write_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(sample_experiment(), path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["experiment_id"] == "FigX"
        assert len(payload["series"]) == 2
        assert payload["series"][0]["points"][0]["x"] == 100
