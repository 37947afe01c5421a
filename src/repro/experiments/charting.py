"""ASCII line charts for experiment results.

The paper presents its results as x/y plots (response time over arrival
rate or buffer size).  :func:`render_chart` draws an
:class:`~repro.experiments.runner.ExperimentResult` as a terminal line
chart so the figures can be eyeballed without a plotting stack: it uses
the standard library only.

Example output (Fig. 4.1 shape)::

    ms
    120.0 |                                    1
          |                               1
     80.0 |                         1
          |              1
     40.0 | 4#2=3============2========3========4
          +-------------------------------------
            10        200       500        700   TPS
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.core.metrics import Results
from repro.experiments.runner import ExperimentResult

__all__ = ["render_chart"]

#: Series markers, assigned in order; collisions show the later marker.
_MARKERS = "123456789"


def _nice_ticks(low: float, high: float, count: int = 4) -> List[float]:
    """A few round tick values covering [low, high]."""
    if high <= low:
        return [low]
    span = high - low
    step = 10 ** math.floor(math.log10(span / max(count, 1)))
    for factor in (1, 2, 5, 10):
        if span / (step * factor) <= count:
            step *= factor
            break
    first = math.ceil(low / step) * step
    ticks = []
    value = first
    while value <= high + 1e-12:
        ticks.append(value)
        value += step
    return ticks or [low]


def render_chart(result: ExperimentResult,
                 metric: Optional[Callable[[Results], float]] = None,
                 width: int = 64, height: int = 16,
                 log_x: bool = False) -> str:
    """Render the experiment's series as an ASCII line chart.

    ``metric`` defaults to mean response time in milliseconds.
    Saturated points are drawn as ``*`` regardless of series marker.
    """
    if metric is None:
        metric = lambda r: r.response_time_ms  # noqa: E731
    if width < 16 or height < 4:
        raise ValueError("chart needs width >= 16 and height >= 4")

    points = []  # (x, y, marker, saturated)
    for index, series in enumerate(result.series):
        marker = _MARKERS[index % len(_MARKERS)]
        for point in series.points:
            points.append((point.x, metric(point.results), marker,
                           point.saturated))
    if not points:
        return f"{result.experiment_id}: (no data)"

    def x_transform(x: float) -> float:
        return math.log10(x) if log_x and x > 0 else x

    xs = [x_transform(p[0]) for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if y_high == y_low:
        y_high = y_low + 1.0
    if x_high == x_low:
        x_high = x_low + 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        frac = (x_transform(x) - x_low) / (x_high - x_low)
        return min(width - 1, max(0, int(round(frac * (width - 1)))))

    def to_row(y: float) -> int:
        frac = (y - y_low) / (y_high - y_low)
        return min(height - 1,
                   max(0, height - 1 - int(round(frac * (height - 1)))))

    # Connect consecutive points of each series with interpolation.
    for index, series in enumerate(result.series):
        marker = _MARKERS[index % len(_MARKERS)]
        pts = [(p.x, metric(p.results), p.saturated)
               for p in series.points]
        for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:]):
            c0, c1 = to_col(x0), to_col(x1)
            if c1 <= c0:
                continue
            for col in range(c0, c1 + 1):
                frac = (col - c0) / (c1 - c0)
                y = y0 + (y1 - y0) * frac
                row = to_row(y)
                if grid[row][col] == " ":
                    grid[row][col] = "."
        for x, y, saturated in pts:
            grid[to_row(y)][to_col(x)] = "*" if saturated else marker

    # Assemble with a y-axis.
    y_ticks = {to_row(t): t for t in _nice_ticks(y_low, y_high, height // 4)
               if y_low <= t <= y_high}
    lines = [f"{result.experiment_id}: {result.title}"]
    for index, series in enumerate(result.series):
        marker = _MARKERS[index % len(_MARKERS)]
        lines.append(f"  {marker} = {series.label}")
    lines.append(f"({result.y_label})")
    for row in range(height):
        tick = y_ticks.get(row)
        label = f"{tick:10.1f} |" if tick is not None else " " * 10 + " |"
        lines.append(label + "".join(grid[row]))
    lines.append(" " * 11 + "+" + "-" * width)
    x_tick_line = [" "] * (width + 12)
    for tick in _nice_ticks(x_low, x_high, 5):
        raw = 10 ** tick if log_x else tick
        col = 12 + min(width - 1, max(0, int(round(
            (tick - x_low) / (x_high - x_low) * (width - 1)
        ))))
        text = f"{raw:g}"
        for offset, char in enumerate(text):
            pos = col + offset
            if pos < len(x_tick_line):
                x_tick_line[pos] = char
    lines.append("".join(x_tick_line) + f"  ({result.x_label})")
    return "\n".join(lines)
