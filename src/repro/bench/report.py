"""Plain-text rendering of benchmark results.

Everything the harness prints — and every ``results_*.md`` file that
:mod:`repro.bench.all` archives — goes through these helpers, so both stay
in the same format: GitHub-flavored markdown tables and simple log-scale
ASCII series charts (the offline stand-in for the paper's matplotlib
figures).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3g}"
        if magnitude >= 100:
            return f"{value:.0f}"
        return f"{value:.3g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A GitHub-flavored markdown table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts):
        return "| " + " | ".join(p.ljust(w) for p, w in zip(parts, widths)) + " |"
    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def format_series(
    x: Sequence[float],
    series: Dict[str, Sequence[Optional[float]]],
    x_label: str = "x",
    y_label: str = "y",
    width: int = 60,
    log_y: bool = True,
) -> str:
    """An ASCII chart: one row per x value, one bar-ish marker per series.

    Designed for the log-log sweeps of Figures 5 and 6: each series gets a
    marker letter placed at a position proportional to (log) y.
    """
    markers = "ABCDEFGHIJ"
    names = list(series)
    finite = [
        v
        for vs in series.values()
        for v in vs
        if v is not None and v > 0 and math.isfinite(v)
    ]
    if not finite:
        return "(no data)"
    lo, hi = min(finite), max(finite)
    if log_y:
        lo_t, hi_t = math.log10(lo), math.log10(hi)
    else:
        lo_t, hi_t = lo, hi
    span = max(hi_t - lo_t, 1e-12)

    def position(v: float) -> int:
        t = math.log10(v) if log_y else v
        return int(round((t - lo_t) / span * (width - 1)))

    legend = ", ".join(f"{markers[i]}={name}" for i, name in enumerate(names))
    lines = [f"{y_label} ({'log scale' if log_y else 'linear'}): {legend}"]
    x_width = max(len(_fmt(v)) for v in x) + 1
    for row_idx, xv in enumerate(x):
        canvas = [" "] * width
        for s_idx, name in enumerate(names):
            v = series[name][row_idx]
            if v is None or v <= 0 or not math.isfinite(v):
                continue
            pos = position(v)
            canvas[pos] = (
                markers[s_idx] if canvas[pos] == " " else "*"
            )  # overlap marker
        lines.append(f"{_fmt(xv).rjust(x_width)} |{''.join(canvas)}|")
    lines.append(f"{'':>{x_width}}  ({x_label} down, {y_label} across)")
    return "\n".join(lines)


def crossover(
    x: Sequence[float],
    line_a: Sequence[Optional[float]],
    line_b: Sequence[Optional[float]],
) -> Optional[float]:
    """First x where series A overtakes series B (linear interpolation).

    Used to extract the Section 4.1 claims ("matches Stan at a batch size of
    a few hundred — or just ten for XLA").  Returns None if A never catches B.
    """
    prev_gap = None
    prev_x = None
    for xi, a, b in zip(x, line_a, line_b):
        if a is None or b is None:
            continue
        gap = a - b
        if gap >= 0:
            if prev_gap is None or prev_gap >= 0:
                return float(xi)
            # Interpolate in log-x between the straddling points.
            frac = -prev_gap / (gap - prev_gap)
            return float(
                10 ** (math.log10(prev_x) + frac * (math.log10(xi) - math.log10(prev_x)))
            )
        prev_gap, prev_x = gap, xi
    return None
