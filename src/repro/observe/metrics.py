"""Windowed time-series metrics on the logical clock.

The serving loops sample per-tick gauges — queue depth, busy lanes,
preempted backlog, utilization — into bounded ring buffers, so a
long-running fleet keeps a sliding window of recent behavior at O(window)
memory instead of an unbounded log.  Samples are (tick, value) pairs;
because ticks are logical, the series from two identical runs are
identical, and ``to_json()`` is canonical enough to diff byte-for-byte.

Also home to :func:`nearest_rank`, the one percentile definition shared
by every layer (telemetry summaries, SLO tables, metric series): sorted
values, index ``ceil(q/100 * n) - 1``.  Nearest-rank always returns an
observed value and never interpolates, which keeps percentile lines
deterministic and comparable across runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple


def nearest_rank(values: Iterable[float], q: float) -> float:
    """Deterministic nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Returns ``0.0`` on an empty input, matching the telemetry convention
    of zero-on-empty-denominator everywhere else in the stack.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if q == 0:
        return float(ordered[0])
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[rank - 1])


class RingBuffer:
    """Fixed-capacity append-only buffer that drops its oldest entries.

    ``dropped`` counts evictions so reports can say how much history the
    window lost rather than silently truncating.
    """

    __slots__ = ("capacity", "dropped", "_data", "_start")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self.dropped = 0
        self._data: List[object] = []
        self._start = 0

    def __len__(self) -> int:
        return len(self._data)

    def append(self, item: object) -> None:
        if len(self._data) < self.capacity:
            self._data.append(item)
        else:
            self._data[self._start] = item
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1

    def items(self) -> List[object]:
        """Contents oldest-first."""
        return self._data[self._start:] + self._data[: self._start]


class MetricsRecorder:
    """Named per-tick gauge series in bounded windows.

    One recorder serves a whole fleet: engines record under
    ``shard<N>/...`` prefixes, the cluster under ``fleet/...``, a
    standalone engine unprefixed.  Every series shares the same window.
    """

    def __init__(self, window: int = 4096) -> None:
        self.window = int(window)
        self._series: Dict[str, RingBuffer] = {}

    def series(self, name: str) -> RingBuffer:
        """The (created-on-demand) buffer behind series ``name``.

        The serving hot paths cache this per engine and append ``(tick,
        value)`` tuples directly, skipping the per-sample name lookup;
        everyone else should go through :meth:`record`.
        """
        buf = self._series.get(name)
        if buf is None:
            buf = self._series[name] = RingBuffer(self.window)
        return buf

    def record(self, name: str, tick: int, value: float) -> None:
        """Append one (tick, value) sample to series ``name``."""
        self.series(name).append((int(tick), float(value)))

    def names(self) -> List[str]:
        """All series names, sorted."""
        return sorted(self._series)

    def samples(self, name: str) -> List[Tuple[int, float]]:
        """The (tick, value) samples of a series, oldest-first."""
        buf = self._series.get(name)
        return [] if buf is None else list(buf.items())  # type: ignore[arg-type]

    def values(self, name: str) -> List[float]:
        """Just the values of a series, oldest-first."""
        return [v for _, v in self.samples(name)]

    def dropped(self, name: str) -> int:
        """Samples evicted from a series' window so far."""
        buf = self._series.get(name)
        return 0 if buf is None else buf.dropped

    def mean(self, name: str) -> float:
        """Mean of a series' windowed values (0.0 if empty)."""
        vals = self.values(name)
        return sum(vals) / len(vals) if vals else 0.0

    def percentile(self, name: str, q: float) -> float:
        """Nearest-rank percentile of a series' windowed values."""
        return nearest_rank(self.values(name), q)

    def to_json(self) -> Dict[str, object]:
        """Canonical JSON-ready dict (sorted series, parallel arrays)."""
        series = {}
        for name in self.names():
            samples = self.samples(name)
            series[name] = {
                "dropped": self.dropped(name),
                "ticks": [t for t, _ in samples],
                "values": [v for _, v in samples],
            }
        return {"window": self.window, "series": series}

    def summary(self) -> str:
        """One line per series: last / mean / p50 / p99 / max over the window."""
        lines = []
        for name in self.names():
            vals = self.values(name)
            if not vals:
                continue
            line = (
                f"{name}: last={vals[-1]:g} mean={self.mean(name):.2f} "
                f"p50={self.percentile(name, 50):g} p99={self.percentile(name, 99):g} "
                f"max={max(vals):g} n={len(vals)}"
            )
            dropped = self.dropped(name)
            if dropped:
                line += f" dropped={dropped}"
            lines.append(line)
        return "\n".join(lines) if lines else "no metric samples"
