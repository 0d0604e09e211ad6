"""Wall-clock measurement helpers matching the paper's protocol.

Section 4.1: "The measured time counts only a warm run, excluding
compilation, the one-time TensorFlow graph construction, etc. ... The
timings are best of five independent runs."  :func:`best_of` implements
exactly that: optional warmup executions (which also trigger our lazy
compilation), then the minimum over ``k`` timed repeats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Timing:
    """One measurement: best/all wall times plus the last return value."""

    best_seconds: float
    all_seconds: Tuple[float, ...]
    value: object


def timed(fn: Callable[[], T]) -> Tuple[float, T]:
    """One timed call: (seconds, value)."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def best_of(
    fn: Callable[[], T],
    k: int = 5,
    warmup: int = 1,
    budget_seconds: Optional[float] = None,
) -> Timing:
    """Best-of-``k`` timing after ``warmup`` unmeasured runs.

    ``budget_seconds`` caps total measurement time: once one repeat has
    completed, further repeats are skipped if the budget is exhausted (large
    batch sizes would otherwise make sweeps take hours; the minimum over
    fewer repeats is still an unbiased "best observed").
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for _ in range(warmup):
        fn()
    times = []
    value: object = None
    spent = 0.0
    for _ in range(k):
        seconds, value = timed(fn)
        times.append(seconds)
        spent += seconds
        if budget_seconds is not None and spent >= budget_seconds:
            break
    return Timing(best_seconds=min(times), all_seconds=tuple(times), value=value)
