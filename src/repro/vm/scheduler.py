"""Block-selection heuristics (the paper's "second significant free choice").

As long as no block starves, any selection criterion is correct; the paper's
Algorithms 1 and 2 encode "always run the earliest available block in program
order", which is "(relatively) predictable by the user".  We additionally
implement two refinements the paper alludes to, for the scheduler ablation:
pick the block with the most waiting members (greedy utilization), or
round-robin through blocks (bounded starvation by construction).  These
three are the whole registry, and none takes parameters, so a name
rebuilds any of them exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class EarliestBlockScheduler:
    """Always run the earliest (lowest-index) block with any waiting member."""

    name = "earliest"

    def select(self, pcs: np.ndarray, exit_index: int) -> Optional[int]:
        # argmin + one element load: a quarter of ``pcs.min()``'s cost
        lowest = int(pcs[pcs.argmin()])
        return None if lowest >= exit_index else lowest

    def reset(self) -> None:
        pass


class MostActiveScheduler:
    """Run the block with the most waiting members (ties -> earliest)."""

    name = "most_active"

    def select(self, pcs: np.ndarray, exit_index: int) -> Optional[int]:
        live = pcs[pcs < exit_index]
        if live.size == 0:
            return None
        counts = np.bincount(live)
        return int(np.argmax(counts))

    def reset(self) -> None:
        pass


class RoundRobinScheduler:
    """Cycle through block indices, running each that has waiting members."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, pcs: np.ndarray, exit_index: int) -> Optional[int]:
        live = np.unique(pcs[pcs < exit_index])
        if live.size == 0:
            return None
        later = live[live >= self._cursor]
        choice = int(later[0]) if later.size else int(live[0])
        self._cursor = choice + 1
        return choice

    def reset(self) -> None:
        self._cursor = 0


_SCHEDULERS = {
    "earliest": EarliestBlockScheduler,
    "most_active": MostActiveScheduler,
    "round_robin": RoundRobinScheduler,
}


def scheduler_name(spec) -> str:
    """The registered name of a scheduler name, class, or instance.

    What a serving configuration records: every registered scheduler is
    parameter-free, so its name rebuilds it exactly, and each machine
    builds its own instance instead of sharing one's state.
    """
    if isinstance(spec, str):
        name = spec
    else:
        cls = spec if isinstance(spec, type) else type(spec)
        name = next((n for n, c in _SCHEDULERS.items() if c is cls), None)
    if name not in _SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {spec!r}; known: {sorted(_SCHEDULERS)}"
        )
    return name


def make_scheduler(spec) -> object:
    """Accepts a scheduler name, class, or instance."""
    if isinstance(spec, str):
        return _SCHEDULERS[scheduler_name(spec)]()
    if isinstance(spec, type):
        return spec()
    return spec
