"""Block-selection heuristics (the paper's "second significant free choice").

As long as no block starves, any selection criterion is correct; the paper's
Algorithms 1 and 2 encode "always run the earliest available block in program
order", which is "(relatively) predictable by the user".  We additionally
implement two refinements the paper alludes to, for the scheduler ablation:
pick the block with the most waiting members (greedy utilization), or
round-robin through blocks (bounded starvation by construction).
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


class RegionScheduler:
    """Prefer entry blocks whose superblock run covers the most waiting lanes.

    Built for the superblock executor (``executor="superblock"``): the
    machine hands this scheduler the executor's
    :class:`~repro.backend.regions.RegionTable` via :meth:`set_regions`,
    and each select scores every waiting block by ``waiting_lanes *
    run_length`` — the lane-steps one dispatch through that block's run
    could retire — with ties going to the earliest block.  Without a
    region table (any other executor) the scoring degrades to
    most-active-with-earliest-ties.

    Starvation guard: a block that has been passed over ``max_defer``
    consecutive selects is chosen unconditionally (earliest first among
    the overdue), so side-exit blocks — which rarely front a long run —
    still make progress no matter how hot the region entries stay.  That
    keeps the correctness property the paper requires of any selection
    criterion: no waiting block is deferred forever.
    """

    name = "region"

    def __init__(self, max_defer: int = 8):
        if max_defer < 1:
            raise ValueError(f"max_defer must be >= 1, got {max_defer}")
        self.max_defer = int(max_defer)
        self._lengths: dict = {}
        self._age: dict = {}

    def set_regions(self, table) -> None:
        """Install the executor's region table (None clears it)."""
        if table is None:
            self._lengths = {}
        else:
            self._lengths = {
                i: len(chain) for i, chain in enumerate(table.chains)
            }

    def select(self, pcs: np.ndarray, exit_index: int) -> Optional[int]:
        live = pcs[pcs < exit_index]
        if live.size == 0:
            return None
        blocks, counts = np.unique(live, return_counts=True)
        overdue = [
            int(b) for b in blocks if self._age.get(int(b), 0) >= self.max_defer
        ]
        if overdue:
            choice = min(overdue)
        else:
            lengths = self._lengths
            choice = None
            best = None
            for b, c in zip(blocks, counts):
                b = int(b)
                key = (-int(c) * lengths.get(b, 1), b)
                if best is None or key < best:
                    best = key
                    choice = b
        age = self._age
        for b in blocks:
            b = int(b)
            age[b] = 0 if b == choice else age.get(b, 0) + 1
        return choice

    def reset(self) -> None:
        self._age = {}


_SCHEDULERS = {
    "earliest": EarliestBlockScheduler,
    "most_active": MostActiveScheduler,
    "round_robin": RoundRobinScheduler,
    "region": RegionScheduler,
}


def make_scheduler(spec) -> object:
    """Accepts a scheduler name, class, or instance."""
    if isinstance(spec, str):
        try:
            return _SCHEDULERS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown scheduler {spec!r}; options: {sorted(_SCHEDULERS)}"
            )
    if isinstance(spec, type):
        return spec()
    return spec
