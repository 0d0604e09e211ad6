"""Lane bookkeeping for the serving engine.

The machine's batch dimension is a fixed pool of SIMD lanes; the pool
tracks which lane holds which in-flight request.  Vacant lanes are handed
out lowest-index-first so lane assignment — and therefore every masked
array operation downstream — is a deterministic function of the request
arrival order, which is what makes serving runs reproducible and
bit-comparable against static batches.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.serve.queue import ResultHandle


class LanePool:
    """Fixed pool of machine lanes with deterministic acquire order.

    Every count is kept by :meth:`acquire` / :meth:`release`, so each
    query is O(1).  ``handles`` (lane -> handle, None = vacant) and
    ``priorities`` (priority -> lanes running it) are read-only views.
    """

    def __init__(self, num_lanes: int):
        if num_lanes <= 0:
            raise ValueError(f"num_lanes must be positive, got {num_lanes}")
        self.num_lanes = int(num_lanes)
        self.handles: List[Optional[ResultHandle]] = [None] * self.num_lanes
        self.priorities: Dict[int, int] = {}
        self._free: List[int] = list(range(self.num_lanes))  # a min-heap
        self._busy: Optional[np.ndarray] = None  # None: rebuild on read

    # -- queries ------------------------------------------------------------

    def free_count(self) -> int:
        return len(self._free)

    def busy_count(self) -> int:
        return self.num_lanes - len(self._free)

    def busy_lanes(self) -> np.ndarray:
        """Indices of occupied lanes, ascending (a read-only array)."""
        if self._busy is None:
            self._busy = np.flatnonzero([h is not None for h in self.handles])
            self._busy.flags.writeable = False
        return self._busy

    # -- transitions --------------------------------------------------------

    def acquire(self, handle: ResultHandle) -> int:
        """Seat ``handle`` in the lowest vacant lane; returns the lane."""
        if not self._free:
            raise RuntimeError("no vacant lane; check free_count() before acquire()")
        lane = heapq.heappop(self._free)
        self.handles[lane] = handle
        self._busy = None
        priority = handle.request.priority
        self.priorities[priority] = self.priorities.get(priority, 0) + 1
        return lane

    def release(self, lane: int) -> ResultHandle:
        """Vacate ``lane``; returns the handle that occupied it."""
        handle = self.handles[lane]
        if handle is None:
            raise RuntimeError(f"lane {lane} is already vacant")
        self.handles[lane] = None
        heapq.heappush(self._free, int(lane))
        self._busy = None
        priority = handle.request.priority
        self.priorities[priority] -= 1
        if not self.priorities[priority]:
            del self.priorities[priority]
        return handle
