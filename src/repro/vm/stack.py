"""Batched per-variable stacks (paper Section 3 and Figure 3).

Storage layout: a data array of shape ``(D + 1, Z, *event)`` plus a stack
pointer per batch member, exactly as the paper describes ("we choose to give
each program variable its own stack (by extending the relevant array with
another dimension)").  The live top is a row like any other: reads gather
it and updates scatter into it.

There is one stack class.  The paper's optimization 4 keeps each top in a
separate ``(Z, *event)`` cache so that reads and updates of the top cost a
mask instead of a gather or scatter.  It was measured here and dropped:
every fused block is compact, so every read is ``read_at(idx)`` — a gather
with or without the cache — and the cache only added a spill to each push
and a refill to each pop.  Wall clock on a 2-core container (numpy 2.4):
cached over uncached on fused ``fib`` was 0.98x at 16 lanes and 0.96x at
4,096, and without the cache a 128-chain NUTS batch ran 1.03x as fast.

The stack has an *implicit base frame*: a freshly created stack has one
writable top (row 0) at depth 0, so variables whose first write is an
in-place update need no initial push.

A stack pointer is a flat address.  Each lane keeps ``_fp[b] = sp[b] * Z
+ b``, the index of its live top in ``_rows``, the row view
``data.reshape((-1,) + event)``, so a push or pop is a 1-D gather and
scatter on ``_rows`` where a ``data[sp, idx]`` two-array fancy index costs
2.5-8x as much (numpy 2.4, 16 to 4,096 lanes).  A push adds ``Z``; a pop
subtracts ``Z`` and clamps at the lane's own base row ``b``
(``np.maximum(f, idx)``: the non-strict pop, which at the base leaves the
lane's top unchanged).  ``sp`` is derived (``_fp // Z``) for inspection
only, and the boolean ``_reached`` table, one entry per flat address,
marks every row a push reached: its last set entry, divided by ``Z``, is
``high_water``.

The bounds check *is* the overflow check.  ``_rows`` holds exactly the
``(D + 1) * Z`` rows the lanes may occupy, so a push from a full lane
addresses a row past the end — and numpy validates every index of a fancy
assignment before it writes any element.  The ``IndexError`` of that
scatter is re-raised as :class:`StackOverflowError` with ``_fp`` and
``data`` untouched, for the lanes of ``idx`` that had room too: free on
the pushes that fit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class StackOverflowError(RuntimeError):
    """A batch member exceeded the static stack depth limit D."""


class StackUnderflowError(RuntimeError):
    """A pop on an empty stack in strict mode (indicates a compiler bug)."""


def masked_assign(arr: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
    """``arr[b] = values[b]`` for the members ``b`` where ``mask`` holds.

    ``np.putmask`` is the lean spelling, but it repeats a shorter ``values``
    and force-casts its dtype, so it takes only the exact-match scalar-event
    case; anything else broadcasts (and casts ``same_kind``) through
    ``copyto`` under the ``(Z,)`` mask right-padded to ``arr``'s rank.
    """
    if arr.ndim == 1 and values.shape == arr.shape and values.dtype == arr.dtype:
        np.putmask(arr, mask, values)
    else:
        np.copyto(arr, values, where=mask.reshape(mask.shape + (1,) * (arr.ndim - 1)))


class BatchedStack:
    """A batched stack: ``Z`` independent stacks of up to ``D + 1`` frames.

    ``sp[b]`` counts the *saved* frames of member ``b`` below its live top;
    the logical depth of the stack is ``sp[b] + 1`` (the implicit base
    frame).  ``data[0:sp[b] + 1, b]`` holds the frames bottom to top, and
    ``_fp[b]`` addresses the top.
    """

    def __init__(
        self,
        batch_size: int,
        depth: int,
        event_shape: Tuple[int, ...] = (),
        dtype: str = "float64",
        strict: bool = False,
    ):
        self.batch_size = int(batch_size)
        self.depth = int(depth)
        self.event_shape = tuple(event_shape)
        self.dtype = np.dtype(dtype)
        self.strict = strict
        self.data = np.zeros(
            (self.depth + 1, self.batch_size) + self.event_shape, self.dtype
        )
        self._rows = self.data.reshape((-1,) + self.event_shape)
        self._fp = np.arange(self.batch_size)
        # Z as a 0-d array: the scalar operand a ufunc takes fastest.
        self._z = np.array(self.batch_size)
        self._reached = np.zeros(self._rows.shape[0], dtype=bool)
        self._reached[:1] = True

    def promote(self, dtype: np.dtype) -> None:
        """Widen the stack to hold ``dtype`` values (data and row view)."""
        self.dtype = np.dtype(dtype)
        self.data = self.data.astype(self.dtype)
        self._rows = self.data.reshape((-1,) + self.event_shape)

    @property
    def sp(self) -> np.ndarray:
        """Saved frames per member, derived from the flat pointers."""
        return self._fp // self.batch_size

    @property
    def high_water(self) -> int:
        """Highest saved-frame count any lane ever reached (machine lifetime,
        not reset by lane recycling).  The logical peak depth is
        ``high_water + 1``; the verifier's static bound is checked against
        this exact observable in the depth-equality tests."""
        return int(np.flatnonzero(self._reached)[-1]) // self.batch_size

    def _lowered(self, idx: np.ndarray) -> np.ndarray:
        """The flat pointers of ``idx`` one frame down, clamped at the base."""
        f = self._fp[idx]
        if self.strict and np.any(f < self._z):
            raise StackUnderflowError("pop on empty stack")
        f -= self._z
        np.maximum(f, idx, out=f)
        return f

    # -- reads -------------------------------------------------------------

    def read(self) -> np.ndarray:
        """Top values for all members (a gather)."""
        return self._rows[self._fp]

    def read_at(self, idx: np.ndarray) -> np.ndarray:
        """Top values gathered for the members in ``idx``."""
        return self._rows[self._fp[idx]]

    # -- masked operations ----------------------------------------------------

    def update(self, mask: np.ndarray, values: np.ndarray) -> None:
        """In-place update of the top for members where ``mask`` holds."""
        idx = np.flatnonzero(mask)
        self.update_at(idx, np.asarray(values)[idx])

    def push(self, mask: np.ndarray, values: np.ndarray) -> None:
        """Push ``values`` for members where ``mask`` holds (scatter)."""
        idx = np.flatnonzero(mask)
        self.push_at(idx, np.asarray(values)[idx])

    def pop(self, mask: np.ndarray) -> np.ndarray:
        """Pop for members where ``mask`` holds; returns the popped tops.

        The returned array is full-batch-sized; lanes outside ``mask`` carry
        their (unpopped) current tops.
        """
        popped = self.read()
        self.drop_at(np.flatnonzero(mask))
        return popped

    # -- gathered (index-based) operations ---------------------------------

    def update_at(self, idx: np.ndarray, values: np.ndarray) -> None:
        self._rows[self._fp[idx]] = values

    def push_at(self, idx: np.ndarray, values: np.ndarray) -> None:
        f = self._fp[idx]
        f += self._z
        # A full lane's new row is past (D + 1) * Z: raises before writing.
        try:
            self._rows[f] = values
        except IndexError:
            raise StackOverflowError(
                f"stack depth limit D={self.depth} exceeded; "
                "increase max_stack_depth"
            ) from None
        self._fp[idx] = f
        self._reached[f] = True

    def pop_at(self, idx: np.ndarray) -> np.ndarray:
        """Pop for members in ``idx``; returns their popped top values."""
        popped = self.read_at(idx)
        self.drop_at(idx)
        return popped

    def drop_at(self, idx: np.ndarray) -> None:
        """Pop for members in ``idx`` without gathering the popped tops."""
        self._fp[idx] = self._lowered(idx)

    # -- lane lifecycle -----------------------------------------------------

    def reset_lanes(self, idx: np.ndarray, top: Optional[np.ndarray] = None) -> None:
        """Return the lanes in ``idx`` to the freshly-constructed state.

        The lane's frames are zeroed, its stack pointer drops to the
        implicit base frame, and its top becomes ``top`` (or zero).  Used
        by the serving engine to recycle a lane for a new request.
        """
        if idx.size == 0:
            return
        self._fp[idx] = idx
        self.data[:, idx] = 0
        if top is not None:
            self._rows[idx] = top

    def restore_lane(self, lane: int, frames: np.ndarray) -> None:
        """Reinstall one lane from its logical frames (see :meth:`frames`).

        ``frames`` is a ``(depth, *event)`` array, bottom to top; the last
        row becomes the live top — lane checkpoint/resume for the serving
        engine's preemption.  Slots above the restored depth are zeroed, so
        the lane is observationally identical to one that pushed exactly
        these frames.
        """
        frames = np.asarray(frames, dtype=self.dtype)
        sp = frames.shape[0] - 1
        if sp > self.depth:
            raise StackOverflowError(
                f"lane snapshot holds {sp} saved frames but this stack's "
                f"depth limit is D={self.depth}; increase max_stack_depth"
            )
        self.data[:, lane] = 0
        self._fp[lane] = sp * self.batch_size + lane
        self._reached[self._fp[lane]] = True
        self.data[: sp + 1, lane] = frames

    # -- inspection -----------------------------------------------------------

    def depths(self) -> np.ndarray:
        """Logical depth per member (saved frames + the live top)."""
        return self.sp + 1

    def frames(self, member: int) -> np.ndarray:
        """A copy of one member's live frames, bottom to top (for snapshots)."""
        return self.data[: self._fp[member] // self.batch_size + 1, member].copy()
