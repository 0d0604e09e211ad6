"""Batched per-variable stacks (paper Section 3 and Figure 3).

Storage layout: a data array of shape ``(D, Z, *event)`` plus a ``(Z,)``
vector of stack pointers, exactly as the paper describes ("we choose to give
each program variable its own stack (by extending the relevant array with
another dimension)").

:class:`BatchedStack` additionally implements the paper's optimization 4:
the *top* of each stack lives in a separate ``(Z, *event)`` cache array, so
repeated reads and in-place updates of the top cost a mask, not a gather or
scatter.  Gathers/scatters happen only at pushes and pops, where they are
unavoidable (stack depths differ across batch members).
:class:`UncachedBatchedStack` is the same structure *without* the cache —
every access gathers/scatters — used by the optimization-4 ablation.

Both classes use an *implicit base frame*: a freshly created stack has one
writable top (the cache / slot 0) at depth 0, so variables whose first write
is an in-place update need no initial push.

Stack-pointer arithmetic is table lookups.  A stack pointer is an integer in
``[0, D]``, and at serving widths a ufunc or reduction on a ``(Z,)`` integer
array costs 0.7-2 us where a fancy-index load costs 0.15-0.25 us, so each
stack builds three ``(D + 1,)`` tables once: ``_inc[k] = k + 1``,
``_dec[k] = max(k - 1, 0)`` (the non-strict pop's clamp at the base frame)
and the boolean ``_reached[k]`` ("some lane has held ``k`` saved frames"),
whose last set entry is ``high_water``.  A push or pop is then gathers and
scatters only.

The bounds check *is* the overflow check.  The data array has exactly as
many rows as a lane may save frames (``D``; ``D + 1`` slots uncached), so a
push from a full lane indexes one row past the end — and numpy validates
every index of a fancy assignment before it writes any element.  The
``IndexError`` of that first scatter is re-raised as
:class:`StackOverflowError` with ``sp``, ``data`` and ``cache`` untouched,
for the lanes of ``idx`` that had room too: as exact as the ``sp.max()``
comparison it replaces, and free on the pushes that fit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class StackOverflowError(RuntimeError):
    """A batch member exceeded the static stack depth limit D."""


class StackUnderflowError(RuntimeError):
    """A pop on an empty stack in strict mode (indicates a compiler bug)."""


def _overflow(depth: int) -> StackOverflowError:
    return StackOverflowError(
        f"stack depth limit D={depth} exceeded; increase max_stack_depth"
    )


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


def _pointer_tables(depth: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(_inc, _dec, _reached)`` for stack pointers in ``[0, depth]``."""
    steps = np.arange(depth + 1)
    return steps + 1, np.maximum(steps - 1, 0), steps == 0


class BatchedStack:
    """Top-cached batched stack (optimization 4 ON).

    ``sp[b]`` counts the *saved* frames of member ``b`` below the cached
    top; the logical depth of the stack is ``sp[b] + 1`` (the implicit base
    frame).  The cache is authoritative for the top; ``data[0:sp[b], b]``
    holds the frames beneath it.
    """

    caching = True

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
        self.data = np.zeros((self.depth, self.batch_size) + self.event_shape, self.dtype)
        self.cache = np.zeros((self.batch_size,) + self.event_shape, self.dtype)
        self.sp = np.zeros(self.batch_size, dtype=np.int64)
        self._inc, self._dec, self._reached = _pointer_tables(self.depth)

    @property
    def high_water(self) -> int:
        """Highest saved-frame count any lane ever reached (machine lifetime,
        not reset by lane recycling).  The logical peak depth is
        ``high_water + 1``; the verifier's static bound is checked against
        this exact observable in the depth-equality tests."""
        return int(self._reached.nonzero()[0][-1])

    # -- reads -------------------------------------------------------------

    def read(self) -> np.ndarray:
        """Top values for all members (free: the cache itself)."""
        return self.cache

    def read_at(self, idx: np.ndarray) -> np.ndarray:
        """Top values gathered for the members in ``idx``."""
        return self.cache[idx]

    # -- masked operations ----------------------------------------------------

    def update(self, mask: np.ndarray, values: np.ndarray) -> None:
        """In-place update of the top for members where ``mask`` holds."""
        masked_assign(self.cache, mask, np.asarray(values))

    def push(self, mask: np.ndarray, values: np.ndarray) -> None:
        """Push ``values`` for members where ``mask`` holds (scatter)."""
        idx = np.flatnonzero(mask)
        self.push_at(idx, np.asarray(values)[idx])

    def pop(self, mask: np.ndarray) -> np.ndarray:
        """Pop for members where ``mask`` holds; returns the popped tops.

        The returned array is full-batch-sized; lanes outside ``mask`` carry
        their (unpopped) current tops.
        """
        popped = self.cache.copy()
        idx = np.flatnonzero(mask)
        self.pop_at(idx)
        return popped

    # -- gathered (index-based) operations ---------------------------------

    def update_at(self, idx: np.ndarray, values: np.ndarray) -> None:
        self.cache[idx] = values

    def push_at(self, idx: np.ndarray, values: np.ndarray) -> None:
        sp = self.sp[idx]
        # Spill the cached top into its slot, then cache the new values.  A
        # full lane's slot is row D of D: the scatter raises before writing.
        try:
            self.data[sp, idx] = self.cache[idx]
        except IndexError:
            raise _overflow(self.depth) from None
        sp = self._inc[sp]
        self.sp[idx] = sp
        self._reached[sp] = True
        self.cache[idx] = values

    def pop_at(self, idx: np.ndarray) -> np.ndarray:
        """Pop for members in ``idx``; returns their popped top values."""
        popped = self.cache[idx]
        self.drop_at(idx)
        return popped

    def drop_at(self, idx: np.ndarray) -> None:
        """Pop for members in ``idx`` without gathering the popped tops."""
        sp = self.sp[idx]
        if self.strict and np.any(sp <= 0):
            raise StackUnderflowError("pop on empty stack")
        new_sp = self._dec[sp]
        self.cache[idx] = self.data[new_sp, idx]
        self.sp[idx] = new_sp

    # -- lane lifecycle -----------------------------------------------------

    def reset_lanes(self, idx: np.ndarray, top: Optional[np.ndarray] = None) -> None:
        """Return the lanes in ``idx`` to the freshly-constructed state.

        The lane's saved frames are zeroed, its stack pointer drops to the
        implicit base frame, and its cached top becomes ``top`` (or zero).
        Used by the serving engine to recycle a lane for a new request.
        """
        if idx.size == 0:
            return
        self.sp[idx] = 0
        self.data[:, idx] = 0
        self.cache[idx] = 0 if top is None else top

    def restore_lane(self, lane: int, frames: np.ndarray) -> None:
        """Reinstall one lane from its logical frames (see :meth:`frames`).

        ``frames`` is a ``(depth, *event)`` array, bottom to top; the last
        row becomes the live top.  The frame representation is
        layout-independent, so a snapshot taken from a cached stack restores
        into an uncached one (and vice versa) — lane checkpoint/resume for
        the serving engine's preemption.  Slots above the restored depth are
        zeroed, so the lane is observationally identical to one that pushed
        exactly these frames.
        """
        frames = np.asarray(frames, dtype=self.dtype)
        sp = frames.shape[0] - 1
        if sp > self.depth:
            raise StackOverflowError(
                f"lane snapshot holds {sp} saved frames but this stack's "
                f"depth limit is D={self.depth}; increase max_stack_depth"
            )
        self.data[:, lane] = 0
        self.sp[lane] = sp
        self._reached[sp] = True
        if sp:
            self.data[:sp, lane] = frames[:-1]
        self.cache[lane] = frames[-1]

    # -- inspection -----------------------------------------------------------

    def depths(self) -> np.ndarray:
        """Logical depth per member (saved frames + the live top)."""
        return self.sp + 1

    def frames(self, member: int) -> np.ndarray:
        """All live frames of one member, bottom to top (for snapshots)."""
        saved = self.data[: self.sp[member], member]
        return np.concatenate([saved, self.cache[None, member]], axis=0)


class UncachedBatchedStack:
    """The same stack without the top cache (optimization 4 OFF).

    Every read gathers ``data[sp[b], b]`` and every update scatters — the
    cost the paper's optimization 4 exists to avoid.  Allocates ``D + 1``
    slots so depth counting matches :class:`BatchedStack`.
    """

    caching = False

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
        self.sp = np.zeros(self.batch_size, dtype=np.int64)
        self._lanes = np.arange(self.batch_size)
        self._inc, self._dec, self._reached = _pointer_tables(self.depth)

    high_water = BatchedStack.high_water

    def read(self) -> np.ndarray:
        return self.data[self.sp, self._lanes]

    def read_at(self, idx: np.ndarray) -> np.ndarray:
        return self.data[self.sp[idx], idx]

    def update(self, mask: np.ndarray, values: np.ndarray) -> None:
        idx = np.flatnonzero(mask)
        self.update_at(idx, np.asarray(values)[idx])

    def update_at(self, idx: np.ndarray, values: np.ndarray) -> None:
        self.data[self.sp[idx], idx] = values

    def push(self, mask: np.ndarray, values: np.ndarray) -> None:
        idx = np.flatnonzero(mask)
        self.push_at(idx, np.asarray(values)[idx])

    def push_at(self, idx: np.ndarray, values: np.ndarray) -> None:
        sp = self._inc[self.sp[idx]]
        # A full lane's new slot is row D + 1 of D + 1: raises before writing.
        try:
            self.data[sp, idx] = values
        except IndexError:
            raise _overflow(self.depth) from None
        self.sp[idx] = sp
        self._reached[sp] = True

    def pop(self, mask: np.ndarray) -> np.ndarray:
        popped = self.read()
        self.pop_at(np.flatnonzero(mask))
        return popped

    def pop_at(self, idx: np.ndarray) -> np.ndarray:
        popped = self.data[self.sp[idx], idx]
        self.drop_at(idx)
        return popped

    def drop_at(self, idx: np.ndarray) -> None:
        sp = self.sp[idx]
        if self.strict and np.any(sp <= 0):
            raise StackUnderflowError("pop on empty stack")
        self.sp[idx] = self._dec[sp]

    def reset_lanes(self, idx: np.ndarray, top: Optional[np.ndarray] = None) -> None:
        """Return the lanes in ``idx`` to the freshly-constructed state."""
        if idx.size == 0:
            return
        self.sp[idx] = 0
        self.data[:, idx] = 0
        if top is not None:
            self.data[0, idx] = top

    def restore_lane(self, lane: int, frames: np.ndarray) -> None:
        """Reinstall one lane from its logical frames (see :meth:`frames`)."""
        frames = np.asarray(frames, dtype=self.dtype)
        sp = frames.shape[0] - 1
        if sp > self.depth:
            raise StackOverflowError(
                f"lane snapshot holds {sp} saved frames but this stack's "
                f"depth limit is D={self.depth}; increase max_stack_depth"
            )
        self.data[:, lane] = 0
        self.sp[lane] = sp
        self._reached[sp] = True
        self.data[: sp + 1, lane] = frames

    def depths(self) -> np.ndarray:
        return self.sp + 1

    def frames(self, member: int) -> np.ndarray:
        return self.data[: self.sp[member] + 1, member]
