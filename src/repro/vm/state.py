"""Variable storage for the batched machines.

Three storage classes mirror the :class:`~repro.ir.instructions.VarKind`
analysis: temporaries live in a per-block-execution dict managed by the VM;
registers are flat ``(Z, *event)`` arrays with masked updates; stacked
variables own a :class:`~repro.vm.stack.BatchedStack`.

Storage is allocated lazily on first write, inferring dtype and event shape
from the written value (the runtime analog of XLA's static shape inference:
once allocated, the event shape is fixed and mismatches are errors; dtypes
may only widen).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.vm.stack import BatchedStack, masked_assign


class UninitializedRead(RuntimeError):
    """A variable was read before any batch member wrote it."""


class RegisterStorage:
    """A flat batched array with masked (or scattered) updates, no stack."""

    def __init__(self, name: str, batch_size: int):
        self.name = name
        self.batch_size = batch_size
        self.array: Optional[np.ndarray] = None

    def _ensure(self, event_shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """The array, allocated or promoted to hold ``dtype`` values."""
        arr = self.array
        if arr is not None and arr.dtype == dtype and arr.shape[1:] == event_shape:
            return arr
        if arr is None:
            self.array = np.zeros((self.batch_size,) + event_shape, dtype=dtype)
        elif arr.shape[1:] != event_shape:
            raise ValueError(
                f"variable {self.name!r}: event shape changed from "
                f"{arr.shape[1:]} to {event_shape}"
            )
        elif not np.can_cast(dtype, arr.dtype, casting="same_kind"):
            self.array = arr.astype(np.promote_types(arr.dtype, dtype))
        return self.array

    def read(self) -> np.ndarray:
        if self.array is None:
            raise UninitializedRead(f"variable {self.name!r} read before assignment")
        return self.array

    def read_at(self, idx: np.ndarray) -> np.ndarray:
        return self.read()[idx]

    def write(self, mask: np.ndarray, value: np.ndarray) -> None:
        value = np.asarray(value)
        masked_assign(self._ensure(value.shape[1:], value.dtype), mask, value)

    def write_at(self, idx: np.ndarray, value_gathered: np.ndarray) -> None:
        value_gathered = np.asarray(value_gathered)
        arr = self._ensure(value_gathered.shape[1:], value_gathered.dtype)
        arr[idx] = value_gathered

    def reset_lanes(self, idx: np.ndarray) -> None:
        """Zero the lanes in ``idx``, as if they were freshly allocated."""
        if self.array is not None and idx.size:
            self.array[idx] = 0

    # -- lane checkpoint/resume (serving-engine preemption) ------------------

    def capture_lane(self, lane: int) -> Optional[np.ndarray]:
        """One lane's value as an array, or None while the storage is
        unallocated.  Indexing with ``...`` keeps a ``(Z,)`` register's
        lane a 0-d array, where a plain index would hand back the bare
        element — a Python object, under object dtype."""
        if self.array is None:
            return None
        return self.array[lane, ...].copy()

    def restore_lane(self, lane: int, value: Optional[np.ndarray]) -> None:
        """Reinstall a captured lane value, allocating storage if needed."""
        if value is None:
            if self.array is not None:
                self.array[lane] = 0
            return
        value = np.asarray(value)
        arr = self._ensure(value.shape, value.dtype)
        # Through a view, so a 0-d object value stores its element, not
        # itself.
        arr[lane, ...] = value


class StackedStorage:
    """Storage backed by a batched stack; allocation deferred to first write."""

    def __init__(self, name: str, batch_size: int, depth: int):
        self.name = name
        self.batch_size = batch_size
        self.depth = depth
        self.stack: Optional[BatchedStack] = None
        # Pre-write pushes must be replayed once shape/dtype are known: a
        # push of value v onto a virgin stack is just "depth += 1; top = v",
        # which allocation-on-first-write handles naturally because pushes
        # always carry the value.

    def _ensure(self, event_shape: Tuple[int, ...], dtype: np.dtype):
        """The stack, allocated or promoted to hold ``dtype`` values."""
        stack = self.stack
        if (
            stack is not None
            and stack.dtype == dtype
            and stack.event_shape == event_shape
        ):
            return stack
        if stack is None:
            stack = self.stack = BatchedStack(
                batch_size=self.batch_size,
                depth=self.depth,
                event_shape=event_shape,
                dtype=dtype,
            )
        elif stack.event_shape != event_shape:
            raise ValueError(
                f"variable {self.name!r}: event shape changed from "
                f"{stack.event_shape} to {event_shape}"
            )
        elif not np.can_cast(dtype, stack.dtype, casting="same_kind"):
            stack.promote(np.promote_types(stack.dtype, dtype))
        return stack

    def read(self) -> np.ndarray:
        if self.stack is None:
            raise UninitializedRead(f"variable {self.name!r} read before assignment")
        return self.stack.read()

    def read_at(self, idx: np.ndarray) -> np.ndarray:
        if self.stack is None:
            raise UninitializedRead(f"variable {self.name!r} read before assignment")
        return self.stack.read_at(idx)

    def write(self, mask: np.ndarray, value: np.ndarray) -> None:
        value = np.asarray(value)
        self._ensure(value.shape[1:], value.dtype).update(mask, value)

    def write_at(self, idx: np.ndarray, value_gathered: np.ndarray) -> None:
        value_gathered = np.asarray(value_gathered)
        self._ensure(value_gathered.shape[1:], value_gathered.dtype).update_at(
            idx, value_gathered
        )

    def push(self, mask: np.ndarray, value: np.ndarray) -> None:
        value = np.asarray(value)
        self._ensure(value.shape[1:], value.dtype).push(mask, value)

    def push_at(self, idx: np.ndarray, value_gathered: np.ndarray) -> None:
        value_gathered = np.asarray(value_gathered)
        self._ensure(value_gathered.shape[1:], value_gathered.dtype).push_at(
            idx, value_gathered
        )

    def pop(self, mask: np.ndarray) -> None:
        if self.stack is None:
            raise UninitializedRead(f"variable {self.name!r} popped before assignment")
        self.stack.drop_at(np.flatnonzero(mask))

    def pop_at(self, idx: np.ndarray) -> None:
        if self.stack is None:
            raise UninitializedRead(f"variable {self.name!r} popped before assignment")
        self.stack.drop_at(idx)

    def reset_lanes(self, idx: np.ndarray) -> None:
        """Drop the lanes in ``idx`` back to an empty, zeroed stack."""
        if self.stack is not None and idx.size:
            self.stack.reset_lanes(idx)

    # -- lane checkpoint/resume (serving-engine preemption) ------------------

    def capture_lane(self, lane: int) -> Optional[np.ndarray]:
        """One lane's logical stack frames (bottom to top), or None.

        The frames hold no machine width or depth limit (see
        :meth:`~repro.vm.stack.BatchedStack.restore_lane`), so a snapshot
        restores into any machine deep enough to hold them.
        """
        if self.stack is None:
            return None
        return self.stack.frames(lane)

    def restore_lane(self, lane: int, frames: Optional[np.ndarray]) -> None:
        """Reinstall captured lane frames, allocating the stack if needed."""
        if frames is None:
            if self.stack is not None:
                self.stack.reset_lanes(np.asarray([lane], dtype=np.int64))
            return
        frames = np.asarray(frames)
        self._ensure(frames.shape[1:], frames.dtype).restore_lane(lane, frames)
