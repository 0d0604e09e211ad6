"""Variable storage for the batched machines.

Three storage classes mirror the :class:`~repro.ir.instructions.VarKind`
analysis: temporaries live in a per-block-execution dict managed by the VM;
registers are flat ``(Z, *event)`` arrays with masked updates; stacked
variables own a :class:`~repro.vm.stack.BatchedStack`, whose flat pointer
and ``reached`` tables the storage owns from construction.

Storage is allocated once, at the type the program-counter machine infers
from its first inputs (:func:`~repro.analysis.types.infer_types`), as XLA
fixes every shape before it runs.  Nothing promotes: the join makes every
write fit its storage, and inputs and snapshots are checked on entry.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ir.types import TensorType
from repro.vm.stack import BatchedStack, masked_assign, pointer_tables


class TypeMismatchError(TypeError, ValueError):
    """A value from outside the program does not fit its variable's type (a
    ``ValueError`` too, as the event-shape check it replaces raised)."""


def check_fits(what: str, ttype: TensorType, value: np.ndarray) -> None:
    """Refuse a batched ``value`` whose rows do not cast ``same_kind`` into
    ``ttype``'s dtype at its event shape."""
    casts = np.can_cast(value.dtype, ttype.np_dtype, "same_kind")
    if value.shape[1:] != ttype.event_shape or not casts:
        raise TypeMismatchError(
            f"{what} has dtype {value.dtype} and event shape {value.shape[1:]}, "
            f"which do not fit its type: {ttype.dtype}, event shape {ttype.event_shape}"
        )


class RegisterStorage:
    """A flat batched array with masked (or scattered) updates, no stack."""

    def __init__(self, name: str, batch_size: int):
        self.name = name
        self.batch_size = batch_size
        self.array: Optional[np.ndarray] = None

    def allocate(self, ttype: TensorType) -> None:
        """Zeroed storage for every lane, at ``ttype``."""
        self.array = np.zeros(ttype.batched_shape(self.batch_size), ttype.np_dtype)

    def read(self) -> np.ndarray:
        return self.array

    def read_at(self, idx: np.ndarray) -> np.ndarray:
        return self.array[idx]

    def write(self, mask: np.ndarray, value: np.ndarray) -> None:
        masked_assign(self.array, mask, np.asarray(value))

    def write_at(self, idx: np.ndarray, value_gathered: np.ndarray) -> None:
        self.array[idx] = value_gathered

    def reset_lanes(self, idx: np.ndarray) -> None:
        """Zero the lanes in ``idx``, as if they were freshly allocated."""
        self.array[idx] = 0

    # -- lane checkpoint/resume (serving-engine preemption) ------------------

    def capture_lane(self, lane: int) -> np.ndarray:
        """One lane's value as an array.  Indexing with ``...`` keeps a
        ``(Z,)`` register's lane a 0-d array, where a plain index would hand
        back the bare element — a Python object, under object dtype."""
        return self.array[lane, ...].copy()

    def restore_lane(self, lane: int, value: np.ndarray) -> None:
        """Reinstall a captured lane value.  Through a view, so a 0-d object
        value stores its element, not itself."""
        self.array[lane, ...] = value


class StackedStorage:
    """Storage backed by a batched stack.

    The stack's flat pointers ``fp`` and its ``reached`` table need no
    dtype, so the storage makes them at construction, before its machine's
    types are known, and every stack it allocates shares them: a generated
    block loads a variable's pointers once (``fp[idx]``) and addresses
    ``get`` / ``put`` at static frame offsets from them.  :meth:`allocate`
    binds the storage's accessors to its stack's own methods, so an access
    costs the one Python frame of the stack's method.
    """

    def __init__(self, name: str, batch_size: int, depth: int):
        self.name = name
        self.batch_size = batch_size
        self.depth = depth
        self.fp, self.reached = pointer_tables(batch_size, depth)
        self.stack: Optional[BatchedStack] = None

    def allocate(self, ttype: TensorType) -> None:
        """A zeroed stack at ``ttype`` over the storage's tables.  ``get`` /
        ``put`` address frames by flat address (a ``put`` above a lane's top
        is a push); ``write`` updates the top; ``capture_lane`` takes a
        lane's logical frames, which restore into any machine deep enough."""
        self.stack = stack = BatchedStack(
            batch_size=self.batch_size,
            depth=self.depth,
            event_shape=ttype.event_shape,
            dtype=ttype.np_dtype,
            tables=(self.fp, self.reached),
        )
        self.read, self.read_at = stack.read, stack.read_at
        self.get, self.put = stack.get, stack.put
        self.write, self.write_at = stack.update, stack.update_at
        self.push, self.push_at, self.pop_at = stack.push, stack.push_at, stack.drop_at
        self.reset_lanes, self.capture_lane = stack.reset_lanes, stack.frames
        self.restore_lane = stack.restore_lane

    def pop(self, mask: np.ndarray) -> None:
        self.stack.drop_at(np.flatnonzero(mask))
