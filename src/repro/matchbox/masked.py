"""The batched array type that carries its own mask.

Paper Section 5 on Matchbox: "accomplishes batching by defining a 'batched
array' type that carries the mask.  The batched array overloads all the
methods for a standard array with appropriate additional masking.  ...  In
our terms, the mask corresponds to the active set."

A :class:`MaskedBatch` pairs ``(Z, *event)`` data with a ``(Z,)`` boolean
mask.  Elementwise operations compute on all lanes (masking style — cheap,
at the price of junk-lane work, exactly the Algorithm 1 trade-off) and the
result's mask is the AND of the operands' masks.  Assignment-like *merges*
(:meth:`merge`) write only active lanes, which is how divergent branch
results recombine.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _broadcast_mask(mask: np.ndarray, ndim: int) -> np.ndarray:
    return mask.reshape(mask.shape + (1,) * (ndim - 1))


class MaskedBatch:
    """A batch of per-member values plus the active-set mask."""

    __slots__ = ("data", "mask")
    __array_priority__ = 200

    def __init__(self, data, mask=None):
        self.data = np.asarray(data)
        if self.data.ndim == 0:
            raise ValueError("MaskedBatch needs a leading batch dimension")
        z = self.data.shape[0]
        self.mask = (
            np.ones(z, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        )
        if self.mask.shape != (z,):
            raise ValueError(
                f"mask shape {self.mask.shape} does not match batch size {z}"
            )

    # -- construction helpers ---------------------------------------------------

    @property
    def batch_size(self) -> int:
        return self.data.shape[0]

    @property
    def event_shape(self) -> Tuple[int, ...]:
        return self.data.shape[1:]

    def like(self, data) -> "MaskedBatch":
        """A new batch with this batch's mask and the given data."""
        return MaskedBatch(data, self.mask)

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, MaskedBatch):
            return other.data
        return np.asarray(other)

    def _joint_mask(self, other) -> np.ndarray:
        if isinstance(other, MaskedBatch):
            return self.mask & other.mask
        return self.mask

    def _binop(self, other, fn) -> "MaskedBatch":
        with np.errstate(all="ignore"):
            return MaskedBatch(fn(self.data, self._coerce(other)), self._joint_mask(other))

    def _rbinop(self, other, fn) -> "MaskedBatch":
        with np.errstate(all="ignore"):
            return MaskedBatch(fn(self._coerce(other), self.data), self._joint_mask(other))

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._rbinop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, np.true_divide)

    def __rtruediv__(self, other):
        return self._rbinop(other, np.true_divide)

    def __floordiv__(self, other):
        return self._binop(other, np.floor_divide)

    def __rfloordiv__(self, other):
        return self._rbinop(other, np.floor_divide)

    def __mod__(self, other):
        return self._binop(other, np.mod)

    def __rmod__(self, other):
        return self._rbinop(other, np.mod)

    def __neg__(self):
        return self.like(-self.data)

    def __abs__(self):
        return self.like(np.abs(self.data))

    # -- comparisons (produce boolean MaskedBatches) ------------------------------

    def __lt__(self, other):
        return self._binop(other, np.less)

    def __le__(self, other):
        return self._binop(other, np.less_equal)

    def __gt__(self, other):
        return self._binop(other, np.greater)

    def __ge__(self, other):
        return self._binop(other, np.greater_equal)

    def __eq__(self, other):  # type: ignore[override]
        return self._binop(other, np.equal)

    def __ne__(self, other):  # type: ignore[override]
        return self._binop(other, np.not_equal)

    __hash__ = None  # mutable container semantics

    def logical_and(self, other):
        """Masked elementwise AND."""
        return self._binop(other, np.logical_and)

    def logical_or(self, other):
        """Masked elementwise OR."""
        return self._binop(other, np.logical_or)

    def logical_not(self):
        """Masked elementwise NOT."""
        return self.like(np.logical_not(self.data))

    # -- masking -------------------------------------------------------------------

    def with_mask(self, mask: np.ndarray) -> "MaskedBatch":
        """The same data under a replacement mask."""
        return MaskedBatch(self.data, np.asarray(mask, dtype=bool))

    def merge(self, other: "MaskedBatch") -> "MaskedBatch":
        """Overlay ``other``'s active lanes onto this batch.

        The divergence-recombination primitive: after running a branch arm
        under a sub-mask, its result merges back into the pre-branch value.
        """
        other_data = np.asarray(other.data)
        data = self.data
        if data.dtype != other_data.dtype:
            promoted = np.promote_types(data.dtype, other_data.dtype)
            data = data.astype(promoted)
            other_data = other_data.astype(promoted)
        out = data.copy()
        np.copyto(out, other_data, where=_broadcast_mask(other.mask, out.ndim))
        return MaskedBatch(out, self.mask | other.mask)

    def __repr__(self) -> str:
        return f"MaskedBatch({self.data!r}, mask={self.mask.astype(int)!r})"


def as_masked(value, batch_size: int) -> MaskedBatch:
    """Promote a scalar or array to a fully active MaskedBatch."""
    if isinstance(value, MaskedBatch):
        return value
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (batch_size,)).copy()
    return MaskedBatch(arr)
