"""Value types for autobatched programs.

Every program variable holds, for each batch member, a value of a fixed
*event shape* (possibly scalar).  This mirrors the paper's XLA setting, where
all intermediate array shapes must be statically resolvable: batched storage
for a variable of event shape ``s`` is an array of shape ``(Z, *s)`` (local
static autobatching) or ``(D, Z, *s)`` plus a ``(Z,)`` stack-pointer vector
(program-counter autobatching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class TensorType:
    """Static type of one batch member's value: dtype plus event shape.

    ``event_shape`` excludes the batch dimension; a scalar per member has
    ``event_shape == ()``.
    """

    dtype: str
    event_shape: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Normalize the dtype through numpy so "float" == "float64" etc.
        object.__setattr__(self, "dtype", np.dtype(self.dtype).name)
        object.__setattr__(self, "event_shape", tuple(int(d) for d in self.event_shape))

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype object for this tensor type."""
        return np.dtype(self.dtype)

    def batched_shape(self, batch_size: int) -> Tuple[int, ...]:
        """Shape of the batched storage for this type."""
        return (int(batch_size),) + self.event_shape

    def __str__(self) -> str:
        if self.event_shape:
            return f"{self.dtype}{list(self.event_shape)}"
        return self.dtype


def scalar(dtype: str = "float64") -> TensorType:
    """A per-member scalar type."""
    return TensorType(dtype=dtype, event_shape=())


def vector(n: int, dtype: str = "float64") -> TensorType:
    """A per-member length-``n`` vector type."""
    return TensorType(dtype=dtype, event_shape=(int(n),))
