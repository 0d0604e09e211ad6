"""The target-density interface shared by every experiment workload.

A target is a probability density on R^d known up to a constant.  NUTS needs
two batched callables out of it: the log-density ``(Z, d) -> (Z,)`` and its
gradient ``(Z, d) -> (Z, d)``.  :meth:`Target.primitives` wraps both as
registered autobatch primitives so that NUTS programs written in the
autobatchable Python subset can call them like any other kernel; the
gradient primitive is tagged ``"gradient"`` — the class of primitives whose
batch utilization Figure 6 reports.

Subclasses implement the analytic ``log_prob`` / ``grad_log_prob`` pair and,
for cross-validation, ``log_prob_ad`` in terms of :mod:`repro.autodiff` ops;
the test suite checks the two gradients against each other and against
finite differences.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.frontend.registry import Primitive, PrimitiveRegistry, default_registry

_instance_ids = itertools.count()


@dataclass(frozen=True)
class TargetPrimitives:
    """The two registered primitives of one target instance."""

    log_prob: Primitive
    grad_log_prob: Primitive


class Target(abc.ABC):
    """A differentiable unnormalized density on R^dim.

    All array methods accept either a single state of shape ``(dim,)`` or a
    batch of shape ``(Z, dim)`` and are vectorized over the leading axis.
    """

    #: Short, human-readable identifier (also used in primitive names).
    name: str = "target"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self._instance_id = next(_instance_ids)
        self._primitives: Optional[TargetPrimitives] = None

    # -- densities (subclass responsibilities) --------------------------------

    @abc.abstractmethod
    def log_prob(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized log-density, batched over the leading axis."""

    @abc.abstractmethod
    def grad_log_prob(self, q: np.ndarray) -> np.ndarray:
        """Analytic gradient of :meth:`log_prob`, batched."""

    def log_prob_ad(self, q):
        """The same density written in :mod:`repro.autodiff` ops.

        Used only for cross-checking the analytic gradient; subclasses
        without a convenient AD form may leave the default, which signals
        "no AD form" to the tests.
        """
        raise NotImplementedError

    # -- conveniences ----------------------------------------------------------

    def grad_log_prob_autodiff(self, q: np.ndarray) -> np.ndarray:
        """Gradient via the tape (reference implementation for tests)."""
        from repro.autodiff import grad

        return grad(self.log_prob_ad)(np.asarray(q, dtype=np.float64))

    def initial_state(self, batch_size: int, seed: int = 0) -> np.ndarray:
        """A batch of starting points: standard-normal draws, shape (Z, dim)."""
        rng = np.random.RandomState(seed)
        return rng.randn(batch_size, self.dim) * 0.1

    # -- cost accounting --------------------------------------------------------

    def grad_flops_per_member(self) -> float:
        """Abstract flop count of one member's gradient evaluation.

        Drives the deterministic device cost model; subclasses override with
        their dominant term (e.g. ``2 * n_data * dim`` for regression).
        """
        return float(self.dim)

    def logp_flops_per_member(self) -> float:
        return self.grad_flops_per_member() / 2.0

    # -- primitive registration -------------------------------------------------

    def primitives(
        self, registry: Optional[PrimitiveRegistry] = None
    ) -> TargetPrimitives:
        """Register (once) and return this instance's log-prob/grad primitives.

        The primitive's ``cost_weight`` is the per-*element* work so that
        ``weight * elements_per_lane`` recovers the per-member flop count
        used by the device model (gradient outputs have ``dim`` elements per
        lane, log-prob outputs have one).
        """
        if self._primitives is not None:
            return self._primitives
        registry = registry or default_registry
        prefix = f"{self.name}_{self._instance_id}"
        logp = Primitive(
            name=f"{prefix}__logp",
            fn=lambda q: self.log_prob(np.asarray(q, dtype=np.float64)),
            n_inputs=1,
            n_outputs=1,
            cost_weight=self.logp_flops_per_member(),
            tags=frozenset({"target", "logp"}),
        )
        grad = Primitive(
            name=f"{prefix}__grad",
            fn=lambda q: self.grad_log_prob(np.asarray(q, dtype=np.float64)),
            n_inputs=1,
            n_outputs=1,
            cost_weight=self.grad_flops_per_member() / self.dim,
            tags=frozenset({"target", "gradient"}),
        )
        registry.register(logp)
        registry.register(grad)
        self._primitives = TargetPrimitives(log_prob=logp, grad_log_prob=grad)
        return self._primitives

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"
