"""Strategy-agnostic driver for one autobatched NUTS run.

:class:`NutsKernel` owns the compiled program family for one target and runs
``nuts_chain`` under any of the paper's execution strategies:

``reference``
    Plain Python, one batch member at a time (Figure 5's "Eager mode
    without autobatching" baseline).
``local``
    Algorithm 1 — local static autobatching, recursion on the Python stack
    (the "TF Eager" line).
``hybrid``
    Algorithm 1 control with each block's straight-line primitive runs
    pre-compiled into single fused dispatches (the paper's third tested
    form: "control in Eager, basic blocks compiled with XLA").
``pc``
    Algorithm 2 — program-counter autobatching, per-op kernel dispatch.
``pc_fused``
    Algorithm 2 with every basic block pre-compiled into a single fused
    callable (the "compiled entirely with XLA" line).
``pc_noopt``
    Algorithm 2 with the lowering optimizations disabled (ablation).

All strategies consume identical per-member RNG streams, so they produce
bit-identical chains — the differential tests rely on this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.frontend.primitives import make_counters
from repro.frontend.registry import PrimitiveRegistry
from repro.nuts.tree import NutsFunctions, make_nuts_functions
from repro.targets.base import Target
from repro.vm.instrumentation import Instrumentation

#: Execution strategies understood by :meth:`NutsKernel.run`.
KERNEL_STRATEGIES = ("reference", "local", "hybrid", "pc", "pc_fused", "pc_noopt")

#: Block-executor selection for the program-counter strategies: the machine
#: is identical, only the :class:`~repro.vm.executors.ExecutionPlan` differs.
PC_STRATEGY_EXECUTORS = {"pc": "eager", "pc_noopt": "eager", "pc_fused": "fused"}


@dataclass
class NutsResult:
    """Outcome of one batched NUTS run."""

    positions: np.ndarray        #: final states, shape (Z, dim)
    grad_evals: np.ndarray       #: per-member useful gradient evaluations, (Z,)
    rng: np.ndarray              #: final RNG counters, (Z,)
    strategy: str
    wall_time: float             #: seconds spent inside the run call
    instrumentation: Optional[Instrumentation] = None

    @property
    def total_grad_evals(self) -> float:
        """Total useful gradients across all chains (Figure 5's numerator)."""
        return float(np.sum(self.grad_evals))

    def gradients_per_second(self) -> float:
        """Throughput in useful gradient evaluations per second."""
        return self.total_grad_evals / self.wall_time if self.wall_time > 0 else 0.0


class NutsKernel:
    """Compiled NUTS programs for one target, runnable under every strategy."""

    def __init__(self, target: Target, registry: Optional[PrimitiveRegistry] = None):
        self.target = target
        self.registry = registry
        self.functions: NutsFunctions = make_nuts_functions(target, registry)

    def initial_rng(self, batch_size: int, seed: int = 0) -> np.ndarray:
        """Independent per-member RNG counters."""
        return make_counters(seed, batch_size)

    def plan(self, strategy: str = "pc"):
        """The :class:`~repro.vm.executors.ExecutionPlan` a PC strategy runs.

        The bench harnesses use this for plan-derived dispatch accounting
        in the device cost models.
        """
        if strategy not in PC_STRATEGY_EXECUTORS:
            raise ValueError(
                f"strategy {strategy!r} does not run on the program-counter "
                f"machine; expected one of {sorted(PC_STRATEGY_EXECUTORS)}"
            )
        return self.functions.nuts_chain.execution_plan(
            executor=PC_STRATEGY_EXECUTORS[strategy],
            optimize=(strategy != "pc_noopt"),
        )

    def run(
        self,
        q0: np.ndarray,
        *,
        step_size: float,
        n_trajectories: int = 1,
        max_depth: int = 6,
        n_leapfrog: int = 4,
        seed: int = 0,
        strategy: str = "pc",
        mode: str = "mask",
        scheduler: str = "earliest",
        instrument: bool = False,
        rng: Optional[np.ndarray] = None,
    ) -> NutsResult:
        """Run ``n_trajectories`` NUTS transitions from each row of ``q0``.

        ``step_size`` may be a scalar or a per-member array.  Returns the
        final positions plus the bookkeeping Figures 5 and 6 need.
        """
        if strategy not in KERNEL_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {KERNEL_STRATEGIES}"
            )
        q0 = np.atleast_2d(np.asarray(q0, dtype=np.float64))
        z = q0.shape[0]
        if q0.shape[1] != self.target.dim:
            raise ValueError(
                f"q0 has event size {q0.shape[1]}, target has dim {self.target.dim}"
            )
        eps = np.broadcast_to(np.asarray(step_size, dtype=np.float64), (z,)).copy()
        md = np.full(z, float(max_depth))
        ns = np.full(z, float(n_leapfrog))
        nt = np.full(z, float(n_trajectories))
        ng = np.zeros(z)
        ctr = self.initial_rng(z, seed) if rng is None else np.asarray(rng, dtype=np.uint64)
        inputs = (q0, eps, md, ns, nt, ng, ctr)

        chain = self.functions.nuts_chain
        instrumentation = Instrumentation(batch_size=z) if instrument else None

        start = time.perf_counter()
        if strategy == "reference":
            out = chain.run_reference(*inputs)
        elif strategy in ("local", "hybrid"):
            out = chain.run_local(
                *inputs,
                mode=mode,
                scheduler=scheduler,
                instrumentation=instrumentation,
                fuse_blocks=(strategy == "hybrid"),
            )
        else:  # pc / pc_noopt / pc_fused: one machine, per-strategy plan
            out = chain.run_pc(
                *inputs,
                optimize=(strategy != "pc_noopt"),
                executor=PC_STRATEGY_EXECUTORS[strategy],
                mode=mode,
                scheduler=scheduler,
                instrumentation=instrumentation,
            )
        wall = time.perf_counter() - start

        q_final, grad_evals, rng_final = out
        return NutsResult(
            positions=np.asarray(q_final),
            grad_evals=np.asarray(grad_evals),
            rng=np.asarray(rng_final),
            strategy=strategy,
            wall_time=wall,
            instrumentation=instrumentation,
        )
