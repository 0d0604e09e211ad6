"""High-level multi-chain NUTS driver covering every Figure 5 strategy.

:func:`run_nuts` is the one-call entry point the examples and the benchmark
harness use.  It accepts the kernel strategies of
:class:`~repro.nuts.kernel.NutsKernel` plus ``"stan"`` (the iterative
single-chain baseline) and returns final states, per-member sample traces
when requested, gradient-evaluation counts, and wall time.

An optional dual-averaging step-size adaptation (Hoffman & Gelman
Section 3.2) is provided as an extension — the paper-faithful benchmarks
leave it off and use fixed step sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.nuts.iterative import IterativeNuts
from repro.nuts.kernel import KERNEL_STRATEGIES, NutsKernel, NutsResult
from repro.targets.base import Target

#: All strategies accepted by :func:`run_nuts`.
STRATEGIES = KERNEL_STRATEGIES + ("stan",)


@dataclass
class ChainResult:
    """Multi-trajectory sampling outcome."""

    positions: np.ndarray                 #: final states, (Z, dim)
    samples: Optional[np.ndarray]         #: per-trajectory states (T, Z, dim) if traced
    grad_evals: float                     #: total useful gradient evaluations
    wall_time: float
    strategy: str
    extras: Dict[str, object] = field(default_factory=dict)

    def gradients_per_second(self) -> float:
        """Throughput in useful gradient evaluations per second."""
        return self.grad_evals / self.wall_time if self.wall_time > 0 else 0.0


def run_nuts(
    target: Target,
    batch_size: int,
    n_trajectories: int,
    step_size: float,
    *,
    strategy: str = "pc",
    max_depth: int = 6,
    n_leapfrog: int = 4,
    seed: int = 0,
    trace: bool = False,
    kernel: Optional[NutsKernel] = None,
    q0: Optional[np.ndarray] = None,
    **kernel_options,
) -> ChainResult:
    """Run ``batch_size`` NUTS chains for ``n_trajectories`` transitions.

    With ``trace=True`` the per-trajectory states are recorded (the batched
    strategies then synchronize on trajectory boundaries, which is what the
    diagnostics consumers want; throughput benchmarking should leave
    ``trace=False`` so the program-counter machine can batch across
    trajectories).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if q0 is None:
        q0 = target.initial_state(batch_size, seed=seed)
    q0 = np.atleast_2d(np.asarray(q0, dtype=np.float64))

    if strategy == "stan":
        sampler = IterativeNuts(
            target, step_size, max_depth=max_depth, n_leapfrog=n_leapfrog
        )
        start = time.perf_counter()
        if trace:
            samples = np.empty((n_trajectories, batch_size, target.dim))
            total = 0
            for b in range(batch_size):
                result = sampler.sample(q0[b], n_trajectories, seed=seed + b)
                samples[:, b, :] = result.positions
                total += result.grad_evals
            finals = samples[-1]
        else:
            finals, total = sampler.sample_batch(q0, n_trajectories, seed=seed)
            samples = None
        wall = time.perf_counter() - start
        return ChainResult(
            positions=finals,
            samples=samples,
            grad_evals=float(total),
            wall_time=wall,
            strategy=strategy,
        )

    kernel = kernel or NutsKernel(target)
    common = dict(
        step_size=step_size,
        max_depth=max_depth,
        n_leapfrog=n_leapfrog,
        strategy=strategy,
        **kernel_options,
    )
    start = time.perf_counter()
    if trace:
        samples = np.empty((n_trajectories, batch_size, target.dim))
        rng = kernel.initial_rng(batch_size, seed)
        q = q0
        total = 0.0
        result: Optional[NutsResult] = None
        for t in range(n_trajectories):
            result = kernel.run(q, n_trajectories=1, rng=rng, **common)
            q = result.positions
            rng = result.rng
            total += result.total_grad_evals
            samples[t] = q
        wall = time.perf_counter() - start
        return ChainResult(
            positions=q,
            samples=samples,
            grad_evals=total,
            wall_time=wall,
            strategy=strategy,
            extras={"instrumentation": result.instrumentation if result else None},
        )
    result = kernel.run(q0, n_trajectories=n_trajectories, seed=seed, **common)
    wall = time.perf_counter() - start
    return ChainResult(
        positions=result.positions,
        samples=None,
        grad_evals=result.total_grad_evals,
        wall_time=wall,
        strategy=strategy,
        extras={"instrumentation": result.instrumentation},
    )


@dataclass
class DualAveragingAdapter:
    """Step-size adaptation via dual averaging (extension, off by default).

    Call :meth:`update` with the realized acceptance statistic after each
    warmup trajectory; read :attr:`step_size` during warmup and
    :attr:`adapted_step_size` afterwards.
    """

    initial_step_size: float
    target_accept: float = 0.8
    gamma: float = 0.05
    t0: float = 10.0
    kappa: float = 0.75

    def __post_init__(self):
        self.mu = np.log(10.0 * self.initial_step_size)
        self.log_eps = np.log(self.initial_step_size)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.t = 0

    @property
    def step_size(self) -> float:
        """The step size to use for the next warmup trajectory."""
        return float(np.exp(self.log_eps))

    @property
    def adapted_step_size(self) -> float:
        """The averaged step size to freeze after warmup."""
        return float(np.exp(self.log_eps_bar))

    def update(self, accept_prob: float) -> None:
        """Feed one trajectory's acceptance statistic to the adapter."""
        self.t += 1
        frac = 1.0 / (self.t + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (
            self.target_accept - accept_prob
        )
        self.log_eps = self.mu - np.sqrt(self.t) / self.gamma * self.h_bar
        weight = self.t ** -self.kappa
        self.log_eps_bar = weight * self.log_eps + (1.0 - weight) * self.log_eps_bar
