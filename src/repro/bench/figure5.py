"""Figure 5: NUTS throughput versus batch size on Bayesian logistic regression.

For every batch size and every strategy the harness measures **gradient
evaluations per second** (the paper's y-axis; gradients counted in-program,
"excluding waste due to synchronization"), two ways:

* **measured** — real wall-clock, best of ``repeats`` warm runs, exactly the
  paper's protocol (Section 4.1);
* **simulated** — the deterministic device cost model of
  :mod:`repro.backend.device` applied to the run's instrumentation, which
  reproduces the *shape* of the paper's CPU and GPU panels bit-for-bit
  regardless of host machine noise.

Strategy-to-paper mapping:

====================  =====================================================
``pc_fused``          "Program counter autobatching, compiled entirely with
                      XLA" (fused basic blocks; sim accounting ``fused``)
``pc``                the same machine with per-op dispatch (sim ``eager``)
``local``             "Local static autobatching, executed entirely with
                      TensorFlow Eager" (sim ``eager``)
``hybrid``            "control in Eager, basic blocks compiled with XLA":
                      the local machine with fused per-block dispatches
                      (sim: local instrumentation, ``hybrid`` accounting)
``reference``         "the same program executed directly in Eager mode
                      without autobatching (one member at a time)"
``stan``              serial iterative NUTS (see baselines.stan_like)
====================  =====================================================

Run as ``python -m repro.bench.figure5`` (add ``--paper`` for the full-size
problem; the default is laptop-scale and finishes in a couple of minutes).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.device import CPU_DEVICE, GPU_DEVICE, DeviceModel
from repro.baselines.stan_like import StanLikeSampler
from repro.bench.report import crossover, format_series, format_table
from repro.bench.timing import best_of
from repro.nuts.kernel import PC_STRATEGY_EXECUTORS, NutsKernel
from repro.targets.logistic import BayesianLogisticRegression
from repro.vm.instrumentation import Instrumentation

#: Every Figure 5 strategy, all executed for real wall-clock measurement.
#: The program-counter rows differ only in their block executor — selected
#: through :data:`~repro.nuts.kernel.PC_STRATEGY_EXECUTORS`, not separate
#: run functions — and their simulated dispatch costs come from the
#: matching :class:`~repro.vm.executors.ExecutionPlan`.
EXECUTED_STRATEGIES = ("pc_fused", "pc", "local", "hybrid", "reference", "stan")
ALL_STRATEGIES = EXECUTED_STRATEGIES


@dataclass(frozen=True)
class Figure5Config:
    """Problem and sweep sizes for the Figure 5 harness."""

    n_data: int = 1_000
    n_features: int = 20
    batch_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    n_trajectories: int = 2
    step_size: float = 0.1
    max_depth: int = 6
    n_leapfrog: int = 4
    seed: int = 0
    repeats: int = 5
    warmup: int = 1
    budget_seconds: float = 20.0
    #: Per-strategy batch-size caps (slow serial strategies stop early).
    caps: Dict[str, int] = field(
        default_factory=lambda: {
            "reference": 128, "stan": 128, "local": 128, "hybrid": 128,
        }
    )
    stan_speed_ratio: float = 1.0

    @classmethod
    def paper_scale(cls) -> "Figure5Config":
        """The full problem of Section 4.1 (expect a long run)."""
        return cls(
            n_data=10_000,
            n_features=100,
            batch_sizes=(1, 4, 16, 64, 256, 1024, 4096),
            caps={"reference": 16, "stan": 16, "local": 256, "hybrid": 256},
            budget_seconds=120.0,
        )

    @classmethod
    def smoke(cls) -> "Figure5Config":
        """Tiny config for tests."""
        return cls(
            n_data=64,
            n_features=4,
            batch_sizes=(1, 4, 8),
            n_trajectories=1,
            max_depth=3,
            repeats=1,
            warmup=0,
            budget_seconds=5.0,
            caps={"reference": 8, "stan": 8, "local": 8, "hybrid": 8},
        )


@dataclass
class Figure5Point:
    """One (strategy, batch size) cell of the sweep."""

    strategy: str
    batch_size: int
    grad_evals: float
    best_seconds: Optional[float]          #: None for simulated-only strategies
    simulated_seconds: Dict[str, float]    #: device name -> estimated seconds

    def grads_per_second(self) -> Optional[float]:
        """Measured throughput, or None when not executed."""
        if self.best_seconds is None or self.best_seconds <= 0:
            return None
        return self.grad_evals / self.best_seconds

    def simulated_grads_per_second(self, device: str) -> Optional[float]:
        """Device-model throughput for ``device`` ('cpu'/'gpu')."""
        seconds = self.simulated_seconds.get(device)
        if seconds is None or seconds <= 0:
            return None
        return self.grad_evals / seconds


@dataclass
class Figure5Result:
    config: Figure5Config
    points: List[Figure5Point]

    def series(
        self, metric: str = "measured", device: str = "gpu"
    ) -> Tuple[List[int], Dict[str, List[Optional[float]]]]:
        """(batch_sizes, {strategy: grads/sec by batch size})."""
        xs = sorted({p.batch_size for p in self.points})
        out: Dict[str, List[Optional[float]]] = {}
        for strategy in ALL_STRATEGIES:
            column: List[Optional[float]] = []
            for x in xs:
                match = [
                    p for p in self.points
                    if p.strategy == strategy and p.batch_size == x
                ]
                if not match:
                    column.append(None)
                elif metric == "measured":
                    column.append(match[0].grads_per_second())
                else:
                    column.append(match[0].simulated_grads_per_second(device))
            if any(v is not None for v in column):
                out[strategy] = column
        return xs, out

    def crossovers(self, metric: str = "measured", device: str = "gpu") -> Dict[str, Optional[float]]:
        """Batch size where each batched strategy overtakes the Stan line."""
        xs, series = self.series(metric, device)
        stan = series.get("stan")
        result: Dict[str, Optional[float]] = {}
        if stan is None:
            return result
        for name in ("pc_fused", "pc", "local", "hybrid"):
            if name in series:
                result[name] = crossover(xs, series[name], stan)
        return result

    def render(self) -> str:
        """The full markdown report: table, charts, crossovers."""
        sections = []
        headers = ["batch", "strategy", "grads", "measured s", "grads/s",
                   "sim cpu grads/s", "sim gpu grads/s"]
        rows = []
        for p in sorted(self.points, key=lambda p: (p.batch_size, p.strategy)):
            rows.append([
                p.batch_size,
                p.strategy,
                p.grad_evals,
                p.best_seconds if p.best_seconds is not None else "-",
                p.grads_per_second() or "-",
                p.simulated_grads_per_second("cpu") or "-",
                p.simulated_grads_per_second("gpu") or "-",
            ])
        sections.append("## Figure 5 sweep\n\n" + format_table(headers, rows))
        for metric, device, title in (
            ("measured", "", "measured wall-clock"),
            ("simulated", "cpu", "simulated CPU device"),
            ("simulated", "gpu", "simulated GPU device"),
        ):
            xs, series = self.series(metric, device)
            if series:
                sections.append(
                    f"### Gradients/sec vs batch size ({title})\n\n```\n"
                    + format_series(xs, series, x_label="batch", y_label="grads/s")
                    + "\n```"
                )
        for metric, device in (("measured", ""), ("simulated", "cpu")):
            cross = self.crossovers(metric, device)
            if cross:
                label = "measured" if metric == "measured" else f"simulated {device}"
                lines = [
                    f"* `{k}` overtakes the Stan-like baseline at batch ~{v:.0f}"
                    if v is not None
                    else f"* `{k}` never overtakes the Stan-like baseline in this sweep"
                    for k, v in cross.items()
                ]
                sections.append(f"### Crossovers vs Stan ({label})\n\n" + "\n".join(lines))
        return "\n\n".join(sections)


def _simulate(
    instr: Instrumentation,
    accounting,  # a legacy accounting string or an ExecutionPlan
    devices: Sequence[DeviceModel] = (CPU_DEVICE, GPU_DEVICE),
) -> Dict[str, float]:
    return {d.name: d.estimate(instr, strategy=accounting) for d in devices}


def run_figure5(config: Figure5Config = Figure5Config()) -> Figure5Result:
    """Execute the full Figure 5 sweep."""
    target = BayesianLogisticRegression(
        n_data=config.n_data, n_features=config.n_features, seed=config.seed
    )
    kernel = NutsKernel(target)
    stan = StanLikeSampler(
        target,
        config.step_size,
        max_depth=config.max_depth,
        n_leapfrog=config.n_leapfrog,
        speed_ratio=config.stan_speed_ratio,
    )
    points: List[Figure5Point] = []

    common = dict(
        step_size=config.step_size,
        n_trajectories=config.n_trajectories,
        max_depth=config.max_depth,
        n_leapfrog=config.n_leapfrog,
        seed=config.seed,
    )

    for z in config.batch_sizes:
        q0 = target.initial_state(z, seed=config.seed)

        # One instrumented (unmeasured) run per machine drives the simulator;
        # per executor on the program-counter machine, because a fused block
        # charges its heavy call sites their live lanes, not the batch width.
        instr_pc = {
            strategy: kernel.run(
                q0, strategy=strategy, instrument=True, **common
            ).instrumentation
            for strategy in EXECUTED_STRATEGIES
            if strategy in PC_STRATEGY_EXECUTORS
        }
        local_capped = z <= config.caps.get("local", max(config.batch_sizes))
        instr_local = (
            kernel.run(q0, strategy="local", instrument=True, **common).instrumentation
            if local_capped
            else None
        )
        # The unbatched baseline is one member at a time: simulate by scaling
        # a batch-1 run (dispatch count and per-call work are per member).
        instr_single = kernel.run(
            q0[:1], strategy="local", instrument=True, **common
        ).instrumentation

        for strategy in EXECUTED_STRATEGIES:
            cap = config.caps.get(strategy)
            if cap is not None and z > cap:
                continue
            if strategy == "stan":
                timing = best_of(
                    lambda: stan.run(q0, config.n_trajectories, seed=config.seed),
                    k=config.repeats,
                    warmup=config.warmup,
                    budget_seconds=config.budget_seconds,
                )
                run = timing.value
                measured_grads = float(run.grad_evals)
                seconds = timing.best_seconds / config.stan_speed_ratio
                sim = {
                    d.name: measured_grads
                    / max(stan.calibrated_grads_per_second(run), 1e-12)
                    for d in (CPU_DEVICE, GPU_DEVICE)
                }
            else:
                timing = best_of(
                    lambda s=strategy: kernel.run(q0, strategy=s, **common),
                    k=config.repeats,
                    warmup=config.warmup,
                    budget_seconds=config.budget_seconds,
                )
                measured_grads = timing.value.total_grad_evals
                seconds = timing.best_seconds
                if strategy in PC_STRATEGY_EXECUTORS:
                    # Plan-derived dispatch accounting: the machine's run,
                    # costed by the executor that launched its kernels.
                    sim = _simulate(instr_pc[strategy], kernel.plan(strategy))
                elif strategy == "local":
                    sim = _simulate(instr_local, "eager") if instr_local else {}
                elif strategy == "hybrid":
                    sim = _simulate(instr_local, "hybrid") if instr_local else {}
                else:  # reference: Z serial single-member eager runs
                    sim = {
                        name: z * sec
                        for name, sec in _simulate(instr_single, "eager").items()
                    }
            points.append(
                Figure5Point(
                    strategy=strategy,
                    batch_size=z,
                    grad_evals=measured_grads,
                    best_seconds=seconds,
                    simulated_seconds=sim,
                )
            )
    return Figure5Result(config=config, points=points)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point for the Figure 5 sweep."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paper", action="store_true", help="full Section 4.1 sizes")
    parser.add_argument("--smoke", action="store_true", help="tiny smoke-test sizes")
    args = parser.parse_args(argv)
    if args.paper:
        config = Figure5Config.paper_scale()
    elif args.smoke:
        config = Figure5Config.smoke()
    else:
        config = Figure5Config()
    result = run_figure5(config)
    print(result.render())


if __name__ == "__main__":
    main()
