"""Ablations for the paper's design choices (Sections 2 and 3).

The paper names two "significant free choices" in the runtimes and five
lowering optimizations; this harness measures each head-to-head:

* **A. masking vs gather-scatter** (free choice 1) — same program, same
  schedule; masking executes ``Z`` lanes per kernel and wastes the inactive
  ones, gather-scatter executes only active lanes but pays gather/scatter
  data movement.
* **B. block-selection heuristic** (free choice 2) — ``earliest`` (the
  Algorithm 1/2 default), ``most_active``, ``round_robin``; all are correct,
  they differ in step count and batching quality.
* **C. lowering optimizations** (Section 3's optimizations 2 and 3,
  swept individually via :class:`~repro.lowering.pipeline.LoweringOptions`
  plus the all-on/all-off extremes) — measured through stack traffic
  (pushes/pops and per-lane stack movement) and machine steps.

Section 3's optimizations 4 (top-of-stack caching) and 5 (Pop;Push
cancellation) have no ablation: both were measured and dropped (see
:mod:`repro.vm.stack` and :class:`~repro.lowering.pipeline.LoweringOptions`).

Run as ``python -m repro.bench.ablations``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.report import format_table
from repro.bench.timing import best_of
from repro.lowering.pipeline import LoweringOptions
from repro.nuts.kernel import NutsKernel
from repro.targets.gaussian import CorrelatedGaussian
from repro.vm.instrumentation import Instrumentation


@dataclass(frozen=True)
class AblationConfig:
    batch_size: int = 32
    fib_inputs: Sequence[int] = tuple(range(6, 16))
    dim: int = 10
    n_trajectories: int = 2
    step_size: float = 0.1
    max_depth: int = 5
    repeats: int = 3
    seed: int = 0

    @classmethod
    def smoke(cls) -> "AblationConfig":
        return cls(batch_size=6, fib_inputs=(4, 5, 6), dim=4, n_trajectories=1,
                   max_depth=3, repeats=1)


@dataclass
class AblationRow:
    workload: str
    variant: str
    seconds: float
    steps: int
    kernel_calls: int
    utilization: float
    push_lanes: int
    pop_lanes: int
    stacked_writes: int
    register_writes: int


from repro import autobatch


@autobatch
def _fib(n):
    if n <= 1:
        return 1
    return _fib(n - 2) + _fib(n - 1)


def _fib_workload(config: AblationConfig):
    rng = np.random.RandomState(config.seed)
    inputs = rng.choice(config.fib_inputs, size=config.batch_size)
    return _fib, (np.asarray(inputs, dtype=np.int64),)


def _nuts_workload(config: AblationConfig):
    target = CorrelatedGaussian(dim=config.dim, rho=0.5)
    kernel = NutsKernel(target)
    q0 = target.initial_state(config.batch_size, seed=config.seed)
    z = config.batch_size
    inputs = (
        q0,
        np.full(z, config.step_size),
        np.full(z, float(config.max_depth)),
        np.full(z, 4.0),
        np.full(z, float(config.n_trajectories)),
        np.zeros(z),
        kernel.initial_rng(z, config.seed),
    )
    return kernel.functions.nuts_chain, inputs


def _run_variant(
    workload_name: str,
    variant_name: str,
    run: Callable[[Optional[Instrumentation]], object],
    repeats: int,
) -> AblationRow:
    instr = Instrumentation()
    run(instr)  # instrumented run for the counters
    timing = best_of(lambda: run(None), k=repeats, warmup=1, budget_seconds=15.0)
    return AblationRow(
        workload=workload_name,
        variant=variant_name,
        seconds=timing.best_seconds,
        steps=instr.steps,
        kernel_calls=instr.kernel_calls,
        utilization=instr.utilization(),
        push_lanes=instr.push_lanes,
        pop_lanes=instr.pop_lanes,
        stacked_writes=instr.stacked_writes,
        register_writes=instr.register_writes,
    )


def ablation_masking(config: AblationConfig = AblationConfig()) -> List[AblationRow]:
    """Masking vs gather-scatter, on both machines."""
    rows: List[AblationRow] = []
    for workload_name, (program, inputs) in (
        ("fib", _fib_workload(config)),
        ("nuts", _nuts_workload(config)),
    ):
        for machine in ("local", "pc"):
            for mode in ("mask", "gather"):
                def run(instr, machine=machine, mode=mode):
                    kwargs = dict(mode=mode, instrumentation=instr)
                    if machine == "local":
                        return program.run_local(*inputs, **kwargs)
                    return program.run_pc(*inputs, **kwargs)

                rows.append(
                    _run_variant(
                        workload_name, f"{machine}/{mode}", run, config.repeats
                    )
                )
    return rows


def ablation_scheduler(config: AblationConfig = AblationConfig()) -> List[AblationRow]:
    """Block-selection heuristics on the PC machine."""
    rows: List[AblationRow] = []
    for workload_name, (program, inputs) in (
        ("fib", _fib_workload(config)),
        ("nuts", _nuts_workload(config)),
    ):
        for scheduler in ("earliest", "most_active", "round_robin"):
            def run(instr, scheduler=scheduler):
                return program.run_pc(
                    *inputs, scheduler=scheduler, instrumentation=instr
                )

            rows.append(
                _run_variant(workload_name, scheduler, run, config.repeats)
            )
    return rows


#: Ablation C variants: ``optimize=`` values passed straight through the
#: public ``run_pc`` API (per-optimization toggles are LoweringOptions
#: instances — each gets its own cached lowering and execution plan).
OPTIMIZATION_VARIANTS: List = [
    ("optimized", True),
    ("no_temp_opt", LoweringOptions(temp_opt=False)),
    ("no_register_opt", LoweringOptions(register_opt=False)),
    ("unoptimized", False),
]


def ablation_optimizations(config: AblationConfig = AblationConfig()) -> List[AblationRow]:
    """Lowering optimizations swept individually (stack traffic is the
    headline): all-on, each of optimizations 2/3 disabled alone, all-off."""
    rows: List[AblationRow] = []
    for workload_name, (program, inputs) in (
        ("fib", _fib_workload(config)),
        ("nuts", _nuts_workload(config)),
    ):
        for variant, optimize in OPTIMIZATION_VARIANTS:
            def run(instr, optimize=optimize):
                return program.run_pc(
                    *inputs, optimize=optimize, instrumentation=instr
                )

            rows.append(
                _run_variant(workload_name, variant, run, config.repeats)
            )
    return rows


#: Every ablation with its table title, in report order.
ABLATIONS = (
    (ablation_masking, "Ablation A: masking vs gather-scatter"),
    (ablation_scheduler, "Ablation B: block-selection heuristic"),
    (ablation_optimizations, "Ablation C: lowering optimizations"),
)


def render(rows: List[AblationRow], title: str) -> str:
    """Markdown table for one ablation's rows."""
    headers = ["workload", "variant", "best s", "steps", "kernel calls",
               "utilization", "push lanes", "pop lanes", "stacked writes",
               "register writes"]
    table = format_table(
        headers,
        [
            [r.workload, r.variant, r.seconds, r.steps, r.kernel_calls,
             r.utilization, r.push_lanes, r.pop_lanes, r.stacked_writes,
             r.register_writes]
            for r in rows
        ],
    )
    return f"## {title}\n\n{table}"


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run and print every ablation."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    config = AblationConfig.smoke() if args.smoke else AblationConfig()
    print("\n\n".join(render(fn(config), title) for fn, title in ABLATIONS))


if __name__ == "__main__":
    main()
