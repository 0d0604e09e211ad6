"""Reproduction of "Automatically Batching Control-Intensive Programs for
Modern Accelerators" (Radul, Patton, Maclaurin, Hoffman, Saurous;
MLSys 2020; arXiv:1910.11141).

Public API
----------

* :func:`autobatch` — decorate a single-example Python function; run it on a
  whole batch with ``.run_local(...)`` (Algorithm 1, local static
  autobatching) or ``.run_pc(...)`` (Algorithm 2, program-counter
  autobatching).  The decorated function stays callable from plain Python.
* :func:`primitive` — register a batched numpy function as an opaque kernel.
* :mod:`repro.ops` — built-in primitives (arithmetic, reductions, RNG).
* :mod:`repro.nuts` — the No U-Turn Sampler written in the autobatchable
  subset, plus baselines and diagnostics.
* :mod:`repro.bench` — the harness regenerating the paper's Figures 5 and 6.
* :mod:`repro.serve` — a continuous-batching serving engine: streaming
  requests recycled through the program-counter machine's lanes
  (``fn.serve(num_lanes)`` on any autobatched function).
* :mod:`repro.observe` — deterministic observability for serving runs:
  per-request event traces (Chrome-trace exportable), windowed per-tick
  metrics, and per-block execution profiles (``trace=True`` on
  ``fn.serve``/``fn.serve_cluster``).
"""

import importlib

from repro.frontend import (
    AutobatchFunction,
    Primitive,
    PrimitiveRegistry,
    autobatch,
    default_registry,
    primitive,
)
from repro.vm import BlockExecutor, ExecutionPlan, Instrumentation
from repro import ops

__version__ = "1.2.0"

# Resolved on first use (PEP 562): a run_pc / run_local caller never loads
# the serving stack or asyncio.
_ON_DEMAND = {
    "Engine": "repro.serve",
    "QueueFullError": "repro.serve",
    "StepBudgetExceeded": "repro.serve",
    "Trace": "repro.observe",
}


def __getattr__(name):
    if name in _ON_DEMAND:
        return getattr(importlib.import_module(_ON_DEMAND[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AutobatchFunction",
    "Primitive",
    "PrimitiveRegistry",
    "autobatch",
    "default_registry",
    "primitive",
    "Engine",
    "Trace",
    "QueueFullError",
    "StepBudgetExceeded",
    "BlockExecutor",
    "ExecutionPlan",
    "Instrumentation",
    "ops",
    "__version__",
]
