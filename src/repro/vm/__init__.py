"""The two autobatching runtimes.

* :mod:`repro.vm.local_static` — Algorithm 1: a masked nonstandard
  interpretation of the callable IR, with recursion inherited from the host
  Python (Figure 1).
* :mod:`repro.vm.program_counter` — Algorithm 2: a flat, non-recursive
  batched machine over the stack IR, with per-variable stacks and a
  program-counter stack (Figure 3).

Shared machinery: batched per-variable stacks (:mod:`repro.vm.stack`),
storage classes (:mod:`repro.vm.state`), masking vs gather-scatter primitive
application (:mod:`repro.vm.masking`), block-selection heuristics
(:mod:`repro.vm.scheduler`), execution counters
(:mod:`repro.vm.instrumentation`), the pluggable block-executor layer
(:mod:`repro.vm.executors`) that lets backends swap how the program-counter
machine runs each basic block (eager interpretation vs fused codegen), and
the versioned lane-snapshot wire format (:mod:`repro.vm.snapshot_codec`)
that lets a checkpointed lane leave process memory — spilled or
migrated — with integrity and admission checks on the way back in.
"""

from repro.vm.executors import (
    BlockExecutor,
    EagerBlockExecutor,
    ExecutionPlan,
    register_executor,
    resolve_executor,
)
from repro.vm.local_static import run_local_static
from repro.vm.program_counter import (
    LaneSnapshot,
    ProgramCounterVM,
    SnapshotIncompatibleError,
    run_program_counter,
)
from repro.vm.instrumentation import Instrumentation
from repro.vm.snapshot_codec import (
    SnapshotCodecError,
    SnapshotDecodeError,
    SnapshotProgramMismatchError,
    program_fingerprint,
)
from repro.vm.stack import BatchedStack, StackOverflowError

__all__ = [
    "run_local_static",
    "run_program_counter",
    "LaneSnapshot",
    "ProgramCounterVM",
    "SnapshotIncompatibleError",
    "SnapshotCodecError",
    "SnapshotDecodeError",
    "SnapshotProgramMismatchError",
    "program_fingerprint",
    "Instrumentation",
    "BatchedStack",
    "StackOverflowError",
    "BlockExecutor",
    "EagerBlockExecutor",
    "ExecutionPlan",
    "register_executor",
    "resolve_executor",
]
