"""Continuous-batching serving on top of program-counter autobatching.

Why this exists
---------------
The paper's Algorithm 2 turns a batch of logically independent program
executions (e.g. NUTS chains) into one SIMD machine with a per-lane program
counter: every step executes one basic block under a mask, and members that
diverge simply wait at different blocks.  But the machine as published is
*static*: you bind Z inputs, run until **every** program counter reaches the
exit index, and only then read the outputs.  Near the end of a run the
batch is mostly stragglers — lane utilization decays toward 1/Z, the same
pathology Figure 6 measures for primitive-level batch utilization.

Lane recycling
--------------
The key observation is that a halted lane is *inert*: once member ``b``'s
program counter sits at ``exit_index``, no masked block execution touches
lane ``b`` again, so its registers, per-variable stacks, and return-address
stack can be reset and rebound to a brand-new logical thread without
perturbing in-flight neighbors.  (All primitives are per-lane elementwise
over the batch dimension — the property Algorithm 2 already relies on — so
a lane's trajectory is bit-identical whether its neighbors are the original
cohort or recycled strangers.)

:class:`Engine` exploits this with three VM-level hooks added to
:class:`~repro.vm.program_counter.ProgramCounterVM`:

* ``retire_lanes(idx)`` — gather the outputs of halted lanes,
* ``reset_lanes(idx)`` — restore those lanes to Algorithm 2's initial
  state (pc at the entry block, pc-stack bottomed at the exit index,
  storage zeroed),
* ``inject_lanes(idx, inputs)`` — scatter a new request's inputs in.

The serving loop per tick: admit queued requests into vacant lanes, execute
one scheduler-selected block (Algorithm 2's inner loop, unchanged), retire
any member that reached the exit, and deliver its outputs through the
caller's :class:`~repro.serve.queue.ResultHandle`.  Under sustained
traffic the machine never drains: the batch is a rolling population of
requests at different program points and stack depths — exactly the
heterogeneity Algorithm 2 was built to batch.

Preemption (lane checkpoint/resume)
-----------------------------------
Explicit state cuts the other way too: because a lane's *entire* logical
thread is its column slices (pc, return-address frames, per-variable
stacks), a mid-flight lane is **checkpointable**.
``ProgramCounterVM.snapshot_lane`` captures those slices as a
machine-independent :class:`~repro.vm.program_counter.LaneSnapshot`;
``restore_lane`` reinstalls them into any vacant lane of any machine bound
to the same program, and the thread resumes bit-identically.  ``preempt=``
(a :class:`~repro.serve.engine.PreemptPolicy`) uses this to honor priority
SLOs: a straggler lane is evicted — snapshotted, halted, re-queued with
its snapshot and original arrival stamp — so a higher-priority arrival
seats immediately, and the straggler *resumes* (same step budget, no
recompute) when a lane frees.  In a cluster, work stealing migrates
snapshot-carrying requests to idle shards, so a preempted lane can resume
on a different machine entirely.

Module map
----------
* :mod:`repro.serve.config` — :class:`ServeConfig`: every serving option,
  declared, documented and validated once for all five entry points.
* :mod:`repro.serve.server` — :class:`~repro.serve.server.Server`, the
  base of engine and cluster (clock, plan, trace plumbing, ``map``,
  ``run_until_idle``), and the drivers around any server: backpressure,
  wedge detection, tick-ordered replay.
* :mod:`repro.serve.engine` — :class:`Engine`: the tick loop, admission
  control (bounded queue, per-request step budgets), preempt policies,
  and the ``refill="drain"`` baseline discipline for benchmarking.
* :mod:`repro.serve.cluster` — :class:`Cluster`: N engine shards behind
  the same ``submit``/``map``/``run_until_idle`` surface: a fixed fleet
  with pluggable routing (``round_robin``, ``least_loaded``), spillover
  admission, cross-shard work stealing, and one shared execution plan
  (fused code is generated once for the whole fleet).
* :mod:`repro.serve.queue` — :class:`ServeRequest`, :class:`ResultHandle`,
  the bounded priority :class:`RequestQueue`, and the serving errors.
* :mod:`repro.serve.durability` — snapshots are *serializable*, which
  buys a bounded-memory preempted backlog (:class:`SpillStore` backends
  under a resident cap), an append-only admission :class:`Journal`, and
  :func:`recover`: bit-identical replay of a crashed fleet's journal.
* :mod:`repro.serve.aio` — :class:`AsyncServer`: the asyncio front door,
  wall-clock in, logical ticks in charge.
* :mod:`repro.serve.lanes` — :class:`LanePool`: deterministic
  lane-to-request assignment.
* :mod:`repro.serve.telemetry` — :class:`ServeTelemetry` (per engine) and
  :class:`ClusterTelemetry` (fleet rollup): lane utilization, queue wait,
  time-to-first-result, throughput, latency percentiles, and shard skew
  on the logical clock.
* :mod:`repro.observe` (sibling package) — opt-in ``trace=`` deep
  observability: per-request event timelines (``handle.trace()``, Chrome
  trace export), windowed per-tick metric series, and per-block
  execution profiles, all deterministic on the logical clock.

Entry points: ``Engine(fn, num_lanes)`` / ``fn.serve(num_lanes)`` for one
machine, ``Cluster(fn, num_engines, num_lanes)`` /
``fn.serve_cluster(num_engines, num_lanes)`` for a fleet.
"""

from repro.serve.aio import AsyncResultHandle, AsyncServer, replay_arrivals
from repro.serve.cluster import (
    Cluster,
    LeastLoadedPolicy,
    ROUTING_POLICIES,
    RoundRobinPolicy,
    RoutingPolicy,
    STEAL_POLICIES,
    StealPolicy,
    resolve_policy,
    resolve_steal_policy,
)
from repro.serve.config import REFILL_POLICIES, ServeConfig
from repro.serve.durability import (
    DiskSpillStore,
    Journal,
    MemorySpillStore,
    RecoveredRun,
    SpillStore,
    SpilledSnapshot,
    recover,
    resolve_spill_store,
)
from repro.serve.engine import (
    DeadlinePreemptPolicy,
    Engine,
    PREEMPT_POLICIES,
    PreemptPolicy,
    resolve_preempt_policy,
)
from repro.serve.lanes import LanePool
from repro.serve.queue import (
    QueueFullError,
    RequestQueue,
    ResultHandle,
    ServeRequest,
    StepBudgetExceeded,
)
from repro.serve.server import NO_PROGRESS_LIMIT, Arrival
from repro.serve.telemetry import ClusterTelemetry, ServeTelemetry

__all__ = [
    "Arrival",
    "AsyncResultHandle",
    "AsyncServer",
    "Cluster",
    "ClusterTelemetry",
    "DeadlinePreemptPolicy",
    "DiskSpillStore",
    "Engine",
    "Journal",
    "MemorySpillStore",
    "RecoveredRun",
    "SpillStore",
    "SpilledSnapshot",
    "recover",
    "resolve_spill_store",
    "NO_PROGRESS_LIMIT",
    "PREEMPT_POLICIES",
    "PreemptPolicy",
    "STEAL_POLICIES",
    "StealPolicy",
    "resolve_preempt_policy",
    "resolve_steal_policy",
    "LeastLoadedPolicy",
    "REFILL_POLICIES",
    "ROUTING_POLICIES",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "LanePool",
    "QueueFullError",
    "RequestQueue",
    "ResultHandle",
    "ServeRequest",
    "StepBudgetExceeded",
    "ServeConfig",
    "ServeTelemetry",
    "replay_arrivals",
    "resolve_policy",
]
