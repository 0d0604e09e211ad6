"""The continuous-batching serving engine.

:class:`Engine` owns one :class:`~repro.vm.program_counter.ProgramCounterVM`
whose batch dimension is treated as a fixed pool of lanes.  Requests are
admitted from a bounded priority queue into vacant lanes *mid-flight*: when
a lane's member reaches the exit program counter it is retired (outputs
delivered through its :class:`~repro.serve.queue.ResultHandle`) and a queued
request is injected into the vacated lane on the very next tick, while the
other lanes keep stepping.  The machine never drains unless traffic stops.

The engine is synchronous and deterministic: one call to :meth:`tick` is
one engine step (one machine block execution, or an idle step), and all
scheduling — lane assignment, queue order, step budgets — is a pure
function of the submission sequence.  ``refill="drain"`` degrades the same
machinery to the static drain-then-refill discipline (admit only into an
empty machine), which is the baseline ``tests/test_serve.py`` compares
against.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.frontend.registry import PrimitiveRegistry
from repro.ir.instructions import StackProgram
from repro.observe import resolve_trace
from repro.serve.lanes import LanePool
from repro.vm.executors import ExecutionPlan
from repro.serve.queue import (
    QueueFullError,
    RequestQueue,
    ResultHandle,
    ServeRequest,
    StepBudgetExceeded,
    split_request_inputs,
)
from repro.serve.telemetry import ServeTelemetry
from repro.vm.instrumentation import Instrumentation
from repro.vm.program_counter import ProgramCounterVM
from repro.vm.stack import StackOverflowError

#: Lane refill disciplines.
REFILL_POLICIES = ("continuous", "drain")


class PreemptPolicy:
    """Priority preemption with a straggler-age threshold.

    Each engine tick, before admission, :meth:`plan` proposes running lanes
    to *evict* so queued higher-priority work can seat immediately instead
    of waiting out a straggler.  An evicted lane is checkpointed
    (:meth:`~repro.vm.program_counter.ProgramCounterVM.snapshot_lane`) and
    its request re-queued *with the snapshot*, so it resumes — not restarts
    — when a lane frees up again (possibly on another shard, if the cluster
    steals it).

    A running request is evictable for a queued one when

    * ``queued.priority - running.priority >= priority_delta`` — the delta
      is at least 1, so preemption can never ping-pong between equals and
      every eviction strictly raises the priority running in that lane; and
    * the running member has held its lane for at least ``min_age`` ticks —
      which also *bounds* the wait: a higher-priority arrival is delayed by
      at most ``min_age`` ticks of any straggler's residency, no matter how
      long the straggler would run.

    ``max_per_tick`` caps evictions per tick (None = one per eligible
    queued request).  The policy is a pure function of the engine's state,
    so preemption decisions replay deterministically for a replayed trace.
    Subclass and override :meth:`plan` for other disciplines.
    """

    #: Name used in ``preempt="..."`` selection.
    name = "priority"

    def __init__(
        self,
        priority_delta: int = 1,
        min_age: int = 0,
        max_per_tick: Optional[int] = None,
    ):
        if priority_delta < 1:
            raise ValueError(
                f"priority_delta must be >= 1, got {priority_delta} "
                "(equal priorities must never preempt each other)"
            )
        if min_age < 0:
            raise ValueError(f"min_age must be >= 0, got {min_age}")
        if max_per_tick is not None and max_per_tick < 1:
            raise ValueError(f"max_per_tick must be >= 1, got {max_per_tick}")
        self.priority_delta = int(priority_delta)
        self.min_age = int(min_age)
        self.max_per_tick = max_per_tick

    def plan(self, engine: "Engine") -> List[int]:
        """Lanes to evict this tick, in eviction order.

        Pairs the queue's service order (highest priority, then oldest)
        with the running lanes weakest-first: lowest priority, then longest
        in its lane (the straggler), then lowest lane index — a
        deterministic total order.  Stops at the first pair whose priority
        gap is below the delta (later waiters only have lower priority).
        """
        if engine.pool.free_count() or not len(engine.queue):
            return []
        now = engine.now
        evictable = [
            h
            for h in engine.pool.occupants().values()
            if h.lane_age(now) >= self.min_age
        ]
        evictable.sort(
            key=lambda h: (h.request.priority, -h.lane_age(now), h.lane)
        )
        lanes: List[int] = []
        waiting = engine.queue.waiting(limit=len(evictable))
        for waiter, victim in zip(waiting, evictable):
            if self.max_per_tick is not None and len(lanes) >= self.max_per_tick:
                break
            if (
                waiter.request.priority - victim.request.priority
                < self.priority_delta
            ):
                break
            lanes.append(victim.lane)
        return lanes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(priority_delta={self.priority_delta}, "
            f"min_age={self.min_age}, max_per_tick={self.max_per_tick})"
        )


class DeadlinePreemptPolicy(PreemptPolicy):
    """Deadline-aware eviction: urgent waiters take the slackest lanes.

    Where :class:`PreemptPolicy` pairs queued work with victims by
    *priority*, this policy pairs by *slack* — ticks of headroom before a
    request's absolute deadline (``submit_tick + deadline_ticks``;
    requests without a deadline have infinite slack).  Each tick, the
    queued deadline-carrying requests are ranked most-urgent-first
    (least slack), the running lanes most-evictable-first (most slack),
    and a lane is evicted when its occupant holds at least
    ``slack_delta`` more ticks of slack than the waiter — so eviction
    always trades a lane from a request that can afford to wait to one
    that cannot, even *within* one priority level.

    No ping-pong: every eviction strictly decreases the seated slack by
    at least ``slack_delta`` (and both slacks decay at the same rate, so
    the relation is time-invariant) — the evicted request can never turn
    around and evict its evictor.  Requests without deadlines never
    trigger an eviction and are the first victims.  ``min_age`` and
    ``max_per_tick`` behave as on the base policy; ``priority_delta``
    gates nothing here (slack is the signal), but queue service order
    still seats higher priorities first, so a deadline can expedite a
    request within its priority class, not across classes.
    """

    #: Name used in ``preempt="..."`` selection.
    name = "deadline"

    def __init__(
        self,
        slack_delta: int = 1,
        min_age: int = 0,
        max_per_tick: Optional[int] = None,
    ):
        super().__init__(
            priority_delta=1, min_age=min_age, max_per_tick=max_per_tick
        )
        if slack_delta < 1:
            raise ValueError(
                f"slack_delta must be >= 1, got {slack_delta} "
                "(zero-gap eviction would ping-pong between equal slacks)"
            )
        self.slack_delta = int(slack_delta)

    def plan(self, engine: "Engine") -> List[int]:
        """Lanes to evict this tick: slackest victims for urgent waiters."""
        if engine.pool.free_count() or not len(engine.queue):
            return []
        now = engine.now
        evictable = [
            h
            for h in engine.pool.occupants().values()
            if h.lane_age(now) >= self.min_age
        ]
        # Most slack first; ties fall back to the base policy's weakest-
        # first order (lowest priority, longest resident, lowest lane).
        evictable.sort(
            key=lambda h: (
                -h.slack(now), h.request.priority, -h.lane_age(now), h.lane
            )
        )
        # Least slack first among the waiters; arrival stamps break ties
        # deterministically.  Deadline-less waiters (infinite slack) sort
        # last and can never satisfy the slack gap, so the zip below
        # stops before reaching them.
        waiting = sorted(
            engine.queue.waiting(),
            key=lambda h: (h.slack(now), -h.request.priority, h.arrival),
        )
        lanes: List[int] = []
        for waiter, victim in zip(waiting, evictable):
            if self.max_per_tick is not None and len(lanes) >= self.max_per_tick:
                break
            # Compare on the >= side: a deadline-less waiter against a
            # deadline-less victim gives inf - inf = nan, which must read
            # as "no gap" — `nan < delta` is False and would fall through
            # to an eviction that ping-pongs every tick.
            if not victim.slack(now) - waiter.slack(now) >= self.slack_delta:
                break
            lanes.append(victim.lane)
        return lanes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(slack_delta={self.slack_delta}, "
            f"min_age={self.min_age}, max_per_tick={self.max_per_tick})"
        )


#: Preempt-policy factories by selection name.
PREEMPT_POLICIES: Dict[str, Type[PreemptPolicy]] = {
    PreemptPolicy.name: PreemptPolicy,
    DeadlinePreemptPolicy.name: DeadlinePreemptPolicy,
}


def resolve_preempt_policy(spec: Any) -> Optional[PreemptPolicy]:
    """Turn a ``preempt=`` argument into a :class:`PreemptPolicy` (or None = off)."""
    if spec is None or spec is False:
        return None
    if spec is True:
        return PreemptPolicy()
    if isinstance(spec, PreemptPolicy):
        return spec
    if isinstance(spec, type) and issubclass(spec, PreemptPolicy):
        return spec()
    if isinstance(spec, str):
        try:
            return PREEMPT_POLICIES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown preempt policy {spec!r}; "
                f"known: {sorted(PREEMPT_POLICIES)}"
            )
    raise TypeError(
        f"preempt must be a bool, name, or PreemptPolicy, "
        f"got {type(spec).__name__}"
    )


def drive_until_idle(server: Any, max_ticks: Optional[int] = None) -> int:
    """Tick ``server`` until it holds no queued or in-flight work.

    Shared driver for :class:`Engine` and
    :class:`~repro.serve.cluster.Cluster` (anything with ``busy``/``tick``/
    ``now``).  Returns the ticks run; raises ``RuntimeError`` if work
    remains after ``max_ticks``.
    """
    start = server.now
    while server.busy():
        # Budget check *before* the tick: a busy server with max_ticks=0
        # must raise without running a step, and an exact budget (work
        # finishing on tick N with max_ticks=N) must not.
        if max_ticks is not None and server.now - start >= max_ticks:
            raise RuntimeError(
                f"{type(server).__name__.lower()} still busy after "
                f"max_ticks={max_ticks}"
            )
        server.tick()
    return server.now - start


#: Consecutive full-admission ticks with an unchanged progress signature
#: that :func:`serve_all` tolerates before declaring the server wedged.
#: Large enough to outlast transient plateaus (autoscale patience counters,
#: steal cooldowns) that resolve themselves without any counter moving.
NO_PROGRESS_LIMIT = 64


def serve_all(
    server: Any,
    request_inputs: Iterable[Sequence[Any]],
    priority: int = 0,
    step_budget: Optional[int] = None,
    deadline_ticks: Optional[int] = None,
) -> List[Any]:
    """Submit every request with backpressure, drain, return results in order.

    The shared body of ``Engine.map`` and ``Cluster.map``: while admission
    is full everywhere (``server.admission_full()``), tick instead of
    overflowing; raise :class:`QueueFullError` if the server goes idle
    without ever being able to admit, or if :data:`NO_PROGRESS_LIMIT`
    consecutive ticks leave the server's :meth:`progress_signature`
    unchanged — a wedged fleet (e.g. every shard draining for retirement
    with nowhere to re-seat its queue) would otherwise spin here forever,
    since the logical clock always advances even when nothing else does.
    """
    signature = getattr(server, "progress_signature", None)
    handles = []
    for inputs in request_inputs:
        stalled = 0
        before = None if signature is None else signature()
        while server.admission_full():
            if not server.tick():
                raise QueueFullError(
                    f"the queue is full but the "
                    f"{type(server).__name__.lower()} is idle; "
                    "max_queue_depth is too small to ever admit"
                )
            if signature is None:
                continue
            after = signature()
            if after == before:
                stalled += 1
                if stalled >= NO_PROGRESS_LIMIT:
                    raise QueueFullError(
                        f"admission is full but {stalled} consecutive ticks "
                        f"made no progress; the "
                        f"{type(server).__name__.lower()} can never admit "
                        "(is every shard draining for retirement?)"
                    )
            else:
                stalled = 0
                before = after
        handles.append(
            server.submit(
                *inputs,
                priority=priority,
                step_budget=step_budget,
                deadline_ticks=deadline_ticks,
            )
        )
    server.run_until_idle()
    return [h.result() for h in handles]


class Engine:
    """Serve streaming requests through one lane-recycled batched machine.

    Parameters
    ----------
    program:
        An :class:`~repro.frontend.api.AutobatchFunction` (lowered lazily)
        or an already-lowered :class:`~repro.ir.instructions.StackProgram`.
    num_lanes:
        Width of the machine's batch dimension — the maximum number of
        requests in flight at once.
    max_queue_depth:
        Admission control: submissions beyond this many queued requests
        raise :class:`QueueFullError` (``None`` = unbounded).
    default_step_budget:
        Per-request cap on machine steps in which the request's member is
        active; exhausted requests fail with :class:`StepBudgetExceeded`
        and their lane is recycled.  Overridable per ``submit``.
    refill:
        ``"continuous"`` (inject into vacated lanes mid-flight) or
        ``"drain"`` (admit only into a fully drained machine — the static
        baseline).
    preempt:
        Priority preemption: ``True`` for the default
        :class:`PreemptPolicy`, an instance for tuned
        ``priority_delta``/``min_age``/``max_per_tick``, ``None``/``False``
        (default) for off.  Each tick, eligible straggler lanes are
        checkpointed and evicted so queued higher-priority requests seat
        immediately; the evicted request re-queues with its
        :class:`~repro.vm.program_counter.LaneSnapshot` and *resumes* when
        a lane frees (keeping its step budget and arrival order).
        Requires ``refill="continuous"``.
    resume_batching:
        Off by default.  When on, lane refill prefers *groups* of
        preempted requests parked at the same program counter: if the
        queue head carries a snapshot, admission seats the largest
        same-``(priority, pc)`` cohort (ties to the lowest pc) instead of
        strict service order, so resumed stragglers re-converge into
        shared masked steps — undoing the divergence preemption scattered
        them into.  Only reorders *within* one priority level and only
        among snapshot-carrying handles; a passed-over head is seated
        unconditionally after ``resume_defer_limit`` deferrals, so the
        reordering is bounded and deterministic.
    trace:
        Observability (off by default, zero overhead when off): ``True``
        for a full :class:`~repro.observe.Trace` (per-request event
        timelines, per-tick metrics, per-block profiling),
        ``"events"``/``"metrics"``/``"profile"`` for one piece, or a
        :class:`~repro.observe.Trace` instance to share one recorder
        across engines.  Everything is stamped with the logical clock,
        so traces from identical runs are byte-identical.
    executor:
        Block-executor choice for the machine: ``"eager"`` (per-op
        dispatch), ``"fused"`` (each block one pre-compiled callable —
        same results, a fraction of the dispatches), or ``"superblock"``
        (hot block *runs* fused into one callable each — same results
        again, below one dispatch per executed block; pass a
        :class:`~repro.backend.fusion.SuperblockExecutor` instance to
        seed regions from a :class:`~repro.observe.BlockProfile`).  Lane
        recycling is executor-agnostic: the retire/reset/inject hooks go
        through the machine's :class:`~repro.vm.executors.ExecutionPlan`.
    verify:
        Statically verify the program once at plan compile (the default;
        see :mod:`repro.analysis.stackcheck`) — stack-effect safety, depth
        bounds, region-table consistency — with zero steady-state cost:
        the proven facts are cached on the plan, and when
        ``max_stack_depth`` is not given the machine's stacks pre-size
        from the proven bound instead of the depth-32 guess.
    max_resident_snapshots:
        Cap on queued preempted-lane snapshots held as live arrays.
        Overflow is serialized (:meth:`LaneSnapshot.to_bytes`) into
        ``spill_store`` and rehydrated — through the full static admission
        checks — when popped to resume, so a deep preempted backlog costs
        bounded array memory while resume re-batching and cross-shard
        stealing keep working on spilled entries.  ``None`` (default)
        never spills.
    spill_store:
        Where spilled snapshot bytes live: a
        :class:`~repro.serve.durability.SpillStore`, ``"memory"``, or a
        directory path for the on-disk backend.  Defaults to a fresh
        in-memory store when a cap is set.
    journal:
        An admission :class:`~repro.serve.durability.Journal`: every
        accepted submit (inputs, priority, budget, deadline, arrival
        tick) and every completion is recorded, plus periodic snapshot
        checkpoints of preempted lanes, so a crashed engine's work is
        recoverable bit-identically via
        :func:`~repro.serve.durability.recover`.
    checkpoint_interval:
        Ticks between journal checkpoint sweeps of the preempted backlog
        (default 64 when a journal is attached; 0 disables checkpoints
        while keeping the submit/complete log).
    """

    def __init__(
        self,
        program: Any,
        num_lanes: int,
        *,
        registry: Optional[PrimitiveRegistry] = None,
        mode: str = "mask",
        scheduler: Any = "earliest",
        max_stack_depth: Optional[int] = None,
        top_cache: bool = True,
        optimize: Any = True,
        executor: Any = None,
        verify: bool = True,
        max_queue_depth: Optional[int] = None,
        default_step_budget: Optional[int] = None,
        refill: str = "continuous",
        preempt: Any = None,
        resume_batching: bool = False,
        resume_defer_limit: int = 4,
        trace: Any = None,
        max_steps: int = 10 ** 12,
        instrumentation: Optional[Instrumentation] = None,
        max_resident_snapshots: Optional[int] = None,
        spill_store: Any = None,
        journal: Any = None,
        checkpoint_interval: Optional[int] = None,
    ):
        if refill not in REFILL_POLICIES:
            raise ValueError(
                f"refill must be one of {REFILL_POLICIES}, got {refill!r}"
            )
        preempt_policy = resolve_preempt_policy(preempt)
        if preempt_policy is not None and refill == "drain":
            raise ValueError(
                "preemption requires refill='continuous': a drained machine "
                "admits nothing until empty, so an evicted request could "
                "never resume ahead of the drain"
            )
        if isinstance(program, ExecutionPlan):
            if executor is not None:
                raise ValueError(
                    "pass either an ExecutionPlan or executor=, not both"
                )
            plan = program
        elif isinstance(program, StackProgram):
            plan = ExecutionPlan.compile(
                program, executor=executor, verify=verify
            )
        elif hasattr(program, "stack_program"):
            if registry is None:
                registry = getattr(program, "registry", None)
            plan = ExecutionPlan.compile(
                program, executor=executor, optimize=optimize, verify=verify
            )
        else:
            raise TypeError(
                "program must be an AutobatchFunction, a StackProgram, or "
                f"an ExecutionPlan, got {type(program).__name__}"
            )
        if resume_defer_limit < 1:
            raise ValueError(
                f"resume_defer_limit must be >= 1, got {resume_defer_limit}"
            )
        self.refill = refill
        self.default_step_budget = default_step_budget
        self.preempt = preempt_policy
        self.resume_batching = bool(resume_batching)
        self.resume_defer_limit = int(resume_defer_limit)
        #: The snapshot pc the current admission wave is seating (reset at
        #: every wave): keeps :meth:`_pop_next` drawing from one cohort
        #: until it runs dry instead of round-robining over ties.
        self._resume_sticky_pc: Optional[int] = None
        self.plan = plan
        self.vm = ProgramCounterVM(
            plan,
            batch_size=num_lanes,
            registry=registry,
            mode=mode,
            scheduler=scheduler,
            max_stack_depth=max_stack_depth,
            top_cache=top_cache,
            instrumentation=instrumentation,
            max_steps=max_steps,
        )
        # A fresh machine starts every member at the entry block; a fresh
        # *server* starts every lane vacant.
        self.vm.halt_lanes(np.arange(num_lanes, dtype=np.int64))
        self.vm.track_occupancy = True
        self.pool = LanePool(num_lanes)
        self.queue = RequestQueue(max_depth=max_queue_depth)
        self.telemetry = ServeTelemetry(
            num_lanes=num_lanes, instrumentation=self.vm.instr
        )
        self._tick = 0
        #: Request-id source.  Standalone engines number from 0; a cluster
        #: replaces this with one counter shared by every shard, so ids are
        #: fleet-unique and a shared tracer never merges two requests'
        #: timelines under one key.
        self._ids = itertools.count()
        #: Resolved observability hub (None = fully off; the hot paths pay
        #: one ``is None`` check).  A cluster passes one shared instance to
        #: every shard, so the fleet shares an event stream and recorder.
        self.trace = resolve_trace(trace)
        self._metric_bufs = None
        if self.trace is not None:
            if self.trace.profile:
                self.vm.instr.track_blocks = True
            self.trace.attach_engine(self)
        if max_resident_snapshots is not None and max_resident_snapshots < 0:
            raise ValueError(
                f"max_resident_snapshots must be >= 0, got "
                f"{max_resident_snapshots}"
            )
        if checkpoint_interval is not None and checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0, got {checkpoint_interval}"
            )
        #: Cap on queued preempted snapshots held as live arrays (None =
        #: unbounded).  Overflow is serialized into :attr:`spill_store` and
        #: transparently rehydrated at resume; see
        #: :mod:`repro.serve.durability`.
        self.max_resident_snapshots = (
            None if max_resident_snapshots is None else int(max_resident_snapshots)
        )
        if spill_store is not None or self.max_resident_snapshots is not None:
            from repro.serve.durability import resolve_spill_store

            self.spill_store = resolve_spill_store(spill_store)
        else:
            self.spill_store = None
        #: Admission :class:`~repro.serve.durability.Journal` (None = off):
        #: every accepted submit and every completion is recorded, plus
        #: periodic snapshot checkpoints of the preempted backlog.
        self.journal = journal
        #: Ticks between journal checkpoint sweeps; None picks the default
        #: when a journal is attached, 0 disables checkpointing.
        self.checkpoint_interval = (
            None if checkpoint_interval is None else int(checkpoint_interval)
        )
        #: Stable shard identity within a :class:`~repro.serve.cluster.Cluster`
        #: (None for a standalone engine); survives fleet grow/shrink, unlike
        #: a position in the cluster's active-engine list.
        self.shard_id: Optional[int] = None
        #: True once the engine is being retired: no new submissions, the
        #: in-flight lanes run to completion and the queue has been exported.
        self.draining = False

    # -- submission ----------------------------------------------------------

    @property
    def now(self) -> int:
        """The engine's logical clock (ticks elapsed)."""
        return self._tick

    @property
    def executor(self) -> str:
        """Name of the block executor running the machine's blocks."""
        return self.plan.name

    def dispatch_count(self) -> int:
        """Host→device launches so far under this engine's execution plan."""
        return self.plan.dispatch_count(self.vm.instr)

    def load(self) -> int:
        """Outstanding work: queued plus in-flight requests.

        The routing metric cluster policies balance on — a vacant lane
        lowers it, a deep queue raises it.
        """
        return len(self.queue) + self.pool.busy_count()

    # -- observability -------------------------------------------------------

    def _emit(
        self,
        kind: str,
        handle: Optional[ResultHandle] = None,
        lane: Optional[int] = None,
        src: Optional[int] = None,
    ) -> None:
        """Record one trace event at the current tick (no-op untraced)."""
        if self.trace is None or self.trace.tracer is None:
            return
        self.trace.tracer.record(
            kind,
            self._tick,
            request_id=None if handle is None else handle.request_id,
            shard=self.shard_id,
            lane=lane,
            priority=None if handle is None else handle.request.priority,
            src=src,
        )

    def _sample_metrics(self, busy: int) -> None:
        """Record this tick's gauges (only called when metrics are on).

        The four ring buffers are resolved once, on the first sample (by
        which point a cluster has assigned ``shard_id``, fixing the series
        prefix), so the per-tick cost is four tuple appends — cheap enough
        that metrics stay within the tracing overhead that
        ``ladder.engine_trace_us`` in ``benchmarks/e2e`` measures.
        """
        bufs = self._metric_bufs
        if bufs is None:
            metrics = self.trace.metrics
            prefix = "" if self.shard_id is None else f"shard{self.shard_id}/"
            bufs = self._metric_bufs = tuple(
                metrics.series(prefix + name)
                for name in (
                    "queue_depth", "busy_lanes", "preempted_backlog",
                    "utilization",
                )
            )
        depth_buf, busy_buf, backlog_buf, util_buf = bufs
        tick = self._tick
        queue = self.queue
        depth_buf.append((tick, float(queue.depth())))
        busy_buf.append((tick, float(busy)))
        backlog_buf.append((tick, float(queue.snapshot_count())))
        util_buf.append((tick, busy / self.pool.num_lanes))

    def submit(
        self,
        *inputs: Any,
        priority: int = 0,
        step_budget: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> ResultHandle:
        """Enqueue one request; returns its handle.

        ``inputs`` are *per-example* (unbatched) values, one per program
        input.  Raises :class:`QueueFullError` at ``max_queue_depth``.
        ``deadline_ticks`` attaches a relative SLO deadline: the request
        should finish within that many ticks of now.  Queue service order
        becomes earliest-deadline-first within the request's priority
        level, :class:`DeadlinePreemptPolicy` may evict slack-rich lanes
        for it, and ``telemetry.slo_attainment("deadline")`` scores its
        completion against its own deadline.
        """
        if deadline_ticks is not None and deadline_ticks < 0:
            raise ValueError(
                f"deadline_ticks must be >= 0, got {deadline_ticks}"
            )
        n_expected = len(self.vm.program.inputs)
        if len(inputs) != n_expected:
            raise ValueError(
                f"program takes {n_expected} inputs, got {len(inputs)}"
            )
        if self.draining:
            raise RuntimeError(
                "engine is draining for retirement and accepts no new requests"
            )
        if self.queue.full():
            self.telemetry.rejected += 1
            if self.trace is not None and self.trace.tracer is not None:
                # No request id is ever assigned to a rejected submission.
                self.trace.tracer.record(
                    "reject", self._tick, shard=self.shard_id, priority=priority
                )
            raise QueueFullError(
                f"request queue is at max_depth={self.queue.max_depth}"
            )
        request = ServeRequest(
            request_id=next(self._ids),
            inputs=split_request_inputs(inputs),
            priority=priority,
            step_budget=(
                step_budget if step_budget is not None else self.default_step_budget
            ),
            submit_tick=self._tick,
            deadline_ticks=deadline_ticks,
        )
        handle = ResultHandle(request)
        if self.trace is not None and self.trace.tracer is not None:
            handle._tracer = self.trace.tracer
        self.queue.push(handle)
        self.telemetry.submitted += 1
        if self.journal is not None:
            # Only *accepted* submits are journaled (rejections raised
            # above), so replaying the journal reproduces the admission
            # sequence exactly.
            self.journal.record_submit(handle)
        self._emit("submit", handle)
        return handle

    # -- queue migration (cluster work stealing / shard retirement) ----------

    def export_queue(
        self,
        max_requests: Optional[int] = None,
        include_preempted: bool = True,
    ) -> List[ResultHandle]:
        """Remove up to ``max_requests`` queued handles for migration.

        Handles come out in the queue's service order (highest priority,
        then oldest arrival), so a stealing cluster moves exactly the work
        this shard would have run next.  In-flight lanes are untouched.
        Preempted requests waiting with a lane snapshot migrate too — the
        snapshot is machine-independent, so they resume on the destination
        shard — unless ``include_preempted=False``, which skips them (they
        stay queued here, order preserved by their arrival stamps).
        """
        exported: List[ResultHandle] = []
        skipped: List[ResultHandle] = []
        while len(self.queue) and (
            max_requests is None or len(exported) < max_requests
        ):
            handle = self.queue.pop()
            if handle.snapshot is not None and not include_preempted:
                skipped.append(handle)
                continue
            exported.append(handle)
        for handle in skipped:
            self.queue.requeue(handle)
        return exported

    def requeue(self, handles: Iterable[ResultHandle]) -> None:
        """Admit handles migrated from another shard's queue.

        Admission control already ran at original submission, so this
        bypasses ``max_queue_depth``; each handle keeps its priority,
        arrival stamp, and step budget (see
        :meth:`~repro.serve.queue.RequestQueue.requeue`).  The ``submitted``
        counter is *not* incremented — the request was counted where it
        first arrived.
        """
        for handle in handles:
            self.queue.requeue(handle)

    def begin_drain(self) -> List[ResultHandle]:
        """Start retiring this engine: close admission, export the queue.

        Returns the queued handles for the caller to re-seat elsewhere.
        In-flight lanes are left running — keep ticking the engine until
        :meth:`busy` goes False, then it can be dropped without losing any
        handle.
        """
        self.draining = True
        return self.export_queue()

    # -- the continuous-batching loop -----------------------------------------

    def _preempt_step(self) -> None:
        """Checkpoint-and-evict straggler lanes per the preempt policy.

        Each planned lane is snapshotted, halted, and vacated; its request
        re-enters the queue carrying the snapshot (original arrival stamp
        and priority intact, so it is first in line within its priority
        level to resume).  The admission pass that follows seats the
        waiting higher-priority work into the freed lanes on this same
        tick.
        """
        for lane in self.preempt.plan(self):
            lane = int(lane)
            handle = self.pool.occupant(lane)
            snapshot = self.vm.snapshot_lane(lane)
            self.vm.halt_lanes(np.asarray([lane], dtype=np.int64))
            self.pool.release(lane)
            handle._mark_preempted(self._tick, snapshot)
            # Admission control ran at original submission; re-queuing an
            # eviction must never reject, so it bypasses max_depth.
            self.queue.requeue(handle)
            self.telemetry.record_preempt()
            self._emit("preempt", handle, lane=lane)

    def _resume(self, handle: ResultHandle, lane: int) -> None:
        """Reinstall a preempted request's snapshot into a vacant lane.

        A failed restore (snapshot migrated onto a machine with a smaller
        ``max_stack_depth``, or a mismatched program) must fail *that
        handle* and vacate the lane — mirroring :meth:`_inject_one` — not
        leak a half-restored lane out of the pool.  The same discipline
        covers rehydration: a spilled snapshot whose bytes come back
        unreadable or corrupt (a ``SnapshotDecodeError``, i.e. a
        ``ValueError``) fails only this handle — the lane was never
        touched, so it is simply released — and the tick loop carries on.
        """
        wait = self._tick - handle.preempt_tick
        lane_idx = np.asarray([lane], dtype=np.int64)
        snapshot = handle.snapshot
        if getattr(snapshot, "spilled", False):
            try:
                snapshot = snapshot.load(
                    self.vm.program,
                    facts=getattr(self.plan, "facts", None),
                    max_stack_depth=self.vm.max_stack_depth,
                )
            except (ValueError, TypeError, StackOverflowError) as error:
                # Decode failed before any machine state was written: no
                # halt needed, just vacate the lane and fail the handle.
                self.pool.release(lane)
                handle.snapshot = None
                handle._fail(error, self._tick)
                self.telemetry.failed += 1
                self._journal_complete(handle, failed=True)
                self._emit("fail", handle, lane=lane)
                return
            handle.snapshot = snapshot
            self.telemetry.rehydrations += 1
        try:
            self.vm.restore_lane(lane, snapshot)
        except (ValueError, TypeError, StackOverflowError) as error:
            # The lane may be partially restored (a live pc over reset
            # storage); halt it back to inert before releasing.
            self.vm.halt_lanes(lane_idx)
            self.pool.release(lane)
            handle.snapshot = None
            handle._fail(error, self._tick)
            self.telemetry.failed += 1
            self._journal_complete(handle, failed=True)
            self._emit("fail", handle, lane=lane)
            return
        handle._mark_resumed(lane, self._tick)
        self.telemetry.record_resume(wait)
        self._emit("resume", handle, lane=lane)

    def _pop_next(self) -> ResultHandle:
        """The next handle to seat, honoring resume re-batching when on.

        Strict service order unless the queue head is a preempted request:
        then the largest same-priority snapshot cohort wins (ties to the
        lowest pc), because seating pc-aligned stragglers together lets
        every one of their resumed steps share one masked dispatch.  Within
        one admission wave the choice is *sticky*: once a cohort starts
        seating, later pops keep drawing from it until it is exhausted.
        A per-pop greedy maximum would round-robin across equal-sized
        cohorts (popping one member makes that cohort no longer the max),
        seating a perfectly mixed wave — the opposite of alignment.  The
        head is never deferred more than ``resume_defer_limit``
        consecutive times, and never in favor of lower-priority work — the
        reordering is bounded, intra-priority, and deterministic.
        """
        head = self.queue.peek()
        if head.snapshot is None:
            return self.queue.pop()
        priority = head.request.priority
        counts = self.queue.resume_pc_counts(priority)
        sticky = self._resume_sticky_pc
        if sticky is not None and counts.get(sticky, 0) > 0:
            pc = sticky
        else:
            pc = min(counts, key=lambda p: (-counts[p], p))
        if pc == head.snapshot.pc:
            self._resume_sticky_pc = pc
            return self.queue.pop()
        if head.resume_defers >= self.resume_defer_limit:
            self._resume_sticky_pc = head.snapshot.pc
            return self.queue.pop()
        picked = self.queue.pop_resume_at(priority, pc)
        if picked is None:  # no cohort member actually available
            return self.queue.pop()
        head.resume_defers += 1
        self.telemetry.resume_rebatches += 1
        self._resume_sticky_pc = pc
        return picked

    def _admit(self) -> None:
        """Move queued requests into vacant lanes, per the refill policy."""
        self._resume_sticky_pc = None
        if self.refill == "drain" and self.pool.busy_count() > 0:
            return
        seated: List[ResultHandle] = []
        while len(self.queue) and self.pool.free_count():
            handle = (
                self._pop_next() if self.resume_batching else self.queue.pop()
            )
            lane = self.pool.acquire(handle)
            if handle.snapshot is not None:
                # A preempted request resumes from its checkpoint instead
                # of re-injecting its inputs from scratch.
                self._resume(handle, lane)
                continue
            handle._mark_running(lane, self._tick)
            self.telemetry.record_inject(handle.queue_wait())
            self._emit("inject", handle, lane=lane)
            seated.append(handle)
        if not seated:
            return
        try:
            # One gathered injection for all newly seated lanes.
            idx = np.asarray([h.lane for h in seated], dtype=np.int64)
            inputs = [
                np.stack([h.request.inputs[j] for h in seated])
                for j in range(len(self.vm.program.inputs))
            ]
            self.vm.inject_lanes(idx, inputs)
        except (ValueError, TypeError):
            # Some request's inputs don't fit the program's storages (wrong
            # event shape, unstackable mix).  Re-inject one by one so the
            # culprit fails on its own handle and good neighbors still run.
            for handle in seated:
                self._inject_one(handle)

    def _inject_one(self, handle: ResultHandle) -> None:
        lane = np.asarray([handle.lane], dtype=np.int64)
        try:
            self.vm.inject_lanes(
                lane, [x[None] for x in handle.request.inputs]
            )
        except (ValueError, TypeError) as error:
            # The lane was reset but the inputs never landed; vacate it
            # rather than letting it run the program on zeroed storage.
            self.vm.halt_lanes(lane)
            self.pool.release(handle.lane)
            handle._fail(error, self._tick)
            self.telemetry.failed += 1
            self._journal_complete(handle, failed=True)
            self._emit("fail", handle, lane=int(lane[0]))

    def _retire_finished(self) -> None:
        """Deliver outputs of every busy lane whose member has halted."""
        busy = self.pool.busy_lanes()
        if busy.size == 0:
            return
        halted = self.vm.halted_mask()
        done = busy[halted[busy]]
        if done.size == 0:
            return
        outputs = self.vm.retire_lanes(done)
        single = len(outputs) == 1
        for j, lane in enumerate(done):
            handle = self.pool.release(int(lane))
            value = outputs[0][j] if single else tuple(o[j] for o in outputs)
            handle._resolve(value, self._tick)
            self._journal_complete(handle)
            deadline = handle.deadline_tick
            self.telemetry.record_completion(
                self._tick,
                priority=handle.request.priority,
                latency=self._tick - handle.request.submit_tick,
                deadline_ticks=handle.request.deadline_ticks,
            )
            if deadline is not None and self._tick > deadline:
                # A deadline miss is its own timeline marker, just before
                # the terminal event at the same tick.
                self._emit("deadline", handle, lane=int(lane))
            self._emit("complete", handle, lane=int(lane))

    def _enforce_budgets(self, stepped: np.ndarray) -> None:
        """Abort still-running requests that exhausted their step budget."""
        for lane in stepped:
            handle = self.pool.occupant(int(lane))
            if handle is None:  # retired in this very tick
                continue
            handle.steps_used += 1
            budget = handle.request.step_budget
            if budget is not None and handle.steps_used >= budget:
                self.vm.halt_lanes(np.asarray([lane], dtype=np.int64))
                self.pool.release(int(lane))
                handle._fail(
                    StepBudgetExceeded(
                        f"request {handle.request_id} exceeded its step "
                        f"budget of {budget} machine steps"
                    ),
                    self._tick,
                )
                self.telemetry.failed += 1
                self._journal_complete(handle, failed=True)
                self._emit("fail", handle, lane=int(lane))

    # -- durability (spilling + journaling; see repro.serve.durability) --------

    def _journal_complete(self, handle: ResultHandle, failed: bool = False) -> None:
        if self.journal is not None:
            self.journal.record_complete(
                handle.request_id, self._tick, failed=failed
            )

    def _spill_one(self, handle: ResultHandle) -> Any:
        """Serialize one queued snapshot into the spill store; returns the
        stub, or None when the snapshot cannot leave process memory (an
        executor stashed unserializable state — counted, never dropped)."""
        from repro.serve.durability import SpilledSnapshot

        try:
            data = handle.snapshot.to_bytes()
        except (TypeError, ValueError):
            # ExecutorStateError et al.: the snapshot stays resident (and
            # correct); losing device state silently is the one thing the
            # codec refuses to do.
            self.telemetry.spill_errors += 1
            return None
        # request_id is fleet-unique and preemptions counts this handle's
        # evictions, so the key is unique across shards sharing one store.
        key = f"{handle.request_id}-{handle.preemptions}"
        self.spill_store.put(key, data)
        self.telemetry.spills += 1
        self._emit("spill", handle)
        return SpilledSnapshot(
            pc=handle.snapshot.pc, key=key, store=self.spill_store
        )

    def _spill_step(self) -> None:
        """Enforce ``max_resident_snapshots`` over the queued backlog."""
        if self.max_resident_snapshots is None:
            return
        self.queue.spill_overflow(self.max_resident_snapshots, self._spill_one)
        resident = self.queue.resident_snapshots()
        if resident > self.telemetry.resident_peak:
            self.telemetry.resident_peak = resident

    def _checkpoint_step(self) -> None:
        """Journal the serialized snapshot of every queued preempted lane.

        Resident snapshots serialize here; spilled ones copy their
        already-serialized bytes out of the store.  A snapshot that cannot
        serialize is counted (``spill_errors``), never silently skipped.
        """
        for handle in self.queue.waiting():
            snapshot = handle.snapshot
            if snapshot is None:
                continue
            if getattr(snapshot, "spilled", False):
                try:
                    data = snapshot.store.get(snapshot.key)
                except KeyError:
                    continue
            else:
                try:
                    data = snapshot.to_bytes()
                except (TypeError, ValueError):
                    self.telemetry.spill_errors += 1
                    continue
            self.journal.record_checkpoint(
                handle.request_id, self._tick, data,
                steps_used=handle.steps_used,
            )

    def set_journal(self, journal: Any) -> None:
        """Attach (or detach, with None) an admission journal."""
        self.journal = journal

    def tick(self) -> bool:
        """One engine step: preempt, admit, step the machine, retire, enforce
        budgets.

        Returns True while the engine holds queued or in-flight work after
        the tick.  A tick with an empty machine still advances the logical
        clock (an *idle* tick), so open-loop drivers can model arrival gaps.
        """
        if self.preempt is not None:
            self._preempt_step()
        self._admit()
        # Spill after admission: resumes just drained the hot head of the
        # backlog, so the cap is enforced over what actually stays queued.
        self._spill_step()
        busy = self.pool.busy_count()
        self.telemetry.record_tick(busy)
        if self.trace is not None and self.trace.metrics is not None:
            self._sample_metrics(busy)
        self._tick += 1
        if busy:
            stepped = self.vm.step_lanes()
            self._retire_finished()
            if stepped is not None:
                self._enforce_budgets(stepped)
        if self.journal is not None:
            interval = self.checkpoint_interval
            if interval is None:
                from repro.serve.durability import DEFAULT_CHECKPOINT_INTERVAL

                interval = DEFAULT_CHECKPOINT_INTERVAL
            if interval and self._tick % interval == 0:
                self._checkpoint_step()
        return bool(self.pool.busy_count() or len(self.queue))

    def busy(self) -> bool:
        """True while the engine holds queued or in-flight work."""
        return bool(self.pool.busy_count() or len(self.queue))

    def admission_full(self) -> bool:
        """True while no new submission can be queued."""
        return self.queue.full()

    def progress_signature(self) -> Tuple[int, ...]:
        """A fingerprint that changes iff the engine is making progress.

        Deliberately excludes the logical clock (which advances every tick
        regardless): machine steps, completions, failures, preemptions,
        resumes, queue depth, and busy lanes.  Backpressure loops compare
        consecutive signatures to tell a busy fleet from a wedged one.
        """
        t = self.telemetry
        return (
            self.vm.instr.steps,
            t.completed,
            t.failed,
            t.preemptions,
            t.resumes,
            self.queue.depth(),
            self.pool.busy_count(),
        )

    def run_until_idle(self, max_ticks: Optional[int] = None) -> int:
        """Tick until no request is queued or in flight; returns ticks run."""
        return drive_until_idle(self, max_ticks)

    # -- batch convenience ----------------------------------------------------

    def map(
        self,
        request_inputs: Iterable[Sequence[Any]],
        *,
        priority: int = 0,
        step_budget: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> List[Any]:
        """Serve a whole collection of requests; results in request order.

        Applies backpressure instead of overflowing: when the queue is
        full, the engine ticks until a slot opens.  Each element of
        ``request_inputs`` is the tuple of per-example inputs for one
        request.
        """
        return serve_all(
            self,
            request_inputs,
            priority=priority,
            step_budget=step_budget,
            deadline_ticks=deadline_ticks,
        )

    def __repr__(self) -> str:
        return (
            f"Engine(lanes={self.pool.num_lanes}, busy={self.pool.busy_count()}, "
            f"queued={len(self.queue)}, tick={self._tick}, refill={self.refill!r}, "
            f"executor={self.plan.name!r})"
        )
