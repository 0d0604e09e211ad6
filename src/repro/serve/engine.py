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

import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

import numpy as np

from repro.serve.config import ServeConfig, resolve_spec
from repro.serve.durability import SpilledSnapshot
from repro.serve.lanes import LanePool
from repro.serve.queue import (
    QueueFullError,
    RequestQueue,
    ResultHandle,
    ServeRequest,
    StepBudgetExceeded,
    split_request_inputs,
)
from repro.serve.server import Server, configure
from repro.serve.server import serve_all  # noqa: F401  (its documented import path)
from repro.serve.telemetry import ServeTelemetry
from repro.vm.executors import ExecutionPlan
from repro.vm.program_counter import ProgramCounterVM
from repro.vm.snapshot_codec import SnapshotCodecError
from repro.vm.stack import StackOverflowError

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
        gap is below the delta (later waiters only have lower priority),
        in O(1) if the queue head against the lowest running falls short.
        """
        pool, queue = engine.pool, engine.queue
        if pool.free_count() or not len(queue) or (
            queue.peek().request.priority - min(pool.priorities)
            < self.priority_delta
        ):
            return []
        now = engine.now
        evictable = [
            h
            for h in engine.pool.handles
            if h is not None and h.lane_age(now) >= self.min_age
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
        if engine.pool.free_count() or not engine.queue.deadline_count():
            return []
        now = engine.now
        evictable = [
            h
            for h in engine.pool.handles
            if h is not None and h.lane_age(now) >= self.min_age
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
    return resolve_spec(
        spec, "preempt policy", PreemptPolicy, PREEMPT_POLICIES, PreemptPolicy
    )


class Engine(Server):
    """Serve streaming requests through one lane-recycled batched machine.

    ``Engine(program, num_lanes, **options)``: ``program`` is an
    :class:`~repro.frontend.api.AutobatchFunction` (lowered lazily), an
    already-lowered :class:`~repro.ir.instructions.StackProgram`, or a
    compiled :class:`~repro.vm.executors.ExecutionPlan`; ``num_lanes`` is
    the width of the machine's batch dimension — the maximum number of
    requests in flight at once; ``options`` are the fields of
    :class:`~repro.serve.config.ServeConfig`, documented there.
    """

    GAUGES = ("queue_depth", "busy_lanes", "preempted_backlog", "utilization")

    def __init__(self, program: Any, num_lanes: int, **options: Any):
        self._build(*configure(program, options), num_lanes)
        #: Request-id source.  Standalone engines number from 0; a
        #: cluster's shards share one counter instead, so ids are
        #: fleet-unique and a shared tracer never merges two requests'
        #: timelines under one key.
        self._ids = itertools.count()
        self.set_journal(self.journal)

    @classmethod
    def from_config(
        cls, plan: ExecutionPlan, config: ServeConfig, num_lanes: int
    ) -> "Engine":
        """One shard of a cluster: built from the fleet's plan and its
        already-validated ``config``; the cluster supplies the shard's
        identity, clock, id source and private preempt policy."""
        engine = cls.__new__(cls)
        engine._build(plan, config, num_lanes)
        return engine

    def _build(
        self, plan: ExecutionPlan, config: ServeConfig, num_lanes: int
    ) -> None:
        super().__init__(plan, config, num_lanes)
        self.refill = config.refill
        self.default_step_budget = config.default_step_budget
        self.preempt = config.preempt
        #: Cap on queued preempted snapshots held as live arrays (None =
        #: unbounded).  Overflow is serialized into :attr:`spill_store` and
        #: transparently rehydrated at resume; see
        #: :mod:`repro.serve.durability`.
        self.max_resident_snapshots = config.max_resident_snapshots
        self.spill_store = config.spill_store
        self.vm = ProgramCounterVM(
            self.plan,
            batch_size=num_lanes,
            registry=config.registry,
            mode=config.mode,
            scheduler=config.scheduler,
            max_stack_depth=config.max_stack_depth,
            instrumentation=config.instrumentation,
            max_steps=config.max_steps,
        )
        # A fresh machine starts every member at the entry block; a fresh
        # *server* starts every lane vacant.
        self.vm.halt_lanes(np.arange(num_lanes, dtype=np.int64))
        self.pool = LanePool(num_lanes)
        self.queue = RequestQueue(max_depth=config.max_queue_depth)
        self.telemetry = ServeTelemetry(
            num_lanes=num_lanes, instrumentation=self.vm.instr
        )
        # Attach last: a construction that failed above leaves no
        # half-built engine in a shared trace's block profile.
        if self.trace is not None:
            if self.trace.profile:
                self.vm.instr.track_blocks = True
            self.trace.attach_engine(self)

    # -- submission ----------------------------------------------------------

    def dispatch_count(self) -> int:
        """Host→device launches so far under this engine's execution plan."""
        return self.plan.dispatch_count(self.vm.instr)

    def load(self) -> int:
        """Outstanding work: queued plus in-flight requests.

        The routing metric cluster policies balance on — a vacant lane
        lowers it, a deep queue raises it.
        """
        return len(self.queue) + self.pool.busy_count()

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
        ``step_budget`` (>= 1) overrides ``default_step_budget``.
        ``deadline_ticks`` (>= 0) attaches a relative SLO deadline: the request
        should finish within that many ticks of now.  Queue service order
        becomes earliest-deadline-first within the request's priority
        level, :class:`DeadlinePreemptPolicy` may evict slack-rich lanes
        for it, and ``telemetry.slo_attainment("deadline")`` scores its
        completion against its own deadline.
        """
        self._check_request(inputs, step_budget, deadline_ticks)
        if self.queue.full():
            self.telemetry.rejected += 1
            # No request id is ever assigned to a rejected submission.
            self._emit("reject", priority=priority)
            raise QueueFullError(
                f"request queue is at max_depth={self.queue.max_depth}"
            )
        return self._enqueue(inputs, priority, step_budget, deadline_ticks)

    def _enqueue(
        self,
        inputs: Tuple[Any, ...],
        priority: int,
        step_budget: Optional[int],
        deadline_ticks: Optional[int],
    ) -> ResultHandle:
        """Queue one request already checked and known to have room."""
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
            # Only *accepted* submits are journaled (refusals never get
            # here), so replaying the journal reproduces the admission
            # sequence exactly.
            self.journal.record_submit(handle)
        self._emit("submit", handle)
        return handle

    # -- queue migration (cluster work stealing) ------------------------------

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
            handle = self.pool.handles[lane]
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

        A failed restore (a snapshot deeper than the machine's
        ``max_stack_depth`` cap, or a mismatched program) must fail *that
        handle* and vacate the lane — mirroring :meth:`_inject_one` — not
        leak a half-restored lane out of the pool.  The same discipline
        covers rehydration: a spilled snapshot whose bytes come back
        unreadable or corrupt (a ``SnapshotDecodeError``, i.e. a
        ``ValueError``) fails only this handle — the lane was never
        touched, so it is simply released — and the tick loop carries on.
        """
        wait = self._tick - handle.preempt_tick
        snapshot = handle.snapshot
        if getattr(snapshot, "spilled", False):
            try:
                snapshot = snapshot.load(
                    self.vm.program,
                    facts=self.plan.facts,
                    max_stack_depth=self.vm.max_stack_depth,
                )
            except (ValueError, TypeError, StackOverflowError) as error:
                # Decode failed before any machine state was written: no
                # halt needed, just vacate the lane and fail the handle.
                self._fail_lane(handle, lane, error, halt=False)
                return
            handle.snapshot = snapshot
            self.telemetry.rehydrations += 1
        try:
            self.vm.restore_lane(lane, snapshot)
        except (ValueError, TypeError, StackOverflowError) as error:
            # The lane may be partially restored (a live pc over reset
            # storage); halt it back to inert before releasing.
            self._fail_lane(handle, lane, error)
            return
        handle._mark_resumed(lane, self._tick)
        self.telemetry.record_resume(wait)
        self._emit("resume", handle, lane=lane)

    def _admit(self) -> None:
        """Move queued requests into vacant lanes, per the refill policy."""
        pool, queue = self.pool, self.queue
        if not len(queue) or not pool.free_count() or (
            self.refill == "drain" and pool.busy_count()
        ):
            return
        seated: List[ResultHandle] = []
        while len(queue) and pool.free_count():
            handle = queue.pop()
            lane = pool.acquire(handle)
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
            self._fail_lane(handle, handle.lane, error)

    def _fail_lane(
        self, handle: ResultHandle, lane: int, error: BaseException,
        halt: bool = True,
    ) -> None:
        """Vacate ``lane`` and fail its request — the one path every
        lane-level failure takes, so none can skip the journal or the
        trace.  ``halt=False`` when no machine state was written yet."""
        if halt:
            self.vm.halt_lanes(np.asarray([lane], dtype=np.int64))
        self.pool.release(lane)
        handle.snapshot = None
        handle._fail(error, self._tick)
        self.telemetry.failed += 1
        self._journal_complete(handle, failed=True)
        self._emit("fail", handle, lane=lane)

    def _retire_finished(self, lanes: Optional[np.ndarray]) -> None:
        """Deliver outputs of every lane in ``lanes`` whose member halted."""
        if lanes is None:
            return
        done = lanes[self.vm.pcreg[lanes] >= self.vm.exit_index]
        if done.size == 0:
            return
        done = np.unique(done)  # a superblock lists a lane once per block
        outputs = self.vm.retire_lanes(done)
        single = len(outputs) == 1
        for j, lane in enumerate(done.tolist()):
            handle = self.pool.release(lane)
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
                self._emit("deadline", handle, lane=lane)
            self._emit("complete", handle, lane=lane)

    def _enforce_budgets(self, stepped: np.ndarray) -> None:
        """Charge each stepped request a step; abort those over budget."""
        handles = self.pool.handles
        for lane in stepped.tolist():
            handle = handles[lane]
            if handle is None:  # retired in this very tick
                continue
            handle.steps_used += 1
            budget = handle.request.step_budget
            if budget is not None and handle.steps_used >= budget:
                self._fail_lane(
                    handle,
                    lane,
                    StepBudgetExceeded(
                        f"request {handle.request_id} exceeded its step "
                        f"budget of {budget} machine steps"
                    ),
                )

    # -- durability (spilling + journaling; see repro.serve.durability) --------

    def _journal_complete(self, handle: ResultHandle, failed: bool = False) -> None:
        if self.journal is not None:
            self.journal.record_complete(
                handle.request_id, self._tick, failed=failed
            )

    def _spill_one(self, handle: ResultHandle) -> Any:
        """Serialize one queued snapshot into the spill store; returns the
        stub, or None when the snapshot cannot leave process memory (a
        storage holds an object-dtype array — counted, never dropped)."""
        try:
            data = handle.snapshot.to_bytes()
        except SnapshotCodecError:
            # The snapshot stays resident (and correct); losing lane state
            # silently is the one thing the codec refuses to do.
            self.telemetry.spill_errors += 1
            return None
        # request_id is fleet-unique and preemptions counts this handle's
        # evictions, so the key is unique across shards sharing one store.
        key = f"{handle.request_id}-{handle.preemptions}"
        self.spill_store.put(key, data)
        self.telemetry.spills += 1
        self._emit("spill", handle)
        return SpilledSnapshot(key=key, store=self.spill_store)

    def _spill_step(self) -> None:
        """Enforce ``max_resident_snapshots`` over the queued backlog."""
        if self.max_resident_snapshots is None:
            return
        self.queue.spill_overflow(self.max_resident_snapshots, self._spill_one)
        resident = self.queue.resident_snapshots()
        if resident > self.telemetry.resident_peak:
            self.telemetry.resident_peak = resident

    def tick(self) -> bool:
        """One engine step: preempt, admit, spill, step the machine, retire,
        enforce budgets.

        A stage with nothing to do costs O(1); retirement and budgets visit
        only the lanes the machine stepped, and occupancy is the pool's count.

        Returns True while the engine holds queued or in-flight work after
        the tick.  A tick with an empty machine still advances the logical
        clock (an *idle* tick), so open-loop drivers can model arrival gaps.
        """
        if self.preempt is not None:
            self._preempt_step()
        resumes = self.telemetry.resumes
        self._admit()
        # Spill after admission: resumes just drained the hot head of the
        # backlog, so the cap is enforced over what actually stays queued.
        self._spill_step()
        busy = self.pool.busy_count()
        self.telemetry.record_tick(busy)
        if self.trace is not None and self.trace.metrics is not None:
            queue = self.queue
            self._sample(
                float(queue.depth()), float(busy),
                float(queue.snapshot_count()), busy / self.pool.num_lanes,
            )
        self._tick += 1
        if busy:
            stepped = self._step_machine()
            if stepped is not None:
                self.vm.instr.record_occupancy(busy, self.pool.num_lanes)
            # A member halts by stepping, or by resuming at the exit.
            resumed = self.telemetry.resumes != resumes
            self._retire_finished(self.pool.busy_lanes() if resumed else stepped)
            if stepped is not None:
                self._enforce_budgets(stepped)
        return bool(self.pool.busy_count() or len(self.queue))

    def _step_machine(self) -> Optional[np.ndarray]:
        """Step the machine once.  Under a ``max_stack_depth`` cap, the
        lanes a step would push past it fail with that error before the
        step writes anything, and the step is taken for the rest."""
        while True:
            try:
                return self.vm.step_lanes()
            except StackOverflowError as error:
                if error.lanes is None:
                    raise
                for lane in error.lanes.tolist():
                    self._fail_lane(self.pool.handles[lane], lane, error)

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

    def __repr__(self) -> str:
        return (
            f"Engine(lanes={self.pool.num_lanes}, busy={self.pool.busy_count()}, "
            f"queued={len(self.queue)}, tick={self._tick}, refill={self.refill!r}, "
            f"executor={self.plan.name!r})"
        )
