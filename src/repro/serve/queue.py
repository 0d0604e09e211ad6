"""Request admission for the serving engine: handles, queue, and errors.

A :class:`ServeRequest` is one logical thread awaiting a lane: the
per-example (unbatched) input arrays plus its admission metadata.  The
caller holds a :class:`ResultHandle` — a deliberately minimal Future: the
engine loop is synchronous and single-threaded (the machine *is* the event
loop), so the handle needs states and accessors, not locks or callbacks.

:class:`RequestQueue` orders requests by ``(-priority, deadline, arrival)``
— a bounded priority queue that serves earliest-deadline-first *within* a
priority level (requests without a deadline sort as infinitely late, so the
order degrades to plain ``(-priority, arrival)`` FIFO when no request
carries one) — and rejects at ``max_depth`` so a traffic burst surfaces as
:class:`QueueFullError` at submission time instead of unbounded memory
growth inside the engine.  The EDF key is what keeps deadline preemption
from ping-ponging: a deadline-less straggler evicted for an urgent waiter
re-queues *behind* that waiter despite its older arrival stamp.

Requests can *migrate* between queues (cross-shard work stealing in
:mod:`repro.serve.cluster`): the first ``push`` stamps the handle with an
arrival key ``(submit_tick, request_id)`` that stays with it for life,
and :meth:`RequestQueue.requeue` re-admits a
migrated handle under that original key — so a stolen request keeps its
place in the ``(-priority, arrival)`` order relative to the destination
shard's natives instead of being demoted to the back of its priority
level.  The stamp's tie-break is the *fleet-unique* request id (a
cluster's shards share one id counter), never a per-queue counter: an
earlier stamp built on the source queue's ``_seq`` made same-tick
migrants tie-break on foreign counters, so two identical runs could
order a stolen request differently relative to the thief's natives —
the same colliding-local-counter bug class as the old per-engine
request ids.

Queued preempted handles may carry their lane snapshot *spilled* — a
serialized-bytes stub in a :class:`~repro.serve.durability.SpillStore`
instead of live arrays.  The queue tracks the resident (unspilled) count
incrementally and :meth:`spill_overflow` evicts from the *back* of
service order, so the snapshots about to resume stay resident.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np


class QueueFullError(RuntimeError):
    """A request was submitted while the queue was at ``max_depth``."""


class StepBudgetExceeded(RuntimeError):
    """A request's member ran more machine steps than its budget allows."""


class PENDING:
    """Sentinel for a handle with no result yet."""


#: Handle lifecycle states.
QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
FAILED = "failed"


@dataclass
class ServeRequest:
    """One admitted request: unbatched inputs plus scheduling metadata."""

    request_id: int
    inputs: Tuple[np.ndarray, ...]
    priority: int = 0
    step_budget: Optional[int] = None
    submit_tick: int = 0
    #: Relative SLO deadline in ticks: the request should finish within
    #: this many ticks of submission (``None`` = no deadline).  The
    #: absolute target is ``submit_tick + deadline_ticks`` — what
    #: deadline-aware preemption and the telemetry deadline mode read.
    deadline_ticks: Optional[int] = None


class ResultHandle:
    """Future-like view of one request's progress through the engine."""

    def __init__(self, request: ServeRequest):
        self.request = request
        self.state = QUEUED
        self._value: Any = PENDING
        self._error: Optional[BaseException] = None
        #: engine tick at which the request left the queue for a lane
        self.inject_tick: Optional[int] = None
        #: engine tick at which the request finished (or failed)
        self.finish_tick: Optional[int] = None
        #: lane the request occupied while running
        self.lane: Optional[int] = None
        #: engine shard the request currently sits on (None outside a
        #: :class:`~repro.serve.cluster.Cluster`); updated when the request
        #: is stolen onto another shard
        self.shard: Optional[int] = None
        #: arrival key ``(submit_tick, request_id)`` stamped by the first
        #: queue push; migration preserves it so cross-queue ordering is
        #: stable (the id tie-break is fleet-unique, so the key means the
        #: same thing on every shard)
        self.arrival: Optional[Tuple[int, int]] = None
        #: machine steps in which this request's member was active (carried
        #: across preemptions — a resumed request keeps spending the same
        #: step budget, it is never granted a fresh one)
        self.steps_used: int = 0
        #: the evicted lane's :class:`~repro.vm.program_counter.LaneSnapshot`
        #: while the request waits (re-queued, in service order like any
        #: other) to resume, or its spilled stub; None otherwise.  The
        #: snapshot is machine-independent, so work stealing may carry it
        #: to another shard and resume there.
        self.snapshot: Any = None
        #: how many times this request's lane was preempted
        self.preemptions: int = 0
        #: engine tick of the most recent eviction (None if never preempted)
        self.preempt_tick: Optional[int] = None
        #: engine tick of the most recent resume (None if never resumed)
        self.resume_tick: Optional[int] = None
        #: the :class:`~repro.observe.Tracer` recording this request's
        #: events (set at submission by a traced engine; None untraced)
        self._tracer: Any = None

    @property
    def request_id(self) -> int:
        return self.request.request_id

    def done(self) -> bool:
        """True once the request has a result or an error."""
        return self.state in (DONE, FAILED)

    def result(self) -> Any:
        """The program outputs (an array, or a tuple for multi-output).

        Raises the request's error if it failed, or ``RuntimeError`` if it
        is still queued or running (drive the engine first).
        """
        if self.state == FAILED:
            assert self._error is not None
            raise self._error
        if self._value is PENDING:
            raise RuntimeError(
                f"request {self.request_id} is still {self.state}; "
                "run the engine (e.g. engine.run_until_idle()) first"
            )
        return self._value

    def exception(self) -> Optional[BaseException]:
        """The error that failed this request, if any."""
        return self._error

    def trace(self) -> List[Any]:
        """This request's causal event timeline, in logical-tick order.

        The recorded :class:`~repro.observe.TraceEvent` sequence — submit,
        inject, every preemption/resume/migration, and the terminal
        complete or fail — when the serving engine was built with
        ``trace=`` enabled; an empty list otherwise.
        """
        if self._tracer is None:
            return []
        return self._tracer.events_for(self.request_id)

    def queue_wait(self) -> Optional[int]:
        """Ticks spent queued before reaching a lane (None while queued)."""
        if self.inject_tick is None:
            return None
        return self.inject_tick - self.request.submit_tick

    @property
    def deadline_tick(self) -> Optional[int]:
        """Absolute deadline on the logical clock (None without a deadline)."""
        deadline = self.request.deadline_ticks
        if deadline is None:
            return None
        return self.request.submit_tick + deadline

    def slack(self, now: int) -> float:
        """Ticks of headroom before this request's deadline (inf without one).

        Negative once the deadline has passed.  The eviction signal
        :class:`~repro.serve.engine.DeadlinePreemptPolicy` ranks on: a
        running request with lots of slack (or no deadline at all) is the
        cheapest lane to take from an urgent waiter.
        """
        deadline = self.deadline_tick
        if deadline is None:
            return float("inf")
        return float(deadline - now)

    def lane_age(self, now: int) -> int:
        """Ticks since the request was (last) seated in its current lane.

        The straggler-age signal preemption policies threshold on; only
        meaningful while the request is running.
        """
        seated = self.resume_tick if self.resume_tick is not None else self.inject_tick
        assert seated is not None, "lane_age on a never-seated handle"
        return now - seated

    # -- engine-side transitions (not part of the caller API) ---------------

    def _mark_running(self, lane: int, tick: int) -> None:
        self.state = RUNNING
        self.lane = lane
        self.inject_tick = tick

    def _mark_preempted(self, tick: int, snapshot: Any) -> None:
        self.state = PREEMPTED
        self.snapshot = snapshot
        self.preempt_tick = tick
        self.preemptions += 1
        self.lane = None

    def _mark_resumed(self, lane: int, tick: int) -> None:
        self.state = RUNNING
        self.lane = lane
        self.resume_tick = tick
        self.snapshot = None  # consumed by the machine's restore

    def _resolve(self, value: Any, tick: int) -> None:
        self.state = DONE
        self._value = value
        self.finish_tick = tick

    def _fail(self, error: BaseException, tick: int) -> None:
        self.state = FAILED
        self._error = error
        self.finish_tick = tick

    def __repr__(self) -> str:
        return f"ResultHandle(id={self.request_id}, state={self.state!r})"


@dataclass
class RequestQueue:
    """Bounded priority queue: higher priority first, then earliest
    deadline, then FIFO.

    Heap entries are ``(-priority, deadline, arrival, seq, handle)``:
    ``deadline`` is the absolute deadline tick (``inf`` for requests
    without one, so deadline-less traffic keeps its plain FIFO order),
    ``arrival`` the handle's first-push stamp (kept across migrations),
    ``seq`` a local tie-break so ordering stays total and deterministic
    even when two shards' arrival stamps collide.
    """

    max_depth: Optional[int] = None
    _heap: List[Tuple[int, float, Tuple[int, int], int, ResultHandle]] = field(
        default_factory=list
    )
    _seq: int = 0
    #: Running count of queued handles carrying a preempted-lane snapshot.
    #: Maintained on push/pop — valid because a handle's ``snapshot`` only
    #: mutates while it is *out* of every queue (``_mark_preempted`` runs
    #: before the requeue, ``_mark_resumed`` after the pop) — so
    #: ``snapshot_count`` is O(1) on the per-tick metrics path.
    _snapshots: int = 0
    #: Of ``_snapshots``, how many are *resident* (live arrays in process
    #: memory) rather than spilled stubs.  Maintained on push/pop plus the
    #: explicit swaps in :meth:`spill_overflow`; what a
    #: ``max_resident_snapshots`` cap bounds.
    _resident: int = 0
    #: Queued handles carrying a deadline, maintained on push/pop.
    _deadlines: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def depth(self) -> int:
        """Number of queued handles — the public face of ``len(queue)``.

        Metrics and policies should read this (and
        :meth:`snapshot_count`) instead of reaching into ``_heap``, so
        the heap representation can change without silently breaking
        consumers.
        """
        return len(self._heap)

    def full(self) -> bool:
        return self.max_depth is not None and len(self._heap) >= self.max_depth

    def push(self, handle: ResultHandle) -> None:
        if self.full():
            raise QueueFullError(
                f"request queue is at max_depth={self.max_depth}; "
                "drive the engine or raise the limit"
            )
        self._admit(handle)

    def requeue(self, handle: ResultHandle) -> None:
        """Re-admit a handle migrated from another shard's queue.

        Admission control already ran where the request was first
        submitted, so migration bypasses ``max_depth`` (a rebalance must
        never lose an admitted request); the handle's original arrival
        stamp keeps its ``(-priority, arrival)`` position relative to the
        destination queue's natives.
        """
        self._admit(handle)

    def _admit(self, handle: ResultHandle) -> None:
        if handle.arrival is None:
            # The tie-break must be fleet-unique (the request id — shards
            # of a cluster share one id counter), not this queue's _seq: a
            # per-queue counter means nothing on another shard, so same-tick
            # migrants would tie-break on foreign counters and two identical
            # runs could interleave a stolen request differently.
            handle.arrival = (handle.request.submit_tick, handle.request_id)
        deadline = handle.deadline_tick
        heapq.heappush(
            self._heap,
            (
                -handle.request.priority,
                float("inf") if deadline is None else float(deadline),
                handle.arrival,
                self._seq,
                handle,
            ),
        )
        self._seq += 1
        if deadline is not None:
            self._deadlines += 1
        if handle.snapshot is not None:
            self._snapshots += 1
            if not getattr(handle.snapshot, "spilled", False):
                self._resident += 1

    def _forget(self, handle: ResultHandle) -> None:
        """Drop a handle that just left the heap from the running counts."""
        if handle.request.deadline_ticks is not None:
            self._deadlines -= 1
        if handle.snapshot is None:
            return
        self._snapshots -= 1
        if not getattr(handle.snapshot, "spilled", False):
            self._resident -= 1

    def pop(self) -> ResultHandle:
        """The highest-priority (then most-urgent, then oldest) queued handle."""
        handle = heapq.heappop(self._heap)[-1]
        self._forget(handle)
        return handle

    def peek(self) -> ResultHandle:
        return self._heap[0][-1]

    def waiting(self, limit: Optional[int] = None) -> List[ResultHandle]:
        """The first ``limit`` queued handles in service order (all when
        None), without removing any.

        What a :class:`~repro.serve.engine.PreemptPolicy` inspects to pair
        waiting high-priority work with evictable running lanes; it only
        ever needs the first lane-count entries, and ``nsmallest`` keeps
        that O(Q log k) under a deep backlog instead of a full sort.
        ``seq`` entries are unique per queue, so ordering never compares
        handles.
        """
        if limit is None:
            entries = sorted(self._heap)
        else:
            entries = heapq.nsmallest(limit, self._heap)
        return [entry[-1] for entry in entries]

    def snapshot_count(self) -> int:
        """Queued handles currently carrying a preempted-lane snapshot.

        Lets a :class:`~repro.serve.cluster.StealPolicy` with
        ``include_preempted=False`` size the *stealable* backlog, instead
        of repeatedly proposing steals that would only churn past
        unstealable entries.
        """
        return self._snapshots

    def deadline_count(self) -> int:
        """Queued handles carrying a deadline; O(1), like :meth:`snapshot_count`."""
        return self._deadlines

    def resident_snapshots(self) -> int:
        """Queued snapshots held as live arrays (not spilled stubs).

        The memory-pressure observable a ``max_resident_snapshots`` cap
        bounds; O(1), maintained incrementally like :meth:`snapshot_count`.
        """
        return self._resident

    def spill_overflow(self, cap: int, spill: Any) -> int:
        """Spill resident snapshots beyond ``cap``, back of service order
        first.

        ``spill(handle)`` serializes ``handle.snapshot`` and returns a
        spilled stub (``spilled = True``) or None when the snapshot
        cannot leave process memory (the engine counts and reports that;
        the handle simply stays resident).  Victims are
        taken from the *back* of service order so the snapshots about to
        be popped for resume stay live — spilling trades serialization
        churn on the cold tail for bounded memory, not latency on the hot
        head.  Returns the number spilled.
        """
        excess = self._resident - cap
        if excess <= 0:
            return 0
        resident = sorted(
            entry
            for entry in self._heap
            if entry[-1].snapshot is not None
            and not getattr(entry[-1].snapshot, "spilled", False)
        )
        spilled = 0
        for entry in reversed(resident):
            if excess <= 0:
                break
            handle = entry[-1]
            stub = spill(handle)
            if stub is None:
                continue
            # Still a snapshot, so _snapshots is untouched; only
            # residency changes.
            handle.snapshot = stub
            self._resident -= 1
            excess -= 1
            spilled += 1
        return spilled


def split_request_inputs(inputs: Sequence[Any]) -> Tuple[np.ndarray, ...]:
    """Normalize one request's per-example inputs to numpy arrays."""
    return tuple(np.asarray(x) for x in inputs)
