"""What every server shares: the base of Engine and Cluster, and their drivers.

:class:`Server` owns what :class:`~repro.serve.engine.Engine` and
:class:`~repro.serve.cluster.Cluster` used to write twice — the logical
clock, the one compiled plan, trace plumbing, ``run_until_idle`` and
``map``.  The drivers around it take *any* object with the
``busy``/``tick``/``now``/``submit`` surface (tests drive them with stub
servers): :func:`serve_all` is synchronous backpressure,
:class:`ProgressWatch` the no-progress counter it shares with the asyncio
driver, and :func:`replay` the tick-ordered loop under both
:func:`~repro.serve.aio.replay_arrivals` and
:func:`~repro.serve.durability.recover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.serve.config import ServeConfig
from repro.serve.queue import QueueFullError, ResultHandle
from repro.vm.executors import ExecutionPlan

#: Consecutive full-admission ticks with an unchanged progress signature
#: tolerated before a server is declared wedged.  Large enough to outlast
#: transient plateaus that resolve themselves without any counter moving.
NO_PROGRESS_LIMIT = 64


class ProgressWatch:
    """Counts consecutive ticks over which a server made no progress.

    The logical clock advances on every tick, so a wedged server (one
    whose admission stays full while no request moves) looks busy
    forever; ``server.progress_signature()`` excludes the clock,
    and a backpressure loop that sees it unchanged for
    :data:`NO_PROGRESS_LIMIT` ticks can fail its waiters instead of
    spinning.
    """

    def __init__(self, server: Any):
        self.server = server
        self.reset()

    def reset(self) -> None:
        """Start counting afresh from the server's current state."""
        self.stalled = 0
        self._before = self.server.progress_signature()

    def wedged(self) -> bool:
        """Account for one tick just run; True at the no-progress limit."""
        after = self.server.progress_signature()
        if after == self._before:
            self.stalled += 1
        else:
            self.stalled = 0
            self._before = after
        return self.stalled >= NO_PROGRESS_LIMIT


def serve_all(
    server: Any,
    request_inputs: Iterable[Sequence[Any]],
    priority: int = 0,
    step_budget: Optional[int] = None,
    deadline_ticks: Optional[int] = None,
) -> List[Any]:
    """Submit every request with backpressure, drain, return results in order.

    While admission is full everywhere (``server.admission_full()``), tick
    instead of overflowing; raise :class:`QueueFullError` if the server
    goes idle without ever being able to admit, or if a
    :class:`ProgressWatch` finds it wedged.
    """
    handles = []
    for inputs in request_inputs:
        watch = ProgressWatch(server)
        while server.admission_full():
            if not server.tick():
                raise QueueFullError(
                    f"the queue is full but the "
                    f"{type(server).__name__.lower()} is idle; "
                    "max_queue_depth is too small to ever admit"
                )
            if watch.wedged():
                raise QueueFullError(
                    f"admission is full but {watch.stalled} consecutive ticks "
                    f"made no progress; the "
                    f"{type(server).__name__.lower()} can never admit"
                )
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


@dataclass(frozen=True)
class Arrival:
    """One front-door submission, stamped with the logical tick it landed on.

    The complete replay record: feeding a sequence of these to
    :func:`~repro.serve.aio.replay_arrivals` reproduces the live run's
    submission schedule on the logical clock, independent of the
    wall-clock jitter that originally produced it.
    """

    tick: int
    inputs: Tuple[Any, ...]
    priority: int = 0
    step_budget: Optional[int] = None
    deadline_ticks: Optional[int] = None


def emit_arrive(server: Any, handle: ResultHandle) -> None:
    """Record the front-door ``arrive`` event (no-op untraced).

    Shared by the live async path and :func:`replay`, so a replayed run's
    event stream is byte-identical to the original's.
    """
    trace = getattr(server, "trace", None)
    if trace is None or trace.tracer is None:
        return
    trace.tracer.record(
        "arrive",
        server.now,
        request_id=handle.request_id,
        shard=handle.shard,
        priority=handle.request.priority,
    )


def replay(
    server: Any, arrivals: Iterable[Arrival], front_door: bool
) -> List[ResultHandle]:
    """Re-feed a tick-ordered schedule to a fresh synchronous server.

    Ticks the server up to each arrival's logical tick, submits with the
    recorded priority/budget/deadline (recording the ``arrive`` event too
    when the schedule came through the async ``front_door``), then
    drains.  Returns the handles in arrival order, all resolved.
    """
    handles: List[ResultHandle] = []
    for arrival in arrivals:
        if arrival.tick < server.now:
            raise ValueError(
                f"arrival at tick {arrival.tick} is in the server's past "
                f"(now={server.now}); replay needs a fresh server and a "
                "tick-ordered schedule"
            )
        while server.now < arrival.tick:
            server.tick()
        handle = server.submit(
            *arrival.inputs,
            priority=arrival.priority,
            step_budget=arrival.step_budget,
            deadline_ticks=arrival.deadline_ticks,
        )
        if front_door:
            emit_arrive(server, handle)
        handles.append(handle)
    server.run_until_idle()
    return handles


def configure(
    program: Any, options: Dict[str, Any], num_engines: Optional[int] = None
) -> Tuple[ExecutionPlan, ServeConfig]:
    """How every entry point turns ``(program, **options)`` into the
    validated config and the one plan it serves.

    ``program`` itself when it already is a plan, else compiled (or
    fetched from the function's plan cache) under the config's executor /
    optimize / verify.  A cluster binds the result to every shard — the
    code-cache-sharing contract the compile counter verifies.
    """
    if options.get("registry") is None:
        options = dict(options, registry=getattr(program, "registry", None))
    config = ServeConfig(num_engines=num_engines, **options)
    if not isinstance(program, ExecutionPlan):
        return ExecutionPlan.compile(
            program,
            executor=config.executor,
            optimize=config.optimize,
            verify=config.verify,
        ), config
    if config.executor is not None:
        raise ValueError("pass either an ExecutionPlan or executor=, not both")
    return program, config


class Server:
    """The base of :class:`~repro.serve.engine.Engine` and
    :class:`~repro.serve.cluster.Cluster`: one validated
    :class:`~repro.serve.config.ServeConfig`, one compiled plan, one
    logical clock.

    Subclasses provide ``tick``, ``busy``, ``submit``, ``admission_full``
    and ``progress_signature``, and name their per-tick gauges in
    :attr:`GAUGES`.
    """

    #: Shard index within a cluster (None for a standalone engine and for
    #: the cluster itself).
    shard_id: Optional[int] = None
    #: Metric series sampled each tick while ``trace.metrics`` is on.
    GAUGES: Tuple[str, ...] = ()

    def __init__(
        self,
        plan: ExecutionPlan,
        config: ServeConfig,
        num_lanes: int,
        num_engines: Optional[int] = None,
    ):
        self.config = config
        self.plan = plan
        self._num_lanes = int(num_lanes)
        self._num_engines = num_engines
        #: Resolved observability hub (None = fully off; the hot paths pay
        #: one ``is None`` check).  A cluster's shards all hold the
        #: cluster's instance, so the fleet shares an event stream.
        self.trace = config.trace
        #: Admission :class:`~repro.serve.durability.Journal` (None = off),
        #: shared by a cluster and its shards; see :meth:`set_journal`.
        self.journal = config.journal
        self._tick = 0
        self._series = None

    @property
    def now(self) -> int:
        """The logical clock (ticks elapsed; a fleet's are in lock-step)."""
        return self._tick

    @property
    def executor(self) -> str:
        """Name of the block executor running the machine's blocks."""
        return self.plan.name

    def schedule_record(self) -> Dict[str, Any]:
        """What the journal opens with; see
        :meth:`~repro.serve.config.ServeConfig.schedule_record`."""
        return self.config.schedule_record(
            self._num_lanes, self._num_engines, self.plan.name
        )

    def set_journal(self, journal: Any) -> None:
        """Attach (or detach, with None) an admission journal; attaching
        opens it with this server's :meth:`schedule_record`."""
        self.journal = journal
        if journal is not None:
            journal.record_config(self.schedule_record())

    def _check_request(
        self,
        inputs: Tuple[Any, ...],
        step_budget: Optional[int],
        deadline_ticks: Optional[int],
    ) -> None:
        """Refuse a malformed submission before anything (queue, routing
        cursor, journal, trace) sees it."""
        for name, value, floor in (
            ("step_budget", step_budget, 1),
            ("deadline_ticks", deadline_ticks, 0),
        ):
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        n_expected = len(self.plan.program.inputs)
        if len(inputs) != n_expected:
            raise ValueError(
                f"program takes {n_expected} inputs, got {len(inputs)}"
            )

    # -- observability -------------------------------------------------------

    def _emit(
        self,
        kind: str,
        handle: Optional[ResultHandle] = None,
        lane: Optional[int] = None,
        src: Optional[int] = None,
        shard: Optional[int] = None,
        priority: Optional[int] = None,
    ) -> None:
        """Record one trace event at the current tick (no-op untraced)."""
        if self.trace is None or self.trace.tracer is None:
            return
        if handle is not None:
            priority = handle.request.priority
        self.trace.tracer.record(
            kind,
            self._tick,
            request_id=None if handle is None else handle.request_id,
            shard=self.shard_id if shard is None else shard,
            lane=lane,
            priority=priority,
            src=src,
        )

    def _sample(self, *values: float) -> None:
        """Append this tick's :attr:`GAUGES` (only called with metrics on).

        The ring buffers are resolved once, on the first sample (by which
        point a cluster has assigned ``shard_id``, fixing the series
        prefix), so the per-tick cost is one tuple append per gauge —
        cheap enough that metrics stay within the tracing overhead that
        ``ladder.engine_trace_us`` in ``benchmarks/e2e`` measures.
        """
        series = self._series
        if series is None:
            metrics = self.trace.metrics
            series = self._series = tuple(
                metrics.series(self._series_prefix() + name)
                for name in self.GAUGES
            )
        tick = self._tick
        for buf, value in zip(series, values):
            buf.append((tick, value))

    def _series_prefix(self) -> str:
        return "" if self.shard_id is None else f"shard{self.shard_id}/"

    # -- drivers -------------------------------------------------------------

    def run_until_idle(self, max_ticks: Optional[int] = None) -> int:
        """Tick until no request is queued or in flight; returns ticks run.

        Raises ``RuntimeError`` if work remains after ``max_ticks``.
        """
        start = self._tick
        while self.busy():
            # Budget check *before* the tick: a busy server with
            # max_ticks=0 must raise without running a step, and an exact
            # budget (work finishing on tick N with max_ticks=N) must not.
            if max_ticks is not None and self._tick - start >= max_ticks:
                raise RuntimeError(
                    f"{type(self).__name__.lower()} still busy after "
                    f"max_ticks={max_ticks}"
                )
            self.tick()
        return self._tick - start

    def map(
        self,
        request_inputs: Iterable[Sequence[Any]],
        *,
        priority: int = 0,
        step_budget: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> List[Any]:
        """Serve a whole collection of requests; results in request order.

        Applies backpressure instead of overflowing: while every queue is
        full, the server ticks until a slot opens.  Each element of
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
