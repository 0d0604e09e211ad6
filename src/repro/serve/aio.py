"""Asyncio front door for the serving engine: wall-clock in, logical ticks in charge.

Everything below :class:`AsyncServer` is the same deterministic machinery
as before — :class:`~repro.serve.engine.Engine` or
:class:`~repro.serve.cluster.Cluster` advancing a *logical* clock, one
tick per engine step.  This module adds the process boundary ROADMAP item
1 asks for: callers ``await server.submit(...)`` from arbitrary
coroutines, handles become awaitable, ``map`` becomes an async iterator
yielding results as they complete, and a wall-clock driver paces the tick
loop at ``tick_interval`` seconds per tick.  Unpaced, it runs ticks back
to back and yields to the event loop only when someone may be waiting.

The one design rule is that **the logical clock stays the sole source of
scheduling truth**.  Wall time only decides *when* the driver runs the
next tick; every scheduling decision — admission order, preemption,
deadlines, telemetry — happens on the tick counter exactly as in the
synchronous engine.  The front door records each submission as an
:class:`Arrival` stamped with the logical tick it landed on, and
:func:`replay_arrivals` re-feeds that schedule to a fresh synchronous
server: the replay routes, preempts, and completes identically, so traces
are byte-identical and outputs bit-identical to the live async run — no
matter how wall-clock jitter interleaved the original submissions between
ticks.

Backpressure is cooperative instead of exceptional: when every queue is
full, ``submit`` parks the caller on a FIFO of slot waiters and the driver
admits them as capacity opens, rather than raising
:class:`~repro.serve.queue.QueueFullError` at the caller.  The error
remains for the genuinely wedged case: if :data:`~repro.serve.server.NO_PROGRESS_LIMIT`
consecutive ticks leave the server's progress signature unchanged while
waiters are parked, they are failed rather than hung forever.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.serve.queue import QueueFullError, ResultHandle
from repro.serve.server import (
    NO_PROGRESS_LIMIT,
    Arrival,
    ProgressWatch,
    emit_arrive,
    replay,
)

#: Longest wall-clock stretch an unpaced driver ticks without yielding, so
#: timers still fire on time; it never changes what a tick computes.
_YIELD_EVERY_S = 0.0005


def replay_arrivals(server: Any, arrivals: Iterable[Arrival]) -> List[ResultHandle]:
    """Re-feed a recorded arrival schedule to a synchronous server.

    Because the engine is a pure function of the submission sequence on
    the logical clock, the replay's outputs are bit-identical and its
    trace byte-identical to the live :class:`AsyncServer` run that
    recorded the schedule.  Returns the handles in arrival order (all
    resolved); see :func:`~repro.serve.server.replay`.
    """
    return replay(server, arrivals, front_door=True)


class AsyncResultHandle:
    """Awaitable view of one request: ``await handle`` yields the result.

    Wraps the engine's synchronous :class:`~repro.serve.queue.ResultHandle`
    (exposed as ``.handle``); the driver sets the completion event when the
    underlying request reaches a terminal state.  Awaiting re-raises the
    request's error on failure — but only when awaited, so an unobserved
    failure never spams the event loop's exception logger.
    """

    def __init__(self, handle: ResultHandle):
        self.handle = handle
        self._event = asyncio.Event()
        self._failure: Optional[BaseException] = None

    @property
    def request_id(self) -> int:
        return self.handle.request_id

    def done(self) -> bool:
        """True once the request has a result or an error."""
        return self._event.is_set()

    async def wait(self) -> "AsyncResultHandle":
        """Block until terminal; returns self (does not raise on failure)."""
        await self._event.wait()
        return self

    def result(self) -> Any:
        """The resolved outputs (raises the request's error if it failed).

        If the driver crashed before this request resolved, raises
        ``RuntimeError`` chained to the crash, so the engine's original
        exception reaches the awaiter instead of a silent hang.
        """
        if self._failure is not None:
            raise RuntimeError(
                "server driver crashed before this request resolved"
            ) from self._failure
        return self.handle.result()

    def __await__(self):
        yield from self._event.wait().__await__()
        return self.result()

    def __repr__(self) -> str:
        return f"AsyncResultHandle({self.handle!r})"


@dataclass
class _PendingSubmit:
    """A submission parked on the slot-waiter FIFO until admission opens."""

    future: "asyncio.Future[AsyncResultHandle]"
    inputs: Tuple[Any, ...]
    priority: int
    step_budget: Optional[int]
    deadline_ticks: Optional[int] = None


class AsyncServer:
    """Asyncio submission layer over an :class:`~repro.serve.engine.Engine`
    or :class:`~repro.serve.cluster.Cluster`.

    One driver task owns the tick loop; callers interact only through
    coroutines, so no lock is needed — everything runs on one event loop.

    Parameters
    ----------
    server:
        The engine or cluster to drive.  The async layer never touches its
        scheduling: ticks, admission, preemption, and telemetry all happen
        on the logical clock exactly as in synchronous use.
    tick_interval:
        Wall-clock seconds per logical tick.  ``0.0`` (default) runs the
        loop flat out, yielding only after a tick that resolved an awaited
        request, while a submitter is parked, or 0.5 ms after the last
        yield (so timers fire).  Positive values pace ticks on
        an accumulating deadline — steady long-run rate, no drift — that
        resets whenever the loop falls behind or goes idle, so an idle gap
        never causes a catch-up burst.
    journal:
        An admission :class:`~repro.serve.durability.Journal` attached to
        the underlying server: every accepted front-door submission is
        recorded with its logical arrival tick (the durable form of the
        in-memory ``arrivals`` schedule), so a crashed wall-clock run is
        replayable bit-identically via
        :func:`~repro.serve.durability.recover` — wall-clock pacing only
        decides *when* ticks happen, never what they do.

    Usage::

        async with AsyncServer(engine, tick_interval=0.001) as server:
            handle = await server.submit(x, deadline_ticks=40)
            result = await handle
            async for result in server.map(batch):
                ...

    ``server.arrivals`` after a run is the recorded submission schedule:
    pass it to :func:`replay_arrivals` for a deterministic re-run.
    """

    def __init__(
        self, server: Any, tick_interval: float = 0.0, journal: Any = None
    ):
        if tick_interval < 0:
            raise ValueError(
                f"tick_interval must be >= 0 seconds, got {tick_interval}"
            )
        self.server = server
        self.tick_interval = float(tick_interval)
        if journal is not None:
            server.set_journal(journal)
        #: Every front-door submission in order, stamped with its logical
        #: tick — the replayable arrival schedule.
        self.arrivals: List[Arrival] = []
        self._waiting: Deque[_PendingSubmit] = deque()
        self._pending: Dict[int, AsyncResultHandle] = {}
        self._terminal = 0  # completed + failed at the last pending scan
        self._wake = asyncio.Event()
        self._closed = False
        self._crash: Optional[BaseException] = None
        self._driver: Optional["asyncio.Task[None]"] = None

    # -- lifecycle -----------------------------------------------------------

    def _start_driver(self) -> None:
        if self._crash is not None:
            raise RuntimeError(
                "AsyncServer driver crashed and cannot be restarted"
            ) from self._crash
        if self._driver is None or self._driver.done():
            self._driver = asyncio.get_running_loop().create_task(self._run())

    async def __aenter__(self) -> "AsyncServer":
        self._start_driver()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting submissions, drain in-flight work, stop the driver."""
        self._closed = True
        self._wake.set()
        if self._driver is not None:
            await self._driver
            self._driver = None

    async def drain(self) -> None:
        """Wait until every accepted submission has reached a terminal state."""
        while self._waiting or self._pending:
            pending = [h.wait() for h in self._pending.values()]
            if pending:
                await asyncio.gather(*pending)
            else:
                # Waiters are parked but nothing is pending yet: let the
                # driver admit them before checking again.
                await asyncio.sleep(0)

    # -- submission ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Parked slot waiters (front-door backpressure depth)."""
        return len(self._waiting)

    def _submit_now(
        self,
        inputs: Tuple[Any, ...],
        priority: int,
        step_budget: Optional[int],
        deadline_ticks: Optional[int],
    ) -> AsyncResultHandle:
        handle = self.server.submit(
            *inputs,
            priority=priority,
            step_budget=step_budget,
            deadline_ticks=deadline_ticks,
        )
        emit_arrive(self.server, handle)
        self.arrivals.append(
            Arrival(
                tick=self.server.now,
                inputs=inputs,
                priority=priority,
                step_budget=step_budget,
                deadline_ticks=deadline_ticks,
            )
        )
        wrapped = AsyncResultHandle(handle)
        self._pending[handle.request_id] = wrapped
        self._wake.set()
        return wrapped

    async def submit(
        self,
        *inputs: Any,
        priority: int = 0,
        step_budget: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> AsyncResultHandle:
        """Submit one request; awaits a queue slot instead of overflowing.

        Resolves to an awaitable :class:`AsyncResultHandle` once the
        request is admitted — immediately when the queue has space, after
        backpressure when it is full.  Slot waiters are served FIFO, so
        submission order is preserved under pressure.  Raises
        :class:`~repro.serve.queue.QueueFullError` only if the server
        wedges (no progress for :data:`~repro.serve.server.NO_PROGRESS_LIMIT`
        ticks while full), and ``RuntimeError`` after :meth:`aclose` or
        after the driver crashed on an engine exception (chained as the
        cause; parked and pending awaiters receive the same crash).
        """
        if self._closed:
            raise RuntimeError("AsyncServer is closed and accepts no new requests")
        self._start_driver()
        if not self._waiting and not self.server.admission_full():
            return self._submit_now(
                tuple(inputs), priority, step_budget, deadline_ticks
            )
        future: "asyncio.Future[AsyncResultHandle]" = (
            asyncio.get_running_loop().create_future()
        )
        self._waiting.append(
            _PendingSubmit(
                future, tuple(inputs), priority, step_budget, deadline_ticks
            )
        )
        self._wake.set()
        return await future

    async def map(
        self,
        request_inputs: Iterable[Sequence[Any]],
        *,
        priority: int = 0,
        step_budget: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> AsyncIterator[Any]:
        """Serve a collection of requests, yielding results as they complete.

        Unlike the synchronous ``map`` (results in request order after a
        full drain), this is an async iterator in *completion* order:
        early finishers are consumed while stragglers still run.  Ties on
        the same tick break by request id, so the yield order is as
        deterministic as the engine itself.
        """
        handles = []
        for inputs in request_inputs:
            handles.append(
                await self.submit(
                    *inputs,
                    priority=priority,
                    step_budget=step_budget,
                    deadline_ticks=deadline_ticks,
                )
            )
        waiters = {
            asyncio.ensure_future(h.wait()): h for h in handles
        }
        while waiters:
            done, _ = await asyncio.wait(
                waiters.keys(), return_when=asyncio.FIRST_COMPLETED
            )
            finished = sorted(
                (waiters.pop(task) for task in done),
                key=lambda h: (h.handle.finish_tick, h.request_id),
            )
            for handle in finished:
                yield handle.result()

    # -- the wall-clock driver ----------------------------------------------

    def _admit_waiters(self) -> None:
        while self._waiting and not self.server.admission_full():
            entry = self._waiting.popleft()
            if entry.future.cancelled():
                continue
            entry.future.set_result(
                self._submit_now(
                    entry.inputs,
                    entry.priority,
                    entry.step_budget,
                    entry.deadline_ticks,
                )
            )

    def _deliver_completions(self) -> bool:
        """Wake awaiters of newly finished requests; True if any woke."""
        if not self._pending:
            return False
        t = self.server.telemetry
        if t.completed + t.failed == self._terminal:
            return False
        self._terminal = t.completed + t.failed
        delivered = [
            rid for rid, h in self._pending.items() if h.handle.done()
        ]
        for rid in delivered:
            self._pending.pop(rid)._event.set()
        return bool(delivered)

    def _fail_waiters(self, error: BaseException) -> None:
        while self._waiting:
            entry = self._waiting.popleft()
            if not entry.future.cancelled():
                entry.future.set_exception(error)

    def _crashed(self, error: BaseException) -> None:
        """The engine raised mid-tick and the driver is dead.

        Every parked submitter and pending awaiter would otherwise hang
        forever on events only the driver sets — fail them all with the
        crash instead, and poison future submits (``_start_driver``
        refuses to restart over a crashed engine of unknown state).
        """
        self._crash = error
        self._fail_waiters(error)
        for wrapped in self._pending.values():
            wrapped._failure = error
            wrapped._event.set()
        self._pending.clear()

    async def _run(self) -> None:
        try:
            await self._drive_ticks()
        except Exception as error:
            self._crashed(error)

    async def _drive_ticks(self) -> None:
        loop = asyncio.get_running_loop()
        watch = ProgressWatch(self.server)
        deadline = last_yield = loop.time()
        while True:
            self._admit_waiters()
            if not self.server.busy() and not self._waiting:
                if self._closed:
                    break
                # Idle: park until a submission arrives, then restart the
                # pacing deadline so the gap causes no catch-up burst.
                self._wake.clear()
                if not self.server.busy() and not self._waiting:
                    await self._wake.wait()
                deadline = last_yield = loop.time()
                continue
            self.server.tick()
            delivered = self._deliver_completions()
            if self._waiting and watch.wedged():
                # Same wedge detection as the synchronous backpressure
                # loop: parked waiters must not hang on a server that can
                # never admit.  Counted only on ticks with waiters, so it
                # can fire late, never early.
                watch.reset()
                self._fail_waiters(
                    QueueFullError(
                        f"admission is full and {NO_PROGRESS_LIMIT} "
                        "consecutive ticks made no progress; the "
                        "server can never admit the parked waiters"
                    )
                )
            if self.tick_interval > 0:
                deadline += self.tick_interval
                delay = deadline - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                else:
                    # Behind schedule: run flat out but carry no debt.
                    deadline = loop.time()
                    await asyncio.sleep(0)
            elif delivered or self._waiting or (
                loop.time() - last_yield >= _YIELD_EVERY_S
            ):
                # Let woken awaiters, parked submitters and due timers run.
                await asyncio.sleep(0)
                last_yield = loop.time()

    def __repr__(self) -> str:
        return (
            f"AsyncServer({self.server!r}, tick_interval={self.tick_interval}, "
            f"pending={len(self._pending)}, waiting={len(self._waiting)}, "
            f"closed={self._closed})"
        )
