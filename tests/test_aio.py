"""Tests for the asyncio front door (repro.serve.aio).

The load-bearing property mirrors the serving engine's own: wall-clock
submission jitter must never change *what* the machine computes.  The
async layer stamps every submission with the logical tick it landed on,
and replaying that recorded schedule synchronously must reproduce the
results, the event stream, and the telemetry exactly.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    Arrival,
    AsyncServer,
    DeadlinePreemptPolicy,
    NO_PROGRESS_LIMIT,
    QueueFullError,
    StepBudgetExceeded,
    replay_arrivals,
)

from .programs import fib
from .test_serve import _FIB_REF


class TestAsyncSubmission:
    @pytest.mark.asyncio
    async def test_submit_and_await(self):
        engine = fib.serve(num_lanes=2, max_stack_depth=64)
        async with AsyncServer(engine) as server:
            handle = await server.submit(np.int64(10))
            assert int(await handle) == _FIB_REF[10]
            assert handle.done()
        assert not engine.busy()
        assert engine.telemetry.completed == 1

    @pytest.mark.asyncio
    async def test_concurrent_submitters_all_resolve(self):
        sizes = (3, 9, 12, 0, 7)
        engine = fib.serve(num_lanes=2, max_stack_depth=64)

        async def client(n):
            handle = await server.submit(np.int64(n))
            return int(await handle)

        async with AsyncServer(engine) as server:
            results = await asyncio.gather(*(client(n) for n in sizes))
        assert results == [_FIB_REF[n] for n in sizes]

    @pytest.mark.asyncio
    async def test_map_yields_in_completion_order(self):
        sizes = [12, 1, 9, 2, 14, 0]
        engine = fib.serve(num_lanes=2, max_stack_depth=64)
        async with AsyncServer(engine) as server:
            got = [
                int(r)
                async for r in server.map([(np.int64(n),) for n in sizes])
            ]
        assert sorted(got) == sorted(_FIB_REF[n] for n in sizes)
        # Early finishers stream out before the longest request: fib(14)
        # dominates the machine, so it must be the last yield (the engine
        # is deterministic, so this order is stable, not probabilistic).
        assert got[-1] == _FIB_REF[14]
        assert got != [_FIB_REF[n] for n in sizes]

    @pytest.mark.asyncio
    async def test_backpressure_awaits_a_slot_instead_of_raising(self):
        sizes = [5, 8, 3, 11, 2, 6]
        engine = fib.serve(num_lanes=1, max_queue_depth=1, max_stack_depth=64)
        async with AsyncServer(engine) as server:
            handles = [await server.submit(np.int64(n)) for n in sizes]
            results = [int(await h) for h in handles]
        assert results == [_FIB_REF[n] for n in sizes]
        # The queue overflowed from the engine's point of view many times,
        # yet nothing was rejected: pressure became an await.
        assert engine.telemetry.rejected == 0
        assert engine.telemetry.completed == len(sizes)
        ticks = [a.tick for a in server.arrivals]
        assert ticks == sorted(ticks)
        assert ticks[-1] > 0  # later submissions genuinely waited

    @pytest.mark.asyncio
    async def test_parked_submitters_are_admitted_fifo(self):
        sizes = (9, 8, 7, 6, 5)
        engine = fib.serve(num_lanes=1, max_queue_depth=1, max_stack_depth=64)
        async with AsyncServer(engine) as server:
            tasks = [
                asyncio.ensure_future(server.submit(np.int64(n)))
                for n in sizes
            ]
            await asyncio.sleep(0)
            assert server.queue_depth >= 1  # someone is parked right now
            handles = await asyncio.gather(*tasks)
            await server.drain()
        assert all(h.done() for h in handles)
        # FIFO admission: the recorded arrival inputs preserve submission
        # order even though most submitters were parked on backpressure.
        assert [int(a.inputs[0]) for a in server.arrivals] == list(sizes)
        ids = [h.request_id for h in handles]
        assert ids == sorted(ids)

    @pytest.mark.asyncio
    async def test_failure_raised_only_when_awaited(self):
        engine = fib.serve(num_lanes=1, max_stack_depth=64)
        async with AsyncServer(engine) as server:
            handle = await server.submit(np.int64(12), step_budget=1)
            same = await handle.wait()  # must not raise
            assert same is handle and handle.done()
            with pytest.raises(StepBudgetExceeded):
                handle.result()
            with pytest.raises(StepBudgetExceeded):
                await handle

    @pytest.mark.asyncio
    async def test_submit_after_close_raises(self):
        engine = fib.serve(num_lanes=1, max_stack_depth=64)
        server = AsyncServer(engine)
        async with server:
            pass
        with pytest.raises(RuntimeError):
            await server.submit(np.int64(3))

    def test_negative_tick_interval_rejected(self):
        engine = fib.serve(num_lanes=1, max_stack_depth=64)
        with pytest.raises(ValueError):
            AsyncServer(engine, tick_interval=-0.001)

    @pytest.mark.asyncio
    async def test_wall_clock_pacing_slows_the_loop(self):
        interval = 0.005
        engine = fib.serve(num_lanes=1, max_stack_depth=64)
        async with AsyncServer(engine, tick_interval=interval) as server:
            loop = asyncio.get_running_loop()
            start = loop.time()
            handle = await server.submit(np.int64(8))
            await handle
            elapsed = loop.time() - start
        assert engine.now >= 10
        # Each tick pays its interval; the pacing deadline only resets when
        # the loop falls *behind*, so a conservative floor must hold.
        assert elapsed >= interval * min(engine.now, 5)


class TestArrivalReplay:
    @pytest.mark.asyncio
    async def test_replay_matches_live_run_bitwise(self):
        def build():
            return fib.serve(
                num_lanes=2, max_stack_depth=64,
                preempt=DeadlinePreemptPolicy(),
            )

        engine = build()
        async with AsyncServer(engine) as server:
            first = await server.submit(np.int64(13), deadline_ticks=5000)
            while engine.now < 4:
                await asyncio.sleep(0)
            rest = [
                await server.submit(np.int64(n), deadline_ticks=60)
                for n in (4, 2, 6)
            ]
            handles = [first] + rest
            for h in handles:
                await h.wait()
        arrivals = server.arrivals
        assert [a.tick for a in arrivals] == sorted(a.tick for a in arrivals)

        fresh = build()
        replayed = replay_arrivals(fresh, arrivals)
        assert len(replayed) == len(handles)
        for live, rep in zip(handles, replayed):
            assert rep.state == "done"
            assert int(rep.result()) == int(live.handle.result())
            assert rep.finish_tick == live.handle.finish_tick
            assert rep.preemptions == live.handle.preemptions
        assert fresh.telemetry.preemptions == engine.telemetry.preemptions
        assert fresh.telemetry.deadline_misses == engine.telemetry.deadline_misses

    @pytest.mark.asyncio
    async def test_replay_event_stream_identical(self, tmp_path):
        from repro.observe import Trace

        def chrome_bytes(server_engine, name):
            path = tmp_path / name
            server_engine.trace.export_chrome_trace(path)
            return path.read_bytes()

        def build():
            return fib.serve(
                num_lanes=2, max_stack_depth=64,
                preempt=DeadlinePreemptPolicy(), trace=Trace(),
            )

        engine = build()
        async with AsyncServer(engine) as server:
            handles = [
                await server.submit(np.int64(n), deadline_ticks=200)
                for n in (10, 3, 7, 1)
            ]
            for h in handles:
                await h.wait()
        live_events = [e.as_dict() for e in engine.trace.tracer.events]
        assert engine.trace.tracer.count("arrive") == len(server.arrivals)
        live_bytes = chrome_bytes(engine, "live.json")

        for i in range(2):
            fresh = build()
            replay_arrivals(fresh, server.arrivals)
            replay_events = [e.as_dict() for e in fresh.trace.tracer.events]
            assert replay_events == live_events
            # The exported Chrome trace is the same file, byte for byte.
            assert chrome_bytes(fresh, f"replay{i}.json") == live_bytes

    def test_replay_rejects_past_arrivals(self):
        engine = fib.serve(num_lanes=1, max_stack_depth=64)
        arrivals = [
            Arrival(tick=3, inputs=(np.int64(2),)),
            Arrival(tick=1, inputs=(np.int64(2),)),
        ]
        with pytest.raises(ValueError, match="tick-ordered"):
            replay_arrivals(engine, arrivals)


class TestDriverYields:
    """Unpaced, the driver runs ticks back to back and yields only when
    someone waits on it — yet timers, parked submitters and awaiters are
    all served on time, and the run still replays byte for byte."""

    @pytest.mark.asyncio
    async def test_open_loop_timers_fire_while_a_backlog_drains(self, tmp_path):
        from repro.observe import Trace

        def build():
            return fib.serve(num_lanes=16, max_stack_depth=64, trace=Trace())

        engine = build()
        loop = asyncio.get_running_loop()
        woke = []
        lags = []

        async def awaiter(handle):
            await handle.wait()
            woke.append((handle, engine.now))

        async with AsyncServer(engine) as server:
            backlog = [
                await server.submit(np.int64(8 + i % 5)) for i in range(200)
            ]
            tasks = [asyncio.ensure_future(awaiter(h)) for h in backlog]
            start = loop.time()
            for k in range(1, 31):
                due = start + 0.002 * k
                await asyncio.sleep(max(0.0, due - loop.time()))
                handle = await server.submit(np.int64(5))
                lags.append(loop.time() - due)
                tasks.append(asyncio.ensure_future(awaiter(handle)))
            # The open loop ran while the backlog drained, not after it: a
            # driver that never yielded would have made every sleep above
            # wait out the whole drain.
            assert engine.busy()
            await asyncio.gather(*tasks)
        assert max(lags) < 0.05, max(lags)
        # An awaiter wakes before the next tick runs.
        assert len(woke) == 230
        for handle, now in woke:
            assert now == handle.handle.finish_tick

        def chrome_bytes(server_engine, name):
            path = tmp_path / name
            server_engine.trace.export_chrome_trace(path)
            return path.read_bytes()

        fresh = build()
        replayed = replay_arrivals(fresh, server.arrivals)
        assert [e.as_dict() for e in fresh.trace.tracer.events] == [
            e.as_dict() for e in engine.trace.tracer.events
        ]
        assert chrome_bytes(fresh, "replay.json") == chrome_bytes(engine, "live.json")
        for live, rep in zip(backlog, replayed):
            assert rep.finish_tick == live.handle.finish_tick


class _WedgedServer:
    """A server whose admission is full and whose counters never move —
    the shape of a fleet where every shard is draining for retirement."""

    def __init__(self, busy_ticks):
        self.now = 0
        self._busy_ticks = busy_ticks

    def busy(self):
        return self.now < self._busy_ticks

    def admission_full(self):
        return True

    def tick(self):
        self.now += 1
        return True

    def progress_signature(self):
        return ("wedged",)


class TestWedgeDetection:
    @pytest.mark.asyncio
    async def test_wedged_server_fails_parked_waiters(self):
        stub = _WedgedServer(busy_ticks=NO_PROGRESS_LIMIT + 8)
        async with AsyncServer(stub) as server:
            with pytest.raises(QueueFullError, match="no progress"):
                await server.submit(np.int64(1))
        # The driver failed the waiter after the no-progress limit, not
        # after the stub happened to go idle.
        assert stub.now >= NO_PROGRESS_LIMIT


class _StubHandle:
    def __init__(self, request_id):
        self.request_id = request_id

    def done(self):
        return False


class _CrashingServer:
    """A server whose tick raises — the engine hit an internal error
    (bad input dtype, backend bug) while the driver owned the loop."""

    def __init__(self):
        self.now = 0
        self._submitted = 0

    def busy(self):
        return self._submitted > 0

    def admission_full(self):
        return False

    def submit(self, *inputs, priority=0, step_budget=None, deadline_ticks=None):
        self._submitted += 1
        return _StubHandle(request_id=self._submitted)

    def tick(self):
        raise ZeroDivisionError("backend exploded mid-tick")

    def progress_signature(self):
        return (self.now,)


class TestDriverCrash:
    @pytest.mark.asyncio
    async def test_crash_propagates_to_awaiters_instead_of_hanging(self):
        stub = _CrashingServer()
        server = AsyncServer(stub)
        handle = await server.submit(np.int64(1))
        # The engine error reaches the awaiter (chained), rather than the
        # driver dying silently and the await hanging forever.
        with pytest.raises(RuntimeError, match="driver crashed") as excinfo:
            await handle
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
        # wait() still follows the observe-to-raise contract.
        assert (await handle.wait()).done()
        with pytest.raises(RuntimeError, match="driver crashed"):
            handle.result()
        # The driver refuses to restart over an engine in unknown state.
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            await server.submit(np.int64(2))
        await server.aclose()


# -- property-based async interleavings ---------------------------------------
#
# Random submission schedules with cooperative yields between them, some
# requests carrying deadlines under a deadline-eviction policy.  The
# invariants: no lost or duplicated handle, every eviction resumed exactly
# once, results bit-identical to the unbatched reference — and the
# recorded arrival schedule replays to an identical run.

interleave_schedule = st.lists(
    st.tuples(
        st.integers(0, 12),                          # fib argument
        st.integers(0, 2),                           # event-loop yields first
        st.one_of(st.none(), st.integers(0, 400)),   # deadline_ticks
    ),
    min_size=1,
    max_size=10,
)


class TestAsyncPropertySchedules:
    @settings(max_examples=15, deadline=None)
    @given(
        schedule=interleave_schedule,
        num_lanes=st.integers(1, 2),
        max_queue_depth=st.one_of(st.none(), st.just(2)),
    )
    def test_async_interleavings_match_replay(
        self, schedule, num_lanes, max_queue_depth
    ):
        def build():
            return fib.serve(
                num_lanes=num_lanes,
                max_stack_depth=64,
                max_queue_depth=max_queue_depth,
                preempt=DeadlinePreemptPolicy(),
            )

        async def scenario():
            engine = build()
            async with AsyncServer(engine) as server:
                handles = []
                for n, yields, deadline in schedule:
                    for _ in range(yields):
                        await asyncio.sleep(0)
                    handles.append(
                        (
                            n,
                            await server.submit(
                                np.int64(n), deadline_ticks=deadline
                            ),
                        )
                    )
                results = [(n, await h) for n, h in handles]
            return engine, server.arrivals, handles, results

        engine, arrivals, handles, results = asyncio.run(scenario())
        # No lost or duplicated handles.
        ids = [h.request_id for _, h in handles]
        assert len(set(ids)) == len(ids) == len(schedule)
        assert all(h.done() for _, h in handles)
        for n, result in results:
            assert int(result) == _FIB_REF[n]
        t = engine.telemetry
        assert t.submitted == t.completed == len(schedule)
        assert t.rejected == 0
        # Every eviction resumed exactly once.
        assert t.preemptions == t.resumes
        assert sum(h.handle.preemptions for _, h in handles) == t.preemptions
        # The recorded schedule replays to the identical run.
        fresh = build()
        replayed = replay_arrivals(fresh, arrivals)
        for (n, live), rep in zip(handles, replayed):
            assert rep.state == "done"
            assert int(rep.result()) == _FIB_REF[n]
            assert rep.finish_tick == live.handle.finish_tick
        assert fresh.telemetry.preemptions == t.preemptions
        assert fresh.telemetry.deadline_misses == t.deadline_misses
