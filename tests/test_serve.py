"""Tests for the continuous-batching serving engine (repro.serve).

The load-bearing property is *lane-recycling correctness*: a request's
trajectory through the machine must be bit-identical whether it ran in a
static batch (one ``run_pc`` call) or was injected mid-flight into a lane
vacated by an unrelated request.  Everything else — admission control,
step budgets, telemetry — is checked on top of that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    DeadlinePreemptPolicy,
    Engine,
    LanePool,
    NO_PROGRESS_LIMIT,
    PreemptPolicy,
    QueueFullError,
    RequestQueue,
    ResultHandle,
    ServeRequest,
    ServeTelemetry,
    StepBudgetExceeded,
    resolve_preempt_policy,
)
from repro.vm.program_counter import ProgramCounterVM

from .programs import ALL_EXAMPLES, fib, gcd, poly, rng_walk, twice

# Programs spanning recursion, loops, floats, RNG, and multiple outputs.
SERVE_CORPUS = ["fib", "gcd", "collatz_steps", "poly", "rng_walk", "swap_chain",
                "recursive_pair", "newton_sqrt", "ackermann"]


def rows_of(arrays):
    """Per-request input tuples from a batch of input arrays."""
    z = np.asarray(arrays[0]).shape[0]
    return [tuple(np.asarray(a)[b] for a in arrays) for b in range(z)]


class TestLaneRecyclingCorrectness:
    @pytest.mark.parametrize("name", SERVE_CORPUS)
    @pytest.mark.parametrize("num_lanes", [1, 2, 3])
    def test_engine_matches_static_run_pc(self, name, num_lanes):
        fn, inputs = ALL_EXAMPLES[name]
        expected = fn.run_pc(*inputs, max_stack_depth=64)
        engine = fn.serve(num_lanes=num_lanes, max_stack_depth=64)
        results = engine.map(rows_of(inputs))
        expected_tuple = expected if isinstance(expected, tuple) else (expected,)
        for b, result in enumerate(results):
            result_tuple = result if isinstance(result, tuple) else (result,)
            assert len(result_tuple) == len(expected_tuple)
            for out, (got, exp) in enumerate(zip(result_tuple, expected_tuple)):
                got = np.asarray(got)
                assert got.dtype == exp.dtype, (name, b, out)
                np.testing.assert_array_equal(got, exp[b], err_msg=f"{name}[{b}].{out}")

    @pytest.mark.parametrize("mode", ["mask", "gather"])
    def test_both_vm_modes(self, mode):
        ns = np.array([3, 10, 1, 8, 12, 5, 9, 0], dtype=np.int64)
        expected = fib.run_pc(ns)
        engine = fib.serve(num_lanes=3, mode=mode)
        results = engine.map(rows_of((ns,)))
        np.testing.assert_array_equal(np.stack(results), expected)

    def test_more_requests_than_lanes_recycles(self):
        ns = np.arange(12, dtype=np.int64)
        engine = fib.serve(num_lanes=2)
        results = engine.map(rows_of((ns,)))
        np.testing.assert_array_equal(np.stack(results), fib.run_pc(ns))
        # 12 requests flowed through 2 lanes: injection count proves recycling.
        assert engine.telemetry.injected == 12
        assert engine.telemetry.completed == 12
        assert engine.pool.busy_count() == 0

    def test_interleaved_submission_mid_flight(self):
        """Requests submitted while others are in flight still match."""
        engine = gcd.serve(num_lanes=2)
        first = [engine.submit(np.int64(a), np.int64(b))
                 for a, b in [(1071, 462), (17, 5)]]
        for _ in range(3):
            engine.tick()
        second = [engine.submit(np.int64(a), np.int64(b))
                  for a, b in [(100, 75), (3, 0), (270, 192)]]
        engine.run_until_idle()
        a = np.array([1071, 17, 100, 3, 270], dtype=np.int64)
        b = np.array([462, 5, 75, 0, 192], dtype=np.int64)
        expected = gcd.run_pc(a, b)
        got = np.array([h.result() for h in first + second])
        np.testing.assert_array_equal(got, expected)

    def test_drain_policy_matches_too(self):
        ns = np.array([6, 2, 11, 4, 9, 7], dtype=np.int64)
        engine = fib.serve(num_lanes=2, refill="drain")
        results = engine.map(rows_of((ns,)))
        np.testing.assert_array_equal(np.stack(results), fib.run_pc(ns))

    def test_continuous_beats_drain_utilization(self):
        """Skewed request lengths: recycling keeps lanes fuller than draining."""
        ns = np.array([14, 1, 13, 1, 14, 1, 13, 1], dtype=np.int64)
        utils = {}
        for refill in ("continuous", "drain"):
            engine = fib.serve(num_lanes=2, refill=refill)
            engine.map(rows_of((ns,)))
            utils[refill] = engine.telemetry.lane_utilization()
        assert utils["continuous"] > utils["drain"]


class TestAdmissionControl:
    def test_queue_overflow_rejection(self):
        engine = poly.serve(num_lanes=1, max_queue_depth=2)
        engine.submit(np.float64(1.0))
        engine.submit(np.float64(2.0))   # queue now at max_depth
        with pytest.raises(QueueFullError):
            engine.submit(np.float64(3.0))
        assert engine.telemetry.rejected == 1
        assert engine.telemetry.submitted == 2
        engine.run_until_idle()
        assert engine.telemetry.completed == 2

    def test_queue_drains_then_accepts_again(self):
        engine = poly.serve(num_lanes=1, max_queue_depth=1)
        h1 = engine.submit(np.float64(1.5))
        with pytest.raises(QueueFullError):
            engine.submit(np.float64(2.5))
        engine.run_until_idle()
        h2 = engine.submit(np.float64(2.5))
        engine.run_until_idle()
        np.testing.assert_array_equal(
            np.array([h1.result(), h2.result()]),
            poly.run_pc(np.array([1.5, 2.5])),
        )

    def test_wrong_arity_rejected(self):
        engine = gcd.serve(num_lanes=1)
        with pytest.raises(ValueError, match="takes 2 inputs"):
            engine.submit(np.int64(4))

    def test_bad_event_shape_fails_its_own_handle(self):
        """Malformed inputs must fail that handle, not poison the engine."""
        engine = fib.serve(num_lanes=2)
        good_before = engine.submit(np.int64(6))
        engine.run_until_idle()          # scalar storage now allocated
        bad = engine.submit(np.array([1, 2], dtype=np.int64))  # wrong event shape
        good_after = engine.submit(np.int64(7))
        engine.run_until_idle()
        assert bad.state == "failed"
        with pytest.raises(ValueError, match="event shape"):
            bad.result()
        assert good_before.result() == 13
        assert good_after.result() == 21
        assert engine.telemetry.failed == 1
        assert engine.pool.busy_count() == 0  # the poisoned lane was vacated

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_a_float_request_never_leaks_into_int_neighbours(self, executor):
        """The engine's first request fixes its machine's types: a later
        float request into the int-typed machine fails on its own handle,
        and the int requests around it come back int64, as the reference
        computes them — not widened to float64 by their neighbour."""
        engine = twice.serve(4, executor=executor)
        handles = []
        for x in (np.int64(4), np.float64(2.5), np.int64(5)):
            handles.append(engine.submit(x))
            engine.run_until_idle()
        first, bad, last = handles
        assert bad.state == "failed"
        with pytest.raises(TypeError, match="float64.*int64"):
            bad.result()
        for handle, x in ((first, 4), (last, 5)):
            out = handle.result()
            assert np.asarray(out).dtype == np.int64
            assert out == twice.run_reference(np.array([x]))[0]
        assert engine.telemetry.failed == 1

    def test_run_until_idle_exact_max_ticks_is_not_an_error(self):
        engine = fib.serve(num_lanes=1)
        engine.submit(np.int64(5))
        ticks = engine.run_until_idle()
        engine2 = fib.serve(num_lanes=1)
        engine2.submit(np.int64(5))
        assert engine2.run_until_idle(max_ticks=ticks) == ticks
        engine3 = fib.serve(num_lanes=1)
        engine3.submit(np.int64(5))
        with pytest.raises(RuntimeError, match="still busy"):
            engine3.run_until_idle(max_ticks=ticks - 1)

    def test_run_until_idle_zero_max_ticks_checks_before_ticking(self):
        """A zero budget on a busy server must raise without ticking at
        all — the budget check comes before the tick, not after."""
        engine = fib.serve(num_lanes=1)
        engine.submit(np.int64(5))
        with pytest.raises(RuntimeError, match="still busy"):
            engine.run_until_idle(max_ticks=0)
        assert engine.now == 0
        # An already-idle server spends a zero budget successfully.
        idle = fib.serve(num_lanes=1)
        assert idle.run_until_idle(max_ticks=0) == 0
        assert idle.now == 0

    def test_priority_admitted_first(self):
        engine = poly.serve(num_lanes=1)
        lo = engine.submit(np.float64(0.0), priority=0)
        hi = engine.submit(np.float64(1.0), priority=5)
        engine.run_until_idle()
        assert hi.inject_tick < lo.inject_tick

    def test_fifo_within_priority(self):
        q = RequestQueue(max_depth=None)
        handles = [
            ResultHandle(ServeRequest(request_id=i, inputs=(), priority=0))
            for i in range(5)
        ]
        for h in handles:
            q.push(h)
        assert [q.pop().request_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_earliest_deadline_first_within_priority(self):
        """Equal priority: tighter absolute deadline pops first; requests
        without a deadline sort last (infinite slack)."""
        q = RequestQueue(max_depth=None)
        deadlines = [None, 50, 9, None, 30]
        for i, dl in enumerate(deadlines):
            q.push(ResultHandle(ServeRequest(
                request_id=i, inputs=(), deadline_ticks=dl)))
        assert [q.pop().request_id for _ in range(5)] == [2, 4, 1, 0, 3]

    def test_priority_still_dominates_deadlines(self):
        q = RequestQueue(max_depth=None)
        lo_tight = ResultHandle(ServeRequest(
            request_id=0, inputs=(), priority=0, deadline_ticks=1))
        hi_loose = ResultHandle(ServeRequest(
            request_id=1, inputs=(), priority=5, deadline_ticks=9999))
        q.push(lo_tight)
        q.push(hi_loose)
        assert q.pop() is hi_loose

    def test_queue_depth_is_public_and_tracks_len(self):
        q = RequestQueue(max_depth=3)
        assert q.depth() == 0 and q.snapshot_count() == 0
        handles = [
            ResultHandle(ServeRequest(request_id=i, inputs=()))
            for i in range(3)
        ]
        for i, h in enumerate(handles):
            q.push(h)
            assert q.depth() == len(q) == i + 1
        q.pop()
        assert q.depth() == len(q) == 2

    def test_queue_depth_counts_requeued_snapshots(self):
        """An evicted straggler sits in the queue with its checkpoint:
        depth() and snapshot_count() see it without touching privates."""
        engine = fib.serve(num_lanes=1, preempt=PreemptPolicy())
        engine.submit(np.int64(14))
        for _ in range(3):
            engine.tick()
        engine.submit(np.int64(3), priority=5)
        engine.tick()  # eviction checkpoints and requeues the straggler
        assert engine.queue.depth() == len(engine.queue) == 1
        assert engine.queue.snapshot_count() == 1
        engine.run_until_idle()
        assert engine.queue.depth() == 0
        assert engine.queue.snapshot_count() == 0


class TestStepBudgets:
    def test_budget_exhaustion_fails_request(self):
        # fib(25) needs far more than 10 active machine steps.
        engine = fib.serve(num_lanes=2, default_step_budget=10)
        doomed = engine.submit(np.int64(25))
        engine.run_until_idle()
        assert doomed.done()
        assert isinstance(doomed.exception(), StepBudgetExceeded)
        with pytest.raises(StepBudgetExceeded):
            doomed.result()
        assert engine.telemetry.failed == 1

    def test_budget_failure_recycles_the_lane(self):
        engine = fib.serve(num_lanes=1)
        doomed = engine.submit(np.int64(25), step_budget=5)
        survivor = engine.submit(np.int64(10))
        engine.run_until_idle()
        assert isinstance(doomed.exception(), StepBudgetExceeded)
        np.testing.assert_array_equal(
            survivor.result(), fib.run_pc(np.array([10], dtype=np.int64))[0]
        )
        assert engine.telemetry.failed == 1
        assert engine.telemetry.completed == 1

    def test_generous_budget_is_harmless(self):
        engine = fib.serve(num_lanes=2)
        h = engine.submit(np.int64(9), step_budget=100_000)
        engine.run_until_idle()
        assert h.result() == 55
        assert 0 < h.steps_used < 100_000


class TestTelemetry:
    def test_counters_consistent(self):
        ns = np.array([5, 9, 2, 12, 7, 3], dtype=np.int64)
        engine = fib.serve(num_lanes=2)
        engine.map(rows_of((ns,)))
        t = engine.telemetry
        assert t.submitted == t.injected == t.completed == 6
        assert t.rejected == 0 and t.failed == 0
        assert t.ticks > 0
        assert 0.0 < t.lane_utilization() <= 1.0
        assert t.lane_slots == t.ticks * 2
        assert t.first_result_tick is not None
        assert 0.0 < t.throughput() <= 1.0
        assert len(t.queue_waits) == 6
        # 6 requests through 2 lanes: someone must have waited.
        assert t.max_queue_wait() > 0
        assert "lane_utilization" in t.summary()

    def test_queue_wait_zero_when_lanes_free(self):
        engine = poly.serve(num_lanes=4)
        h = engine.submit(np.float64(2.0))
        engine.run_until_idle()
        assert h.queue_wait() == 0

    def test_vm_instrumentation_shared(self):
        engine = fib.serve(num_lanes=2)
        engine.map(rows_of((np.array([8, 4], dtype=np.int64),)))
        instr = engine.telemetry.instrumentation
        assert instr is engine.vm.instr
        assert instr.kernel_calls > 0
        assert 0.0 < instr.lane_utilization() <= 1.0

    def test_handle_repr_and_pending_result(self):
        engine = fib.serve(num_lanes=1)
        h = engine.submit(np.int64(20))
        assert "queued" in repr(h)
        with pytest.raises(RuntimeError, match="still"):
            h.result()
        engine.run_until_idle()
        assert h.done()


class TestVmLaneHooks:
    """The VM-level lifecycle primitives the engine is built on."""

    def test_inject_retire_roundtrip(self):
        program = fib.stack_program()
        vm = ProgramCounterVM(program, batch_size=4)
        vm.halt_lanes(np.arange(4))
        assert bool(vm.halted_mask().all())
        vm.inject_lanes(np.array([1, 3]), [np.array([7, 9], dtype=np.int64)])
        assert list(vm.halted_mask()) == [True, False, True, False]
        while not vm.halted_mask().all():
            vm.step()
        (out,) = vm.retire_lanes(np.array([1, 3]))
        np.testing.assert_array_equal(
            out, fib.run_pc(np.array([7, 9], dtype=np.int64))
        )

    def test_inject_validates_shapes(self):
        vm = ProgramCounterVM(fib.stack_program(), batch_size=2)
        vm.halt_lanes(np.arange(2))
        with pytest.raises(ValueError, match="takes 1 inputs"):
            vm.inject_lanes(np.array([0]), [])
        with pytest.raises(ValueError, match="leading dimension"):
            vm.inject_lanes(np.array([0]), [np.array([1, 2], dtype=np.int64)])

    def test_reset_lane_restores_initial_state(self):
        """A recycled lane is bitwise a fresh lane: same outputs, same stacks."""
        program = fib.stack_program()
        vm = ProgramCounterVM(program, batch_size=2)
        vm.halt_lanes(np.arange(2))
        # First occupant: deep recursion dirties lane 0's stacks.
        vm.inject_lanes(np.array([0]), [np.array([11], dtype=np.int64)])
        while not vm.halted_mask().all():
            vm.step()
        vm.reset_lanes(np.array([0]))
        assert vm.pcreg[0] == vm.entry_index
        assert vm.addr_stack.sp[0] == 0
        assert vm.addr_stack.read()[0] == vm.exit_index
        for st in vm.storages.values():
            if getattr(st, "array", None) is not None:
                assert not np.any(st.array[0])
            if getattr(st, "stack", None) is not None:
                assert st.stack.sp[0] == 0
                assert not np.any(st.stack.data[:, 0])

    def test_lane_pool_deterministic_and_guarded(self):
        pool = LanePool(2)
        h = [ResultHandle(ServeRequest(request_id=i, inputs=())) for i in range(3)]
        assert pool.acquire(h[0]) == 0
        assert pool.acquire(h[1]) == 1
        with pytest.raises(RuntimeError, match="no vacant lane"):
            pool.acquire(h[2])
        assert pool.release(0) is h[0]
        with pytest.raises(RuntimeError, match="already vacant"):
            pool.release(0)
        assert pool.acquire(h[2]) == 0  # lowest-index-first, deterministic
        assert list(pool.busy_lanes()) == [0, 1]
        with pytest.raises(ValueError):
            LanePool(0)

    def test_rng_requests_are_schedule_invariant(self):
        """Counter-based RNG: serving order must not change any member's draws."""
        ctrs, ns = ALL_EXAMPLES["rng_walk"][1]
        expected = rng_walk.run_pc(ctrs, ns, max_stack_depth=64)
        engine = rng_walk.serve(num_lanes=2, max_stack_depth=64)
        results = engine.map(rows_of((ctrs, ns)))
        np.testing.assert_array_equal(np.stack(results), expected)


class TestPreemption:
    """Lane checkpoint/resume: evicting a straggler must seat the
    higher-priority arrival immediately, and the straggler must *resume*
    from its snapshot — same bits, same step budget — not restart."""

    def test_high_priority_preempts_straggler(self):
        engine = fib.serve(num_lanes=1, preempt=True)
        strag = engine.submit(np.int64(18), priority=0)
        for _ in range(5):
            engine.tick()
        vip = engine.submit(np.int64(5), priority=2)
        engine.run_until_idle()
        assert vip.finish_tick < strag.finish_tick
        assert strag.preemptions == 1
        assert strag.resume_tick is not None and strag.snapshot is None
        assert int(vip.result()) == _FIB_REF[5]
        assert int(strag.result()) == int(
            fib.run_pc(np.array([18], dtype=np.int64))[0]
        )
        t = engine.telemetry
        assert t.preemptions == t.resumes == 1
        assert t.completed == 2 and t.failed == 0
        assert len(t.resume_waits) == 1 and t.mean_resume_wait() > 0
        assert "preemption" in t.summary()

    def test_resumed_not_restarted(self):
        """The load-bearing semantic: a preempted request spends exactly
        the active machine steps an undisturbed run does — the snapshot
        carried its position, nothing was recomputed."""
        solo = fib.serve(num_lanes=1)
        ref = solo.submit(np.int64(16))
        solo.run_until_idle()

        def burst_into_straggler(preempt):
            engine = fib.serve(num_lanes=1, preempt=preempt)
            strag = engine.submit(np.int64(16))
            for _ in range(10):
                engine.tick()
            vip = engine.submit(np.int64(6), priority=3)
            engine.run_until_idle()
            return engine, strag, vip.finish_tick - vip.request.submit_tick

        engine, strag, ttfr = burst_into_straggler(True)
        assert strag.preemptions == 1
        assert strag.steps_used == ref.steps_used
        assert engine.telemetry.preemptions == engine.telemetry.resumes == 1
        # Tick clock (deterministic): what the eviction buys is the
        # high-priority time-to-first-result — at least 2x sooner than
        # waiting out the straggler (here 74 vs 9642 ticks).
        _, waited_out, ttfr_without = burst_into_straggler(None)
        assert waited_out.preemptions == 0
        assert ttfr_without >= 2 * ttfr

    def test_step_budget_survives_preemption(self):
        """A resumed request keeps spending the same budget; it is never
        granted a fresh one by the eviction."""
        solo = fib.serve(num_lanes=1)
        ref = solo.submit(np.int64(14))
        solo.run_until_idle()
        budget = ref.steps_used  # exactly enough for an undisturbed run

        engine = fib.serve(num_lanes=1, preempt=True)
        tight = engine.submit(np.int64(14), step_budget=budget + 1)
        for _ in range(8):
            engine.tick()
        engine.submit(np.int64(4), priority=2)
        engine.run_until_idle()
        # Preempted once, resumed, still finished within the budget: the
        # eviction cost zero active steps.
        assert tight.preemptions == 1
        assert tight.state == "done"
        assert tight.steps_used == budget

    def test_equal_priority_never_preempts(self):
        engine = fib.serve(num_lanes=1, preempt=True)
        first = engine.submit(np.int64(14), priority=1)
        for _ in range(5):
            engine.tick()
        second = engine.submit(np.int64(3), priority=1)
        engine.run_until_idle()
        assert engine.telemetry.preemptions == 0
        assert first.finish_tick < second.finish_tick

    def test_free_lane_means_no_eviction(self):
        engine = fib.serve(num_lanes=2, preempt=True)
        engine.submit(np.int64(14), priority=0)
        engine.tick()
        engine.submit(np.int64(3), priority=9)
        engine.run_until_idle()
        assert engine.telemetry.preemptions == 0

    def test_min_age_defers_eviction(self):
        min_age = 10
        engine = fib.serve(
            num_lanes=1, preempt=PreemptPolicy(min_age=min_age)
        )
        strag = engine.submit(np.int64(16))
        engine.tick()  # seated at tick 0
        vip = engine.submit(np.int64(3), priority=5)
        engine.run_until_idle()
        assert strag.preemptions == 1
        # The eviction waited for the straggler to reach the age floor.
        assert strag.preempt_tick - strag.inject_tick >= min_age

    def test_straggler_cannot_delay_vip_beyond_age_threshold(self):
        """The SLO starvation regression: low-priority stragglers holding
        *every* lane bound the high-priority queue wait by the policy's
        age threshold, not by the stragglers' (much longer) runtime."""
        min_age = 6
        num_lanes = 2
        engine = fib.serve(
            num_lanes=num_lanes, preempt=PreemptPolicy(min_age=min_age)
        )
        strags = [engine.submit(np.int64(17)) for _ in range(num_lanes)]
        engine.tick()  # all lanes saturated
        vip = engine.submit(np.int64(4), priority=3)
        engine.run_until_idle()
        wait = vip.inject_tick - vip.request.submit_tick
        # Bounded by the age floor (+1 tick of scheduling slack), far
        # below any straggler's full runtime.
        assert wait <= min_age + 1
        got = np.array([int(s.result()) for s in strags] + [int(vip.result())])
        expected = fib.run_pc(np.array([17, 17, 4], dtype=np.int64))
        np.testing.assert_array_equal(got, expected)

        # Without preemption the same trace starves the vip for the whole
        # straggler runtime.
        plain = fib.serve(num_lanes=num_lanes)
        for _ in range(num_lanes):
            plain.submit(np.int64(17))
        plain.tick()
        vip2 = plain.submit(np.int64(4), priority=3)
        plain.run_until_idle()
        assert vip2.inject_tick - vip2.request.submit_tick > 10 * (min_age + 1)

    def test_preemption_decisions_replay_deterministically(self):
        """The same trace preempts the same requests at the same ticks on
        every rerun — scheduling is a pure function of the submissions."""

        def trace():
            engine = fib.serve(num_lanes=2, preempt=True)
            schedule = [
                (16, 0, 0), (15, 0, 0), (3, 2, 4), (12, 1, 2),
                (4, 3, 3), (5, 2, 0), (14, 1, 1), (6, 4, 2),
            ]
            handles = []
            for n, prio, gap in schedule:
                for _ in range(gap):
                    engine.tick()
                handles.append(engine.submit(np.int64(n), priority=prio))
            engine.run_until_idle()
            return [
                (
                    h.preemptions,
                    h.inject_tick,
                    h.preempt_tick,
                    h.resume_tick,
                    h.finish_tick,
                    int(h.result()),
                )
                for h in handles
            ]

        first = trace()
        assert first == trace()
        assert any(p for p, *_ in first)  # the trace really preempts

    def test_preempted_request_resumes_before_later_natives(self):
        """An evicted request re-queues under its original arrival stamp,
        so it resumes ahead of same-priority requests submitted later."""
        engine = fib.serve(num_lanes=1, preempt=True)
        strag = engine.submit(np.int64(14), priority=0)
        for _ in range(5):
            engine.tick()
        vip = engine.submit(np.int64(3), priority=5)
        late = engine.submit(np.int64(4), priority=0)
        engine.run_until_idle()
        assert strag.preemptions == 1
        # The lane the vip vacated goes back to the preempted straggler
        # (oldest arrival in priority 0), not the later native.
        assert vip.finish_tick <= strag.resume_tick
        assert strag.resume_tick < late.inject_tick
        assert strag.finish_tick < late.finish_tick

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="priority_delta"):
            PreemptPolicy(priority_delta=0)
        with pytest.raises(ValueError, match="min_age"):
            PreemptPolicy(min_age=-1)
        with pytest.raises(ValueError, match="max_per_tick"):
            PreemptPolicy(max_per_tick=0)
        with pytest.raises(ValueError, match="refill"):
            fib.serve(num_lanes=1, preempt=True, refill="drain")

    def test_resolve_preempt_policy_forms(self):
        assert resolve_preempt_policy(None) is None
        assert resolve_preempt_policy(False) is None
        assert isinstance(resolve_preempt_policy(True), PreemptPolicy)
        assert isinstance(resolve_preempt_policy("priority"), PreemptPolicy)
        inst = PreemptPolicy(priority_delta=2, min_age=4)
        assert resolve_preempt_policy(inst) is inst
        assert isinstance(resolve_preempt_policy(PreemptPolicy), PreemptPolicy)
        with pytest.raises(ValueError, match="unknown preempt policy"):
            resolve_preempt_policy("nice")
        with pytest.raises(TypeError):
            resolve_preempt_policy(42)

    def test_max_per_tick_caps_evictions(self):
        engine = fib.serve(
            num_lanes=3, preempt=PreemptPolicy(max_per_tick=1)
        )
        for _ in range(3):
            engine.submit(np.int64(15), priority=0)
        engine.tick()  # saturate all three lanes
        for _ in range(3):
            engine.submit(np.int64(3), priority=5)
        evictions_per_tick = []
        before = engine.telemetry.preemptions
        for _ in range(3):
            engine.tick()
            now = engine.telemetry.preemptions
            evictions_per_tick.append(now - before)
            before = now
        assert evictions_per_tick == [1, 1, 1]
        engine.run_until_idle()
        assert engine.telemetry.preemptions == engine.telemetry.resumes == 3

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_preempted_results_bit_identical_both_executors(self, executor):
        """The differential: a preempt-heavy trace must still produce the
        static batch's exact bits under either executor."""
        ns = np.array([16, 15, 3, 4, 14, 5, 6, 13], dtype=np.int64)
        prios = [0, 0, 5, 5, 1, 6, 6, 2]
        expected = fib.run_pc(ns)
        engine = fib.serve(num_lanes=2, preempt=True, executor=executor)
        handles = []
        for n, p in zip(ns, prios):
            handles.append(engine.submit(np.int64(n), priority=p))
            engine.tick()
        engine.run_until_idle()
        got = np.array([int(h.result()) for h in handles])
        np.testing.assert_array_equal(got, expected)
        assert engine.telemetry.preemptions > 0
        assert engine.telemetry.preemptions == engine.telemetry.resumes


class TestDeadlineEviction:
    """DeadlinePreemptPolicy: slack-ranked eviction at equal priority."""

    def test_tight_deadline_evicts_slack_rich_straggler(self):
        engine = fib.serve(
            num_lanes=2, preempt=DeadlinePreemptPolicy(), executor="fused"
        )
        stragglers = [
            engine.submit(np.int64(14), deadline_ticks=100000)
            for _ in range(2)
        ]
        for _ in range(3):
            engine.tick()
        urgent = engine.submit(np.int64(3), deadline_ticks=40)
        engine.run_until_idle()
        assert engine.telemetry.preemptions >= 1
        assert engine.telemetry.preemptions == engine.telemetry.resumes
        assert urgent.finish_tick <= urgent.deadline_tick
        assert all(int(h.result()) == _FIB_REF[14] for h in stragglers)
        assert int(urgent.result()) == _FIB_REF[3]

    def test_priority_policy_cannot_help_at_equal_priority(self):
        """The contrast case: same workload, priority-only policy, no
        evictions — the urgent request waits out a straggler."""
        engine = fib.serve(num_lanes=2, preempt=PreemptPolicy(),
                           executor="fused")
        for _ in range(2):
            engine.submit(np.int64(14), deadline_ticks=100000)
        for _ in range(3):
            engine.tick()
        urgent = engine.submit(np.int64(3), deadline_ticks=40)
        engine.run_until_idle()
        assert engine.telemetry.preemptions == 0
        assert urgent.finish_tick > urgent.deadline_tick
        assert engine.telemetry.deadline_misses == 1

    def test_deadline_attainment_beats_priority_only(self):
        """Tick clock (deterministic): a tight-deadline burst at the
        stragglers' own priority.  Priority preemption cannot fire, the
        burst waits out a straggler and misses; slack-ranked eviction
        seats it at once — deadline SLO attainment at least doubles, and
        every evicted straggler resumes and still makes its loose
        deadline."""
        attainment = {}
        for policy in (PreemptPolicy(), DeadlinePreemptPolicy()):
            engine = fib.serve(num_lanes=2, preempt=policy, executor="fused")
            handles = [
                engine.submit(np.int64(14), deadline_ticks=100000)
                for _ in range(2)
            ]
            for _ in range(3):
                engine.tick()
            handles += [
                engine.submit(np.int64(n), deadline_ticks=150)
                for n in (3, 4, 5, 3)
            ]
            engine.run_until_idle()
            assert [int(h.result()) for h in handles] == [
                _FIB_REF[n] for n in (14, 14, 3, 4, 5, 3)
            ]
            t = engine.telemetry
            assert t.preemptions == t.resumes
            attainment[type(policy)] = t.slo_attainment("deadline")
        assert attainment[DeadlinePreemptPolicy] == 1.0
        assert attainment[DeadlinePreemptPolicy] >= 2 * attainment[PreemptPolicy]

    def test_deadline_less_traffic_never_ping_pongs(self):
        """Regression: with no deadlines anywhere, victim slack minus
        waiter slack is inf - inf = nan, and the comparison must read
        that as "no gap" — an engine under pure overload used to evict
        (and immediately re-seat) a lane every single tick."""
        engine = fib.serve(
            num_lanes=2, preempt=DeadlinePreemptPolicy(), executor="fused"
        )
        ns = np.array([12, 11, 10, 9, 8, 7], dtype=np.int64)
        results = engine.map([(np.int64(n),) for n in ns])
        np.testing.assert_array_equal(np.stack(results), fib.run_pc(ns))
        assert engine.telemetry.preemptions == 0

    def test_deadline_less_victim_still_evicted_for_deadline_waiter(self):
        """inf victim slack minus finite waiter slack is +inf: always a
        big enough gap."""
        engine = fib.serve(
            num_lanes=1, preempt=DeadlinePreemptPolicy(), executor="fused"
        )
        straggler = engine.submit(np.int64(14))  # no deadline at all
        for _ in range(3):
            engine.tick()
        urgent = engine.submit(np.int64(2), deadline_ticks=30)
        engine.run_until_idle()
        assert straggler.preemptions == 1
        assert urgent.finish_tick <= urgent.deadline_tick

    def test_no_eviction_while_lanes_free(self):
        engine = fib.serve(
            num_lanes=3, preempt=DeadlinePreemptPolicy(), executor="fused"
        )
        engine.submit(np.int64(14), deadline_ticks=100000)
        for _ in range(3):
            engine.tick()
        engine.submit(np.int64(3), deadline_ticks=10)
        engine.run_until_idle()
        assert engine.telemetry.preemptions == 0

    def test_slack_delta_gates_eviction(self):
        """A waiter whose slack is within slack_delta of every victim's
        gains nothing from an eviction, so none happens."""
        engine = fib.serve(
            num_lanes=1,
            preempt=DeadlinePreemptPolicy(slack_delta=10**6),
            executor="fused",
        )
        engine.submit(np.int64(12), deadline_ticks=5000)
        for _ in range(3):
            engine.tick()
        engine.submit(np.int64(3), deadline_ticks=40)
        engine.run_until_idle()
        assert engine.telemetry.preemptions == 0

    def test_policy_validation_and_registry(self):
        with pytest.raises(ValueError, match="slack_delta"):
            DeadlinePreemptPolicy(slack_delta=0)
        policy = resolve_preempt_policy("deadline")
        assert isinstance(policy, DeadlinePreemptPolicy)
        assert "slack_delta" in repr(policy)

    def test_negative_deadline_rejected(self):
        engine = fib.serve(num_lanes=1)
        with pytest.raises(ValueError, match="deadline_ticks"):
            engine.submit(np.int64(3), deadline_ticks=-1)

    def test_deadline_telemetry_and_trace_event(self):
        """A completion past its deadline counts as a miss, scores against
        slo_attainment('deadline'), and emits a 'deadline' trace event
        just before its terminal."""
        engine = fib.serve(num_lanes=1, trace="events")
        missed = engine.submit(np.int64(12), deadline_ticks=1)
        made = engine.submit(np.int64(12), deadline_ticks=10**6)
        engine.run_until_idle()
        t = engine.telemetry
        assert t.deadline_misses == 1
        assert t.slo_attainment("deadline") == 0.5
        outcomes = t.deadline_outcomes()
        assert len(outcomes) == 2
        kinds = [e.kind for e in missed.trace()]
        assert "deadline" in kinds
        assert kinds.index("deadline") == len(kinds) - 2  # precedes terminal
        assert "deadline" not in [e.kind for e in made.trace()]
        from repro.observe import validate_timeline
        assert validate_timeline(missed.trace()) == "complete"


class _WedgedFleet:
    """Admission full, clock advancing, every other counter frozen — the
    observable shape of a server that can never admit."""

    def __init__(self):
        self.now = 0

    def busy(self):
        return True

    def admission_full(self):
        return True

    def tick(self):
        self.now += 1
        return True

    def progress_signature(self):
        return ("wedged",)


class TestBackpressureWedge:
    def test_no_progress_backpressure_raises_instead_of_spinning(self):
        """Regression: map/serve_all backpressure used to tick forever
        against a server that could never admit, because the logical
        clock always advances; the progress signature excludes it."""
        from repro.serve.engine import serve_all

        stub = _WedgedFleet()
        with pytest.raises(QueueFullError, match="no progress"):
            serve_all(stub, [(np.int64(1),)])
        assert stub.now == NO_PROGRESS_LIMIT  # bounded, not forever

    def test_engine_progress_signature_moves_with_work(self):
        engine = fib.serve(num_lanes=1)
        idle = engine.progress_signature()
        engine.tick()  # an idle tick is NOT progress
        assert engine.progress_signature() == idle
        engine.submit(np.int64(5))
        moved = engine.progress_signature()
        assert moved != idle
        engine.tick()
        assert engine.progress_signature() != moved


class TestTelemetryEdgeCases:
    """Zero-traffic and failure-only corners must report zeros, not raise."""

    def test_fresh_telemetry_all_zeroes(self):
        t = ServeTelemetry(num_lanes=4)
        assert t.ticks == 0
        assert t.throughput() == 0.0
        assert t.lane_utilization() == 0.0
        assert t.mean_queue_wait() == 0.0
        assert t.max_queue_wait() == 0
        assert t.first_result_tick is None
        assert isinstance(t.summary(), str)

    def test_fresh_engine_zero_ticks(self):
        engine = fib.serve(num_lanes=2)
        t = engine.telemetry
        assert t.ticks == 0 and t.throughput() == 0.0
        assert t.lane_utilization() == 0.0 and t.mean_queue_wait() == 0.0
        assert isinstance(t.summary(), str)

    def test_zero_completions_with_failed_traffic(self):
        """Every request aborts on its budget: completed stays 0, derived
        metrics stay finite."""
        engine = fib.serve(num_lanes=2, default_step_budget=1)
        for _ in range(3):
            engine.submit(np.int64(20))
        engine.run_until_idle()
        t = engine.telemetry
        assert t.completed == 0 and t.failed == 3
        assert t.throughput() == 0.0
        assert t.first_result_tick is None
        assert t.mean_queue_wait() >= 0.0
        assert isinstance(t.summary(), str)

    def test_all_rejected_traffic(self):
        engine = fib.serve(num_lanes=1, max_queue_depth=0)
        for _ in range(4):
            with pytest.raises(QueueFullError):
                engine.submit(np.int64(5))
        t = engine.telemetry
        assert t.rejected == 4 and t.submitted == 0
        assert t.throughput() == 0.0 and t.mean_queue_wait() == 0.0
        engine.tick()  # an idle tick keeps everything well-defined
        assert t.idle_ticks == 1 and t.lane_utilization() == 0.0

# -- property-based serving (hypothesis) --------------------------------------
#
# Random arrival/step-budget schedules against Engine and Cluster.  The
# invariants: no lost or duplicated handle, every completed result
# bit-identical to the unbatched reference, and queue-wait accounting
# consistent with the logical clock.

# One request: (fib argument, arrival gap in ticks, optional step budget).
schedule_strategy = st.lists(
    st.tuples(
        st.integers(0, 14),
        st.integers(0, 3),
        st.one_of(st.none(), st.integers(1, 2000)),
    ),
    min_size=1,
    max_size=16,
)

_FIB_REF = {int(n): int(v) for n, v in zip(
    range(15), fib.run_pc(np.arange(15, dtype=np.int64))
)}


def check_serving_invariants(server, handles, telemetry):
    """Shared postconditions for a drained Engine or Cluster."""
    # No lost handles: every submission ended in exactly one terminal state.
    assert all(h.done() for _, h in handles)
    done = [h for _, h in handles if h.state == "done"]
    failed = [h for _, h in handles if h.state == "failed"]
    assert len(done) + len(failed) == len(handles)
    # No duplicated delivery: counters match the handle states one-for-one.
    assert telemetry.submitted == len(handles)
    assert telemetry.completed == len(done)
    assert telemetry.failed == len(failed)
    assert telemetry.injected == len(done) + len(failed)
    # Results bit-identical to the unbatched reference.
    for n, h in handles:
        if h.state == "done":
            assert int(h.result()) == _FIB_REF[n]
        else:
            assert isinstance(h.exception(), StepBudgetExceeded)
    # Queue-wait accounting consistent with the logical clock.
    for _, h in handles:
        assert h.inject_tick is not None and h.finish_tick is not None
        assert h.request.submit_tick <= h.inject_tick <= h.finish_tick
        assert h.finish_tick <= server.now
        assert h.queue_wait() == h.inject_tick - h.request.submit_tick
    check_preemption_invariants(handles, telemetry)


def check_trace_invariants(handles, telemetry, trace):
    """Every traced request's timeline is well-formed and the event
    stream reconstructs the telemetry counters exactly.

    Works for an engine's ServeTelemetry and a cluster's ClusterTelemetry
    alike (the counter names coincide by design).
    """
    from repro.observe import validate_timeline

    tracer = trace.tracer
    for _, h in handles:
        events = h.trace()
        terminal = validate_timeline(events)
        assert terminal == ("complete" if h.state == "done" else "fail")
        assert sum(1 for e in events if e.kind == "preempt") == h.preemptions
    assert tracer.count("submit") == telemetry.submitted
    assert tracer.count("inject") == telemetry.injected
    assert tracer.count("complete") == telemetry.completed
    assert tracer.count("fail") == telemetry.failed
    assert tracer.count("preempt") == telemetry.preemptions
    assert tracer.count("resume") == telemetry.resumes
    assert tracer.count("reject") == telemetry.rejected
    assert tracer.count("steal") == getattr(telemetry, "steals", 0)
    assert tracer.count("migrate") == getattr(
        telemetry, "preempted_migrations", 0
    )


def check_preemption_invariants(handles, telemetry):
    """Every eviction resumed exactly once, nothing lingers preempted.

    Works on per-shard and fleet telemetry alike: for a cluster, a
    migrated preemption is evicted on one shard and resumed on another, so
    only the aggregate counters balance (which is what ClusterTelemetry's
    rollup properties report).
    """
    assert telemetry.preemptions == telemetry.resumes
    assert sum(h.preemptions for _, h in handles) == telemetry.preemptions
    for _, h in handles:
        assert h.snapshot is None  # no checkpoint survives the drain
        if h.preemptions:
            assert h.preempt_tick is not None
            # The last eviction was followed by a resume (or the request
            # failed its budget *while running*, never while evicted —
            # eviction happens only to running lanes, so a drained server
            # implies every eviction was paired with a resume).
            assert h.resume_tick is not None
            assert h.preempt_tick <= h.resume_tick <= h.finish_tick


def check_deadline_invariants(handles, telemetry):
    """Deadline accounting reconstructs from the handles exactly."""
    done = [h for _, h in handles if h.state == "done"]
    expect_misses = sum(
        1
        for h in done
        if h.deadline_tick is not None and h.finish_tick > h.deadline_tick
    )
    assert telemetry.deadline_misses == expect_misses
    carried = [
        (h.finish_tick - h.request.submit_tick, h.request.deadline_ticks)
        for h in done
        if h.request.deadline_ticks is not None
    ]
    attained = (
        sum(1 for lat, dl in carried if lat <= dl) / len(carried)
        if carried
        else 0.0
    )
    assert telemetry.slo_attainment("deadline") == attained


class TestPropertyBasedSchedules:
    @settings(max_examples=25, deadline=None)
    @given(
        schedule=schedule_strategy,
        num_lanes=st.integers(1, 3),
        executor=st.sampled_from(["eager", "fused", "superblock"]),
    )
    def test_engine_random_schedule_invariants(
        self, schedule, num_lanes, executor
    ):
        engine = fib.serve(
            num_lanes=num_lanes, max_stack_depth=64, executor=executor
        )
        handles = []
        for n, gap, budget in schedule:
            for _ in range(gap):
                engine.tick()
            handles.append(
                (n, engine.submit(np.int64(n), step_budget=budget))
            )
        engine.run_until_idle()
        t = engine.telemetry
        check_serving_invariants(engine, handles, t)
        ids = [h.request_id for _, h in handles]
        assert len(set(ids)) == len(ids)
        assert t.ticks == engine.now
        assert t.lane_slots == t.ticks * num_lanes
        assert 0 <= t.busy_lane_slots <= t.lane_slots
        assert len(t.queue_waits) == t.injected
        assert sum(t.queue_waits) == sum(h.queue_wait() for _, h in handles)
        assert engine.pool.busy_count() == 0 and len(engine.queue) == 0

    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(0, 14),                          # fib argument
                st.integers(0, 3),                           # arrival gap
                st.integers(0, 3),                           # priority
                st.one_of(st.none(), st.integers(1, 2000)),  # step budget
            ),
            min_size=1,
            max_size=14,
        ),
        num_lanes=st.integers(1, 3),
        min_age=st.integers(0, 4),
        max_per_tick=st.one_of(st.none(), st.just(1)),
        executor=st.sampled_from(["fused", "superblock"]),
    )
    def test_engine_preemption_schedule_invariants(
        self, schedule, num_lanes, min_age, max_per_tick, executor
    ):
        """Random arrivals x priorities under an always-on preempt policy:
        no lost/duplicated handles, every eviction resumes exactly once,
        results bit-identical to the unbatched reference, and every traced
        timeline well-formed (submit → inject → ... → one terminal).
        Drawn across executors (superblock resumes sweep lanes mid-run)."""
        engine = fib.serve(
            num_lanes=num_lanes,
            max_stack_depth=64,
            executor=executor,
            preempt=PreemptPolicy(min_age=min_age, max_per_tick=max_per_tick),
            trace="events",
        )
        handles = []
        for n, gap, priority, budget in schedule:
            for _ in range(gap):
                engine.tick()
            handles.append(
                (
                    n,
                    engine.submit(
                        np.int64(n), priority=priority, step_budget=budget
                    ),
                )
            )
        engine.run_until_idle()
        check_serving_invariants(engine, handles, engine.telemetry)
        check_trace_invariants(handles, engine.telemetry, engine.trace)
        assert engine.pool.busy_count() == 0 and len(engine.queue) == 0

    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(0, 14),                          # fib argument
                st.integers(0, 3),                           # arrival gap
                st.one_of(st.none(), st.integers(0, 500)),   # deadline_ticks
                st.one_of(st.none(), st.integers(1, 2000)),  # step budget
            ),
            min_size=1,
            max_size=14,
        ),
        num_lanes=st.integers(1, 3),
        slack_delta=st.sampled_from([1, 5, 50]),
        min_age=st.integers(0, 4),
        max_per_tick=st.one_of(st.none(), st.just(1)),
        executor=st.sampled_from(["fused", "superblock"]),
    )
    def test_engine_deadline_schedule_invariants(
        self, schedule, num_lanes, slack_delta, min_age, max_per_tick,
        executor
    ):
        """Random deadline-carrying arrivals under slack-ranked eviction:
        the usual serving invariants (no lost/duplicated handles, every
        eviction resumed exactly once, bit-identical results, well-formed
        timelines) plus deadline accounting that reconstructs from the
        handles exactly."""
        engine = fib.serve(
            num_lanes=num_lanes,
            max_stack_depth=64,
            executor=executor,
            preempt=DeadlinePreemptPolicy(
                slack_delta=slack_delta,
                min_age=min_age,
                max_per_tick=max_per_tick,
            ),
            trace="events",
        )
        handles = []
        for n, gap, deadline, budget in schedule:
            for _ in range(gap):
                engine.tick()
            handles.append(
                (
                    n,
                    engine.submit(
                        np.int64(n),
                        step_budget=budget,
                        deadline_ticks=deadline,
                    ),
                )
            )
        engine.run_until_idle()
        check_serving_invariants(engine, handles, engine.telemetry)
        check_trace_invariants(handles, engine.telemetry, engine.trace)
        check_deadline_invariants(handles, engine.telemetry)
        assert engine.pool.busy_count() == 0 and len(engine.queue) == 0

    @settings(max_examples=15, deadline=None)
    @given(
        schedule=schedule_strategy,
        num_engines=st.integers(1, 3),
        num_lanes=st.integers(1, 2),
        policy=st.sampled_from(["round_robin", "least_loaded"]),
    )
    def test_cluster_random_schedule_invariants(
        self, schedule, num_engines, num_lanes, policy
    ):
        cluster = fib.serve_cluster(
            num_engines,
            num_lanes=num_lanes,
            policy=policy,
            max_stack_depth=64,
        )
        handles = []
        for n, gap, budget in schedule:
            for _ in range(gap):
                cluster.tick()
            handles.append(
                (n, cluster.submit(np.int64(n), step_budget=budget))
            )
        cluster.run_until_idle()
        t = cluster.telemetry
        check_serving_invariants(cluster, handles, t)
        assert t.rejected == 0  # unbounded queues never reject
        for _, h in handles:
            assert h.shard is not None and 0 <= h.shard < num_engines
        # Shard clocks stay in lock-step with the cluster clock.
        assert t.ticks == cluster.now
        for shard in t.shards:
            assert shard.ticks == cluster.now
        assert sum(t.completed_per_shard()) == t.completed
        assert cluster.load() == 0


def recount_bookkeeping(engine):
    """Wrap ``engine.vm.step_lanes`` to recount, by brute force, what the
    engine's incremental counters must equal; returns the recount."""
    vm = engine.vm
    step_lanes = vm.step_lanes
    recount = {"live": 0, "slots": 0, "steps": {}}

    def counted():
        live = int(np.count_nonzero(vm.pcreg < vm.exit_index))
        stepped = step_lanes()
        if stepped is not None:
            recount["live"] += live
            recount["slots"] += vm.batch_size
            steps = recount["steps"]
            for lane in stepped.tolist():
                rid = engine.pool.handles[lane].request_id
                steps[rid] = steps.get(rid, 0) + 1
        return stepped

    vm.step_lanes = counted
    return recount


def check_bookkeeping(engine, recount):
    """The pool's and the queue's running counts, the occupancy the engine
    recorded and every seated request's ``steps_used`` against recounts."""
    pool, vm = engine.pool, engine.vm
    occupied = [lane for lane, h in enumerate(pool.handles) if h is not None]
    assert pool.busy_count() == len(occupied)
    assert pool.free_count() == pool.num_lanes - len(occupied)
    assert pool.busy_lanes().tolist() == occupied
    priorities = {}
    for lane in occupied:
        p = pool.handles[lane].request.priority
        priorities[p] = priorities.get(p, 0) + 1
    assert pool.priorities == priorities
    assert engine.queue.deadline_count() == sum(
        h.request.deadline_ticks is not None for h in engine.queue.waiting()
    )
    # Retirement looks only at lanes that moved, which is sound while every
    # seated member is unhalted and every vacant lane halted after a tick.
    halted = vm.pcreg >= vm.exit_index
    assert [lane for lane in range(pool.num_lanes) if not halted[lane]] == occupied
    assert (vm.instr.lane_live, vm.instr.lane_slots) == (
        recount["live"], recount["slots"]
    )
    for lane in occupied:
        handle = pool.handles[lane]
        assert handle.lane == lane and handle.state == "running"
        assert handle.steps_used == recount["steps"].get(handle.request_id, 0)


class TestIncrementalBookkeeping:
    """Every count the engine keeps incrementally — free and busy lanes,
    occupants per priority, queued deadlines, lane occupancy, steps used —
    equals a brute-force recount after every tick, under preemption, step
    budgets, a failing injection and resumes."""

    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(0, 12),                          # fib argument
                st.integers(0, 3),                           # arrival gap
                st.integers(0, 3),                           # priority
                st.one_of(st.none(), st.integers(0, 300)),   # deadline_ticks
                st.one_of(st.none(), st.integers(1, 600)),   # step budget
                st.booleans(),                               # malformed input
            ),
            min_size=1,
            max_size=12,
        ),
        num_lanes=st.integers(1, 3),
        preempt=st.sampled_from([True, "deadline"]),
        executor=st.sampled_from(["fused", "superblock"]),
    )
    def test_counts_match_a_recount_after_every_tick(
        self, schedule, num_lanes, preempt, executor
    ):
        engine = fib.serve(
            num_lanes=num_lanes, max_stack_depth=64, executor=executor,
            preempt=preempt,
        )
        recount = recount_bookkeeping(engine)
        # A first request allocates the input's storage, so a malformed
        # input later fails at injection instead of shaping the storage.
        handles = [engine.submit(np.int64(2))]
        engine.tick()
        check_bookkeeping(engine, recount)
        for n, gap, priority, deadline, budget, malformed in schedule:
            for _ in range(gap):
                engine.tick()
                check_bookkeeping(engine, recount)
            value = np.array([n, n]) if malformed else np.int64(n)
            handles.append(engine.submit(
                value, priority=priority, step_budget=budget,
                deadline_ticks=deadline,
            ))
        while engine.busy():
            engine.tick()
            check_bookkeeping(engine, recount)
        assert all(h.done() for h in handles)
        assert engine.telemetry.preemptions == engine.telemetry.resumes


from .test_random_programs import (  # noqa: E402  (generator reuse)
    compile_source,
    program_strategy,
    render_program,
)


class TestGeneratedProgramServing:
    """Reuse the random-program generator: generated programs served
    through a sharded cluster must match their static run_pc batch."""

    @settings(max_examples=8, deadline=None)
    @given(
        spec=program_strategy,
        a_vals=st.lists(st.integers(-5, 20), min_size=2, max_size=6),
        b_vals=st.lists(st.integers(-5, 20), min_size=2, max_size=6),
        depth=st.integers(0, 3),
        num_engines=st.integers(1, 3),
    )
    def test_generated_program_cluster_matches_static(
        self, spec, a_vals, b_vals, depth, num_engines
    ):
        fn = compile_source(render_program(spec))
        z = min(len(a_vals), len(b_vals))
        a = np.asarray(a_vals[:z], dtype=np.int64)
        b = np.asarray(b_vals[:z], dtype=np.int64)
        n = np.full(z, depth, dtype=np.int64)
        expected = fn.run_pc(a, b, n, max_stack_depth=16)
        cluster = fn.serve_cluster(
            num_engines, num_lanes=2, policy="least_loaded", max_stack_depth=16
        )
        results = cluster.map([(a[i], b[i], n[i]) for i in range(z)])
        np.testing.assert_array_equal(np.stack(results), expected)
