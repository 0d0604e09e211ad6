"""Unit tests for the superblock layer: region selection, the region-aware
scheduler, and resume re-batching's queue/engine mechanics.

The end-to-end properties — bit-identical outputs across executors, no
lost/duplicated handles under preempt+resume schedules, compile/bind
accounting — live in tests/test_executors.py, tests/test_serve.py, and
tests/test_cluster.py; this file pins down the building blocks those
properties rest on, plus the two tick-clock payoffs they buy (dispatch
amortization, aligned resume refill).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import autobatch
from repro.backend.fusion import SuperblockExecutor
from repro.backend.regions import (
    DEFAULT_MAX_LENGTH,
    RegionTable,
    select_regions,
)
from repro.observe.profile import BlockProfile, BlockRow
from repro.serve.engine import Engine, PreemptPolicy
from repro.serve.queue import RequestQueue, ResultHandle, ServeRequest
from repro.vm.instrumentation import Instrumentation
from repro.vm.scheduler import RegionScheduler, make_scheduler

from .programs import ALL_EXAMPLES, fib


def _profile(rows):
    """A fake BlockProfile: ``{index: (active, slots)}``."""
    return BlockProfile({
        i: BlockRow(
            index=i, label=f"b{i}", source="", executions=1,
            active=active, live=slots, slots=slots,
        )
        for i, (active, slots) in rows.items()
    })


# fib's stack CFG (pinned by the static-chain test below):
#   0 Branch -> 1 | 2        (base-case test)
#   1 Return                 (base case)
#   2 PushJump ret=3 goto=0  (first recursive call)
#   3 PushJump ret=4 goto=0  (second recursive call)
#   4 Return                 (sum and return)


class TestRegionSelection:
    def test_static_chains_fib(self):
        table = select_regions(fib.stack_program())
        assert table.chains == ((0,), (1,), (2, 0), (3, 0), (4,))
        assert table.next_block == (None, None, 0, 0, None)
        assert not table.profiled
        assert table.chain(2) == (2, 0)
        assert table.mean_length() == pytest.approx(7 / 5)

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_structural_invariants_every_program(self, name):
        fn, _ = ALL_EXAMPLES[name]
        program = fn.stack_program()
        table = select_regions(program)
        assert len(table.chains) == len(program.blocks)
        for i, chain in enumerate(table.chains):
            # Every block fronts its own run; members follow the selected
            # continuation edges, never repeat, and respect the cap.
            assert chain[0] == i
            assert 1 <= len(chain) <= DEFAULT_MAX_LENGTH
            assert len(set(chain)) == len(chain)
            for a, b in zip(chain, chain[1:]):
                assert table.next_block[a] == b

    def test_max_length_caps_and_validates(self):
        table = select_regions(fib.stack_program(), max_length=1)
        assert all(len(c) == 1 for c in table.chains)
        with pytest.raises(ValueError, match="max_length"):
            select_regions(fib.stack_program(), max_length=0)

    def test_profile_extends_dominant_branch(self):
        # Recursive side (block 2) dominates the base case (block 1), so
        # the entry's run extends through the branch.
        profile = _profile({1: (10, 120), 2: (100, 120)})
        table = select_regions(fib.stack_program(), profile=profile)
        assert table.profiled
        assert table.next_block[0] == 2
        assert table.chain(0) == (0, 2)
        # ...and the loop 2 -> 0 -> 2 stops at the revisit.
        assert table.chain(2) == (2, 0)

    def test_profile_tie_does_not_extend(self):
        profile = _profile({1: (50, 120), 2: (50, 120)})
        table = select_regions(fib.stack_program(), profile=profile)
        assert table.next_block[0] is None
        assert table.chain(0) == (0,)

    def test_profile_min_slots_gates_extension(self):
        # Block 2 dominates but on 4 offered slots of evidence — below the
        # floor, the branch must not extend.
        profile = _profile({1: (1, 120), 2: (4, 4)})
        assert select_regions(
            fib.stack_program(), profile=profile
        ).next_block[0] == 2
        assert select_regions(
            fib.stack_program(), profile=profile, min_slots=5
        ).next_block[0] is None

    def test_table_json_round_trips(self):
        table = select_regions(fib.stack_program())
        doc = table.to_json()
        assert doc["chains"] == [list(c) for c in table.chains]
        assert doc["profiled"] is False
        assert "mean_length" in doc
        assert "blocks=5" in repr(table)


class TestRegionScheduler:
    @staticmethod
    def _table(chains):
        nxt = tuple(c[1] if len(c) > 1 else None for c in chains)
        return RegionTable(chains=tuple(chains), next_block=nxt, profiled=False)

    def test_registered_by_name(self):
        assert isinstance(make_scheduler("region"), RegionScheduler)

    def test_prefers_longest_covered_run(self):
        sched = RegionScheduler()
        sched.set_regions(self._table([(0,), (1, 0), (2,)]))
        # 3 lanes at block 0 (run length 1, score 3) vs 2 lanes at block 1
        # (run length 2, score 4): the run wins.
        pcs = np.array([0, 0, 0, 1, 1])
        assert sched.select(pcs, exit_index=3) == 1

    def test_ties_go_earliest_and_no_table_degrades(self):
        sched = RegionScheduler()
        # Without a table every run has length 1: most-active wins,
        # equal-score ties go to the earliest block.
        assert sched.select(np.array([2, 2, 0, 0]), exit_index=3) == 0
        sched.reset()
        assert sched.select(np.array([2, 2, 0]), exit_index=3) == 2

    def test_starvation_guard(self):
        sched = RegionScheduler(max_defer=2)
        sched.set_regions(self._table([(0, 1), (1,), (2,)]))
        pcs = np.array([0, 0, 2])  # block 2 always loses on score
        assert sched.select(pcs, exit_index=3) == 0
        assert sched.select(pcs, exit_index=3) == 0
        # Passed over max_defer consecutive selects: chosen unconditionally.
        assert sched.select(pcs, exit_index=3) == 2
        assert sched.select(pcs, exit_index=3) == 0

    def test_no_live_lanes_and_reset(self):
        sched = RegionScheduler(max_defer=1)
        assert sched.select(np.array([5, 5]), exit_index=5) is None
        sched.select(np.array([0, 1]), exit_index=5)
        sched.reset()
        assert sched._age == {}
        with pytest.raises(ValueError, match="max_defer"):
            RegionScheduler(max_defer=0)

    def test_drives_a_real_superblock_run(self):
        ns = np.array([3, 9, 6, 11], dtype=np.int64)
        out = fib.run_pc(
            ns, executor="superblock", scheduler="region", max_stack_depth=32
        )
        np.testing.assert_array_equal(out, fib.run_pc(ns, max_stack_depth=32))


class TestSuperblockDispatch:
    def test_host_dispatches_below_block_executions(self):
        instr = {}
        for executor in ("fused", "superblock"):
            instr[executor] = Instrumentation()
            fib.run_pc(
                np.array([9, 4, 11, 7]),
                executor=executor,
                instrumentation=instr[executor],
                max_stack_depth=32,
            )
        # Fused pays one host dispatch per block execution; superblock
        # sweeps multiple member blocks into one dispatch.
        fused, sb = instr["fused"], instr["superblock"]
        assert fused.host_dispatches == fused.steps
        assert sb.host_dispatches < sb.steps
        plan = fib.execution_plan("superblock")
        assert plan.dispatch_count(sb) == sb.host_dispatches
        assert plan.device_dispatch_count(sb) == sb.host_dispatches

    def test_regions_cached_per_program(self):
        ex = SuperblockExecutor()
        sp = fib.stack_program()
        assert ex.regions_for(sp) is ex.regions_for(sp)

    def test_profile_seeded_executor_uses_profile_regions(self):
        profile = _profile({1: (10, 120), 2: (100, 120)})
        ex = SuperblockExecutor(profile=profile)
        table = ex.regions_for(fib.stack_program())
        assert table.profiled and table.chain(0) == (0, 2)
        ns = np.array([8, 2, 10], dtype=np.int64)
        from repro.vm.executors import ExecutionPlan
        from repro.vm.program_counter import ProgramCounterVM

        plan = ExecutionPlan.compile(fib.stack_program(), executor=ex)
        vm = ProgramCounterVM(plan, batch_size=3, max_stack_depth=32)
        np.testing.assert_array_equal(
            vm.run([ns])[0], fib.run_pc(ns, max_stack_depth=32)
        )

    def test_profiled_superblock_engine_amortizes_dispatch(self):
        """Tick clock (deterministic): regions re-selected from a warm-up
        run's real block profile serve a closed-load fib trace in <= 2/3
        of the fused engine's ticks (>= 1.5x requests per tick), at
        strictly less than one host dispatch per executed block.  The
        wall-clock ratio is ``executors.superblock_over_fused`` in
        ``benchmarks/e2e`` (0.99x at 16 lanes)."""
        ns = np.random.RandomState(0).randint(3, 12, size=16).astype(np.int64)
        expected = fib.run_pc(ns)

        def drive(executor, trace=None):
            engine = fib.serve(num_lanes=4, executor=executor, trace=trace)
            results = engine.map([(n,) for n in ns])
            np.testing.assert_array_equal(np.stack(results), expected)
            return engine

        warm = drive("superblock", trace="profile")
        profiled = drive(SuperblockExecutor(profile=warm.trace.block_profile()))
        fused = drive("fused")
        assert fused.telemetry.ticks >= 1.5 * profiled.telemetry.ticks
        instr = profiled.vm.instr
        assert instr.host_dispatches / instr.steps < 1.0


@autobatch
def mix(x):
    return (x * 1103515245 + 12345) % 2147483647


@autobatch
def walk(n, x):
    # A branch-free loop *cycle*: the body is three calls, so control flow
    # crosses PushJump/Return block boundaries every iteration but never
    # forks on data.  Lanes seeded at the same pc with the same n stay in
    # pc-lockstep forever — the workload that makes resumed-straggler
    # re-batching measurable (fib's recursion gives same-pc lanes divergent
    # stacks, and data-dependent branches split even aligned cohorts).
    while n > 0:
        x = mix(x + n)
        x = mix(x * 2 + 1)
        x = mix(x + 17)
        n = n - 1
    return x


def _snapshot_handle(request_id, pc, priority=0):
    """A queued-preempted handle carrying a fake lane snapshot at ``pc``."""
    handle = ResultHandle(
        ServeRequest(request_id=request_id, inputs=(), priority=priority)
    )
    handle.snapshot = SimpleNamespace(pc=pc)
    return handle


class TestResumeQueueBuckets:
    def test_counts_track_admit_and_pop(self):
        q = RequestQueue()
        for rid, pc in enumerate([5, 7, 7, 9]):
            q.push(_snapshot_handle(rid, pc))
        q.push(ResultHandle(ServeRequest(request_id=9, inputs=())))
        assert q.resume_pc_counts(0) == {5: 1, 7: 2, 9: 1}
        assert q.snapshot_count() == 4
        q.pop()  # rid 0 (pc 5)
        assert q.resume_pc_counts(0) == {7: 2, 9: 1}
        assert q.snapshot_count() == 3

    def test_buckets_keyed_by_priority(self):
        q = RequestQueue()
        q.push(_snapshot_handle(0, pc=7, priority=1))
        q.push(_snapshot_handle(1, pc=7, priority=0))
        assert q.resume_pc_counts(1) == {7: 1}
        assert q.resume_pc_counts(0) == {7: 1}
        assert q.resume_pc_counts(2) == {}

    def test_pop_resume_at_takes_first_in_service_order(self):
        q = RequestQueue()
        for rid, pc in enumerate([5, 7, 7]):
            q.push(_snapshot_handle(rid, pc))
        picked = q.pop_resume_at(0, 7)
        assert picked.request_id == 1  # oldest of the pc-7 cohort
        # The heap stays valid: remaining handles pop in service order.
        assert q.pop().request_id == 0
        assert q.pop().request_id == 2
        assert q.snapshot_count() == 0
        assert q.resume_pc_counts(0) == {}

    def test_pop_resume_at_empty_bucket_is_none(self):
        q = RequestQueue()
        q.push(_snapshot_handle(0, pc=5))
        assert q.pop_resume_at(0, 6) is None
        assert q.pop_resume_at(1, 5) is None
        assert q.pop_resume_at(0, 5).request_id == 0
        assert q.pop_resume_at(0, 5) is None


class TestResumeRebatchingPolicy:
    @staticmethod
    def _engine(**options):
        return Engine(fib, num_lanes=2, resume_batching=True, **options)

    def test_prefers_largest_same_pc_cohort(self):
        engine = self._engine()
        a = _snapshot_handle(0, pc=5)
        b = _snapshot_handle(1, pc=7)
        c = _snapshot_handle(2, pc=7)
        for h in (a, b, c):
            engine.queue.push(h)
        # Head (pc 5, cohort of 1) is deferred for the pc-7 cohort of 2.
        assert engine._pop_next() is b
        assert a.resume_defers == 1
        assert engine.telemetry.resume_rebatches == 1
        # The wave sticks with the pc-7 cohort until it runs dry; only
        # then does the deferred head get its turn.
        assert engine._pop_next() is c
        assert a.resume_defers == 2
        assert engine._pop_next() is a

    def test_sticky_cohort_does_not_round_robin_ties(self):
        # Two equal cohorts: a per-pop greedy max would alternate between
        # them (each pop demotes the picked cohort below the other),
        # seating a perfectly mixed wave.  Stickiness drains one cohort
        # fully before starting the next.
        engine = self._engine()
        d1 = _snapshot_handle(0, pc=7)
        a1 = _snapshot_handle(1, pc=3)
        a2 = _snapshot_handle(2, pc=3)
        d2 = _snapshot_handle(3, pc=7)
        for h in (d1, a1, a2, d2):
            engine.queue.push(h)
        # Tie at 2 each goes to the lowest pc; the head defers for it.
        assert engine._pop_next() is a1
        # pc 3 now counts 1 vs pc 7's 2 — a greedy max would seat the
        # head here.  The sticky wave keeps draining pc 3 instead.
        assert engine._pop_next() is a2
        assert engine._pop_next() is d1
        assert engine._pop_next() is d2
        assert d1.resume_defers == 2
        # A new admission wave starts from a clean slate.
        engine._admit()
        assert engine._resume_sticky_pc is None

    def test_defer_limit_bounds_queue_jumping(self):
        engine = self._engine(resume_defer_limit=1)
        head = _snapshot_handle(0, pc=1)
        engine.queue.push(head)
        for rid in range(1, 4):
            engine.queue.push(_snapshot_handle(rid, pc=2))
        assert engine._pop_next().request_id == 1
        assert head.resume_defers == 1
        # At the limit the head refuses to wait again, cohort or not.
        assert engine._pop_next() is head
        with pytest.raises(ValueError, match="resume_defer_limit"):
            self._engine(resume_defer_limit=0)

    def test_fresh_head_is_never_deferred(self):
        engine = self._engine()
        fresh = ResultHandle(ServeRequest(request_id=0, inputs=()))
        engine.queue.push(fresh)
        engine.queue.push(_snapshot_handle(1, pc=2))
        engine.queue.push(_snapshot_handle(2, pc=2))
        # A never-preempted head has no pc to re-batch on: FIFO holds.
        assert engine._pop_next() is fresh
        assert engine.telemetry.resume_rebatches == 0

    def test_rebatching_never_crosses_priority(self):
        engine = self._engine()
        head = _snapshot_handle(0, pc=5, priority=1)
        engine.queue.push(head)
        engine.queue.push(_snapshot_handle(1, pc=9, priority=0))
        engine.queue.push(_snapshot_handle(2, pc=9, priority=0))
        # The lower-priority pc-9 cohort is invisible to the head's level.
        assert engine._pop_next() is head
        assert engine.telemetry.resume_rebatches == 0

    def test_off_by_default(self):
        engine = Engine(fib, num_lanes=2)
        assert engine.resume_batching is False

    def test_aligned_refill_drains_preempted_cohorts_faster(self):
        """Tick clock (deterministic): six preempted ``walk`` cohorts, each
        checkpointed at its own pc, are requeued interleaved into a fresh
        engine.  FIFO refill seats one member of each cohort per wave and
        grinds through six separated fronts; ``resume_batching`` seats
        whole pc-aligned cohorts back to back and drains >= 1.3x faster,
        with both refills bit-identical to the static batch."""
        lanes = 8
        # walk's loop cycle revisits mix's entry block three times per
        # iteration, so the eviction-tick phase (period 8) yields exactly
        # six distinct checkpoint pcs; these offsets before completion hit
        # each one once (asserted below — misalignment would void the test).
        evict_offsets = (17, 18, 19, 21, 23, 24)

        def serve(**options):
            return walk.serve(
                num_lanes=lanes, executor="fused", max_stack_depth=16, **options
            )

        def cohort(r, offset):
            """A round of stragglers, all evicted ``offset`` ticks early."""
            n = 8 + 2 * r
            solo = serve()
            for i in range(lanes):
                solo.submit(np.int64(n), np.int64(1000 + i))
            solo.run_until_idle()
            engine = serve(preempt=PreemptPolicy(min_age=0))
            for i in range(lanes):
                engine.submit(np.int64(n), np.int64(1000 + 100 * r + i))
            for _ in range(solo.telemetry.ticks - offset):
                engine.tick()
            for _ in range(lanes):  # burst that evicts every straggler lane
                engine.submit(np.int64(1), np.int64(5), priority=5)
            engine.tick()
            evicted = []
            while len(engine.queue):
                handle = engine.queue.pop()
                if handle.snapshot is not None:
                    evicted.append(handle)
            return evicted

        def refill(rebatch):
            groups = [cohort(r, off) for r, off in enumerate(evict_offsets)]
            pcs = [{int(h.snapshot.pc) for h in g} for g in groups]
            assert all(len(p) == 1 for p in pcs)
            assert len(set.union(*pcs)) == len(evict_offsets)
            # Interleaved: a naive FIFO wave seats a mixed batch.
            order = [g[i] for i in range(lanes) for g in groups]
            engine = serve(resume_batching=rebatch, resume_defer_limit=lanes)
            engine.requeue(order)
            engine.run_until_idle()
            ns = np.array([h.request.inputs[0] for h in order])
            xs = np.array([h.request.inputs[1] for h in order])
            np.testing.assert_array_equal(
                np.stack([h.result() for h in order]), walk.run_pc(ns, xs)
            )
            return engine.telemetry

        naive, rebatched = refill(False), refill(True)
        assert naive.ticks >= 1.3 * rebatched.ticks
        assert rebatched.resume_rebatches >= 1 and naive.resume_rebatches == 0
