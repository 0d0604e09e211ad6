"""Unit tests for VM internals: schedulers, instrumentation, storage, errors."""

import sys

import numpy as np
import pytest

from repro.serve.queue import StepBudgetExceeded
from repro.vm.instrumentation import Instrumentation
from repro.vm.local_static import ExecutionLimitExceeded, run_local_static
from repro.vm.program_counter import (
    INITIAL_STACK_DEPTH,
    ProgramCounterVM,
    run_program_counter,
)
from repro.vm.scheduler import (
    EarliestBlockScheduler,
    MostActiveScheduler,
    RoundRobinScheduler,
    make_scheduler,
    scheduler_name,
)
from repro.vm.stack import StackOverflowError
from repro.ir.types import TensorType
from repro.vm.state import RegisterStorage, StackedStorage
from repro.ir.builder import FunctionBuilder, ProgramBuilder

from .helpers import peak_logical_depth
from .programs import fib, gcd, mixed_paths, mixed_rec, rng_walk, sum_to, vector_norm


class TestSchedulers:
    def test_earliest(self):
        s = EarliestBlockScheduler()
        assert s.select(np.array([3, 1, 5]), exit_index=6) == 1
        assert s.select(np.array([6, 6]), exit_index=6) is None

    def test_earliest_ignores_halted(self):
        s = EarliestBlockScheduler()
        assert s.select(np.array([6, 2, 6]), exit_index=6) == 2

    def test_most_active(self):
        s = MostActiveScheduler()
        assert s.select(np.array([2, 2, 5, 2, 5]), exit_index=6) == 2
        assert s.select(np.array([6, 6]), exit_index=6) is None

    def test_most_active_tie_breaks_earliest(self):
        s = MostActiveScheduler()
        assert s.select(np.array([4, 1, 4, 1]), exit_index=6) == 1

    def test_round_robin_cycles(self):
        s = RoundRobinScheduler()
        pcs = np.array([0, 2, 4])
        picks = [s.select(pcs, 6) for _ in range(4)]
        assert picks == [0, 2, 4, 0]

    def test_round_robin_reset(self):
        s = RoundRobinScheduler()
        s.select(np.array([0, 2]), 6)
        s.reset()
        assert s.select(np.array([0, 2]), 6) == 0

    def test_round_robin_no_starvation_across_wrap(self):
        """Every live block is selected within len(live) picks, from any cursor."""
        pcs = np.array([0, 2, 4])
        live = {0, 2, 4}
        for start_cursor in range(7):
            s = RoundRobinScheduler()
            s._cursor = start_cursor
            picks = [s.select(pcs, 6) for _ in range(len(live))]
            assert set(picks) == live, (start_cursor, picks)

    def test_round_robin_reaches_block_behind_cursor(self):
        """A block that becomes live behind the cursor is still reached."""
        s = RoundRobinScheduler()
        assert s.select(np.array([4, 6]), 6) == 4      # cursor advances past 4
        # Block 0 wakes up behind the cursor; the wrap must pick it up.
        assert s.select(np.array([0, 4]), 6) == 0
        assert s.select(np.array([0, 4]), 6) == 4

    def test_round_robin_reset_restores_determinism_across_runs(self):
        """Reusing one scheduler instance across run() calls is deterministic."""
        a = np.array([1071, 17, 100, 3], dtype=np.int64)
        b = np.array([462, 5, 75, 0], dtype=np.int64)
        rr = RoundRobinScheduler()
        first = gcd.run_pc(a, b, scheduler=rr)
        second = gcd.run_pc(a, b, scheduler=rr)  # run() must reset the cursor
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, gcd.run_pc(a, b, scheduler="round_robin"))

    def test_make_scheduler_specs(self):
        assert isinstance(make_scheduler("earliest"), EarliestBlockScheduler)
        assert isinstance(make_scheduler(MostActiveScheduler), MostActiveScheduler)
        rr = RoundRobinScheduler()
        assert make_scheduler(rr) is rr
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("bogus")

    def test_registry_is_the_three_ablation_schedulers(self):
        """Only the paper's ablation rules are registered; a registered
        class or instance resolves to its name, anything else is refused."""
        for cls in (EarliestBlockScheduler, MostActiveScheduler,
                    RoundRobinScheduler):
            assert scheduler_name(cls.name) == cls.name
            assert scheduler_name(cls) == cls.name
            assert scheduler_name(cls()) == cls.name
        with pytest.raises(ValueError, match="unknown scheduler 'region'"):
            make_scheduler("region")

        class Custom(RoundRobinScheduler):
            pass

        for spec in ("region", Custom, Custom(), 3):
            with pytest.raises(
                ValueError,
                match=r"known: \['earliest', 'most_active', 'round_robin'\]",
            ):
                scheduler_name(spec)

    def test_all_schedulers_terminate_fib(self):
        batch = np.array([5, 9, 2])
        expected = fib.run_reference(batch)
        for name in ("earliest", "most_active", "round_robin"):
            out = fib.run_pc(batch, scheduler=name)
            np.testing.assert_array_equal(out, expected)


class TestInstrumentation:
    def test_counts_populated(self):
        instr = Instrumentation()
        fib.run_pc(np.array([8, 3, 5, 1]), instrumentation=instr)
        assert instr.steps > 0
        assert instr.kernel_calls > 0
        assert instr.push_lanes == instr.pop_lanes  # per-lane balanced stacks
        assert 0.0 < instr.utilization() <= 1.0

    def test_batch_of_one_full_utilization(self):
        instr = Instrumentation()
        fib.run_pc(np.array([9]), instrumentation=instr)
        assert instr.utilization() == 1.0

    def test_divergent_batch_wastes_slots(self):
        instr = Instrumentation()
        fib.run_pc(np.array([1, 12]), instrumentation=instr)
        assert instr.utilization() < 1.0

    def test_gather_mode_counts_only_active_slots(self):
        masked, gathered = Instrumentation(), Instrumentation()
        batch = np.array([1, 12, 4])
        fib.run_pc(batch, mode="mask", instrumentation=masked)
        fib.run_pc(batch, mode="gather", instrumentation=gathered)
        assert gathered.utilization() == 1.0
        assert masked.utilization() < 1.0
        # Same work was useful in both:
        total_active_m = sum(c.active for c in masked.by_prim.values())
        total_active_g = sum(c.active for c in gathered.by_prim.values())
        assert total_active_m == total_active_g

    def test_tag_accounting(self):
        instr = Instrumentation()
        from repro import ops

        rng_walk.run_pc(
            ops.make_counters(0, 3), np.array([2, 5, 9]), instrumentation=instr
        )
        assert instr.count(tag="rng").executions > 0
        assert "tag rng" in instr.summary()

    def test_local_static_instrumentation(self):
        instr = Instrumentation()
        fib.run_local(np.array([2, 9]), instrumentation=instr)
        assert instr.steps > 0
        assert instr.pushes == 0  # Algorithm 1 has no explicit stacks


class TestStorage:
    def test_register_allocates_at_its_type(self):
        st = RegisterStorage("v", 3)
        st.allocate(TensorType("int64", (2,)))
        assert st.read().dtype == np.int64 and st.read().shape == (3, 2)
        assert not st.read().any()

    def test_register_event_shape_fixed(self):
        """A later input of another event shape is refused by name before
        any lane is touched."""
        vm = ProgramCounterVM(vector_norm.execution_plan(), batch_size=2)
        vm.bind_inputs([np.zeros((2, 3))])
        before = vm.storage("vector_norm.v").read().copy()
        with pytest.raises(TypeError, match=r"input 'vector_norm\.v'.*event shape"):
            vm.inject_lanes(np.array([0]), [np.ones((1, 4))])
        np.testing.assert_array_equal(vm.storage("vector_norm.v").read(), before)

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_register_dtype_join(self, executor):
        """A register written int on one path and float on the other holds
        the joined float64 from the start; a later float input into the
        int-typed machine is refused, naming the input and both dtypes."""
        n = np.array([0, 1, 3, 4])
        vm = ProgramCounterVM(mixed_paths.execution_plan(executor), batch_size=4)
        out = vm.run([n])[0]
        assert vm.storages["mixed_paths.x"].read().dtype == np.float64
        np.testing.assert_array_equal(out, mixed_paths.run_reference(n))
        assert out.dtype == np.float64
        with pytest.raises(TypeError, match="'mixed_paths.n'.*float64.*int64"):
            vm.inject_lanes(np.array([0]), [np.array([0.5])])

    def test_stacked_allocates_over_its_own_tables(self):
        st = StackedStorage("v", 2, depth=4)
        fp, reached = st.fp, st.reached
        st.allocate(TensorType("float64"))
        assert st.stack._fp is fp and st.stack._reached is reached
        assert st.stack.dtype == np.float64 and st.stack.data.shape == (5, 2)

    def test_stacked_write_then_push_pop(self):
        st = StackedStorage("v", 2, depth=4)
        st.allocate(TensorType("float64"))
        st.write(np.ones(2, bool), np.array([1.0, 2.0]))
        st.push(np.ones(2, bool), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(st.read(), [3.0, 4.0])
        st.pop(np.ones(2, bool))
        np.testing.assert_array_equal(st.read(), [1.0, 2.0])

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_stacked_dtype_join(self, executor):
        """A stacked variable written int on one path and float on the
        other holds the joined float64 in every frame; a later float input
        into the int-typed machine is refused."""
        n = np.array([0, 1, 3, 4, 7])
        vm = ProgramCounterVM(mixed_rec.execution_plan(executor), batch_size=5)
        out = vm.run([n])[0]
        assert vm.storages["mixed_rec.x"].stack.dtype == np.float64
        assert vm.storages["mixed_rec.n"].stack.dtype == np.int64
        np.testing.assert_array_equal(out, mixed_rec.run_reference(n))
        with pytest.raises(TypeError, match="'mixed_rec.n'.*float64.*int64"):
            vm.inject_lanes(np.array([1]), [np.array([2.5])])


class TestVMErrors:
    def test_stack_depth_exhausted(self):
        with pytest.raises(StackOverflowError, match="max_stack_depth"):
            fib.run_pc(np.array([20]), max_stack_depth=3)

    def test_stack_depth_exhausted_index_form(self):
        """Generated blocks push through the step's ``idx``: the same error,
        raised before any lane is written, and never for a lane outside it."""
        ns = np.array([20, 1, 20])  # lane 1 returns at once and halts
        raised, state = {}, {}
        for executor in ("eager", "fused", "superblock"):
            vm = ProgramCounterVM(
                fib.execution_plan(executor), batch_size=3, max_stack_depth=3
            )
            with pytest.raises(StackOverflowError, match="max_stack_depth") as info:
                vm.run([ns])
            raised[executor] = str(info.value)
            if executor == "eager":
                # Eager creates a storage at its first write; generated
                # blocks bind (and so allocate) every storage they name.
                written = set(vm.storages)
            stacks = [vm.addr_stack] + [
                st.stack for name, st in sorted(vm.storages.items())
                if isinstance(st, StackedStorage) and name in written
            ]
            state[executor] = (
                [vm.pcreg] + [s.sp for s in stacks] + [s.read() for s in stacks]
            )
            assert vm.pcreg[1] == vm.exit_index and vm.addr_stack.sp[1] == 0
            assert vm.outputs()[0][1] == 1
        for executor in ("fused", "superblock"):
            assert raised[executor] == raised["eager"]
        # Eager and fused take the same steps, so they stop in the same state.
        assert len(state["fused"]) == len(state["eager"]) > 3
        for got, want in zip(state["fused"], state["eager"]):
            np.testing.assert_array_equal(got, want)

    def test_max_steps_guard_pc(self):
        with pytest.raises(ExecutionLimitExceeded):
            fib.run_pc(np.array([15]), max_steps=10)

    def test_max_steps_guard_local(self):
        with pytest.raises(ExecutionLimitExceeded):
            fib.run_local(np.array([15]), max_steps=10)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            fib.run_pc(np.array([3]), mode="telepathy")
        with pytest.raises(ValueError, match="mode"):
            fib.run_local(np.array([3]), mode="telepathy")

    def test_top_cache_is_not_an_option(self):
        """Every stack has one layout: ``top_cache=`` is refused by name at
        each level that used to take it."""
        program = fib.stack_program()
        for make in (
            lambda: fib.run_pc(np.array([3]), top_cache=False),
            lambda: run_program_counter(program, [np.array([3])], top_cache=False),
            lambda: ProgramCounterVM(program, 1, top_cache=False),
            lambda: StackedStorage("v", 1, 4, top_cache=False),
        ):
            with pytest.raises(TypeError, match="top_cache"):
                make()

    def test_wrong_input_count(self):
        with pytest.raises(ValueError, match="inputs"):
            run_program_counter(fib.stack_program(), [np.array([1]), np.array([2])])

    def test_no_inputs(self):
        with pytest.raises(ValueError, match="at least one input"):
            run_program_counter(fib.stack_program(), [])

    @pytest.mark.parametrize(
        "strategy, options",
        [("run_reference", {})]
        + [
            ("run_local", {"scheduler": s, "fuse_blocks": f})
            for s in ("earliest", "most_active", "round_robin")
            for f in (False, True)
        ]
        + [
            ("run_pc", {"scheduler": s, "executor": x})
            for s in ("earliest", "most_active", "round_robin")
            for x in ("eager", "fused", "superblock")
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v.values())),
    )
    def test_empty_batch_rejected_by_name(self, strategy, options):
        with pytest.raises(ValueError, match="input 0 has an empty batch"):
            getattr(fib, strategy)(np.array([], dtype=np.int64), **options)


class TestGrowingStacks:
    """Recursion depth is data: with no option set, stacks start small and
    grow on overflow, so a request deeper than any guess is served."""

    DEEP = 500

    @staticmethod
    def _reference(n):
        # run_reference recurses in Python, two frames per level.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * int(np.max(n)) + 200))
        try:
            return sum_to.run_reference(n)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize(
        "executor, mode",
        [("eager", "mask"), ("eager", "gather"), ("fused", "mask"), ("superblock", "mask")],
    )
    def test_deep_recursion_runs_with_no_option_set(self, executor, mode):
        n = np.array([self.DEEP, 3, 0, 41])
        expected = self._reference(n)
        assert int(expected[0]) == self.DEEP * (self.DEEP + 1) // 2
        vm = ProgramCounterVM(sum_to.execution_plan(executor), batch_size=4, mode=mode)
        assert vm.max_stack_depth is None
        assert vm.addr_stack.depth == INITIAL_STACK_DEPTH < self.DEEP
        (out,) = vm.run([n])
        np.testing.assert_array_equal(out, expected)
        assert vm.addr_stack.depth >= self.DEEP
        assert peak_logical_depth(vm) == self.DEEP + 1
        np.testing.assert_array_equal(
            sum_to.run_pc(n, executor=executor, mode=mode), expected
        )

    @pytest.mark.parametrize("executor", ["eager", "fused", "superblock"])
    def test_a_cap_still_raises_and_names_max_stack_depth(self, executor):
        with pytest.raises(StackOverflowError, match="max_stack_depth=32"):
            sum_to.run_pc(np.array([self.DEEP, 3]), executor=executor, max_stack_depth=32)

    def test_a_step_budget_bounds_a_runaway_request(self):
        """With no cap, a step budget is what bounds the stacks: a runaway
        recursion fails only its own handle, having grown the stacks no
        further than the frames its budget let it push, and the engine
        keeps serving."""
        budget = 400
        engine = sum_to.serve(num_lanes=2, default_step_budget=budget)
        assert engine.vm.max_stack_depth is None
        runaway = engine.submit(np.int64(10**8))
        shallow = [engine.submit(np.int64(n)) for n in (3, 9, 17)]
        engine.run_until_idle()
        assert isinstance(runaway.exception(), StepBudgetExceeded)
        assert INITIAL_STACK_DEPTH < engine.vm.addr_stack.depth <= budget
        later = engine.submit(np.int64(40))
        engine.run_until_idle()
        for handle in shallow + [later]:
            n = int(handle.request.inputs[0])
            assert int(handle.result()) == n * (n + 1) // 2, n

    def test_engine_serves_a_deep_request_and_its_snapshot_grows_a_fresh_machine(self):
        """A preempted 500-deep request among shallow ones: its snapshot
        moves to a fresh engine, whose machine grows its stacks to restore
        it, and every request equals the reference."""
        engine = sum_to.serve(num_lanes=2, preempt=True)
        deep = engine.submit(np.int64(self.DEEP))
        shallow = [engine.submit(np.int64(n)) for n in (3, 9, 0, 17)]
        while deep.lane is None or engine.vm.addr_stack.sp[deep.lane] < 300:
            engine.tick()
        vips = []
        while deep.state != "preempted":
            vips.append(engine.submit(np.int64(40), priority=5))
            engine.tick()
        assert deep.snapshot.required_depth() >= 300
        orphans = engine.export_queue()
        assert deep in orphans

        fresh = sum_to.serve(num_lanes=1)
        assert fresh.vm.addr_stack.depth == INITIAL_STACK_DEPTH
        fresh.requeue(orphans)
        fresh.run_until_idle()
        engine.run_until_idle()
        assert fresh.vm.addr_stack.depth >= self.DEEP
        for handle in [deep] + shallow + vips:
            n = int(handle.request.inputs[0])
            assert int(handle.result()) == n * (n + 1) // 2, n
        assert int(deep.result()) == int(self._reference(np.array([self.DEEP]))[0])


class TestSnapshots:
    def test_pc_snapshot_shape(self):
        sp = fib.stack_program()
        vm = ProgramCounterVM(sp, batch_size=4, max_stack_depth=16)
        vm.bind_inputs([np.array([6, 7, 8, 9])])
        for _ in range(25):
            if not vm.step():
                break
        snap = vm.snapshot()
        assert snap["program_counter"].shape == (4,)
        assert "fib.n" in snap["variable_stacks"]
        depths = snap["variable_stacks"]["fib.n"]["stack_pointers"]
        assert depths.shape == (4,)

    def test_snapshot_shows_divergent_depths(self):
        """Mid-run, different members sit at different stack depths —
        precisely the state Figure 3 illustrates."""
        sp = fib.stack_program()
        vm = ProgramCounterVM(sp, batch_size=4, max_stack_depth=16)
        vm.bind_inputs([np.array([2, 12, 4, 9])])
        seen_divergence = False
        while vm.step():
            sps = vm.snapshot()["variable_stacks"]
            if "fib.n" in sps:
                sp_vals = sps["fib.n"]["stack_pointers"]
                if len(np.unique(sp_vals)) > 1:
                    seen_divergence = True
        assert seen_divergence

    def test_snapshot_does_not_follow_the_machine(self):
        """A snapshot holds the frames of the moment it was taken: stepping
        on must not rewrite them."""
        vm = ProgramCounterVM(
            fib.execution_plan("fused"), batch_size=4, max_stack_depth=16
        )
        vm.bind_inputs([np.array([8, 9, 10, 11])])
        for _ in range(40):
            assert vm.step()
        snap = vm.snapshot()
        taken = {
            name: [frames.copy() for frames in stack["frames"]]
            for name, stack in snap["variable_stacks"].items()
        }
        assert taken
        for _ in range(40):
            assert vm.step()
        for name, frames in taken.items():
            for was, now in zip(frames, snap["variable_stacks"][name]["frames"]):
                np.testing.assert_array_equal(now, was)


    @staticmethod
    def _lane_state(vm, lane):
        return (
            int(vm.pcreg[lane]),
            vm.addr_stack.frames(lane),
            {name: st.capture_lane(lane) for name, st in vm.storages.items()},
        )

    @pytest.mark.parametrize("stack", ["address", "fib.n"])
    def test_zero_frame_stack_is_refused_before_the_lane_is_touched(self, stack):
        """Every stack keeps its base frame, so a snapshot holding a stack
        of zero frames was not captured from a machine.  Restoring one
        used to reset the lane and then fail (a variable stack) or point
        the lane below its base row; it is refused with the lane as it
        was."""
        vm = ProgramCounterVM(fib.execution_plan("fused"), 2, max_stack_depth=16)
        vm.bind_inputs([np.array([8, 9])])
        for _ in range(30):
            assert vm.step()
        snap = vm.snapshot_lane(0)
        if stack == "address":
            snap.addr_frames = snap.addr_frames[:0]
        else:
            snap.storages[stack] = snap.storages[stack][:0]
        before = self._lane_state(vm, 1)
        with pytest.raises(ValueError, match="base frame"):
            vm.restore_lane(1, snap)
        after = self._lane_state(vm, 1)
        assert after[0] == before[0]
        np.testing.assert_array_equal(after[1], before[1])
        assert after[2].keys() == before[2].keys()
        for name, was in before[2].items():
            np.testing.assert_array_equal(after[2][name], was)


def _flat_counts(instr):
    """Every counter of ``instr`` as one flat dict of numbers."""
    counts = {
        field: getattr(instr, field)
        for field in (
            "steps", "host_dispatches", "kernel_calls", "pushes", "pops",
            "push_lanes", "pop_lanes", "stacked_reads", "stacked_writes",
            "register_writes",
        )
    }
    for group in ("by_prim", "by_tag"):
        for name, c in getattr(instr, group).items():
            for field in ("executions", "slots", "active", "flops"):
                counts[f"{group}.{name}.{field}"] = getattr(c, field)
    return counts


@pytest.mark.parametrize("executor", ["eager", "fused", "superblock"])
class TestMachineReuse:
    """``run()`` on a machine that has stepped starts every lane over: the
    second run is a fresh machine's, bit for bit and count for count."""

    FIRST = np.array([3, 4, 5, 6], dtype=np.int64)
    SECOND = np.array([7, 8, 9, 10], dtype=np.int64)

    def _machine(self, executor, **options):
        return ProgramCounterVM(
            fib.execution_plan(executor), batch_size=4, max_stack_depth=32,
            instrumentation=Instrumentation(), **options,
        )

    def _fresh(self, executor):
        vm = self._machine(executor)
        return vm.run([self.SECOND])[0], _flat_counts(vm.instr)

    def test_second_run_is_a_fresh_machines(self, executor):
        want, want_counts = self._fresh(executor)
        vm = self._machine(executor)
        first = vm.run([self.FIRST])[0]
        before = _flat_counts(vm.instr)
        second = vm.run([self.SECOND])[0]
        after = _flat_counts(vm.instr)
        assert second.dtype == want.dtype and np.array_equal(second, want)
        assert {k: after[k] - before.get(k, 0) for k in after} == want_counts
        # what the first run returned is the caller's, not the machine's
        np.testing.assert_array_equal(first, [3, 5, 8, 13])
        np.testing.assert_array_equal(second, [21, 34, 55, 89])

    def test_run_after_a_partial_run_starts_over(self, executor):
        want, want_counts = self._fresh(executor)
        vm = self._machine(executor)
        vm.bind_inputs([self.FIRST])
        for _ in range(7):
            assert vm.step()
        before = _flat_counts(vm.instr)
        out = vm.run([self.SECOND])[0]
        after = _flat_counts(vm.instr)
        assert np.array_equal(out, want)
        assert {k: after[k] - before.get(k, 0) for k in after} == want_counts

    def test_max_steps_is_per_run(self, executor):
        budget = self._fresh(executor)[1]["host_dispatches"]
        vm = self._machine(executor, max_steps=budget)
        for _ in range(3):
            np.testing.assert_array_equal(
                vm.run([self.SECOND])[0], [21, 34, 55, 89]
            )
        with pytest.raises(ExecutionLimitExceeded):
            self._machine(executor, max_steps=budget - 1).run([self.SECOND])
