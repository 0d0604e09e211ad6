"""Tests for the pluggable block-executor layer (ExecutionPlan et al.).

The contract under test: executors are *observationally interchangeable*.
For any program, the eager interpreter and the fused code generator must
produce bit-identical outputs and — fused blocks being compact, eager
counting under gather-scatter — bit-identical
:class:`~repro.vm.instrumentation.Instrumentation` op counts, whether the
machine runs a static batch (``run_pc``) or recycles lanes under the
serving engine.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import autobatch, ops, primitive
from repro.backend.fusion import FusedBlockExecutor, SuperblockExecutor
from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.lowering.pipeline import LoweringOptions
from repro.serve.engine import Engine
from repro.vm.executors import (
    EagerBlockExecutor,
    ExecutionPlan,
    resolve_executor,
)
from repro.vm.instrumentation import Instrumentation
from repro.vm.program_counter import ProgramCounterVM

from .helpers import (
    assert_instrumentation_identical,
    assert_results_equal,
    assert_results_identical,
)
from .programs import ALL_EXAMPLES, fib, gcd


class TestResolution:
    def test_names(self):
        with pytest.raises(ValueError, match="known: .*'eager'.*'fused'.*'superblock'"):
            resolve_executor("nope")

    def test_resolve_by_name(self):
        assert isinstance(resolve_executor("eager"), EagerBlockExecutor)
        assert isinstance(resolve_executor("fused"), FusedBlockExecutor)
        assert isinstance(resolve_executor("superblock"), SuperblockExecutor)

    def test_resolve_instance_passthrough(self):
        ex = FusedBlockExecutor()
        assert resolve_executor(ex) is ex

    def test_resolve_none_is_eager(self):
        assert isinstance(resolve_executor(None), EagerBlockExecutor)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("tpu")

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            resolve_executor(42)


class TestExecutionPlan:
    def test_cached_per_executor_and_options(self):
        p1 = fib.execution_plan(executor="fused")
        p2 = fib.execution_plan(executor="fused")
        p3 = fib.execution_plan(executor="eager")
        p4 = fib.execution_plan(executor="fused", optimize=False)
        assert p1 is p2
        assert p3 is not p1 and p4 is not p1
        assert p1.name == "fused" and p3.name == "eager"

    def test_lowering_options_instance_distinguished(self):
        """The regression the cache-key satellite fixes: per-optimization
        ablation configs must not collide with the all-on default."""
        ablation = LoweringOptions(register_opt=False)
        p_opt = fib.execution_plan(optimize=True)
        p_ablation = fib.execution_plan(optimize=ablation)
        assert p_opt is not p_ablation
        assert p_ablation.options == ablation
        assert fib.stack_program(ablation) is not fib.stack_program(True)
        assert fib.stack_program(ablation) is fib.stack_program(ablation)

    def test_compile_from_stack_program(self):
        plan = ExecutionPlan.compile(fib.stack_program(), executor="fused")
        assert plan.name == "fused"
        assert plan.program is fib.stack_program()

    def test_dispatch_counts_by_accounting(self):
        instr = Instrumentation()
        fib.run_pc(np.array([6, 9, 3]), instrumentation=instr, max_stack_depth=32)
        eager = fib.execution_plan("eager").dispatch_count(instr)
        fused = fib.execution_plan("fused").dispatch_count(instr)
        assert fused == instr.steps
        assert eager > fused  # per-op launches vs one per block
        # Device accounting is kernel-level (comparable across machines).
        assert fib.execution_plan("eager").device_dispatch_count(instr) \
            == instr.kernel_calls
        assert fib.execution_plan("fused").device_dispatch_count(instr) \
            == instr.steps
        assert fib.execution_plan("eager").accounting == "eager"
        assert fib.execution_plan("fused").accounting == "fused"

    def test_plan_estimate_matches_legacy_string_accounting(self):
        """Plan-derived device estimates must agree exactly with the legacy
        string accounting, so Figure 5's strategies stay comparable."""
        from repro.backend.device import CPU_DEVICE, GPU_DEVICE

        instr = Instrumentation()
        fib.run_pc(np.array([6, 9, 3]), instrumentation=instr, max_stack_depth=32)
        for device in (CPU_DEVICE, GPU_DEVICE):
            for executor in ("eager", "fused"):
                assert device.estimate(instr, fib.execution_plan(executor)) \
                    == device.estimate(instr, executor)

    def test_plan_cache_shared_with_engine(self):
        """Engine(fn, ..., executor=name) must reuse the function's cached
        plan, not compile a fresh one per engine."""
        engine = Engine(fib, num_lanes=2, executor="fused")
        assert engine.plan is fib.execution_plan("fused")
        assert Engine(fib, num_lanes=2).plan is fib.execution_plan("eager")

    def test_engine_rejects_plan_plus_executor(self):
        with pytest.raises(ValueError, match="not both"):
            Engine(fib.execution_plan("eager"), num_lanes=2, executor="fused")

    def test_vm_rejects_plan_plus_executor(self):
        plan = fib.execution_plan("eager")
        with pytest.raises(ValueError, match="not both"):
            ProgramCounterVM(plan, batch_size=2, executor="fused")

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_bind_returns_the_block_callables(self, executor):
        plan = ExecutionPlan.compile(fib.stack_program(), executor=executor)
        blocks = plan.bind(ProgramCounterVM(plan, batch_size=2))
        assert isinstance(blocks, list)
        assert len(blocks) == len(plan.program.blocks)
        assert all(callable(fn) for fn in blocks)
        assert plan.stats.bind_count == 2

    def test_bind_refuses_a_callable_per_block_short(self):
        class Short(EagerBlockExecutor):
            name = "short"

            def bind(self, vm):
                return super().bind(vm)[:-1]

        plan = ExecutionPlan.compile(fib.stack_program(), executor=Short())
        with pytest.raises(ValueError, match="block callables for a"):
            ProgramCounterVM(plan, batch_size=2)
        assert plan.stats.bind_count == 0

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_generated_blocks_ignore_the_machine_mode(self, name):
        """A compact block touches only its lanes, so ``mode="gather"``
        runs the same code to the same bits and the same counts."""
        fn, inputs = ALL_EXAMPLES[name]
        for executor in ("fused", "superblock"):
            instr, outs = {}, {}
            for mode in ("mask", "gather"):
                instr[mode] = Instrumentation()
                outs[mode] = fn.run_pc(
                    *inputs, executor=executor, mode=mode,
                    instrumentation=instr[mode], max_stack_depth=64,
                )
            context = f"{name}/{executor}"
            assert_results_identical(outs["mask"], outs["gather"], context)
            assert_instrumentation_identical(instr["mask"], instr["gather"], context)
            assert instr["mask"].host_dispatches == instr["gather"].host_dispatches

    def test_fused_compile_counter_once_across_machines(self):
        """The code-cache-sharing regression: one fused plan bound to two
        machines does exactly one codegen/compile, and both machines produce
        identical outputs AND identical instrumentation op counts."""
        plan = ExecutionPlan.compile(
            gcd.stack_program(), executor=FusedBlockExecutor()
        )
        assert plan.executor.compile_count == 0
        assert plan.stats.bind_count == 0
        i1, i2 = Instrumentation(), Instrumentation()
        vm1 = ProgramCounterVM(
            plan, batch_size=3, max_stack_depth=32, instrumentation=i1
        )
        assert plan.executor.compile_count == 1
        vm2 = ProgramCounterVM(
            plan, batch_size=3, max_stack_depth=32, instrumentation=i2
        )
        assert plan.executor.compile_count == 1  # bind is not compile
        assert plan.stats.bind_count == 2
        a = np.array([48, 17, 270], dtype=np.int64)
        b = np.array([36, 5, 192], dtype=np.int64)
        out1, out2 = vm1.run([a, b]), vm2.run([a, b])
        np.testing.assert_array_equal(out1[0], out2[0])
        assert_instrumentation_identical(i1, i2)

    def test_superblock_plan_cached_by_name(self):
        p1 = fib.execution_plan(executor="superblock")
        p2 = fib.execution_plan(executor="superblock")
        assert p1 is p2
        assert p1.name == "superblock"
        assert p1 is not fib.execution_plan(executor="fused")

    def test_superblock_compile_once_bind_many(self):
        """compile_count/bind_count regression: one superblock plan bound
        to two machines does exactly one region codegen, and both machines
        produce identical outputs."""
        plan = ExecutionPlan.compile(
            gcd.stack_program(), executor=SuperblockExecutor()
        )
        assert plan.executor.compile_count == 0
        assert plan.stats.bind_count == 0
        vm1 = ProgramCounterVM(plan, batch_size=3, max_stack_depth=32)
        assert plan.executor.compile_count == 1
        vm2 = ProgramCounterVM(plan, batch_size=3, max_stack_depth=32)
        assert plan.executor.compile_count == 1  # bind is not compile
        assert plan.stats.bind_count == 2
        a = np.array([48, 17, 270], dtype=np.int64)
        b = np.array([36, 5, 192], dtype=np.int64)
        np.testing.assert_array_equal(vm1.run([a, b])[0], vm2.run([a, b])[0])

    def test_eager_executor_never_compiles(self):
        plan = ExecutionPlan.compile(fib.stack_program(), executor="eager")
        ProgramCounterVM(plan, batch_size=2, max_stack_depth=8)
        assert plan.executor.compile_count == 0
        assert plan.stats.bind_count == 1

    def test_shared_executor_alternating_programs_no_thrash(self):
        """One executor instance serving two programs must cache both:
        alternating binds across programs never re-trigger codegen."""
        ex = FusedBlockExecutor()
        p_fib = ExecutionPlan.compile(fib.stack_program(), executor=ex)
        p_gcd = ExecutionPlan.compile(gcd.stack_program(), executor=ex)
        ProgramCounterVM(p_fib, batch_size=2, max_stack_depth=16)
        ProgramCounterVM(p_gcd, batch_size=2, max_stack_depth=16)
        assert ex.compile_count == 2
        ProgramCounterVM(p_fib, batch_size=4, max_stack_depth=16)
        ProgramCounterVM(p_gcd, batch_size=4, max_stack_depth=16)
        assert ex.compile_count == 2

    def test_a_fleet_of_widths_compiles_once(self):
        plan = ExecutionPlan.compile(
            fib.stack_program(), executor=FusedBlockExecutor()
        )
        for width in (2, 3, 5, 8):
            ProgramCounterVM(plan, batch_size=width, max_stack_depth=8)
        assert plan.executor.compile_count == 1

    def test_fused_codegen_compiled_once_per_plan(self):
        """Binding the same fused plan to two machines must reuse the
        compiled code objects — only namespaces are per-VM."""
        plan = fib.execution_plan("fused")
        vm1 = ProgramCounterVM(plan, batch_size=2, max_stack_depth=8)
        vm2 = ProgramCounterVM(plan, batch_size=5, max_stack_depth=8)
        for f1, f2 in zip(vm1._block_fns, vm2._block_fns):
            assert f1.__code__ is f2.__code__
        # ...and the bound machines still run correctly at their widths.
        np.testing.assert_array_equal(vm1.run([np.array([4, 7])])[0], [5, 21])
        np.testing.assert_array_equal(
            vm2.run([np.array([3, 7, 4, 5, 6])])[0], [3, 21, 5, 8, 13]
        )


class TestEagerFusedDifferential:
    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_outputs_and_opcounts_identical(self, name):
        """Fused outputs are eager masking's bit for bit; its counts are eager
        gather-scatter's, every site charged its live lanes."""
        fn, inputs = ALL_EXAMPLES[name]
        instr = {}
        outs = {}
        runs = (("eager", "mask"), ("eager", "gather"), ("fused", "mask"))
        for executor, mode in runs:
            instr[executor, mode] = Instrumentation()
            outs[executor, mode] = fn.run_pc(
                *inputs,
                executor=executor,
                mode=mode,
                instrumentation=instr[executor, mode],
                max_stack_depth=64,
            )
        for run in runs[1:]:
            assert_results_identical(outs["eager", "mask"], outs[run], name)
        assert_instrumentation_identical(
            instr["eager", "gather"], instr["fused", "mask"], name
        )

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_superblock_outputs_identical(self, name):
        """Superblock sweeps change lane *grouping*, not lane results: the
        op-count accounting may differ from fused, but outputs must stay
        bit-identical and the host never dispatches more often than it
        executes blocks."""
        fn, inputs = ALL_EXAMPLES[name]
        instr = Instrumentation()
        got = fn.run_pc(
            *inputs,
            executor="superblock",
            instrumentation=instr,
            max_stack_depth=64,
        )
        expected = fn.run_pc(*inputs, executor="eager", max_stack_depth=64)
        assert_results_identical(expected, got, name)
        assert instr.host_dispatches <= instr.steps

    def test_tallies_are_invisible(self):
        """Generated blocks tally block executions instead of recording each
        op; whoever reads an ``Instrumentation`` — at any dispatch boundary,
        around lane surgery, mid-serve — sees the interpreter's counts
        (under gather-scatter, the mode compact blocks compute in)."""
        executors = ("eager", "fused", "superblock")
        modes = {"eager": "gather", "fused": "mask", "superblock": "mask"}

        def assert_counters_identical(instrs, context):
            for name in executors[1:]:
                assert_instrumentation_identical(
                    instrs["eager"], instrs[name], f"{context}: {name}"
                )
                for table in ("by_prim", "by_tag"):
                    flops = {
                        e: {k: c.flops for k, c in getattr(instrs[e], table).items()}
                        for e in ("eager", name)
                    }
                    assert flops["eager"] == flops[name], f"{context}: {name} {table}"

        def advance_in_lockstep(advance, instrs, context):
            """One superblock dispatch, then eager and fused up to the same
            number of executed blocks; compare there."""
            more = advance["superblock"]()
            for name in ("eager", "fused"):
                while instrs[name].steps < instrs["superblock"].steps:
                    advance[name]()
            assert_counters_identical(instrs, context)
            return more

        # Machines.  Equal inputs keep the lanes together, so a superblock
        # dispatch executes exactly the blocks the others step one by one.
        ns = np.full(4, 9, dtype=np.int64)
        instrs = {e: Instrumentation() for e in executors}
        vms = {
            e: ProgramCounterVM(
                fib.execution_plan(e),
                batch_size=4,
                mode=modes[e],
                max_stack_depth=32,
                instrumentation=instrs[e],
            )
            for e in executors
        }
        for vm in vms.values():
            vm.bind_inputs([ns])
        advance = {e: vm.step_lanes for e, vm in vms.items()}
        dispatches = 0
        context = "dispatch {}".format
        while advance_in_lockstep(advance, instrs, context(dispatches)) is not None:
            dispatches += 1
            if dispatches == 25:
                for vm in vms.values():
                    snapshot = vm.snapshot_lane(2)
                    vm.reset_lanes(np.array([2]))
                    vm.restore_lane(2, snapshot)
                assert_counters_identical(instrs, "after lane surgery")
        assert dispatches > 25
        assert instrs["superblock"].host_dispatches < instrs["superblock"].steps
        for vm in vms.values():
            assert vm.step_lanes() is None
            np.testing.assert_array_equal(vm.outputs()[0], fib.run_pc(ns))

        # Engines, each counting into an Instrumentation this test holds.
        # One lane keeps the three in lockstep over a mixed request stream.
        instrs = {e: Instrumentation() for e in executors}
        engines = {
            e: Engine(
                fib, num_lanes=1, executor=e, mode=modes[e], max_stack_depth=32,
                instrumentation=instrs[e],
            )
            for e in executors
        }
        handles = {
            e: [engine.submit(np.int64(n)) for n in (5, 8, 3, 6)]
            for e, engine in engines.items()
        }
        advance = {e: engine.tick for e, engine in engines.items()}
        ticks = 0
        while advance_in_lockstep(advance, instrs, f"tick {ticks}"):
            ticks += 1
        for e, engine in engines.items():
            assert not engine.busy() and instrs[e] is engine.vm.instr
            assert [int(h.result()) for h in handles[e]] == [8, 34, 3, 13]

        # An Instrumentation outlives the machines that counted into it.
        single, shared = Instrumentation(), Instrumentation()
        fib.run_pc(np.array([3, 5]), executor="fused", instrumentation=single)
        for _ in range(200):
            fib.run_pc(np.array([3, 5]), executor="fused", instrumentation=shared)
        assert shared._tables == []
        assert shared.steps == 200 * single.steps
        assert shared.kernel_calls == 200 * single.kernel_calls
        assert shared.count(prim="add").flops == 200 * single.count(prim="add").flops

    def test_device_model_estimates_comparable(self):
        """Same run, two plans: fused must cost less on every device."""
        from repro.backend.device import CPU_DEVICE, GPU_DEVICE

        instr = Instrumentation()
        fib.run_pc(np.array([9, 4, 11]), instrumentation=instr, max_stack_depth=32)
        for device in (CPU_DEVICE, GPU_DEVICE):
            t_eager = device.estimate(instr, fib.execution_plan("eager"))
            t_fused = device.estimate(instr, fib.execution_plan("fused"))
            assert t_fused < t_eager


_walk_registry = PrimitiveRegistry(parent=default_registry)


@primitive(registry=_walk_registry)
def row_features(x):
    """``(Z,) -> (Z, 3)``, elementwise per row and BLAS-free: a row's bits do
    not depend on which rows it is computed with."""
    x = np.asarray(x, dtype=np.float64)
    return np.stack([x * 0.5, 1.0 / (1.0 + x * x), np.sqrt(np.abs(x))], axis=-1)


@autobatch(registry=_walk_registry)
def _feature_walk(x, n):
    f = row_features(x)                 # every lane live
    while n > 0:                        # lanes drop out one by one
        x = x * 0.5 + ops.sum_last(f) * 0.125
        f = row_features(x)
        n = n - 1
    return x + ops.sum_last(f)


_walk_members = st.tuples(
    st.floats(-8.0, 8.0, allow_nan=False), st.integers(0, 12)
)


class TestCompactBlockDifferential:
    """Every site of a fused block runs on the step's live lanes, with
    event-shaped values, as lanes drop out one by one.  Not observable."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_walk_members, min_size=1, max_size=9))
    @example([(1.5, 9), (-2.0, 0), (0.25, 0), (3.0, 1)])  # a single-lane tail
    def test_fused_matches_eager_masking(self, members):
        x = np.array([m[0] for m in members])
        n = np.array([m[1] for m in members], dtype=np.int64)
        instr, gathered = Instrumentation(), Instrumentation()
        fused = _feature_walk.run_pc(x, n, executor="fused", instrumentation=instr)
        eager = _feature_walk.run_pc(x, n, executor="eager", mode="mask")
        _feature_walk.run_pc(
            x, n, executor="eager", mode="gather", instrumentation=gathered
        )
        assert np.array_equal(fused, eager)
        assert np.array_equal(fused, _feature_walk.run_reference(x, n))
        assert_instrumentation_identical(gathered, instr)
        # One execution per loop trip of the longest member (plus the entry
        # site), one live lane per member trip: whenever one member outlasts
        # the rest, the tail's steps ran every kernel on a single row.
        features = instr.count(prim="row_features")
        assert features.executions == 1 + int(n.max())
        assert features.active == len(members) + int(n.sum())
        for prim in ("row_features", "sum_last"):
            counter = instr.count(prim=prim)
            assert counter.slots == counter.active, prim

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_walk_members, min_size=5, max_size=14))
    def test_engine_injects_and_retires_mid_flight(self, members):
        x = np.array([m[0] for m in members])
        n = np.array([m[1] for m in members], dtype=np.int64)
        engine = Engine(_feature_walk, 4, executor="fused")
        results = engine.map(list(zip(x, n)))
        expected = _feature_walk.run_pc(x, n, executor="eager", mode="mask")
        assert np.array_equal(np.stack(results), expected)


class TestServingDifferential:
    def test_engine_fused_matches_eager_and_static(self):
        ns = np.array([7, 3, 9, 12, 5, 8, 14, 2], dtype=np.int64)
        expected = fib.run_pc(ns, max_stack_depth=64)
        results = {}
        engines = {}
        for executor, mode in (
            ("eager", "mask"), ("eager", "gather"), ("fused", "mask")
        ):
            engine = Engine(
                fib, num_lanes=3, executor=executor, mode=mode, max_stack_depth=64
            )
            results[executor, mode] = engine.map([(n,) for n in ns])
            engines[executor, mode] = engine
            np.testing.assert_array_equal(np.stack(results[executor, mode]), expected)
        assert_instrumentation_identical(
            engines["eager", "gather"].vm.instr, engines["fused", "mask"].vm.instr
        )
        eager, fused = engines["eager", "mask"], engines["fused", "mask"]
        # Equal throughput on the tick clock, at no more than a third of
        # the host dispatches (one per block instead of one per primitive).
        assert fused.telemetry.ticks == eager.telemetry.ticks
        assert 3 * fused.dispatch_count() <= eager.dispatch_count()

    def test_engine_preempts_and_restores_mid_flight(self):
        """Lanes injected, retired, preempted and restored mid-flight: every
        result is the static batch's, and fused counts are eager's under
        gather-scatter."""
        low, high = [13, 15, 11, 14], [6, 9, 4]
        expected = fib.run_pc(np.array(low + high, dtype=np.int64))
        engines = {}
        for executor, mode in (("eager", "gather"), ("fused", "mask")):
            engine = Engine(
                fib, num_lanes=2, executor=executor, mode=mode, preempt=True,
                max_stack_depth=64,
            )
            handles = [engine.submit(np.int64(n)) for n in low]
            for _ in range(5):
                engine.tick()
            handles += [engine.submit(np.int64(n), priority=5) for n in high]
            engine.run_until_idle()
            assert engine.telemetry.preemptions > 0
            assert engine.telemetry.resumes == engine.telemetry.preemptions
            got = np.stack([h.result() for h in handles])
            np.testing.assert_array_equal(got, expected)
            engines[executor] = engine
        assert_instrumentation_identical(
            engines["eager"].vm.instr, engines["fused"].vm.instr
        )

    def test_fused_lane_recycling_multi_input(self):
        pairs = [(48, 36), (7, 0), (12, 18), (27, 6), (9, 9), (100, 8)]
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = gcd.run_pc(a, b, max_stack_depth=64)
        engine = gcd.serve(num_lanes=2, executor="fused", max_stack_depth=64)
        results = engine.map([(x, y) for x, y in pairs])
        np.testing.assert_array_equal(np.stack(results), expected)

    def test_fused_drain_policy(self):
        ns = np.array([6, 11, 4, 9], dtype=np.int64)
        engine = fib.serve(num_lanes=2, executor="fused", refill="drain")
        results = engine.map([(n,) for n in ns])
        np.testing.assert_array_equal(np.stack(results), fib.run_pc(ns))

    def test_fused_step_budget_abort_then_recycle(self):
        from repro.serve.queue import StepBudgetExceeded

        engine = fib.serve(num_lanes=1, executor="fused")
        doomed = engine.submit(np.int64(16), step_budget=5)
        survivor = engine.submit(np.int64(9))
        engine.run_until_idle()
        with pytest.raises(StepBudgetExceeded):
            doomed.result()
        np.testing.assert_array_equal(
            survivor.result(), fib.run_pc(np.array([9], dtype=np.int64))[0]
        )


class TestSnapshotRestoreDifferential:
    """Lane checkpoint/resume (the preemptive-serving primitive): snapshot
    every lane of a mid-flight machine, restore into a *fresh* machine, and
    the completed run must be bit-identical to the uninterrupted one —
    under both executors, at any interruption point, from one executor to
    another, and into any lane permutation."""

    @staticmethod
    def _count_steps(plan, inputs, **vm_options):
        vm = ProgramCounterVM(plan, batch_size=len(inputs[0]), **vm_options)
        vm.bind_inputs(inputs)
        steps = 0
        while vm.step():
            steps += 1
        return steps

    @staticmethod
    def _snapshot_at(plan, inputs, stop_at, **vm_options):
        """All lane snapshots of a machine stepped ``stop_at`` times."""
        vm = ProgramCounterVM(plan, batch_size=len(inputs[0]), **vm_options)
        vm.bind_inputs(inputs)
        for _ in range(stop_at):
            vm.step()
        return [vm.snapshot_lane(b) for b in range(vm.batch_size)]

    @staticmethod
    def _finish_from(plan, snapshots, **vm_options):
        vm = ProgramCounterVM(
            plan, batch_size=len(snapshots), **vm_options
        )
        for b, snap in enumerate(snapshots):
            vm.restore_lane(b, snap)
        while vm.step():
            pass
        return vm.outputs()

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    @pytest.mark.parametrize("executor", ["eager", "fused", "superblock"])
    def test_roundtrip_matches_static(self, name, executor):
        fn, inputs = ALL_EXAMPLES[name]
        inputs = [np.asarray(x) for x in inputs]
        expected = fn.run_pc(*inputs, executor=executor, max_stack_depth=64)
        plan = fn.execution_plan(executor=executor)
        total = self._count_steps(plan, inputs, max_stack_depth=64)
        # Interrupt early, mid-flight, and after every lane halted; the
        # offsets are seeded per program so the corpus covers many pcs.
        rng = np.random.RandomState(len(name))
        for stop_at in sorted({rng.randint(0, total + 1), total // 2, total}):
            snaps = self._snapshot_at(
                plan, inputs, stop_at, max_stack_depth=64
            )
            outputs = self._finish_from(plan, snaps, max_stack_depth=64)
            got = outputs[0] if len(outputs) == 1 else tuple(outputs)
            assert_results_equal(
                got, expected, context=f"{name}@{stop_at}/{total}"
            )

    def test_restore_across_executors(self):
        """A snapshot taken under the eager machine resumes bit-identically
        under the fused machine, and vice versa."""
        ns = np.array([4, 11, 7, 13], dtype=np.int64)
        expected = fib.run_pc(ns)
        names = ("eager", "fused", "superblock")
        plans = {ex: fib.execution_plan(executor=ex) for ex in names}
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                snaps = self._snapshot_at(
                    plans[src], [ns], 25, max_stack_depth=32
                )
                (out,) = self._finish_from(
                    plans[dst], snaps, max_stack_depth=32
                )
                np.testing.assert_array_equal(
                    out, expected, err_msg=f"{src}->{dst}"
                )

    def test_restore_into_permuted_lanes(self):
        """A snapshot is lane-independent: restoring lane b's thread into
        lane (Z-1-b) of a fresh machine permutes the outputs and nothing
        else."""
        ns = np.array([5, 10, 2, 8], dtype=np.int64)
        plan = fib.execution_plan("fused")
        snaps = self._snapshot_at(plan, [ns], 40, max_stack_depth=32)
        (out,) = self._finish_from(plan, snaps[::-1], max_stack_depth=32)
        np.testing.assert_array_equal(out, fib.run_pc(ns[::-1]))

    def test_restore_rejects_program_mismatch(self):
        vm_fib = ProgramCounterVM(fib.execution_plan("eager"), batch_size=1)
        vm_gcd = ProgramCounterVM(gcd.execution_plan("eager"), batch_size=1)
        snap = vm_fib.snapshot_lane(0)
        with pytest.raises(ValueError, match="different program"):
            vm_gcd.restore_lane(0, snap)

    def test_restore_rejects_too_shallow_stack(self):
        from repro.vm.stack import StackOverflowError

        plan = fib.execution_plan("eager")
        ns = np.array([12], dtype=np.int64)
        snaps = self._snapshot_at(plan, [ns], 60, max_stack_depth=32)
        shallow = ProgramCounterVM(plan, batch_size=1, max_stack_depth=2)
        with pytest.raises(StackOverflowError, match="snapshot"):
            shallow.restore_lane(0, snaps[0])

    def test_snapshot_does_not_disturb_the_source(self):
        """Snapshotting is read-only: the source machine finishes as if
        never observed."""
        ns = np.array([8, 3, 11], dtype=np.int64)
        plan = fib.execution_plan("eager")
        vm = ProgramCounterVM(plan, batch_size=3, max_stack_depth=32)
        vm.bind_inputs([ns])
        for _ in range(20):
            vm.step()
        for b in range(3):
            vm.snapshot_lane(b)
        while vm.step():
            pass
        np.testing.assert_array_equal(vm.outputs()[0], fib.run_pc(ns))


def _drive(how, plan, inputs):
    """Run ``inputs`` (one batch array per program input) to completion
    through one way into the machine; returns the first output."""
    width = len(inputs[0])
    if how == "engine":
        engine = Engine(plan, num_lanes=2, max_stack_depth=64)
        handles = [engine.submit(*args) for args in zip(*inputs)]
        while engine.tick():
            pass
        return np.stack([h.result() for h in handles])
    vm = ProgramCounterVM(plan, batch_size=width, max_stack_depth=64)
    if how == "run":
        return vm.run(inputs)[0]
    vm.bind_inputs(inputs)
    if how == "step":
        while vm.step():
            pass
    else:
        while vm.step_lanes() is not None:
            pass
    return vm.outputs()[0]


class TestFusedErrorHygiene:
    """Eager masking computes masked-off lanes on junk (gcd's ``a % b``
    where ``b == 0``), so every way into an eager machine runs its blocks
    under one ``np.errstate(all="ignore")`` — which no block enters
    itself — and runs them silently.  Fused and superblock blocks compute
    live lanes only, so their machines enter no context at all, and gcd's
    live lanes never divide by zero.  Every machine hands numpy's error
    state back as it found it."""

    A = np.array([12, 17, 100, 3], dtype=np.int64)
    B = np.array([18, 5, 75, 0], dtype=np.int64)

    @pytest.mark.parametrize("executor", ["eager", "fused", "superblock"])
    @pytest.mark.parametrize("how", ["run", "step", "step_lanes", "engine"])
    def test_masked_lanes_raise_no_fp_warnings(self, how, executor):
        plan = gcd.execution_plan(executor)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = _drive(how, plan, [self.A, self.B])
        assert np.geterr() == before
        np.testing.assert_array_equal(out, [6, 1, 25, 3])

    @pytest.mark.parametrize("executor", ["eager", "fused", "superblock"])
    @pytest.mark.parametrize("how", ["run", "step"])
    def test_error_state_survives_a_run_that_dies_mid_block(self, how, executor):
        from repro.vm.stack import StackOverflowError

        ns = np.array([9, 2], dtype=np.int64)
        before = np.geterr()
        vm = ProgramCounterVM(
            fib.execution_plan(executor), batch_size=2, max_stack_depth=3
        )
        with pytest.raises(StackOverflowError):
            if how == "run":
                vm.run([ns])
            vm.bind_inputs([ns])
            while vm.step():
                pass
        assert np.geterr() == before


@autobatch
def _square_repeatedly(x, n):
    """``x`` squared ``n`` times: a live lane at 1e200 overflows."""
    while n > 0:
        x = x * x
        n = n - 1
    return x


class TestLiveLaneWarnings:
    """A machine whose blocks compute live lanes only enters no
    ``np.errstate``: a live lane's overflow warns as the unbatched
    reference's does, through every way into the machine, and numpy's
    error state is left unchanged."""

    X = np.array([1e200, 2.0, 3.0])
    N = np.array([3, 1, 2], dtype=np.int64)

    def test_the_reference_warns(self):
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            out = _square_repeatedly.run_reference(self.X, self.N)
        np.testing.assert_array_equal(out, [np.inf, 4.0, 81.0])

    @pytest.mark.parametrize("executor", ["fused", "superblock"])
    @pytest.mark.parametrize("how", ["run", "step_lanes", "engine"])
    def test_live_lane_overflow_warns_as_the_reference(self, how, executor):
        plan = _square_repeatedly.execution_plan(executor)
        before = np.geterr()
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            out = _drive(how, plan, [self.X, self.N])
        assert np.geterr() == before
        np.testing.assert_array_equal(out, [np.inf, 4.0, 81.0])
