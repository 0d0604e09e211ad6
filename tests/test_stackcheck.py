"""Static verification: the stackcheck abstract interpreter and its wiring.

Covers the verifier itself (corpus-wide clean verification, exact depth
bounds vs instrumented runtime high-water marks under every executor,
mutation rejection), the shared structural checks behind
``validate_stack_program``, region-table validation, the snapshot
admission pre-check, plan-compilation wiring (verify-once, ``verify=False``
opt-out, stack pre-sizing from proven bounds), and the lint driver.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.stackcheck import (
    Severity,
    VerificationError,
    analyze_stack_program,
    region_diagnostics,
    verify_region_table,
    verify_stack_program,
)
from repro.backend.fusion import SuperblockExecutor
from repro.backend.regions import RegionTable, select_regions
from repro.ir.instructions import (
    Block,
    Branch,
    Jump,
    PopOp,
    PrimOp,
    PushJump,
    PushOp,
    Return,
    StackProgram,
    VarKind,
)
from repro.ir.validate import IRValidationError, validate_stack_program
from repro.vm import (
    EagerBlockExecutor,
    ExecutionPlan,
    ProgramCounterVM,
    SnapshotIncompatibleError,
)
from repro.vm.stack import StackOverflowError

from tests.programs import ALL_EXAMPLES, fib, gcd, is_even, use_divmod
from tests.test_random_programs import (
    compile_source,
    program_strategy,
    render_program,
    stack_high_waters,
)

EXECUTORS = ("eager", "fused", "superblock")


def error_codes(diags):
    return {d.code for d in diags if d.severity is Severity.ERROR}


# -- the whole corpus verifies ------------------------------------------------


class TestCorpusVerifies:
    def test_every_example_verifies_clean(self):
        for name, (fn, _inputs) in sorted(ALL_EXAMPLES.items()):
            result = analyze_stack_program(fn.stack_program())
            assert result.ok, (name, result.diagnostics)
            facts = result.facts
            assert facts is not None
            # Bounded iff not recursive, and the bound fields agree.
            assert facts.bounded == (not facts.recursive), name
            if facts.bounded:
                assert facts.max_logical_depth == 1 + max(
                    [facts.max_addr_depth, *facts.var_peaks.values()]
                )
                assert facts.required_stack_depth >= 1

    def test_recursive_examples_get_unbounded_verdict(self):
        result = analyze_stack_program(fib.stack_program())
        assert result.facts.recursive
        assert result.facts.required_stack_depth is None
        codes = {d.code for d in result.diagnostics}
        assert "depth-unbounded" in codes
        (verdict,) = [d for d in result.diagnostics if d.code == "depth-unbounded"]
        assert verdict.severity is Severity.INFO  # a verdict, not a defect

    def test_bounded_example_facts_are_exact(self):
        facts = verify_stack_program(use_divmod.stack_program())
        assert not facts.recursive
        assert facts.entries == (0, min(e for e in facts.entries if e > 0))
        assert facts.call_edges == ((0, facts.entries[1]),)
        assert facts.max_addr_depth == 1  # one non-recursive call deep
        assert facts.max_logical_depth == 2
        assert set(facts.function_names.values()) == {"use_divmod", "divmod_ab"}

    def test_loop_only_program_needs_depth_one(self):
        facts = verify_stack_program(gcd.stack_program())
        assert facts.max_addr_depth == 0
        assert facts.var_peaks == {}
        assert facts.required_stack_depth == 1
        assert facts.max_logical_depth == 1


# -- static bound == instrumented runtime depth -------------------------------


class TestDepthEquality:
    def test_static_bound_equals_observed_depth_all_executors(self):
        for name, (fn, inputs) in sorted(ALL_EXAMPLES.items()):
            width = np.asarray(inputs[0]).shape[0]
            for executor in EXECUTORS:
                plan = fn.execution_plan(executor=executor)
                facts = plan.facts
                if facts.bounded:
                    # Machines pre-size from the proven bound, and the
                    # proven logical peak is *exactly* what the high-water
                    # marks observed.
                    vm = ProgramCounterVM(plan, batch_size=width)
                    assert vm.max_stack_depth == facts.required_stack_depth
                    vm.run([np.asarray(x) for x in inputs])
                    assert vm.observed_max_depth() == facts.max_logical_depth, (
                        name,
                        executor,
                    )
                else:
                    # Unbounded verdict: no proven bound, so the default
                    # applies; run at the corpus-wide test depth instead.
                    assert ProgramCounterVM(plan, width).max_stack_depth == 32
                    vm = ProgramCounterVM(plan, width, max_stack_depth=64)
                    vm.run([np.asarray(x) for x in inputs])
                    assert vm.observed_max_depth() <= 64 + 1, (name, executor)

    def test_every_high_water_mark_equals_eager(self):
        """Generated blocks mark one row per pushed variable per block (its
        highest static offset), eager one per push: the marks every stack
        reads back must agree, bounded and recursive programs alike."""
        for name, (fn, inputs) in sorted(ALL_EXAMPLES.items()):
            width = np.asarray(inputs[0]).shape[0]
            marks = {}
            for executor in EXECUTORS:
                vm = ProgramCounterVM(
                    fn.execution_plan(executor=executor), width, max_stack_depth=64
                )
                vm.run([np.asarray(x) for x in inputs])
                marks[executor] = (vm.observed_max_depth(), stack_high_waters(vm))
            assert marks["fused"] == marks["eager"], name
            assert marks["superblock"] == marks["eager"], name

    def test_hand_built_push_program_bound_is_exact(self):
        sp = StackProgram(
            blocks=[
                Block(
                    label="b0",
                    ops=[
                        PushOp(output="x", fn="id", inputs=("x",)),
                        PushOp(output="x", fn="id", inputs=("x",)),
                    ],
                    terminator=Jump(target=1),
                ),
                Block(
                    label="b1",
                    ops=[
                        PopOp(var="x"),
                        PopOp(var="x"),
                        PrimOp(outputs=("y",), fn="id", inputs=("x",)),
                    ],
                    terminator=Return(),
                ),
            ],
            inputs=("x",),
            outputs=("y",),
            var_kinds={"x": VarKind.STACKED, "y": VarKind.REGISTER},
        )
        plan = ExecutionPlan.compile(sp, executor="eager")
        assert plan.facts.var_peaks == {"x": 2}
        assert plan.facts.required_stack_depth == 2
        assert plan.facts.max_logical_depth == 3
        vm = ProgramCounterVM(plan, batch_size=3)
        assert vm.max_stack_depth == 2  # pre-sized from the proven bound
        (out,) = vm.run([np.array([4.0, -1.0, 9.5])])
        np.testing.assert_array_equal(out, np.array([4.0, -1.0, 9.5]))
        assert vm.observed_max_depth() == 3

    def test_static_offsets_record_the_higher_row_and_overflow(self):
        """One block pushes, pushes and pops ``x``: a generated block moves
        a static offset and marks only the highest row it reached, which
        must be the row eager's second push marked; and a lane with room
        for one frame still overflows on the second push."""
        sp = StackProgram(
            blocks=[
                Block(
                    label="b0",
                    ops=[
                        PushOp(output="x", fn="id", inputs=("x",)),
                        PushOp(output="x", fn="id", inputs=("x",)),
                        PopOp(var="x"),
                    ],
                    terminator=Jump(target=1),
                ),
                Block(
                    label="b1",
                    ops=[
                        PopOp(var="x"),
                        PrimOp(outputs=("y",), fn="id", inputs=("x",)),
                    ],
                    terminator=Return(),
                ),
            ],
            inputs=("x",),
            outputs=("y",),
            var_kinds={"x": VarKind.STACKED, "y": VarKind.REGISTER},
        )
        xs = np.array([4.0, -1.0, 9.5])
        for executor in EXECUTORS:
            plan = ExecutionPlan.compile(sp, executor=executor)
            assert plan.facts.var_peaks == {"x": 2}
            vm = ProgramCounterVM(plan, batch_size=3)
            (out,) = vm.run([xs])
            np.testing.assert_array_equal(out, xs)
            assert vm.storage("x").stack.high_water == 2, executor
            assert vm.observed_max_depth() == 3, executor
            shallow = ProgramCounterVM(plan, batch_size=3, max_stack_depth=1)
            with pytest.raises(StackOverflowError):
                shallow.run([xs])

    def test_hand_built_call_program_bound_is_exact(self):
        # main pushes x twice, holds both frames across a call; the callee
        # pushes/pops one more x frame.  Peaks: x=3 saved frames, addr=1.
        sp = StackProgram(
            blocks=[
                Block(
                    label="main",
                    ops=[
                        PushOp(output="x", fn="id", inputs=("x",)),
                        PushOp(output="x", fn="id", inputs=("x",)),
                    ],
                    terminator=PushJump(return_target=1, jump_target=2),
                ),
                Block(
                    label="main.ret",
                    ops=[
                        PopOp(var="x"),
                        PopOp(var="x"),
                        PrimOp(outputs=("y",), fn="id", inputs=("x",)),
                    ],
                    terminator=Return(),
                ),
                Block(
                    label="callee",
                    ops=[
                        PushOp(output="x", fn="id", inputs=("x",)),
                        PopOp(var="x"),
                    ],
                    terminator=Return(),
                ),
            ],
            inputs=("x",),
            outputs=("y",),
            var_kinds={"x": VarKind.STACKED, "y": VarKind.REGISTER},
        )
        facts = verify_stack_program(sp)
        assert facts.entries == (0, 2)
        assert facts.var_peaks == {"x": 3}
        assert facts.max_addr_depth == 1
        assert facts.required_stack_depth == 3
        assert facts.entry_depths[1] == {"x": 2}  # the return continuation
        plan = ExecutionPlan.compile(sp, executor="eager")
        vm = ProgramCounterVM(plan, batch_size=2)
        assert vm.max_stack_depth == 3
        (out,) = vm.run([np.array([7.0, 2.0])])
        np.testing.assert_array_equal(out, np.array([7.0, 2.0]))
        assert vm.observed_max_depth() == 4


# -- mutation tests: corrupted programs are rejected with the right code ------


class TestMutations:
    @staticmethod
    def _mutable_fib():
        return copy.deepcopy(fib.stack_program())

    def test_dropped_push_is_rejected(self):
        sp = self._mutable_fib()
        victim = next(
            blk
            for blk in sp.blocks
            if any(isinstance(op, PushOp) for op in blk.ops)
        )
        victim.ops = [op for op in victim.ops if not isinstance(op, PushOp)][
            : len(victim.ops)
        ]
        # Drop *all* pushes of that call block: the matching pops at the
        # return continuation now consume a caller's frames.
        result = analyze_stack_program(sp)
        assert not result.ok
        codes = error_codes(result.diagnostics)
        assert codes & {"pop-underflow", "unbalanced-return", "depth-mismatch"}
        assert "pop-underflow" in codes
        first = [d for d in result.diagnostics if d.severity is Severity.ERROR][0]
        assert first.block is not None and first.function is not None
        with pytest.raises(VerificationError, match="pop-underflow"):
            verify_stack_program(sp)

    def test_single_dropped_push_is_rejected(self):
        sp = self._mutable_fib()
        for blk in sp.blocks:
            for i, op in enumerate(blk.ops):
                if isinstance(op, PushOp):
                    blk.ops = blk.ops[:i] + blk.ops[i + 1 :]
                    result = analyze_stack_program(sp)
                    assert not result.ok, f"dropping push in {blk.label}"
                    return
        pytest.fail("fib lowering no longer contains a push")

    def test_retargeted_branch_is_rejected_as_depth_mismatch(self):
        sp = self._mutable_fib()
        facts = verify_stack_program(fib.stack_program())
        # Point the entry branch's base-case edge into a return
        # continuation — a block whose verified entry state holds
        # caller-pushed frames.  The recursive edge stays intact, so the
        # continuation now joins two different stack depths.
        ret_block = next(
            i for i, d in enumerate(facts.entry_depths) if d  # nonzero depths
        )
        entry = sp.blocks[0]
        assert isinstance(entry.terminator, Branch)
        entry.terminator = Branch(
            cond=entry.terminator.cond,
            true_target=ret_block,
            false_target=entry.terminator.false_target,
        )
        result = analyze_stack_program(sp)
        assert not result.ok
        assert "depth-mismatch" in error_codes(result.diagnostics)

    def test_cross_function_branch_is_rejected(self):
        sp = copy.deepcopy(is_even.stack_program())
        facts = verify_stack_program(is_even.stack_program())
        other_entry = next(e for e in facts.entries if e != 0)
        mutated = False
        for i, blk in enumerate(sp.blocks):
            if facts.function_entry[i] != 0:
                continue
            if isinstance(blk.terminator, Branch):
                blk.terminator = Branch(
                    cond=blk.terminator.cond,
                    true_target=blk.terminator.true_target,
                    false_target=other_entry,
                )
                mutated = True
                break
        assert mutated, "main has no branch to retarget"
        result = analyze_stack_program(sp)
        assert not result.ok
        assert "cross-function-jump" in error_codes(result.diagnostics)

    def test_mutation_findings_are_severity_ranked(self):
        sp = self._mutable_fib()
        victim = next(
            blk for blk in sp.blocks if any(isinstance(op, PushOp) for op in blk.ops)
        )
        victim.ops = [op for op in victim.ops if not isinstance(op, PushOp)]
        diags = analyze_stack_program(sp).diagnostics
        severities = [int(d.severity) for d in diags]
        assert severities == sorted(severities, reverse=True)


# -- region-table validation --------------------------------------------------


class TestRegionTables:
    def test_static_tables_verify(self):
        sp = fib.stack_program()
        facts = verify_stack_program(sp)
        assert region_diagnostics(sp, select_regions(sp), facts) == []

    def test_truncated_table_is_rejected(self):
        sp = fib.stack_program()
        table = select_regions(sp)
        truncated = RegionTable(
            chains=table.chains[:-1],
            next_block=table.next_block[:-1],
        )
        with pytest.raises(VerificationError, match="region-shape"):
            verify_region_table(sp, truncated)

    def test_phantom_run_edge_is_rejected(self):
        sp = fib.stack_program()
        table = select_regions(sp)
        # Extend run 0 into a block its terminator has no edge to.
        entry_targets = set(sp.blocks[0].terminator.targets())
        phantom = next(
            b for b in range(len(sp.blocks)) if b not in entry_targets and b != 0
        )
        chains = list(table.chains)
        chains[0] = (0, phantom)
        bad = RegionTable(chains=tuple(chains), next_block=table.next_block)
        diags = region_diagnostics(sp, bad, verify_stack_program(sp))
        assert "region-bad-edge" in error_codes(diags)

    def test_run_past_return_is_rejected(self):
        sp = fib.stack_program()
        ret_idx = next(
            i for i, b in enumerate(sp.blocks) if isinstance(b.terminator, Return)
        )
        table = select_regions(sp)
        chains = list(table.chains)
        chains[ret_idx] = (ret_idx, 0)
        bad = RegionTable(chains=tuple(chains), next_block=table.next_block)
        diags = region_diagnostics(sp, bad)
        assert "region-past-return" in error_codes(diags)

    def test_superblock_executor_refuses_corrupt_table(self):
        sp = fib.stack_program()
        ex = SuperblockExecutor()
        good = ex.regions_for(sp)
        entry_targets = set(sp.blocks[0].terminator.targets())
        phantom = next(
            b for b in range(len(sp.blocks)) if b not in entry_targets and b != 0
        )
        chains = list(good.chains)
        chains[0] = (0, phantom)
        ex._regions[id(sp)] = (
            sp,
            RegionTable(chains=tuple(chains), next_block=good.next_block),
        )
        plan = ExecutionPlan(program=sp, executor=ex)  # bypasses verify
        with pytest.raises(VerificationError, match="region-bad-edge"):
            ProgramCounterVM(plan, batch_size=1)

    def test_plan_verification_checks_the_region_table(self):
        sp = fib.stack_program()
        ex = SuperblockExecutor()
        good = ex.regions_for(sp)
        chains = list(good.chains)
        chains[0] = (0,) + tuple()
        ex._regions[id(sp)] = (
            sp,
            RegionTable(
                chains=tuple(chains[:-1]),
                next_block=good.next_block[:-1],
            ),
        )
        with pytest.raises(VerificationError, match="region"):
            ExecutionPlan.compile(sp, executor=ex)


# -- snapshot admission: static pre-check before any state is touched ---------


class TestSnapshotAdmission:
    @staticmethod
    def _deep_fib_snapshot(min_saved_frames=5):
        plan = fib.execution_plan("eager")
        vm = ProgramCounterVM(plan, batch_size=1, max_stack_depth=64)
        vm.bind_inputs([np.array([14], dtype=np.int64)])
        vm.scheduler.reset()
        while vm.addr_stack.sp[0] < min_saved_frames:
            assert vm.step()
        return plan, vm.snapshot_lane(0)

    def test_incompatible_snapshot_rejected_before_state_is_touched(self):
        plan, snap = self._deep_fib_snapshot()
        shallow = ProgramCounterVM(plan, batch_size=1, max_stack_depth=2)
        with pytest.raises(SnapshotIncompatibleError) as excinfo:
            shallow.restore_lane(0, snap)
        message = str(excinfo.value)
        assert f"requires stack depth {snap.required_depth()}" in message
        assert "max_stack_depth=2" in message
        # Statically rejected: nothing was allocated or written — the old
        # behavior overflowed mid-restore after the lane had been reset.
        assert shallow.storages == {}
        assert int(shallow.addr_stack.sp[0]) == 0

    def test_incompatible_error_is_a_stack_overflow(self):
        # The serving engine's fail-only-this-handle contract catches
        # StackOverflowError; the static pre-check must stay inside it.
        assert issubclass(SnapshotIncompatibleError, StackOverflowError)

    def test_required_depth_matches_frame_contents(self):
        _plan, snap = self._deep_fib_snapshot()
        expected = int(snap.addr_frames.shape[0]) - 1
        for name, payload in snap.storages.items():
            if payload is not None and snap.program.kind(name) is VarKind.STACKED:
                expected = max(expected, int(payload.shape[0]) - 1)
        assert snap.required_depth() == expected >= 5

    def test_compatible_snapshot_still_restores(self):
        plan, snap = self._deep_fib_snapshot()
        deep = ProgramCounterVM(plan, batch_size=1, max_stack_depth=64)
        deep.restore_lane(0, snap)
        deep.scheduler.reset()
        while deep.step():
            pass
        np.testing.assert_array_equal(
            deep.outputs()[0], fib.run_pc(np.array([14], dtype=np.int64))
        )

    def test_forged_snapshot_rejected_by_proven_bound(self):
        plan = use_divmod.execution_plan("eager")
        vm = ProgramCounterVM(plan, batch_size=1, max_stack_depth=8)
        vm.bind_inputs([np.array([17]), np.array([5])])
        forged = vm.snapshot_lane(0)
        # Physically admissible on this deep machine, but verification
        # proved use_divmod never exceeds one saved frame.
        forged.addr_frames = np.concatenate([forged.addr_frames] * 4)
        with pytest.raises(ValueError, match="never exceeds"):
            vm.restore_lane(0, forged)

    def test_out_of_range_pc_rejected(self):
        plan = gcd.execution_plan("eager")
        vm = ProgramCounterVM(plan, batch_size=1, max_stack_depth=4)
        snap = vm.snapshot_lane(0)
        snap.pc = vm.exit_index + 7
        with pytest.raises(ValueError, match="pc range"):
            vm.restore_lane(0, snap)

    def test_engine_migration_onto_shallow_machine_fails_precisely(self):
        """Cross-shard-style migration onto a too-shallow machine: the
        static pre-check fails that handle with the precise error and the
        engine keeps serving."""
        deep = fib.serve(num_lanes=1, preempt=True, max_stack_depth=64)
        strag = deep.submit(np.int64(14))
        deep.tick()
        while deep.vm.addr_stack.sp[0] < 5:
            deep.tick()
        deep.submit(np.int64(3), priority=5)
        while strag.state != "preempted":
            deep.tick()
        orphans = deep.export_queue()
        assert strag in orphans and strag.snapshot is not None

        shallow = fib.serve(num_lanes=1, max_stack_depth=2)
        shallow.requeue(orphans)
        survivor = shallow.submit(np.int64(1))
        shallow.run_until_idle()
        assert strag.state == "failed"
        exc = strag.exception()
        assert isinstance(exc, SnapshotIncompatibleError)
        assert "requires stack depth" in str(exc)
        assert "max_stack_depth=2" in str(exc)
        assert int(survivor.result()) == 1
        assert shallow.pool.busy_count() == 0


# -- validate_stack_program gaps fixed (shared structural checks) -------------


class TestValidateStackProgramGaps:
    @staticmethod
    def _single(terminator, label="b0"):
        return StackProgram(
            blocks=[Block(label=label, ops=[], terminator=terminator)],
            inputs=("x",),
            outputs=("x",),
        )

    def test_duplicate_labels_rejected(self):
        sp = StackProgram(
            blocks=[
                Block(label="b0", ops=[], terminator=Jump(target=1)),
                Block(label="b0", ops=[], terminator=Return()),
            ],
            inputs=("x",),
            outputs=("x",),
        )
        with pytest.raises(IRValidationError, match="already used"):
            validate_stack_program(sp)

    def test_pushjump_call_into_exit_rejected(self):
        sp = self._single(PushJump(return_target=0, jump_target=1))
        with pytest.raises(IRValidationError, match="exit index"):
            validate_stack_program(sp)

    def test_pushjump_return_at_exit_rejected(self):
        sp = StackProgram(
            blocks=[
                Block(
                    label="b0",
                    ops=[],
                    terminator=PushJump(return_target=2, jump_target=1),
                ),
                Block(label="b1", ops=[], terminator=Return()),
            ],
            inputs=("x",),
            outputs=("x",),
        )
        with pytest.raises(IRValidationError, match="exit index"):
            validate_stack_program(sp)

    def test_missing_terminator_rejected(self):
        sp = self._single(None)
        with pytest.raises(IRValidationError, match="missing terminator"):
            validate_stack_program(sp)

    def test_branch_target_out_of_range_rejected(self):
        sp = self._single(Branch(cond="x", true_target=0, false_target=9))
        with pytest.raises(IRValidationError, match="out of range"):
            validate_stack_program(sp)


# -- plan wiring: verify once, opt out, pre-size ------------------------------


class TestPlanVerification:
    def test_facts_shared_across_executor_plans(self):
        facts = fib.program_facts()
        for executor in EXECUTORS:
            assert fib.execution_plan(executor=executor).facts is facts

    def test_verify_opt_out_then_upgrade_in_place(self):
        from repro import autobatch

        @autobatch
        def stackcheck_tri(n):
            total = 0
            while n > 0:
                total = total + n
                n = n - 1
            return total

        plan = stackcheck_tri.execution_plan("eager", verify=False)
        assert plan.facts is None
        upgraded = stackcheck_tri.execution_plan("eager")
        assert upgraded is plan  # same cached plan,
        assert plan.facts is not None  # now carrying the proven facts

    def test_compile_rejects_corrupt_program_by_default(self):
        sp = copy.deepcopy(fib.stack_program())
        victim = next(
            blk for blk in sp.blocks if any(isinstance(op, PushOp) for op in blk.ops)
        )
        victim.ops = [op for op in victim.ops if not isinstance(op, PushOp)]
        with pytest.raises(VerificationError):
            ExecutionPlan.compile(sp, executor="eager")
        plan = ExecutionPlan.compile(sp, executor="eager", verify=False)
        assert plan.facts is None  # escape hatch for negative tests
        # A cluster compiles its one shared plan under the same switch
        # (it used to drop verify=False and verify anyway).
        from repro.serve import Cluster

        with pytest.raises(VerificationError):
            Cluster(sp, 2, num_lanes=2)
        assert Cluster(sp, 2, num_lanes=2, verify=False).plan.facts is None

    def test_fused_refuses_an_unverifiable_program(self):
        """Generated blocks address stacked variables at static frame
        offsets, sound only for a program whose pops never go below a
        lane's base frame: binding one that fails verification raises the
        verifier's error instead of running with unclamped pops, and the
        same program still runs under eager, whose pops clamp."""
        sp = copy.deepcopy(fib.stack_program())
        victim = next(
            blk for blk in sp.blocks if any(isinstance(op, PushOp) for op in blk.ops)
        )
        victim.ops = [op for op in victim.ops if not isinstance(op, PushOp)]
        for executor in ("fused", "superblock"):
            plan = ExecutionPlan.compile(sp, executor=executor, verify=False)
            with pytest.raises(VerificationError, match="pop-underflow"):
                ProgramCounterVM(plan, batch_size=2)
        plan = ExecutionPlan.compile(sp, executor="eager", verify=False)
        ns = np.array([0, 1], dtype=np.int64)
        (out,) = ProgramCounterVM(plan, batch_size=2).run([ns])
        np.testing.assert_array_equal(out, fib.run_reference(ns))

    def test_run_pc_verify_opt_out_still_correct(self):
        ns = np.array([3, 8, 5], dtype=np.int64)
        np.testing.assert_array_equal(
            fib.run_pc(ns, verify=False), fib.run_pc(ns)
        )

    def test_unverified_plan_machine_uses_default_depth(self):
        plan = ExecutionPlan(
            program=gcd.stack_program(), executor=EagerBlockExecutor()
        )
        assert plan.facts is None
        vm = ProgramCounterVM(plan, batch_size=1)
        assert vm.max_stack_depth == 32

    def test_explicit_depth_always_wins(self):
        vm = ProgramCounterVM(
            use_divmod.execution_plan("eager"), batch_size=1, max_stack_depth=7
        )
        assert vm.max_stack_depth == 7

    def test_recursive_program_falls_back_to_default_depth(self):
        vm = ProgramCounterVM(fib.execution_plan("eager"), batch_size=1)
        assert vm.max_stack_depth == 32


# -- hypothesis: every frontend-lowered random program verifies clean ---------


class TestRandomPrograms:
    @settings(max_examples=25, deadline=None)
    @given(program_strategy)
    def test_random_lowered_program_verifies_clean(self, spec):
        fn = compile_source(render_program(spec))
        result = analyze_stack_program(fn.stack_program())
        assert result.ok, result.diagnostics
        facts = result.facts
        recursive = spec[1]
        assert facts.recursive == recursive
        if not recursive:
            assert facts.required_stack_depth is not None
            # The proven bound really is enough to execute on.
            plan = fn.execution_plan("eager")
            vm = ProgramCounterVM(plan, batch_size=2)
            assert vm.max_stack_depth == facts.required_stack_depth
            vm.run(
                [
                    np.array([3, 11], dtype=np.int64),
                    np.array([7, 2], dtype=np.int64),
                    np.array([1, 2], dtype=np.int64),
                ]
            )
            assert vm.observed_max_depth() == facts.max_logical_depth


# -- the lint driver ----------------------------------------------------------


class TestLint:
    def test_lint_function_reports_unbounded_verdict(self):
        from repro.analysis.lint import lint_function

        findings = lint_function(fib)
        assert [d for d in findings if d.code == "depth-unbounded"]
        assert not [d for d in findings if d.severity is Severity.ERROR]

    def test_lint_detects_dead_store(self):
        from repro import autobatch
        from repro.analysis.lint import lint_function

        @autobatch
        def stackcheck_dead_store(n):
            wasted = n + 1
            wasted2 = wasted * 2  # noqa: F841 -- the point of the test
            return n - 1

        findings = lint_function(stackcheck_dead_store)
        assert [d for d in findings if d.code == "dead-store"]
        assert not [d for d in findings if d.severity is Severity.ERROR]

    def test_cli_all_exits_clean_on_corpus(self, capsys):
        from repro.analysis.lint import main

        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "depth-unbounded" in out

    def test_cli_single_and_list(self, capsys):
        from repro.analysis.lint import main

        assert main(["gcd"]) == 0
        assert "gcd: clean" in capsys.readouterr().out
        assert main(["--list"]) == 0
        assert "fib" in capsys.readouterr().out

    def test_cli_unknown_example_errors(self):
        from repro.analysis.lint import main

        with pytest.raises(SystemExit):
            main(["no_such_example"])

    def test_cli_json_output(self, capsys):
        import json

        from repro.analysis.lint import main

        assert main(["fib", "--json"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert any(d["code"] == "depth-unbounded" for d in lines)
        assert all(d["program"] == "fib" for d in lines)
