"""Unit tests for the superblock layer: region selection and the
superblock executor's dispatch accounting.

The end-to-end properties — bit-identical outputs across executors, no
lost/duplicated handles under preempt+resume schedules, compile/bind
accounting — live in tests/test_executors.py, tests/test_serve.py, and
tests/test_cluster.py; this file pins down the building blocks those
properties rest on, plus the tick-clock payoff they buy (dispatch
amortization).
"""

import numpy as np
import pytest

from repro.backend.fusion import SuperblockExecutor
from repro.backend.regions import DEFAULT_MAX_LENGTH, select_regions
from repro.observe.profile import BlockProfile, BlockRow
from repro.vm.instrumentation import Instrumentation

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
