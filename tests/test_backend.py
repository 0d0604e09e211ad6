"""Tests for the simulated accelerator backend: fusion, devices, kernels."""

import numpy as np
import pytest

from repro.backend.device import CPU_DEVICE, GPU_DEVICE, DeviceModel
from repro.backend.fusion import FusionUnsupported
from repro.backend.kernels import KernelLibrary
from repro.frontend.registry import default_registry
from repro.vm.executors import ExecutionPlan
from repro.vm.instrumentation import Instrumentation
from repro.vm.program_counter import ProgramCounterVM

from .helpers import assert_results_equal
from .programs import ALL_EXAMPLES, fib, gcd


class TestFusion:
    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_fused_matches_reference(self, name):
        fn, inputs = ALL_EXAMPLES[name]
        expected = fn.run_reference(*inputs)
        actual = fn.run_pc(*inputs, executor="fused", max_stack_depth=64)
        assert_results_equal(expected, actual, context=f"fused {name}")

    def test_fused_source_attached(self):
        sp = fib.stack_program()
        plan = ExecutionPlan.compile(sp, executor="fused")
        vm = ProgramCounterVM(plan, batch_size=2, max_stack_depth=8)
        executors = vm._block_fns
        assert len(executors) == len(sp.blocks)
        assert "def _fused_block_0" in executors[0].__fused_source__
        # The generated code is straight-line: no interpreter loop artifacts.
        assert "for " not in executors[0].__fused_source__
        # Across the corpus: a block takes its lane set from the step (no
        # mask-form stack call, no second flatnonzero) and tallies its
        # execution instead of recording each op; a superblock derives
        # exactly one more lane set per member it falls through to.
        banned = (
            "for ", "flatnonzero", ".push(mask", ".pop(mask",
            "record_prim", "record_push", "record_pop",
        )
        for name, (fn, _) in sorted(ALL_EXAMPLES.items()):
            plan = fn.execution_plan("fused")
            vm = ProgramCounterVM(plan, batch_size=2, max_stack_depth=8)
            for i, block in enumerate(vm._block_fns):
                source = block.__fused_source__
                for text in banned:
                    assert text not in source, f"{name} block {i}: {text!r}"
                assert source.count(".executions += 1") == 1, f"{name} block {i}"
            plan = fn.execution_plan("superblock")
            vm = ProgramCounterVM(plan, batch_size=2, max_stack_depth=8)
            regions = plan.executor.regions_for(plan.program)
            for i, block in enumerate(vm._block_fns):
                members = len(regions.chain(i))
                source = block.__fused_source__
                assert source.count("nonzero") == members - 1, f"{name} entry {i}"
                assert source.count(".executions += 1") == members, f"{name} entry {i}"

    def test_gather_mode_rejected(self):
        plan = ExecutionPlan.compile(fib.stack_program(), executor="fused")
        with pytest.raises(FusionUnsupported, match="masking"):
            ProgramCounterVM(plan, batch_size=2, mode="gather")

    def test_fused_fewer_python_dispatches(self):
        """Fusion's whole point: fewer per-op Python-level dispatches."""
        lib_eager = KernelLibrary(default_registry)
        lib_fused = KernelLibrary(default_registry)
        batch = np.array([6, 9, 3])
        fib.run_pc(batch, registry=lib_eager.registry, max_stack_depth=32)
        fib.run_pc(
            batch, executor="fused", registry=lib_fused.registry, max_stack_depth=32
        )
        # Same kernel-level calls happen inside fused blocks (they wrap the
        # same primitives), so kernel counts match; the savings are in the
        # plan-loop overhead, which test_benchmarks covers with timing.
        assert lib_fused.stats.calls == lib_eager.stats.calls


class TestDeviceModel:
    def test_kernel_seconds_scales_in_waves(self):
        d = DeviceModel("d", 1e-6, 1e-7, 1e-9, parallel_width=100)
        assert d.kernel_seconds(1) == pytest.approx(1e-9)
        assert d.kernel_seconds(100) == pytest.approx(1e-9)
        assert d.kernel_seconds(101) == pytest.approx(2e-9)

    def _instr_for(self, batch):
        instr = Instrumentation()
        fib.run_pc(batch, instrumentation=instr, max_stack_depth=32)
        return instr

    def test_fused_faster_than_eager(self):
        instr = self._instr_for(np.array([9, 4, 11]))
        for device in (CPU_DEVICE, GPU_DEVICE):
            assert device.estimate(instr, "fused") < device.estimate(instr, "eager")

    def test_gpu_batching_amortizes(self):
        """Simulated GPU throughput grows with batch size (Figure 5 shape)."""
        t_small = GPU_DEVICE.estimate(self._instr_for(np.full(1, 10)), "fused")
        t_big = GPU_DEVICE.estimate(self._instr_for(np.full(256, 10)), "fused")
        # 256x the work in far less than 256x the simulated time:
        assert t_big < t_small * 32

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CPU_DEVICE.estimate(Instrumentation(), "quantum")

    def test_estimate_monotone_in_work(self):
        small = self._instr_for(np.array([3]))
        big = self._instr_for(np.array([14]))
        assert CPU_DEVICE.estimate(big, "eager") > CPU_DEVICE.estimate(small, "eager")


class TestKernelLibrary:
    def test_counts_calls(self):
        lib = KernelLibrary(default_registry)
        gcd.run_local(
            np.array([12, 9]), np.array([18, 6]), registry=lib.registry
        )
        assert lib.stats.calls > 0
        assert lib.stats.by_kernel.get("mod", 0) > 0

    def test_wrapped_results_identical(self):
        lib = KernelLibrary(default_registry)
        a, b = np.array([48, 7]), np.array([36, 0])
        out = gcd.run_local(a, b, registry=lib.registry)
        np.testing.assert_array_equal(out, gcd.run_reference(a, b))

    def test_reset(self):
        lib = KernelLibrary(default_registry)
        gcd.run_local(np.array([4]), np.array([2]), registry=lib.registry)
        assert lib.stats.calls > 0
        lib.reset()
        assert lib.stats.calls == 0
        gcd.run_local(np.array([4]), np.array([2]), registry=lib.registry)
        assert lib.stats.calls > 0
