"""Tests for the simulated accelerator backend: fusion, devices, kernels."""

import hashlib

import numpy as np
import pytest

from repro import autobatch, primitive
from repro.backend.device import CPU_DEVICE, GPU_DEVICE, DeviceModel
from repro.backend.fusion import (
    GATHER_MIN_COST_WEIGHT,
    FusedBlockExecutor,
    FusionUnsupported,
)
from repro.backend.kernels import KernelLibrary
from repro.frontend.registry import PrimitiveRegistry, default_registry
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


_heavy_registry = PrimitiveRegistry(parent=default_registry)


@primitive(registry=_heavy_registry, cost_weight=GATHER_MIN_COST_WEIGHT)
def heavy_step(x):
    """Elementwise, so a row's value does not depend on its companions."""
    return np.asarray(x) * 0.75 + 1.0


@autobatch(registry=_heavy_registry)
def _heavy_descent(x, n):
    if n <= 0:
        return x
    y = heavy_step(x)
    return _heavy_descent(y, n - 1) + y * 0.5


def _sources(plan, **vm_options):
    vm = ProgramCounterVM(plan, batch_size=16, max_stack_depth=32, **vm_options)
    return [block.__fused_source__ for block in vm._block_fns]


class TestCostDirectedGather:
    """A fused block runs a heavy primitive on the step's live lanes only;
    nothing else about any block changes."""

    X = np.array([0.5, -2.0, 3.25, 8.0, -0.125])
    N = np.array([3, 0, 7, 1, 5], dtype=np.int64)

    def test_corpus_blocks_have_no_gathered_site(self):
        for name, (fn, _) in sorted(ALL_EXAMPLES.items()):
            for executor in ("fused", "superblock"):
                for i, source in enumerate(_sources(fn.execution_plan(executor))):
                    assert "_rows(" not in source, f"{name}/{executor} block {i}"
                    assert "read_at" not in source, f"{name}/{executor} block {i}"

    def test_fib_generated_source_is_the_parents(self):
        """The no-collateral pin for ``fib_*`` and ``serve_*``: every
        generated fib block, byte for byte (digest re-taken at the commit
        that made the branch a table lookup and moved ``errstate`` into the
        machine; tests' ``fib`` and the benchmark's are the same source) —
        and what that commit's blocks, NUTS's included, no longer contain."""
        from repro.nuts.kernel import NutsKernel
        from repro.targets.logistic import BayesianLogisticRegression

        chain = NutsKernel(
            BayesianLogisticRegression(n_data=20, n_features=3)
        ).functions.nuts_chain
        text = ""
        for fn in (fib, chain):
            for executor in ("fused", "superblock"):
                plan = fn.execution_plan(executor)
                sources = _sources(plan, registry=fn.registry)
                for i, source in enumerate(sources):
                    assert "np.where" not in source, f"{executor} block {i}"
                    assert "errstate" not in source, f"{executor} block {i}"
                if fn is fib:
                    text += "".join(sources)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c7ce1eec5e2977e4e4f2414382ea19e49e9498abb673eea2da17b91f51703c25"
        )

    def test_heavy_site_gathers_and_matches_every_executor(self):
        plan = _heavy_descent.execution_plan("fused")
        sources = _sources(plan, registry=_heavy_registry)
        assert sum(source.count("_rows(") for source in sources) == 1
        expected = _heavy_descent.run_reference(self.X, self.N)
        for executor in ("eager", "fused", "superblock"):
            out = _heavy_descent.run_pc(self.X, self.N, executor=executor)
            assert np.array_equal(out, expected), executor

    def test_one_plan_two_registries_each_runs_its_own_variant(self):
        """The compiled-code cache is keyed by the program *and* the gathered
        names: the weight is the registry's to give."""
        light = PrimitiveRegistry(parent=_heavy_registry)
        primitive(registry=light, name="heavy_step", cost_weight=1.0)(heavy_step.fn)
        plan = _heavy_descent.execution_plan(FusedBlockExecutor())  # own cache

        def gathered_sites(registry):
            return sum(
                source.count("_rows(") for source in _sources(plan, registry=registry)
            )

        assert gathered_sites(_heavy_registry) == 1
        assert gathered_sites(light) == 0
        assert gathered_sites(_heavy_registry) == 1
        assert plan.executor.compile_count == 2  # one per variant, not per bind
        expected = _heavy_descent.run_reference(self.X, self.N)
        for registry in (light, _heavy_registry):
            instr = Instrumentation(batch_size=5)
            out = _heavy_descent.run_pc(
                self.X, self.N, executor="fused", registry=registry,
                instrumentation=instr,
            )
            assert np.array_equal(out, expected)
            counter = instr.count(prim="heavy_step")
            gathers = registry is _heavy_registry
            assert counter.active == int(self.N.sum())
            assert counter.slots == (
                counter.active if gathers else counter.executions * 5
            )

    def test_snapshot_restore_across_executors_mid_run(self):
        expected = _heavy_descent.run_reference(self.X, self.N)
        plans = {
            name: _heavy_descent.execution_plan(name) for name in ("fused", "eager")
        }

        def machine(name):
            return ProgramCounterVM(
                plans[name], batch_size=5, max_stack_depth=32,
                registry=_heavy_registry,
            )

        vm = machine("fused")
        vm.bind_inputs([self.X, self.N])
        for name in ("eager", "fused", "eager", "fused"):
            for _ in range(5):
                assert vm.step()  # still mid-run at every hop
            snaps = [vm.snapshot_lane(b) for b in range(5)]
            vm = machine(name)
            for b, snap in enumerate(snaps):
                vm.restore_lane(b, snap)
        while vm.step():
            pass
        assert np.array_equal(vm.outputs()[0], expected)


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
