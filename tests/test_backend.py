"""Tests for the simulated accelerator backend: fusion, devices, kernels."""

import hashlib
import re

import numpy as np
import pytest

from repro import autobatch, primitive
from repro.backend.device import CPU_DEVICE, GPU_DEVICE, DeviceModel
from repro.backend.fusion import FusedBlockExecutor
from repro.backend.kernels import KernelLibrary
from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.ir.instructions import Branch, ConstOp, PopOp, PushOp, VarKind
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
        # Across the corpus: a block takes its lane set from the step and
        # touches nothing else (no mask, no full-width read or write, no
        # second flatnonzero) and tallies its execution instead of recording
        # each op; a superblock derives exactly one more lane set per member
        # it falls through to.
        banned = (
            "for ", "flatnonzero", "mask", ".read()", ".write(",
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

    def test_profiled_slots_follow_the_machine_mode(self):
        """Generated blocks run the same code under either mode; the block
        profile offers the batch width under masking and a member's own
        lanes under gather-scatter, chain members included."""
        ns = np.array([9, 4, 11, 6, 13], dtype=np.int64)
        for executor in ("fused", "superblock"):
            rows = {}
            for mode in ("mask", "gather"):
                instr = Instrumentation(track_blocks=True)
                out = fib.run_pc(
                    ns, executor=executor, mode=mode, instrumentation=instr
                )
                np.testing.assert_array_equal(out, fib.run_reference(ns))
                rows[mode] = instr.by_block
                assert instr.utilization() == 1.0
            assert rows["mask"].keys() == rows["gather"].keys()
            for i, row in rows["gather"].items():
                assert row.slots == row.active, (executor, i)
                masked = rows["mask"][i]
                assert masked.slots == masked.executions * ns.size, (executor, i)
                assert (masked.executions, masked.active) == (
                    row.executions, row.active
                ), (executor, i)

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


_weighted_registry = PrimitiveRegistry(parent=default_registry)


@primitive(registry=_weighted_registry, cost_weight=500.0)
def weighted_step(x):
    """Elementwise, so a row's value does not depend on its companions."""
    return np.asarray(x) * 0.75 + 1.0


@autobatch(registry=_weighted_registry)
def _descent(x, n):
    if n <= 0:
        return x
    y = weighted_step(x)
    return _descent(y, n - 1) + y * 0.5


def _block_vars(block):
    """Every variable a block's operations and terminator name."""
    for op in block.ops:
        if isinstance(op, PopOp):
            yield op.var
        elif isinstance(op, ConstOp):
            yield op.output
        else:
            yield from op.inputs
            yield from getattr(op, "outputs", (getattr(op, "output", None),))
    if isinstance(block.terminator, Branch):
        yield block.terminator.cond


def _sources(plan, **vm_options):
    vm = ProgramCounterVM(plan, batch_size=16, max_stack_depth=32, **vm_options)
    return [block.__fused_source__ for block in vm._block_fns]


class TestCompactBlocks:
    """Every generated block runs on the step's live lanes: one variant per
    program, whatever the registry's weights, and nothing observable."""

    X = np.array([0.5, -2.0, 3.25, 8.0, -0.125])
    N = np.array([3, 0, 7, 1, 5], dtype=np.int64)

    def test_fib_generated_source_is_the_parents(self):
        """The no-collateral pin for ``fib_*`` and ``serve_*``: every
        generated fib block, byte for byte (digest re-taken at the commit
        that addressed stacked variables at static frame offsets from one
        pointer load per block; tests' ``fib`` and the benchmark's are the
        same source) — and what no block, NUTS's included, contains."""
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
                    for banned in ("np.where", "errstate", "mask", ".read()"):
                        assert banned not in source, f"{executor} block {i}"
                if fn is fib:
                    text += "".join(sources)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bab281a367fd7b6d6f93517c2d34fc50fa314f6ce564401be2447679cd7b85c6"
        )

    def test_one_pointer_load_and_store_per_stacked_variable(self):
        """A generated block loads each stacked variable's pointers once,
        stores them at most once, and moves them by static offsets only:
        no variable stack's ``pop_at`` / ``push_at`` and no clamp.  The
        return-address stack keeps its own push and clamped pop."""
        from repro.nuts.kernel import NutsKernel
        from repro.targets.logistic import BayesianLogisticRegression

        chain = NutsKernel(
            BayesianLogisticRegression(n_data=20, n_features=3)
        ).functions.nuts_chain
        corpus = [(name, fn) for name, (fn, _) in sorted(ALL_EXAMPLES.items())]
        for name, fn in corpus + [("nuts_chain", chain)]:
            plan = fn.execution_plan("fused")
            program = plan.program
            sources = _sources(plan, registry=fn.registry)
            for i, (block, source) in enumerate(zip(program.blocks, sources)):
                stacked = {
                    v for v in _block_vars(block)
                    if program.kind(v) is VarKind.STACKED
                }
                loads = re.findall(r"= (\w+)\.fp\[idx\]\n", source)
                stores = re.findall(r"(\w+)\.fp\[idx\] = ", source)
                where = f"{name} block {i}"
                assert len(loads) == len(set(loads)) == len(stacked), where
                assert len(stores) == len(set(stores)), where
                assert set(stores) <= set(loads), where
                assert "np.maximum" not in source, where
                rest = re.sub(r"vm\.addr_stack\.p(op|ush)_at", "", source)
                assert "pop_at" not in rest and "push_at" not in rest, where

    @pytest.mark.parametrize(
        "name, label, moved",
        [
            ("consecutive_calls", "after_1.ret0", ("n",)),
            ("ackermann", "after_3.ret1", ("m", "n")),
        ],
    )
    def test_static_offsets_cover_pop_push_pairs(self, name, label, moved):
        """The paper's optimization 5 rewrites ``Pop v; Push v = f(x)`` into
        an in-place update.  Static frame offsets already compile such a
        pair to one ``put`` at the frame's entry pointer: the pop and the
        push cancel in the code generator, so the variable's pointers are
        neither stored nor read one row down.  These two blocks hold the
        only pairs in the corpus that optimization 5 would rewrite."""
        fn, inputs = ALL_EXAMPLES[name]
        plan = fn.execution_plan("fused")
        program = plan.program
        index = next(
            i for i, b in enumerate(program.blocks)
            if b.label == f"{name}.{label}"
        )
        compiled = plan.executor._compiled_blocks(program)[index]
        source = compiled.source
        storages = {
            payload: sym for sym, kind, payload in compiled.spec
            if kind == "storage"
        }
        offsets = {
            sym: payload for sym, kind, payload in compiled.spec
            if kind == "offset"
        }
        ops = program.blocks[index].ops
        for short in moved:
            var = f"{name}.{short}"
            assert PopOp(var=var) in ops, var
            assert any(
                isinstance(op, PushOp) and op.output == var for op in ops
            ), var
            s = storages[var]
            (base,) = re.findall(rf"(\w+) = {s}\.fp\[idx\]\n", source)
            assert len(re.findall(rf"\b{s}\.put\(", source)) == 1, var
            assert f"{s}.put({base}, " in source, var
            assert f"{s}.fp[idx] = " not in source, var
            below = {
                addr for addr, z in re.findall(
                    rf"(\w+) = {base} \+ (\w+)\n", source
                )
                if offsets[z] == -1
            }
            reads = re.findall(rf"\b{s}\.get\((\w+)\)", source)
            assert not below & set(reads), var
        expected = fn.run_reference(*inputs)
        runs = {
            f"eager/{mode}": dict(executor="eager", mode=mode)
            for mode in ("mask", "gather")
        }
        runs.update({ex: dict(executor=ex) for ex in ("fused", "superblock")})
        for where, options in runs.items():
            out = fn.run_pc(*inputs, max_stack_depth=64, **options)
            assert_results_equal(expected, out, context=f"{name} {where}")

    def test_matches_every_executor(self):
        expected = _descent.run_reference(self.X, self.N)
        for executor in ("eager", "fused", "superblock"):
            out = _descent.run_pc(self.X, self.N, executor=executor)
            assert np.array_equal(out, expected), executor

    def test_one_plan_two_registries_one_compile(self):
        """The compiled-code cache is keyed by the program alone: a registry
        only resolves the kernels and weights each machine binds."""
        light = PrimitiveRegistry(parent=_weighted_registry)
        primitive(registry=light, name="weighted_step", cost_weight=1.0)(
            weighted_step.fn
        )
        plan = _descent.execution_plan(FusedBlockExecutor())  # own cache
        assert _sources(plan, registry=_weighted_registry) == _sources(
            plan, registry=light
        )
        assert plan.executor.compile_count == 1
        expected = _descent.run_reference(self.X, self.N)
        for registry in (light, _weighted_registry):
            instr = Instrumentation(batch_size=5)
            out = _descent.run_pc(
                self.X, self.N, executor=plan.executor, registry=registry,
                instrumentation=instr,
            )
            assert np.array_equal(out, expected)
            counter = instr.count(prim="weighted_step")
            weight = registry.get("weighted_step").cost_weight
            assert counter.active == int(self.N.sum())
            assert counter.slots == counter.active
            assert counter.flops == weight * counter.active
        assert plan.executor.compile_count == 1

    def test_snapshot_restore_across_executors_mid_run(self):
        expected = _descent.run_reference(self.X, self.N)
        plans = {
            name: _descent.execution_plan(name) for name in ("fused", "eager")
        }

        def machine(name):
            return ProgramCounterVM(
                plans[name], batch_size=5, max_stack_depth=32,
                registry=_weighted_registry,
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
