"""Direct tests of the paper's specific prose claims (see EXPERIMENTS.md)."""

import numpy as np
import pytest

from repro import autobatch, ops, primitive
from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.ir.instructions import PushOp, VarKind


# ---------------------------------------------------------------------------
# §3: "program counter autobatching will run a non-recursive program
# entirely without variable stacks (except for the program counter itself)"
# ---------------------------------------------------------------------------


def stacked_vars(fn):
    sp = fn.stack_program(optimize=True)
    return sorted(v for v, k in sp.var_kinds.items() if k is VarKind.STACKED)


class TestNoStacksForNonRecursive:
    def test_loop_program_has_no_stacks(self):
        from .programs import collatz_steps, gcd, newton_sqrt

        for fn in (gcd, collatz_steps, newton_sqrt):
            assert stacked_vars(fn) == [], fn.name

    def test_non_recursive_call_chain_has_no_stacks(self):
        """Calls alone do not force stacks — only *recursive* liveness does."""
        from .programs import use_divmod

        assert stacked_vars(use_divmod) == []

    def test_recursive_program_stacks_only_live_variables(self):
        """fib needs exactly n (live across both calls) and the first call's
        result (live across the second call) — the paper's Figure 3 pair."""
        from .programs import fib

        names = [v.split(".")[-1] for v in stacked_vars(fib)]
        assert "n" in names
        assert len(names) == 2

    def test_non_recursive_stack_program_pushes_nothing_at_runtime(self):
        from .programs import use_divmod
        from repro.vm.instrumentation import Instrumentation

        instr = Instrumentation()
        a = np.array([17, 23, 99])
        b = np.array([5, 7, 10])
        use_divmod.run_pc(a, b, instrumentation=instr)
        assert instr.pushes == 0
        assert instr.pops == 0


# ---------------------------------------------------------------------------
# §3: "this compiled approach doesn't amount to inlining all function calls,
# so can autobatch a program with significant subroutine reuse without
# combinatorial explosion in code size"
# ---------------------------------------------------------------------------


@autobatch
def _shared_leaf(x):
    return x * x + 1


@autobatch
def _layer1(x):
    return _shared_leaf(x) + _shared_leaf(x + 1)


@autobatch
def _layer2(x):
    return _layer1(x) + _layer1(x + 1)


@autobatch
def _layer3(x):
    return _layer2(x) + _layer2(x + 1)


class TestNoInliningExplosion:
    def test_block_count_linear_in_source_not_call_tree(self):
        # The call *tree* has 2^3 = 8 leaf invocations; a tracing/inlining
        # system would emit ~15 function bodies.  The compiled program holds
        # each function once.
        sp = _layer3.stack_program()
        per_fn_blocks = len(_shared_leaf.ir.blocks)
        assert len(sp.blocks) < 4 * 8  # far below inlined size
        assert len(sp.function_entries) == 4  # one entry per function, once

    def test_shared_subroutine_result_correct(self):
        x = np.array([0, 1, 2, 5])
        np.testing.assert_array_equal(
            _layer3.run_pc(x), _layer3.run_reference(x)
        )


# ---------------------------------------------------------------------------
# §2: masked execution "happens with junk data, which may trigger spurious
# failures in the underlying platform"; gather-scatter "avoids computing on
# junk data".
# ---------------------------------------------------------------------------

_strict_registry = PrimitiveRegistry(parent=default_registry)


@primitive(registry=_strict_registry, name="strict_sqrt")
def strict_sqrt(x):
    """A platform kernel that *faults* (rather than warns) on bad input."""
    x = np.asarray(x)
    if np.any(x < 0):
        raise FloatingPointError("strict_sqrt: negative input lane")
    return np.sqrt(x)


@autobatch(registry=_strict_registry)
def _guarded_sqrt(x):
    if x >= 0:
        y = strict_sqrt(x)
    else:
        y = 0.0 - strict_sqrt(0.0 - x)
    return y


class TestJunkDataClaim:
    BATCH = np.array([4.0, -9.0, 16.0, -25.0])

    def test_masked_execution_trips_strict_kernel(self):
        """Masking runs the kernel on lanes headed down the other branch."""
        with pytest.raises(FloatingPointError):
            _guarded_sqrt.run_pc(self.BATCH, mode="mask")

    def test_gather_execution_avoids_junk(self):
        out = _guarded_sqrt.run_pc(self.BATCH, mode="gather")
        np.testing.assert_allclose(out, [2.0, -3.0, 4.0, -5.0])

    def test_local_machine_same_contrast(self):
        with pytest.raises(FloatingPointError):
            _guarded_sqrt.run_local(self.BATCH, mode="mask")
        out = _guarded_sqrt.run_local(self.BATCH, mode="gather")
        np.testing.assert_allclose(out, [2.0, -3.0, 4.0, -5.0])

    def test_reference_never_sees_junk(self):
        out = _guarded_sqrt.run_reference(self.BATCH)
        np.testing.assert_allclose(out, [2.0, -3.0, 4.0, -5.0])

    def test_generated_blocks_never_see_junk(self):
        """Fused blocks are compact, so the choice masking makes for XLA's
        static shapes does not bind them: every site runs on its live lanes,
        and the strict kernel never sees the other branch's lanes — under
        either machine mode."""
        expected = _guarded_sqrt.run_reference(self.BATCH)
        for executor in ("fused", "superblock"):
            for mode in ("mask", "gather"):
                out = _guarded_sqrt.run_pc(self.BATCH, executor=executor, mode=mode)
                assert np.array_equal(out, expected), (executor, mode)


# ---------------------------------------------------------------------------
# §2: "as long as we don't starve any blocks, any selection criterion will
# lead to a correct end result" + scheduler fairness under divergence.
# ---------------------------------------------------------------------------


@autobatch
def _spin(n):
    total = 0
    while n > 0:
        total = total + n
        n = n - 1
    return total


class TestSchedulerClaims:
    def test_every_heuristic_correct_under_extreme_divergence(self):
        # One member loops 1000x, others exit immediately.
        n = np.array([1000, 0, 1, 0])
        expected = _spin.run_reference(n)
        for scheduler in ("earliest", "most_active", "round_robin"):
            np.testing.assert_array_equal(
                _spin.run_pc(n, scheduler=scheduler), expected
            )
            np.testing.assert_array_equal(
                _spin.run_local(n, scheduler=scheduler), expected
            )

    def test_no_member_starves(self):
        """All members terminate even when one dominates the schedule."""
        from .programs import collatz_steps

        n = np.array([837799, 1, 2, 1])  # member 0 takes 524 loop iterations
        out = collatz_steps.run_pc(n, max_steps=10**7)
        np.testing.assert_array_equal(
            out, collatz_steps.run_reference(n)
        )


# ---------------------------------------------------------------------------
# §1/§3: the PC machine is non-recursive — Python recursion depth stays flat
# no matter how deep the *program's* recursion goes.
# ---------------------------------------------------------------------------


@autobatch
def _countdown(n):
    if n <= 0:
        return 0
    return 1 + _countdown(n - 1)


class TestHostRecursionClaim:
    def test_pc_machine_depth_independent_of_program_recursion(self):
        import sys

        depths = []
        real_step = None

        # Record Python stack depth at every machine step via a probe
        # primitive would be invasive; instead exercise a recursion depth the
        # *local* machine could not survive with a small recursion limit.
        n = np.array([400, 200, 100, 399])
        out = _countdown.run_pc(n, max_stack_depth=410)
        np.testing.assert_array_equal(out, n)

        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(220)
            # The local machine recurses through Python and must blow up...
            with pytest.raises(RecursionError):
                _countdown.run_local(n)
            # ...while the PC machine at the same limit does not.
            out = _countdown.run_pc(n, max_stack_depth=410)
            np.testing.assert_array_equal(out, n)
        finally:
            sys.setrecursionlimit(limit)

    def test_stack_overflow_diagnosed(self):
        from repro.vm.stack import StackOverflowError

        n = np.array([50])
        with pytest.raises(StackOverflowError):
            _countdown.run_pc(n, max_stack_depth=10)
