"""Unit tests for renaming, call lowering and the lowering pipeline."""

import numpy as np
import pytest

from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.instructions import PopOp, PushJump, PushOp, Return, VarKind
from repro.ir.validate import validate_stack_program
from repro.lowering.pipeline import LoweringError, LoweringOptions, lower_program
from repro.lowering.rename import rename_function, rename_program
from repro.vm.program_counter import run_program_counter

from .programs import fib, gcd, is_even, loop_calling, poly


class TestRename:
    def test_variables_qualified(self):
        fn = rename_function(fib.ir)
        assert fn.params == ("fib.n",)
        assert all(v.startswith("fib.") for v in fn.variables())

    def test_labels_qualified(self):
        fn = rename_function(fib.ir)
        assert all(b.label.startswith("fib.") for b in fn.blocks)

    def test_function_names_preserved(self):
        program = rename_program(is_even.program)
        assert set(program.functions) == {"is_even", "is_odd"}
        for f in program.functions.values():
            for blk in f.blocks:
                for op in blk.ops:
                    if hasattr(op, "func"):
                        assert op.func in program.functions

    def test_rename_is_injective_across_functions(self):
        program = rename_program(is_even.program)
        seen = set()
        for f in program.functions.values():
            for v in f.variables():
                assert v not in seen or v.split(".")[0] == f.name
            seen |= set(f.variables())


class TestLowerCalls:
    def test_fib_block_count_and_structure(self):
        sp = fib.stack_program()
        validate_stack_program(sp)
        pushjumps = [
            b for b in sp.blocks if isinstance(b.terminator, PushJump)
        ]
        returns = [b for b in sp.blocks if isinstance(b.terminator, Return)]
        assert len(pushjumps) == 2  # two call sites
        assert len(returns) == 2    # base case + final return

    def test_pushjump_targets_entry(self):
        sp = fib.stack_program()
        entry = sp.function_entries["fib"]
        for b in sp.blocks:
            if isinstance(b.terminator, PushJump):
                assert b.terminator.jump_target == entry

    def test_recursive_formal_pushed_at_each_call(self):
        sp = fib.stack_program()
        pushes = [
            op
            for b in sp.blocks
            for op in b.ops
            if isinstance(op, PushOp) and op.output == "fib.n"
        ]
        assert len(pushes) == 2

    def test_non_recursive_call_emits_no_stack_ops(self):
        """Paper claim: non-recursive programs need no variable stacks."""

        # loop_calling -> fib is recursive, so use a truly call-free chain:
        b1 = FunctionBuilder("sq", params=("x",), outputs=("__ret0",))
        b1.block("entry").prim(("__ret0",), "mul", ("x", "x")).ret()
        b2 = FunctionBuilder("main2", params=("a",), outputs=("__ret0",))
        b2.block("entry").call(("t",), "sq", ("a",)).call(
            ("__ret0",), "sq", ("t",)
        ).ret()
        program = ProgramBuilder(main="main2").add(b2.build()).add(b1.build()).build()
        sp = lower_program(program)
        stack_ops = [
            op
            for blk in sp.blocks
            for op in blk.ops
            if isinstance(op, (PushOp, PopOp))
        ]
        assert stack_ops == []
        out = run_program_counter(sp, [np.array([2.0, 3.0])])
        np.testing.assert_array_equal(out, [16.0, 81.0])

    def test_swapped_actuals_are_staged(self):
        """fib(b, a) with formals (a, b) must not clobber before reading."""
        b = FunctionBuilder("swapper", params=("a", "b"), outputs=("__ret0",))
        entry, base, rec = b.blocks("entry", "base", "rec")
        entry.prim(("c",), "le", ("a", "b")).branch("c", base, rec)
        base.prim(("__ret0",), "sub", ("b", "a")).ret()
        rec.call(("__ret0",), "swapper", ("b", "a")).ret()
        program = ProgramBuilder().add(b.build()).build()
        sp = lower_program(program)
        out = run_program_counter(sp, [np.array([5, 1]), np.array([2, 9])])
        # swapper(5,2) -> swapper(2,5) -> 3 ; swapper(1,9) -> 8
        np.testing.assert_array_equal(out, [3, 8])

    def test_main_entry_is_block_zero(self):
        sp = loop_calling.stack_program()
        assert sp.function_entries["loop_calling"] == 0
        assert sp.block_sources[0] == "loop_calling"

    def test_inputs_outputs_renamed(self):
        sp = gcd.stack_program()
        assert sp.inputs == ("gcd.a", "gcd.b")
        assert sp.outputs == ("gcd.__ret0",)


class TestPipeline:
    def test_rejects_possibly_unassigned(self):
        b = FunctionBuilder("bad", params=("a",), outputs=("__ret0",))
        entry, left, join = b.blocks("entry", "left", "join")
        entry.prim(("c",), "gt", ("a", "a")).branch("c", left, join)
        left.prim(("y",), "id", ("a",)).jump(join)
        join.prim(("__ret0",), "id", ("y",)).ret()
        program = ProgramBuilder().add(b.build()).build()
        with pytest.raises(LoweringError, match="unassigned"):
            lower_program(program)

    def test_optimize_flag_variants(self):
        for optimize in (True, False, LoweringOptions(register_opt=False)):
            sp = lower_program(fib.program, optimize=optimize)
            validate_stack_program(sp)

    def test_var_kinds_cover_all_variables(self):
        sp = fib.stack_program()
        for v in sp.variables():
            assert v in sp.var_kinds, f"{v} missing a storage class"

    def test_unoptimized_has_no_temps(self):
        sp = lower_program(poly.program, optimize=False)
        assert all(k is not VarKind.TEMP for k in sp.var_kinds.values())

    def test_function_entries_recorded(self):
        sp = is_even.stack_program()
        assert set(sp.function_entries) == {"is_even", "is_odd"}

    def test_block_sources_align(self):
        sp = is_even.stack_program()
        assert len(sp.block_sources) == len(sp.blocks)
        assert set(sp.block_sources) == {"is_even", "is_odd"}
