"""Unit tests for the IR data model, builder, validators, and printers."""

import pytest

from repro.ir import (
    Branch,
    FunctionBuilder,
    IRValidationError,
    Jump,
    ProgramBuilder,
    PushJump,
    Return,
    TensorType,
    VarKind,
    format_function,
    format_program,
    format_stack_program,
    scalar,
    validate_function,
    validate_program,
    validate_stack_program,
    vector,
)
from repro.ir.instructions import Block, CallOp, ConstOp, PopOp, PrimOp, PushOp, StackProgram


def build_abs_diff():
    b = FunctionBuilder("abs_diff", params=("x", "y"), outputs=("out",))
    entry, big, small, done = b.blocks("entry", "big", "small", "done")
    entry.prim(("c",), "gt", ("x", "y")).branch("c", big, small)
    big.prim(("out",), "sub", ("x", "y")).jump(done)
    small.prim(("out",), "sub", ("y", "x")).jump(done)
    done.ret()
    return b.build()


class TestTensorType:
    def test_scalar_helper(self):
        t = scalar("float32")
        assert t.dtype == "float32"
        assert t.event_shape == ()

    def test_vector_helper(self):
        t = vector(5)
        assert t.event_shape == (5,)
        assert t.batched_shape(3) == (3, 5)

    def test_dtype_normalization(self):
        assert TensorType("float").dtype == TensorType("float64").dtype

    def test_str(self):
        assert str(scalar()) == "float64"
        assert str(vector(3, "int64")) == "int64[3]"


class TestBuilder:
    def test_builds_valid_function(self):
        fn = build_abs_diff()
        validate_function(fn)
        assert fn.params == ("x", "y")
        assert [b.label for b in fn.blocks] == ["entry", "big", "small", "done"]

    def test_entry_is_first_block(self):
        fn = build_abs_diff()
        assert fn.entry.label == "entry"
        assert fn.block_index("small") == 2

    def test_duplicate_label_rejected(self):
        b = FunctionBuilder("f", params=("x",), outputs=("y",))
        b.block("entry")
        with pytest.raises(ValueError, match="duplicate"):
            b.block("entry")

    def test_double_terminate_rejected(self):
        b = FunctionBuilder("f", params=("x",), outputs=("y",))
        blk = b.block("entry").ret()
        with pytest.raises(ValueError, match="already terminated"):
            blk.ret()

    def test_unterminated_block_rejected(self):
        b = FunctionBuilder("f", params=("x",), outputs=("y",))
        b.block("entry")
        with pytest.raises(ValueError, match="no terminator"):
            b.build()

    def test_fresh_labels_unique(self):
        b = FunctionBuilder("f")
        labels = {b.fresh_label() for _ in range(10)}
        assert len(labels) == 10

    def test_variables_enumeration(self):
        fn = build_abs_diff()
        assert set(fn.variables()) == {"x", "y", "c", "out"}

    def test_block_handle_targets(self):
        b = FunctionBuilder("f", params=("x",), outputs=("y",))
        entry = b.block("entry")
        done = b.block("done")
        entry.jump(done)  # by handle, not label
        done.prim(("y",), "id", ("x",)).ret()
        fn = b.build()
        assert fn.block("entry").terminator == Jump(target="done")


class TestValidation:
    def test_missing_return_rejected(self):
        b = FunctionBuilder("f", params=("x",), outputs=("y",))
        e = b.block("entry")
        e.jump(e)
        with pytest.raises(IRValidationError, match="no Return"):
            validate_function(b.build())

    def test_dangling_target_rejected(self):
        fn = build_abs_diff()
        fn.blocks[0].terminator = Branch(cond="c", true_target="nowhere", false_target="small")
        with pytest.raises(IRValidationError, match="undefined"):
            validate_function(fn)

    def test_stack_ops_rejected_in_callable_dialect(self):
        b = FunctionBuilder("f", params=("x",), outputs=("y",))
        b.block("entry").push("x", "id", ("x",)).ret()
        with pytest.raises(IRValidationError, match="stack operation"):
            validate_function(b.build())

    def test_pushjump_rejected_in_callable_dialect(self):
        fn = build_abs_diff()
        fn.blocks[1].terminator = PushJump(return_target="done", jump_target="done")
        with pytest.raises(IRValidationError, match="PushJump"):
            validate_function(fn)

    def test_call_arity_checked(self):
        callee = build_abs_diff()
        b = FunctionBuilder("main", params=("a",), outputs=("r",))
        b.block("entry").call(("r",), "abs_diff", ("a",)).ret()
        program = ProgramBuilder().add(b.build()).add(callee).build()
        with pytest.raises(IRValidationError, match="arguments"):
            validate_program(program)

    def test_call_to_unknown_function(self):
        b = FunctionBuilder("main", params=("a",), outputs=("r",))
        b.block("entry").call(("r",), "ghost", ("a",)).ret()
        program = ProgramBuilder().add(b.build()).build()
        with pytest.raises(IRValidationError, match="undefined function"):
            validate_program(program)

    def test_stack_program_rejects_callop(self):
        blk = Block(
            label="b0", ops=[CallOp(outputs=("y",), func="f", inputs=("x",))],
            terminator=Return(),
        )
        sp = StackProgram(blocks=[blk], inputs=("x",), outputs=("y",))
        with pytest.raises(IRValidationError, match="CallOp"):
            validate_stack_program(sp)

    def test_stack_program_rejects_out_of_range_target(self):
        blk = Block(label="b0", ops=[], terminator=Jump(target=7))
        sp = StackProgram(blocks=[blk], inputs=("x",), outputs=("y",))
        with pytest.raises(IRValidationError, match="out of range"):
            validate_stack_program(sp)

    def test_stack_program_rejects_unresolved_label(self):
        blk = Block(label="b0", ops=[], terminator=Jump(target="b0"))
        sp = StackProgram(blocks=[blk], inputs=("x",), outputs=("y",))
        with pytest.raises(IRValidationError, match="unresolved"):
            validate_stack_program(sp)

    def test_stack_program_rejects_direct_exit_jump(self):
        blk = Block(label="b0", ops=[], terminator=Jump(target=1))
        sp = StackProgram(blocks=[blk], inputs=("x",), outputs=("y",))
        with pytest.raises(IRValidationError, match="exit index"):
            validate_stack_program(sp)


class TestPretty:
    def test_function_format_mentions_everything(self):
        text = format_function(build_abs_diff())
        for fragment in ("abs_diff", "entry", "branch c", "sub", "return"):
            assert fragment in text

    def test_program_format(self):
        program = ProgramBuilder().add(build_abs_diff()).build()
        assert "main = abs_diff" in format_program(program)

    def test_stack_program_format(self):
        ops = [
            PushOp(output="v", fn="id", inputs=("v",)),
            PopOp(var="v"),
            PrimOp(outputs=("y",), fn="id", inputs=("v",)),
            ConstOp(output="c", value=3),
        ]
        blk = Block(label="b0", ops=ops, terminator=Return())
        sp = StackProgram(
            blocks=[blk],
            inputs=("v",),
            outputs=("y",),
            var_kinds={"v": VarKind.STACKED, "y": VarKind.REGISTER, "c": VarKind.TEMP},
            function_entries={"main": 0},
        )
        text = format_stack_program(sp)
        assert "push v" in text
        assert "pop v" in text
        assert "v:s" in text and "y:r" in text and "c:t" in text
        assert "---- main ----" in text

    def test_op_strs(self):
        assert "call f" in str(CallOp(outputs=("y",), func="f", inputs=("x",)))
        assert str(PopOp(var="v")) == "pop v"
        assert "const" in str(ConstOp(output="c", value=1))
        assert "pushjump" in str(PushJump(return_target=1, jump_target=2))
