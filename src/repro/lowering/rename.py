"""Alpha-renaming: give every function a disjoint variable and label namespace.

After renaming, variable ``n`` of function ``fib`` is ``fib.n`` and block
``entry`` is ``fib.entry``.  The merged stack program can then keep all
variables in one flat environment, and the storage analyses can reason about
cross-function clobbering purely by name.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.instructions import (
    Block,
    Branch,
    CallOp,
    ConstOp,
    Function,
    Jump,
    PrimOp,
    Program,
    Return,
)


def qualified(fn_name: str, name: str) -> str:
    """The alpha-renamed form ``fn.var`` of a local variable."""
    return f"{fn_name}.{name}"


def rename_function(fn: Function) -> Function:
    """Qualify every local of one function with its function name."""
    def rv(v: str) -> str:
        return qualified(fn.name, v)

    def rl(label: str) -> str:
        return qualified(fn.name, label)

    blocks = []
    for blk in fn.blocks:
        ops = []
        for op in blk.ops:
            if isinstance(op, ConstOp):
                ops.append(ConstOp(output=rv(op.output), value=op.value))
            elif isinstance(op, PrimOp):
                ops.append(
                    PrimOp(
                        outputs=tuple(rv(v) for v in op.outputs),
                        fn=op.fn,
                        inputs=tuple(rv(v) for v in op.inputs),
                    )
                )
            elif isinstance(op, CallOp):
                ops.append(
                    CallOp(
                        outputs=tuple(rv(v) for v in op.outputs),
                        func=op.func,  # function names are already global
                        inputs=tuple(rv(v) for v in op.inputs),
                    )
                )
            else:
                raise TypeError(f"unexpected op in callable IR: {op!r}")
        term = blk.terminator
        if isinstance(term, Jump):
            term = Jump(target=rl(term.target))
        elif isinstance(term, Branch):
            term = Branch(
                cond=rv(term.cond),
                true_target=rl(term.true_target),
                false_target=rl(term.false_target),
            )
        elif isinstance(term, Return):
            pass
        else:
            raise TypeError(f"unexpected terminator in callable IR: {term!r}")
        blocks.append(Block(label=rl(blk.label), ops=ops, terminator=term))

    return Function(
        name=fn.name,
        params=tuple(rv(p) for p in fn.params),
        outputs=tuple(rv(o) for o in fn.outputs),
        blocks=blocks,
    )


def rename_program(program: Program) -> Program:
    """Alpha-rename all functions so the merged program has no clashes."""
    functions: Dict[str, Function] = {
        name: rename_function(fn) for name, fn in program.functions.items()
    }
    return Program(functions=functions, main=program.main)
