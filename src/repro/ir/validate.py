"""Well-formedness checks for both IR dialects.

Validation catches structural errors early (dangling jump targets, calls to
unknown functions, stack ops in the callable dialect and vice versa) so the
virtual machines can assume well-formed input.
"""

from __future__ import annotations

from typing import Set

from repro.ir.instructions import (
    Branch,
    CallOp,
    ConstOp,
    Function,
    Jump,
    PopOp,
    PrimOp,
    Program,
    PushJump,
    PushOp,
    Return,
    StackProgram,
)


class IRValidationError(ValueError):
    """Raised when an IR object is structurally malformed."""


def _fail(msg: str) -> None:
    raise IRValidationError(msg)


def validate_function(fn: Function) -> None:
    """Check one callable-IR function for structural well-formedness."""
    if not fn.blocks:
        _fail(f"function {fn.name!r} has no blocks")
    if len(set(fn.params)) != len(fn.params):
        _fail(f"function {fn.name!r} has duplicate parameters {fn.params}")
    if not fn.outputs:
        _fail(f"function {fn.name!r} declares no outputs")
    labels: Set[str] = {b.label for b in fn.blocks}
    if len(labels) != len(fn.blocks):
        _fail(f"function {fn.name!r} has duplicate block labels")
    saw_return = False
    for blk in fn.blocks:
        for op in blk.ops:
            if isinstance(op, (PushOp, PopOp)):
                _fail(
                    f"{fn.name}/{blk.label}: stack operation {op} is not valid "
                    "in the callable dialect (Figure 2)"
                )
            elif isinstance(op, (PrimOp, CallOp)):
                if not op.outputs:
                    _fail(f"{fn.name}/{blk.label}: {op} has no outputs")
                if len(set(op.outputs)) != len(op.outputs):
                    _fail(f"{fn.name}/{blk.label}: {op} has duplicate outputs")
            elif isinstance(op, ConstOp):
                pass
            else:
                _fail(f"{fn.name}/{blk.label}: unknown operation {op!r}")
        term = blk.terminator
        if term is None:
            _fail(f"{fn.name}/{blk.label}: missing terminator")
        elif isinstance(term, (Jump, Branch)):
            for target in term.targets():
                if target not in labels:
                    _fail(f"{fn.name}/{blk.label}: jump target {target!r} undefined")
        elif isinstance(term, Return):
            saw_return = True
        elif isinstance(term, PushJump):
            _fail(
                f"{fn.name}/{blk.label}: PushJump is not valid in the callable "
                "dialect (Figure 2)"
            )
        else:
            _fail(f"{fn.name}/{blk.label}: unknown terminator {term!r}")
    if not saw_return:
        _fail(f"function {fn.name!r} has no Return block")


def validate_program(program: Program) -> None:
    """Check a whole callable-IR program, including call targets and arity."""
    if program.main not in program.functions:
        _fail(f"main function {program.main!r} is not defined")
    for fn in program.functions.values():
        validate_function(fn)
        for blk in fn.blocks:
            for op in blk.ops:
                if isinstance(op, CallOp):
                    callee = program.functions.get(op.func)
                    if callee is None:
                        _fail(
                            f"{fn.name}/{blk.label}: call to undefined function "
                            f"{op.func!r}"
                        )
                    if len(op.inputs) != len(callee.params):
                        _fail(
                            f"{fn.name}/{blk.label}: call to {op.func!r} passes "
                            f"{len(op.inputs)} arguments; it takes {len(callee.params)}"
                        )
                    if len(op.outputs) != len(callee.outputs):
                        _fail(
                            f"{fn.name}/{blk.label}: call to {op.func!r} binds "
                            f"{len(op.outputs)} results; it returns {len(callee.outputs)}"
                        )


def validate_stack_program(program: StackProgram) -> None:
    """Check a stack-dialect program: integer targets in range, no CallOps.

    The checks live in :mod:`repro.analysis.stackcheck.structural` — one
    shared implementation behind this raising entry point and the deeper
    abstract-interpretation verifier (``repro.analysis.stackcheck.verify``).
    This fixed the seed implementation's gaps: duplicate block labels and
    ``PushJump`` targets naming the exit index went undetected, and a block
    with a missing terminator raised before its remaining checks could be
    reported consistently.
    """
    # Imported lazily: repro.analysis pulls in its whole analysis suite,
    # which repro.ir must not require at import time.
    from repro.analysis.stackcheck.structural import structural_diagnostics

    diags = structural_diagnostics(program)
    if diags:
        first = diags[0]
        if first.block is not None:
            label = program.blocks[first.block].label
            _fail(f"block {first.block} ({label}): {first.message}")
        _fail(first.message)
