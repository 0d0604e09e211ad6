"""The whole callable-IR -> stack-IR compilation pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.analysis.liveness import definitely_assigned_check
from repro.analysis.storage import assign_storage
from repro.ir.instructions import (
    Block,
    Branch,
    Jump,
    Program,
    PushJump,
    Return,
    StackProgram,
    VarKind,
)
from repro.ir.validate import validate_program, validate_stack_program
from repro.lowering.lower_calls import lower_calls
from repro.lowering.rename import rename_program


class LoweringError(ValueError):
    """Raised when a program cannot be lowered to the stack dialect."""


@dataclass(frozen=True)
class LoweringOptions:
    """Per-optimization toggles (paper Section 3), for the ablation benches.

    Optimization 1 (per-variable caller-saves stacks) is structural and
    always on; optimization 4 (top-of-stack caching) was measured and
    dropped (see :mod:`repro.vm.stack`), and so was optimization 5
    (``Pop v; Push v = f(x)`` rewritten in place): fused blocks address
    stacked variables at static frame offsets, so such a pair already
    compiles to one ``put`` (see :mod:`repro.backend.fusion`).
    """

    temp_opt: bool = True       # optimization 2: block-local temporaries
    register_opt: bool = True   # optimization 3: stack-free variables

    @classmethod
    def none(cls) -> "LoweringOptions":
        """All optimizations disabled (the ablation baseline)."""
        return cls(temp_opt=False, register_opt=False)


def normalize_lowering_options(
    optimize: Union[bool, LoweringOptions]
) -> LoweringOptions:
    """Coerce the public ``optimize`` argument to a :class:`LoweringOptions`.

    ``True``/``False`` keep their historical meaning (all optimizations
    on/off); a :class:`LoweringOptions` instance passes through, so ablation
    benches can toggle individual optimizations via the public API.
    """
    if isinstance(optimize, LoweringOptions):
        return optimize
    return LoweringOptions() if optimize else LoweringOptions.none()


def lower_program(
    program: Program,
    optimize: Union[bool, LoweringOptions] = True,
) -> StackProgram:
    """Compile a callable-IR program to a flat stack-dialect program."""
    opts = normalize_lowering_options(optimize)

    validate_program(program)
    problems: List[str] = []
    for fn in program.functions.values():
        problems += definitely_assigned_check(fn)
    if problems:
        raise LoweringError(
            "program has possibly-unassigned variable uses:\n  "
            + "\n  ".join(problems)
        )

    renamed = rename_program(program)
    storage = assign_storage(
        renamed, temp_opt=opts.temp_opt, register_opt=opts.register_opt
    )
    lowered = lower_calls(renamed, storage)

    # Merge: main's blocks first (entry must be block 0), then callees in
    # program order.
    ordered_fns = [renamed.main] + [
        name for name in renamed.functions if name != renamed.main
    ]
    blocks: List[Block] = []
    block_sources: List[str] = []
    for name in ordered_fns:
        for blk in lowered.blocks_by_fn[name]:
            blocks.append(blk)
            block_sources.append(name)

    index: Dict[str, int] = {}
    for i, blk in enumerate(blocks):
        if blk.label in index:
            raise LoweringError(f"duplicate block label after merge: {blk.label!r}")
        index[blk.label] = i

    def resolve(label: str) -> int:
        try:
            return index[label]
        except KeyError:
            raise LoweringError(f"unresolved block label {label!r}")

    for blk in blocks:
        term = blk.terminator
        if isinstance(term, Jump):
            blk.terminator = Jump(target=resolve(term.target))
        elif isinstance(term, Branch):
            blk.terminator = Branch(
                cond=term.cond,
                true_target=resolve(term.true_target),
                false_target=resolve(term.false_target),
            )
        elif isinstance(term, PushJump):
            blk.terminator = PushJump(
                return_target=resolve(term.return_target),
                jump_target=resolve(term.jump_target),
            )
        elif isinstance(term, Return):
            pass
        else:
            raise LoweringError(f"unexpected terminator {term!r}")

    var_kinds: Dict[str, VarKind] = dict(storage.kinds)
    var_kinds.update(lowered.extra_kinds)

    main_fn = renamed.main_function
    stack_program = StackProgram(
        blocks=blocks,
        inputs=main_fn.params,
        outputs=main_fn.outputs,
        var_kinds=var_kinds,
        function_entries={
            name: index[lowered.entry_labels[name]] for name in ordered_fns
        },
        block_sources=block_sources,
    )
    validate_stack_program(stack_program)
    return stack_program
