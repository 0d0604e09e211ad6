"""Instruction set of the two autobatching IR dialects.

Callable IR (paper Figure 2)::

    Program    P ::= [F]
    Function   F ::= input [x], body [B], output [y]
    Block      B ::= [op], t
    Operation op ::= Primitive [y] = f([x])   (PrimOp / ConstOp)
                   | Call      [y] = F([x])   (CallOp)
    Terminator t ::= Jump i | Branch x i j | Return

Stack IR (paper Figure 4)::

    Program    P ::= input [x], code [B], output [y]
    Block      B ::= [op], t
    Operation op ::= Push y = f([x]) | Pop x
                   | Update [y] = f([x])      (PrimOp in this dialect)
    Terminator t ::= Jump i | Branch x i j | PushJump i j | Return

The in-place ``Update`` the paper introduces for optimization 5 is what a
:class:`PrimOp` *means* in the stack dialect: write the top of each output
variable under the active mask.  :class:`PushOp` additionally advances the
stack pointer.  The optimization itself (rewriting ``Pop v; Push v = f(x)``
into an ``Update``) is not a pass here: fused blocks address stacked
variables at static frame offsets, so such a pair is already one write.  Targets are block labels (strings) in builder-produced
functions and are resolved to dense indices when a :class:`StackProgram` is
assembled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstOp:
    """Bind a literal constant: ``output = value`` (broadcast over the batch)."""

    output: str
    value: Any

    @property
    def outputs(self) -> Tuple[str, ...]:
        return (self.output,)

    @property
    def inputs(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return f"{self.output} = const {self.value!r}"


@dataclass(frozen=True)
class PrimOp:
    """Apply a batched primitive: ``outputs = fn(inputs)``.

    In the callable dialect this assigns fresh values; in the stack dialect it
    is an in-place *Update* of each output's stack top (under the mask of
    locally active batch members).
    """

    outputs: Tuple[str, ...]
    fn: str
    inputs: Tuple[str, ...]

    def __str__(self) -> str:
        outs = ", ".join(self.outputs)
        ins = ", ".join(self.inputs)
        return f"{outs} = {self.fn}({ins})"


@dataclass(frozen=True)
class CallOp:
    """Call another autobatched function (callable dialect only).

    Under local static autobatching (Algorithm 1) this recurses through the
    host Python; the lowering pipeline compiles it away into explicit stack
    manipulation for the program-counter machine.
    """

    outputs: Tuple[str, ...]
    func: str
    inputs: Tuple[str, ...]

    @property
    def fn(self) -> str:  # uniform access with PrimOp
        return self.func

    def __str__(self) -> str:
        outs = ", ".join(self.outputs)
        ins = ", ".join(self.inputs)
        return f"{outs} = call {self.func}({ins})"


@dataclass(frozen=True)
class PushOp:
    """Push ``fn(inputs)`` onto ``output``'s stack (stack dialect only).

    The caller-saves lowering only ever emits *push-dups*
    (``Push v = id(v)``), but the general form matches the paper's
    ``Push y = f(x)``.
    """

    output: str
    fn: str
    inputs: Tuple[str, ...]

    @property
    def outputs(self) -> Tuple[str, ...]:
        return (self.output,)

    def __str__(self) -> str:
        ins = ", ".join(self.inputs)
        return f"push {self.output} = {self.fn}({ins})"


@dataclass(frozen=True)
class PopOp:
    """Pop ``var``'s stack (stack dialect only)."""

    var: str

    @property
    def outputs(self) -> Tuple[str, ...]:
        return (self.var,)

    @property
    def inputs(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return f"pop {self.var}"


Operation = Any  # ConstOp | PrimOp | CallOp | PushOp | PopOp

# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jump:
    """Unconditional jump to a block."""

    target: Any  # str label (callable IR) or int index (stack IR)

    def targets(self) -> Tuple[Any, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class Branch:
    """Per-member conditional jump on a boolean scalar variable."""

    cond: str
    true_target: Any
    false_target: Any

    def targets(self) -> Tuple[Any, ...]:
        return (self.true_target, self.false_target)

    def __str__(self) -> str:
        return f"branch {self.cond} ? {self.true_target} : {self.false_target}"


@dataclass(frozen=True)
class PushJump:
    """Push a return address and jump into a function body (stack dialect).

    ``PushJump i j``: push ``i`` (the return target) onto the program-counter
    stack and set the top program counter to ``j`` (the callee entry).
    """

    return_target: Any
    jump_target: Any

    def targets(self) -> Tuple[Any, ...]:
        return (self.return_target, self.jump_target)

    def __str__(self) -> str:
        return f"pushjump ret={self.return_target} goto={self.jump_target}"


@dataclass(frozen=True)
class Return:
    """Exit the current function.

    Callable dialect: control returns to the calling ``CallOp`` (Algorithm 1
    inherits this from the host Python).  Stack dialect: pop the
    program-counter stack; the machine halts when the popped counter is the
    exit index ``I`` (one past the last block).
    """

    def targets(self) -> Tuple[Any, ...]:
        return ()

    def __str__(self) -> str:
        return "return"


Terminator = Any  # Jump | Branch | PushJump | Return

# ---------------------------------------------------------------------------
# Blocks / functions / programs
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """A basic block: a straight-line operation list plus one terminator."""

    label: str
    ops: List[Operation] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines += [f"  {op}" for op in self.ops]
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)


@dataclass
class Function:
    """A callable-IR function: parameters, a CFG, and named output variables.

    ``Return`` terminators carry no operands; the function's results are the
    current values of ``outputs`` at return time (the frontend emits
    assignments to these variables ahead of every ``Return``), matching the
    paper's ``output y`` convention.
    """

    name: str
    params: Tuple[str, ...]
    outputs: Tuple[str, ...]
    blocks: List[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the label -> block index map after structural edits."""
        self._index = {b.label: i for i, b in enumerate(self.blocks)}
        if len(self._index) != len(self.blocks):
            seen: Dict[str, int] = {}
            for b in self.blocks:
                seen[b.label] = seen.get(b.label, 0) + 1
            dups = [lbl for lbl, n in seen.items() if n > 1]
            raise ValueError(f"duplicate block labels in {self.name}: {dups}")

    @property
    def entry(self) -> Block:
        """The entry block (always index 0)."""
        return self.blocks[0]

    def block_index(self, label: str) -> int:
        """Index of the block labelled ``label``."""
        return self._index[label]

    def block(self, label: str) -> Block:
        """The block labelled ``label``."""
        return self.blocks[self._index[label]]

    def variables(self) -> Tuple[str, ...]:
        """All variable names mentioned anywhere in the function."""
        seen: Dict[str, None] = {}
        for p in self.params:
            seen.setdefault(p)
        for b in self.blocks:
            for op in b.ops:
                for v in getattr(op, "inputs", ()):  # type: ignore[attr-defined]
                    seen.setdefault(v)
                for v in getattr(op, "outputs", ()):  # type: ignore[attr-defined]
                    seen.setdefault(v)
            term = b.terminator
            if isinstance(term, Branch):
                seen.setdefault(term.cond)
        for o in self.outputs:
            seen.setdefault(o)
        return tuple(seen)


@dataclass
class Program:
    """A whole callable-IR program: a set of functions plus an entry point."""

    functions: Dict[str, Function]
    main: str

    @property
    def main_function(self) -> Function:
        """The program's entry function object."""
        return self.functions[self.main]

    def __iter__(self):
        return iter(self.functions.values())


# ---------------------------------------------------------------------------
# Stack programs
# ---------------------------------------------------------------------------


class VarKind(enum.Enum):
    """Storage class assigned to each variable by the analyses of Section 3.

    TEMP     — not live across any block boundary; exists only inside a basic
               block execution and bypasses the batching machinery entirely
               (paper optimization 2).
    REGISTER — live across blocks but never across a function call that could
               reuse it at a different stack depth; stored as a flat (Z, ...)
               array updated under a mask, with no stack (optimization 3).
    STACKED  — needs a full (D, Z, ...) stack plus stack pointers.
    """

    TEMP = "temp"
    REGISTER = "register"
    STACKED = "stacked"


@dataclass
class StackProgram:
    """A flat, merged program in the stack dialect (paper Figure 4).

    Block terminator targets are dense integer indices into ``blocks``; the
    *exit index* is ``len(blocks)``.  The program-counter stack of every
    batch member is initialized with the exit index at the bottom, so the
    main function's ``Return`` halts that member.
    """

    blocks: List[Block]
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    var_kinds: Dict[str, VarKind] = field(default_factory=dict)
    # label -> index of each function's entry block, for diagnostics.
    function_entries: Dict[str, int] = field(default_factory=dict)
    # Name of the source function each block was lowered from.
    block_sources: List[str] = field(default_factory=list)

    @property
    def exit_index(self) -> int:
        """The pc value meaning 'this member has halted'."""
        return len(self.blocks)

    def kind(self, var: str) -> VarKind:
        """Storage class of variable ``name`` (TEMP/REGISTER/STACKED)."""
        return self.var_kinds.get(var, VarKind.STACKED)

    def variables(self) -> Tuple[str, ...]:
        """Every non-temporary variable name."""
        seen: Dict[str, None] = {}
        for v in self.inputs:
            seen.setdefault(v)
        for b in self.blocks:
            for op in b.ops:
                for v in getattr(op, "inputs", ()):  # type: ignore[attr-defined]
                    seen.setdefault(v)
                for v in getattr(op, "outputs", ()):  # type: ignore[attr-defined]
                    seen.setdefault(v)
            if isinstance(b.terminator, Branch):
                seen.setdefault(b.terminator.cond)
        for v in self.outputs:
            seen.setdefault(v)
        return tuple(seen)
