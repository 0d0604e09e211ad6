"""Ergonomic construction of callable-IR functions and programs.

Used by the Python AST frontend, by the lowering pipeline, and directly by
tests that need hand-built CFGs::

    b = FunctionBuilder("abs_diff", params=("x", "y"), outputs=("out",))
    entry, big, small, done = b.blocks("entry", "big", "small", "done")
    entry.prim(("c",), "gt", ("x", "y")).branch("c", big, small)
    big.prim(("out",), "sub", ("x", "y")).jump(done)
    small.prim(("out",), "sub", ("y", "x")).jump(done)
    done.ret()
    fn = b.build()
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.ir.instructions import (
    Block,
    Branch,
    CallOp,
    ConstOp,
    Function,
    Jump,
    PopOp,
    PrimOp,
    Program,
    PushOp,
    Return,
)


class BlockHandle:
    """Mutable view of one block under construction; methods chain."""

    def __init__(self, builder: "FunctionBuilder", block: Block):
        self._builder = builder
        self._block = block

    @property
    def label(self) -> str:
        return self._block.label

    # -- operations -------------------------------------------------------

    def const(self, output: str, value: Any) -> "BlockHandle":
        """Append ``output = const value``."""
        self._block.ops.append(ConstOp(output=output, value=value))
        return self

    def prim(self, outputs: Iterable[str], fn: str, inputs: Iterable[str]) -> "BlockHandle":
        """Append a primitive operation ``outputs = fn(inputs)``."""
        self._block.ops.append(PrimOp(outputs=tuple(outputs), fn=fn, inputs=tuple(inputs)))
        return self

    def call(self, outputs: Iterable[str], func: str, inputs: Iterable[str]) -> "BlockHandle":
        """Append a function call ``outputs = func(inputs)``."""
        self._block.ops.append(CallOp(outputs=tuple(outputs), func=func, inputs=tuple(inputs)))
        return self

    def push(self, output: str, fn: str, inputs: Iterable[str]) -> "BlockHandle":
        """Append ``push output = fn(inputs)`` (stack dialect)."""
        self._block.ops.append(PushOp(output=output, fn=fn, inputs=tuple(inputs)))
        return self

    def push_dup(self, var: str) -> "BlockHandle":
        """Duplicate the top of ``var``'s stack (caller-saves save)."""
        self._block.ops.append(PushOp(output=var, fn="id", inputs=(var,)))
        return self

    def pop(self, var: str) -> "BlockHandle":
        """Append ``pop var`` (stack dialect)."""
        self._block.ops.append(PopOp(var=var))
        return self

    def op(self, operation: Any) -> "BlockHandle":
        """Append an already-constructed operation object."""
        self._block.ops.append(operation)
        return self

    # -- terminators --------------------------------------------------------

    def _terminate(self, terminator: Any) -> "BlockHandle":
        if self._block.terminator is not None:
            raise ValueError(f"block {self._block.label!r} already terminated")
        self._block.terminator = terminator
        return self

    @staticmethod
    def _target(t: Any) -> Any:
        return t.label if isinstance(t, BlockHandle) else t

    def jump(self, target: Any) -> "BlockHandle":
        """Terminate with an unconditional jump."""
        return self._terminate(Jump(target=self._target(target)))

    def branch(self, cond: str, true_target: Any, false_target: Any) -> "BlockHandle":
        """Terminate with a two-way conditional branch on ``cond``."""
        return self._terminate(
            Branch(
                cond=cond,
                true_target=self._target(true_target),
                false_target=self._target(false_target),
            )
        )

    def ret(self) -> "BlockHandle":
        """Terminate with a return."""
        return self._terminate(Return())


class FunctionBuilder:
    """Builds one callable-IR :class:`Function` block by block.

    The first block created is the entry block.
    """

    def __init__(
        self,
        name: str,
        params: Tuple[str, ...] = (),
        outputs: Tuple[str, ...] = (),
    ):
        self.name = name
        self.params = tuple(params)
        self.outputs = tuple(outputs)
        self._blocks: list[Block] = []
        self._labels: set[str] = set()
        self._counter = 0

    def fresh_label(self, hint: str = "block") -> str:
        """A label guaranteed not to collide with existing blocks."""
        while True:
            label = f"{hint}_{self._counter}"
            self._counter += 1
            if label not in self._labels:
                return label

    def block(self, label: Optional[str] = None) -> BlockHandle:
        if label is None:
            label = self.fresh_label()
        if label in self._labels:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        self._labels.add(label)
        blk = Block(label=label)
        self._blocks.append(blk)
        return BlockHandle(self, blk)

    def blocks(self, *labels: str) -> Tuple[BlockHandle, ...]:
        """Create several labelled blocks at once."""
        return tuple(self.block(lbl) for lbl in labels)

    def build(self) -> Function:
        for blk in self._blocks:
            if blk.terminator is None:
                raise ValueError(
                    f"block {blk.label!r} of {self.name!r} has no terminator"
                )
        return Function(
            name=self.name,
            params=self.params,
            outputs=self.outputs,
            blocks=list(self._blocks),
        )


class ProgramBuilder:
    """Collects functions into a callable-IR :class:`Program`."""

    def __init__(self, main: Optional[str] = None):
        self._functions: Dict[str, Function] = {}
        self._main = main

    def add(self, function: Function) -> "ProgramBuilder":
        """Add a finished function to the program under construction."""
        if function.name in self._functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self._functions[function.name] = function
        if self._main is None:
            self._main = function.name
        return self

    def build(self) -> Program:
        if self._main is None:
            raise ValueError("empty program")
        if self._main not in self._functions:
            raise ValueError(f"main function {self._main!r} not defined")
        return Program(functions=dict(self._functions), main=self._main)
