"""Local static autobatching — the paper's Algorithm 1.

A nonstandard, masked interpretation of the callable IR.  The interpreter
keeps, per function activation, batched storage for every variable, an
active-set mask, and a vector program counter; at each step it picks a basic
block some active member is waiting at (earliest in program order by
default), executes it for the whole batch, and commits results only for the
locally active members.

``CallOp`` recurses through the host Python, exactly as in Figure 1: logical
threads with different call stacks live in different Python-level
interpreter frames and therefore cannot batch together — the limitation
program-counter autobatching removes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.ir.instructions import (
    Branch,
    CallOp,
    ConstOp,
    Function,
    Jump,
    PrimOp,
    Program,
    Return,
)
from repro.ir.validate import validate_program
from repro.vm.instrumentation import Instrumentation, elements_per_lane
from repro.vm.scheduler import make_scheduler
from repro.vm.state import RegisterStorage


class ExecutionLimitExceeded(RuntimeError):
    """The step budget ran out (non-termination or block starvation)."""


def batch_arrays(inputs: Sequence[Any]) -> List[np.ndarray]:
    """The inputs as arrays; rejects an empty input list and an empty batch."""
    arrays = [np.asarray(x) for x in inputs]
    if not arrays:
        raise ValueError("at least one input is required")
    for i, a in enumerate(arrays):
        if a.shape[0] == 0:
            raise ValueError(
                f"input {i} has an empty batch (shape {a.shape}); "
                "at least one batch member is required"
            )
    return arrays


def _const_array(value: Any, batch_size: int) -> np.ndarray:
    if isinstance(value, bool):
        return np.full(batch_size, value, dtype=bool)
    if isinstance(value, int):
        return np.full(batch_size, value, dtype=np.int64)
    return np.full(batch_size, value, dtype=np.float64)


class _PreparedFunction:
    """A function with block targets resolved to indices, ready to run."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.n_blocks = len(fn.blocks)
        self.blocks = fn.blocks
        self.targets: List[Any] = []
        for blk in fn.blocks:
            term = blk.terminator
            if isinstance(term, Jump):
                self.targets.append(("jump", fn.block_index(term.target)))
            elif isinstance(term, Branch):
                self.targets.append(
                    (
                        "branch",
                        term.cond,
                        fn.block_index(term.true_target),
                        fn.block_index(term.false_target),
                    )
                )
            elif isinstance(term, Return):
                self.targets.append(("return",))
            else:
                raise TypeError(f"unexpected terminator {term!r}")


class LocalStaticInterpreter:
    """Algorithm 1, with masking or gather-scatter primitive application."""

    def __init__(
        self,
        program: Program,
        registry: Optional[PrimitiveRegistry] = None,
        mode: str = "mask",
        scheduler: Any = "earliest",
        instrumentation: Optional[Instrumentation] = None,
        max_steps: int = 10 ** 9,
        on_step: Optional[Any] = None,
        fuse_blocks: bool = False,
    ):
        validate_program(program)
        if mode not in ("mask", "gather"):
            raise ValueError(f"mode must be 'mask' or 'gather', got {mode!r}")
        if fuse_blocks and mode != "mask":
            raise ValueError(
                "block fusion requires masking mode (gather-scatter has "
                "statically indeterminate intermediate shapes)"
            )
        self.program = program
        self.registry = registry or default_registry
        self.mode = mode
        self.scheduler_spec = scheduler
        self.instr = instrumentation or Instrumentation()
        self.max_steps = max_steps
        #: Optional ``on_step(interp, block_index, mask)`` callback, fired
        #: before each block execution.  Together with :attr:`frames` this
        #: lets tooling snapshot the Python-stack runtime state of Figure 1.
        self.on_step = on_step
        #: Live activation stack: (fn_name, env, pc, active) per Python frame.
        self.frames: List[Dict[str, Any]] = []
        #: Hybrid strategy (paper Section 4): interpret control, run each
        #: block's straight-line primitive runs as one fused dispatch.
        self.fuse_blocks = fuse_blocks
        self._fused_plans: Dict[str, List[List[Any]]] = {}
        self._fused_batch_size: Optional[int] = None
        self._prepared: Dict[str, _PreparedFunction] = {
            name: _PreparedFunction(fn) for name, fn in program.functions.items()
        }
        self._steps_used = 0

    # -- public API -----------------------------------------------------------

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run the whole batch through the main function (Algorithm 1)."""
        arrays = batch_arrays(inputs)
        batch_size = arrays[0].shape[0]
        for a in arrays:
            if a.shape[0] != batch_size:
                raise ValueError("all inputs must share the leading batch dimension")
        self.instr.batch_size = batch_size
        active = np.ones(batch_size, dtype=bool)
        return self.call(self.program.main, arrays, active)

    # -- Algorithm 1 ------------------------------------------------------------

    def call(
        self,
        fn_name: str,
        args: Sequence[np.ndarray],
        active: np.ndarray,
    ) -> List[np.ndarray]:
        prepared = self._prepared[fn_name]
        fn = prepared.fn
        batch_size = active.shape[0]
        exit_index = prepared.n_blocks
        env: Dict[str, RegisterStorage] = {}

        def storage(name: str) -> RegisterStorage:
            st = env.get(name)
            if st is None:
                st = env[name] = RegisterStorage(name, batch_size)
            return st

        for param, arg in zip(fn.params, args):
            storage(param).write(active, np.asarray(arg))

        pc = np.zeros(batch_size, dtype=np.int64)
        scheduler = make_scheduler(self.scheduler_spec)
        inactive = ~active
        frame = {"fn": fn_name, "env": env, "pc": pc, "active": active}
        self.frames.append(frame)

        try:
            while True:
                pc_view = np.where(inactive, exit_index, pc)
                i = scheduler.select(pc_view, exit_index)
                if i is None:
                    break
                self._steps_used += 1
                if self._steps_used > self.max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded max_steps={self.max_steps} in {fn_name!r}"
                    )
                self.instr.record_step()
                mask = pc_view == i
                idx = np.flatnonzero(mask)
                block = prepared.blocks[i]
                if self.on_step is not None:
                    self.on_step(self, i, mask)

                if self.fuse_blocks:
                    for segment in self._plans_for(fn_name, batch_size)[i]:
                        if isinstance(segment, CallOp):
                            args = [
                                np.asarray(storage(v).read())
                                for v in segment.inputs
                            ]
                            results = self.call(segment.func, args, mask.copy())
                            for name, value in zip(segment.outputs, results):
                                storage(name).write(mask, np.asarray(value))
                        else:
                            segment(storage, mask)
                else:
                    for op in block.ops:
                        self._execute_op(op, env, storage, mask, idx, batch_size)

                target = prepared.targets[i]
                if target[0] == "jump":
                    pc[mask] = target[1]
                elif target[0] == "branch":
                    _, cond_var, t_true, t_false = target
                    if self.mode == "mask":
                        cond = np.asarray(storage(cond_var).read(), dtype=bool)
                        pc[mask] = np.where(cond, t_true, t_false)[mask]
                    else:
                        cond = np.asarray(storage(cond_var).read_at(idx), dtype=bool)
                        pc[idx] = np.where(cond, t_true, t_false)
                else:  # return
                    pc[mask] = exit_index
        finally:
            self.frames.pop()

        return [storage(o).read() for o in fn.outputs]

    def _plans_for(self, fn_name: str, batch_size: int) -> List[List[Any]]:
        """Lazily compiled fused-segment plans, per function."""
        if self._fused_batch_size is None:
            self._fused_batch_size = batch_size
        elif self._fused_batch_size != batch_size:  # pragma: no cover - guard
            raise ValueError("batch size changed between activations")
        plans = self._fused_plans.get(fn_name)
        if plans is None:
            from repro.backend.local_fusion import compile_local_executors

            plans = compile_local_executors(
                self.program.functions[fn_name], self.registry, batch_size
            )
            self._fused_plans[fn_name] = plans
        return plans

    # -- operations -------------------------------------------------------------

    def _execute_op(self, op, env, storage, mask, idx, batch_size) -> None:
        if isinstance(op, ConstOp):
            if self.mode == "mask":
                storage(op.output).write(mask, _const_array(op.value, batch_size))
            else:
                storage(op.output).write_at(idx, _const_array(op.value, idx.size))
            return

        if isinstance(op, PrimOp):
            prim = self.registry.get(op.fn)
            if self.mode == "mask":
                args = [storage(v).read() for v in op.inputs]
                with np.errstate(all="ignore"):
                    out = prim.fn(*args)
                outs = out if prim.n_outputs > 1 else (out,)
                for name, value in zip(op.outputs, outs):
                    storage(name).write(mask, np.asarray(value))
                self.instr.record_prim(
                    prim.name,
                    prim.tags,
                    active=int(idx.size),
                    slots=batch_size,
                    elements=elements_per_lane(outs[0]),
                    weight=prim.cost_weight,
                )
            else:
                args = [storage(v).read_at(idx) for v in op.inputs]
                out = prim.fn(*args)
                outs = out if prim.n_outputs > 1 else (out,)
                for name, value in zip(op.outputs, outs):
                    storage(name).write_at(idx, np.asarray(value))
                self.instr.record_prim(
                    prim.name,
                    prim.tags,
                    active=int(idx.size),
                    slots=int(idx.size),
                    elements=elements_per_lane(outs[0]),
                    weight=prim.cost_weight,
                )
            return

        if isinstance(op, CallOp):
            # Recursion through the host Python, as in Figure 1.  The callee
            # sees the full batch width; only `mask` members are active.
            args = [np.asarray(storage(v).read()) for v in op.inputs]
            results = self.call(op.func, args, mask.copy())
            for name, value in zip(op.outputs, results):
                storage(name).write(mask, np.asarray(value))
            return

        raise TypeError(f"unexpected op in callable IR: {op!r}")


def run_local_static(
    program: Program,
    inputs: Sequence[np.ndarray],
    registry: Optional[PrimitiveRegistry] = None,
    mode: str = "mask",
    scheduler: Any = "earliest",
    instrumentation: Optional[Instrumentation] = None,
    max_steps: int = 10 ** 9,
    fuse_blocks: bool = False,
):
    """Run ``program`` on a batch of inputs under Algorithm 1.

    ``fuse_blocks=True`` selects the paper's hybrid strategy: control stays
    interpreted while each block's straight-line primitive runs execute as
    single fused dispatches.  Returns a single array for single-output
    programs, else a tuple.
    """
    interp = LocalStaticInterpreter(
        program,
        registry=registry,
        mode=mode,
        scheduler=scheduler,
        instrumentation=instrumentation,
        max_steps=max_steps,
        fuse_blocks=fuse_blocks,
    )
    outputs = interp.run(inputs)
    return outputs[0] if len(outputs) == 1 else tuple(outputs)
