"""Block fusion for the local static machine — the paper's *hybrid* strategy.

Section 4 tests three autobatched forms; the third is "running the control
operations of local static autobatching in TensorFlow Eager, but compiling
the straight-line components (basic blocks) with XLA".  The paper notes
that "identifying the basic blocks to compile separately is a nontrivial
program transformation in its own right [which] fits conveniently into our
software framework" — and it fits conveniently here too: the callable IR
already delimits the basic blocks, so each block's primitive sequence can be
pre-compiled into a single Python closure (the XLA-fusion analog used by
:mod:`repro.backend.fusion` for the program-counter machine).

Blocks containing :class:`~repro.ir.instructions.CallOp` cannot fuse —
calls re-enter the interpreter (that *is* the eager control the hybrid
keeps) — so the compiler splits each block into a maximal fused prefix of
primitive/const ops, an optional interpreted call, and continues fusing
after it.  Masking mode only, as with the PC fusion (gather-scatter's
dynamic shapes defeat static compilation).
"""

from __future__ import annotations

import textwrap
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.frontend.registry import PrimitiveRegistry
from repro.ir.instructions import Block, CallOp, ConstOp, Function, PrimOp
from repro.vm.local_static import _const_array


class _LocalBlockCompiler:
    """Compiles one function's blocks into fused segment executors."""

    def __init__(self, registry: PrimitiveRegistry, batch_size: int):
        self.registry = registry
        self.batch_size = batch_size
        self.namespace: Dict[str, object] = {"np": np}
        self._n = 0

    def _bind(self, prefix: str, obj: object) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.namespace[name] = obj
        return name

    def compile_segment(self, ops: Sequence[object], label: str) -> Optional[Callable]:
        """Fuse a run of ConstOp/PrimOp into one closure, or None if empty.

        The closure signature is ``(storage, mask)`` where ``storage`` is
        the activation's variable-storage lookup function.
        """
        if not ops:
            return None
        lines: List[str] = []
        for op in ops:
            if isinstance(op, ConstOp):
                const = self._bind("c", _const_array(op.value, self.batch_size))
                lines.append(f"storage({op.output!r}).write(mask, {const})")
            elif isinstance(op, PrimOp):
                prim = self.registry.get(op.fn)
                k = self._bind("k", prim.fn)
                args = ", ".join(f"storage({v!r}).read()" for v in op.inputs)
                if len(op.outputs) == 1:
                    lines.append(
                        f"storage({op.outputs[0]!r}).write(mask, "
                        f"np.asarray({k}({args})))"
                    )
                else:
                    tmps = [f"_o{i}" for i in range(len(op.outputs))]
                    lines.append(f"{', '.join(tmps)} = {k}({args})")
                    for tmp, out in zip(tmps, op.outputs):
                        lines.append(
                            f"storage({out!r}).write(mask, np.asarray({tmp}))"
                        )
            else:  # pragma: no cover - guarded by the caller
                raise TypeError(f"cannot fuse {op!r}")
        body = textwrap.indent("\n".join(lines), "        ")
        name = f"_fused_{self._n}"
        source = (
            f"def {name}(storage, mask):\n"
            f"    with np.errstate(all='ignore'):\n{body}\n"
        )
        exec(compile(source, f"<local fused {label}>", "exec"), self.namespace)
        fn = self.namespace[name]
        fn.__fused_source__ = source  # type: ignore[attr-defined]
        return fn


def compile_local_executors(
    fn: Function, registry: PrimitiveRegistry, batch_size: int
) -> List[List[object]]:
    """Per-block execution plans for the hybrid strategy.

    Each block becomes a list of segments: fused closures interleaved with
    the ``CallOp`` objects that punctuate them (the interpreter handles the
    calls; everything between calls runs as one dispatch).
    """
    compiler = _LocalBlockCompiler(registry, batch_size)
    plans: List[List[object]] = []
    for block in fn.blocks:
        segments: List[object] = []
        pending: List[object] = []
        for op in block.ops:
            if isinstance(op, CallOp):
                fused = compiler.compile_segment(pending, block.label)
                if fused is not None:
                    segments.append(fused)
                pending = []
                segments.append(op)
            else:
                pending.append(op)
        fused = compiler.compile_segment(pending, block.label)
        if fused is not None:
            segments.append(fused)
        plans.append(segments)
    return plans
