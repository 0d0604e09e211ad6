"""The paper's type-inference pass: static types before the first step.

Abstract execution seeded by the input signature.  A ``ConstOp`` types as
the machine materializes it; a ``PrimOp`` or ``PushOp`` runs its kernel on
zero-row inputs (one dummy row if the kernel refuses zero rows), as TFP runs
each primitive on dummy values, and records nothing in any
:class:`~repro.vm.instrumentation.Instrumentation`.  A variable takes the
``np.result_type`` join of its writes, to a fixpoint over every block.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.ir.instructions import ConstOp, PopOp, StackProgram
from repro.ir.types import TensorType
from repro.vm.local_static import _const_array


def _outputs(prim, args):
    """``prim``'s output ``(dtype, event)`` types on arguments of ``args``."""
    for rows in (0, 1):
        try:
            with np.errstate(all="ignore"):
                out = prim.fn(*[np.zeros((rows,) + e, d) for d, e in args])
            break
        except Exception:
            if rows:
                raise
    outs = map(np.asarray, out if prim.n_outputs > 1 else (out,))
    return [(o.dtype, o.shape[1:]) for o in outs]


def infer_types(
    program: StackProgram, registry, signature: Sequence[TensorType]
) -> Dict[str, TensorType]:
    """Every variable's type on inputs of ``signature`` (one per input);
    ``ValueError`` names a variable with two event shapes."""
    types = {v: (t.np_dtype, t.event_shape) for v, t in zip(program.inputs, signature)}
    ops = [op for b in program.blocks for op in b.ops if not isinstance(op, PopOp)]
    memo: Dict[tuple, list] = {}
    changed = True
    while changed:
        changed = False
        for op in ops:
            if isinstance(op, ConstOp):
                outs = [(_const_array(op.value, 0).dtype, ())]
            elif all(v in types for v in op.inputs):
                key = (op.fn, tuple(types[v] for v in op.inputs))
                if key not in memo:
                    memo[key] = _outputs(registry.get(op.fn), key[1])
                outs = memo[key]
            else:
                continue  # typed in a later sweep
            for var, (dtype, event) in zip(op.outputs, outs):
                old = types.get(var, (dtype, event))
                if old[1] != event:
                    raise ValueError(
                        f"variable {var!r} has event shape {old[1]} on one "
                        f"path and {event} on another"
                    )
                joined = (np.result_type(old[0], dtype), event)
                changed |= types.get(var) != joined
                types[var] = joined
    return {v: TensorType(d, e) for v, (d, e) in types.items()}
