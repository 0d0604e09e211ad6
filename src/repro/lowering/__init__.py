"""Compilation from the callable IR (Figure 2) to the stack IR (Figure 4).

The pipeline mirrors the paper's description: "our implementation compiles to
the [callable language] first and then lowers from there to the [stack
language]".  Passes:

1. :mod:`repro.lowering.rename` — alpha-rename every function's variables
   and labels apart, so the merged flat program has one global namespace.
2. :mod:`repro.analysis.storage` — liveness, save sets, storage classes.
3. :mod:`repro.lowering.lower_calls` — replace every ``CallOp`` with the
   caller-saves push/pop protocol plus ``PushJump``/``Return`` control.

The paper's optimization 5 (cancelling ``Pop v; Push v`` pairs into
in-place updates) has no pass here: fused codegen's static frame offsets
already turn such a pair into one ``put`` (see
:class:`~repro.lowering.pipeline.LoweringOptions`).
"""

from repro.lowering.pipeline import LoweringError, LoweringOptions, lower_program

__all__ = ["LoweringError", "LoweringOptions", "lower_program"]
