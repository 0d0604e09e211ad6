"""Static analyses shared by the lowering pipeline and the virtual machines.

* :mod:`repro.analysis.cfg` — successor/predecessor maps and orderings.
* :mod:`repro.analysis.liveness` — backward dataflow liveness, block-level
  and per-operation (used for call-site save sets and temporary detection).
* :mod:`repro.analysis.call_graph` — call graph, transitive closures, and
  recursion (cycle) detection, including mutual recursion.
* :mod:`repro.analysis.storage` — storage-class assignment implementing the
  paper's optimizations 2 (temporaries) and 3 (stack-free variables).
* :mod:`repro.analysis.stackcheck` — static verification of lowered stack
  programs: abstract-interpretation stack-effect checking, exact depth
  bounds (:class:`ProgramFacts`), region-table validation.
* :mod:`repro.analysis.lint` — severity-ranked findings CLI
  (``python -m repro.analysis.lint <example|all>``).
"""

from repro.analysis.cfg import successors, reverse_postorder
from repro.analysis.liveness import (
    LivenessInfo,
    compute_liveness,
    call_save_sets,
    op_defs,
    op_uses,
)
from repro.analysis.call_graph import CallGraphInfo, analyze_call_graph
from repro.analysis.storage import StorageAssignment, assign_storage
from repro.analysis.stackcheck import (
    Diagnostic,
    ProgramFacts,
    Severity,
    VerificationError,
    analyze_stack_program,
    verify_region_table,
    verify_stack_program,
)

__all__ = [
    "successors",
    "reverse_postorder",
    "LivenessInfo",
    "compute_liveness",
    "call_save_sets",
    "op_defs",
    "op_uses",
    "CallGraphInfo",
    "analyze_call_graph",
    "StorageAssignment",
    "assign_storage",
    "Diagnostic",
    "ProgramFacts",
    "Severity",
    "VerificationError",
    "analyze_stack_program",
    "verify_region_table",
    "verify_stack_program",
]
