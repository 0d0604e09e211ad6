"""Call graph construction, recursion detection, and clobber sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.analysis.liveness import op_defs
from repro.ir.instructions import CallOp, Program


@dataclass
class CallGraphInfo:
    """Derived facts about a program's call structure."""

    #: Functions on a call-graph cycle (self-recursive or mutually recursive).
    recursive: FrozenSet[str]
    #: Function -> all functions reachable from it (including itself).
    closure: Dict[str, FrozenSet[str]]
    #: Function -> variables its transitive closure writes by masked update.
    #: (Formals of recursive functions are excluded: they are bound by
    #: pushing a fresh stack frame, which protects the caller's value.)
    clobbers: Dict[str, FrozenSet[str]]


def analyze_call_graph(program: Program) -> CallGraphInfo:
    """Call edges, reachability, and the recursive-function set of a program."""
    calls: Dict[str, Set[str]] = {
        fn.name: {
            op.func
            for blk in fn.blocks
            for op in blk.ops
            if isinstance(op, CallOp)
        }
        for fn in program.functions.values()
    }

    # reach[f]: functions reachable from f over at least one call edge.  A
    # function is on a cycle exactly when it reaches itself.
    reach: Dict[str, Set[str]] = {}
    for name, callees in calls.items():
        seen: Set[str] = set()
        work = list(callees)
        while work:
            callee = work.pop()
            if callee not in seen:
                seen.add(callee)
                work.extend(calls[callee])
        reach[name] = seen

    recursive = {name for name, seen in reach.items() if name in seen}
    closure: Dict[str, FrozenSet[str]] = {
        name: frozenset(seen | {name}) for name, seen in reach.items()
    }

    # Per-function update-clobbered variables: every op output in the body.
    # Formal parameters are only clobbered if the body reassigns them; the
    # frame push at call sites covers the binding itself (recursive callees),
    # and non-recursive callees' formals can never alias a caller's variables
    # after alpha-renaming.
    body_writes: Dict[str, Set[str]] = {}
    for fn in program.functions.values():
        writes: Set[str] = set()
        for blk in fn.blocks:
            for op in blk.ops:
                writes |= set(op_defs(op))
        if fn.name not in recursive:
            # Non-recursive formals are bound by masked update at call sites.
            writes |= set(fn.params)
        body_writes[fn.name] = writes

    clobbers: Dict[str, FrozenSet[str]] = {}
    for name in program.functions:
        acc: Set[str] = set()
        for callee in closure[name]:
            acc |= body_writes[callee]
        clobbers[name] = frozenset(acc)

    return CallGraphInfo(
        recursive=frozenset(recursive),
        closure=closure,
        clobbers=clobbers,
    )
