"""Region-table (superblock) validation against the verified CFG.

A :class:`~repro.backend.regions.RegionTable` is selected from the CFG but
may be hand-built or carried over from an older program revision; a wrong
table would execute blocks out of CFG order under one dispatch.  This check
makes that impossible: every run must front its own entry block, every
consecutive pair must be a real terminator edge of the program being bound
(so side exits are exactly the remaining terminator targets, all of which
structural validation already proved are real block entries or the exit),
and — when :class:`~repro.analysis.stackcheck.verify.ProgramFacts` are
available — a reachable entry's run may only contain pcs the abstract
interpreter actually verified.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.instructions import Branch, Jump, PushJump, Return, StackProgram

from repro.analysis.stackcheck.diagnostics import (
    Diagnostic,
    Severity,
    VerificationError,
    errors_only,
)
from repro.analysis.stackcheck.verify import ProgramFacts


def _edge_targets(term) -> tuple:
    """The continuation pcs a run may legally step to from this terminator."""
    if isinstance(term, Jump):
        return (term.target,)
    if isinstance(term, Branch):
        return (term.true_target, term.false_target)
    if isinstance(term, PushJump):
        # Only the call edge continues the run; the return target is reached
        # dynamically through the callee's Return.
        return (term.jump_target,)
    return ()


def region_diagnostics(
    program: StackProgram, table, facts: Optional[ProgramFacts] = None
) -> List[Diagnostic]:
    """All findings for ``table`` against ``program`` (empty = valid)."""
    diags: List[Diagnostic] = []
    n = len(program.blocks)

    def err(code: str, message: str, block: Optional[int] = None) -> None:
        diags.append(Diagnostic(Severity.ERROR, code, message, block=block))

    chains = getattr(table, "chains", None)
    next_block = getattr(table, "next_block", None)
    if chains is None or next_block is None:
        err("region-shape", f"not a region table: {table!r}")
        return diags
    if len(chains) != n or len(next_block) != n:
        err(
            "region-shape",
            f"region table covers {len(chains)} entry blocks "
            f"(next_block: {len(next_block)}) for a {n}-block program",
        )
        return diags

    for i, chain in enumerate(chains):
        if not chain or chain[0] != i:
            err(
                "region-entry",
                f"run {i} must be fronted by its own entry block, got {chain!r}",
                block=i,
            )
            continue
        seen = set()
        broken = False
        for member in chain:
            if not isinstance(member, int) or not (0 <= member < n):
                err(
                    "region-member-range",
                    f"run {i} names pc {member!r}, outside [0, {n})",
                    block=i,
                )
                broken = True
                break
            if member in seen:
                err(
                    "region-member-repeat",
                    f"run {i} revisits pc {member}; a run is a simple path",
                    block=i,
                )
                broken = True
                break
            seen.add(member)
        if broken:
            continue
        for a, b in zip(chain, chain[1:]):
            term = program.blocks[a].terminator
            if isinstance(term, Return):
                err(
                    "region-past-return",
                    f"run {i} continues {a} -> {b} past a Return; the return "
                    "target is dynamic and cannot be part of a static run",
                    block=a,
                )
                break
            if b not in _edge_targets(term):
                err(
                    "region-bad-edge",
                    f"run {i} steps {a} -> {b} but block {a}'s terminator "
                    f"has no such edge in the CFG",
                    block=a,
                )
                break
        if facts is not None and facts.reachable(i):
            for member in chain:
                if not facts.reachable(member):
                    err(
                        "region-unverified-pc",
                        f"run {i} enters pc {member}, which verification "
                        "proved unreachable and left unverified",
                        block=member,
                    )
    return diags


def verify_region_table(
    program: StackProgram, table, facts: Optional[ProgramFacts] = None
) -> None:
    """Raise :class:`VerificationError` if ``table`` is invalid for ``program``."""
    diags = region_diagnostics(program, table, facts)
    if errors_only(diags):
        raise VerificationError(diags, context="region table")
