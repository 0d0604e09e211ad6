"""Abstract interpretation over the lowered stack-dialect CFG.

The verifier proves, before a :class:`~repro.ir.instructions.StackProgram`
ever executes, the invariants every downstream layer silently relies on:

**Stack-effect consistency.**  Within one function activation, the number of
frames a variable's stack holds above the activation's entry level is a
property of the *program point*, not of the path taken to reach it — the
same single-valuedness the batched machine needs for lanes at different call
depths to share masked steps at one pc.  The analysis runs a worklist over
each function's blocks with an abstract state mapping each variable to its
frame count *relative to the function entry* (the machine's real depths
differ per lane and per recursion level; the relative count is the
path-invariant).  A ``PushJump`` edge uses the callee's summary — calls are
net-zero on every variable stack (the verifier separately proves this for
each callee via its ``Return`` check) — so the state flows from the call
block straight to the return continuation.

Verified per program:

* every block joins with one consistent entry state (``depth-mismatch``);
* pops only consume frames pushed by the *current* activation
  (``pop-underflow`` — popping a caller's frame corrupts a different
  logical thread level);
* every ``Return`` sees all relative depths at zero (``unbalanced-return``
  — the callee summary, and lane halting, depend on it);
* push/pop only touch stack-backed variables (``stack-op-on-register``);
* the block partition is a real function partition: each block belongs to
  exactly one function entry (``shared-block``), and no ``Jump``/``Branch``
  crosses into another function's entry (``cross-function-jump``) — control
  transfers between functions only via ``PushJump``/``Return``.

**Exact depth bounds.**  For programs whose call graph is acyclic the
verifier computes the exact peak logical depth of every variable stack and
of the return-address stack — ``max(peak within f, max over call sites of
depth-at-call + callee peak)``, memoized over the call DAG — and exports
them in :class:`ProgramFacts`.  ``required_stack_depth`` is the proven
depth (the machine's D): batched stacks start at it, so a bounded program
never grows them, and snapshot restores are admission-checked against it.
A recursive program gets the honest ``unbounded`` verdict
(``required_stack_depth is None``) rather than a wrong number — its depth
is input-dependent, which is the paper's headline capability, not an error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.instructions import (
    Branch,
    Jump,
    PopOp,
    PushJump,
    PushOp,
    Return,
    StackProgram,
    VarKind,
)

from repro.analysis.stackcheck.diagnostics import (
    Diagnostic,
    Severity,
    VerificationError,
    errors_only,
    sort_diagnostics,
)
from repro.analysis.stackcheck.structural import structural_diagnostics


def _normalize(state: Dict[str, int]) -> Dict[str, int]:
    """Drop zero entries so states compare by their live frame counts."""
    return {v: d for v, d in state.items() if d != 0}


@dataclass(frozen=True)
class ProgramFacts:
    """What static verification proved about one lowered program.

    Cached on the :class:`~repro.vm.executors.ExecutionPlan` (verify once
    per plan, zero steady-state overhead) and consumed by the machine layer:
    stacks start at :attr:`required_stack_depth`, snapshots are admitted
    via :meth:`check_snapshot_frames`, and region tables are checked in
    :mod:`repro.analysis.stackcheck.regions`.
    """

    num_blocks: int
    #: Per block: the pc of the function entry that owns it (None when the
    #: block is unreachable from every entry and therefore unverified).
    function_entry: Tuple[Optional[int], ...]
    #: Per block: variable -> frames held above the owning activation's
    #: entry level on entry to the block (only nonzero counts are listed;
    #: None for unverified blocks).  Single-valued by construction — the
    #: verifier rejects programs where two paths disagree.
    entry_depths: Tuple[Optional[Mapping[str, int]], ...]
    #: Function entry pcs in ascending order ({0} plus every call target).
    entries: Tuple[int, ...]
    #: Distinct (caller entry, callee entry) edges, callers reachable or not.
    call_edges: Tuple[Tuple[int, int], ...]
    #: Entry pc -> source-function name, where metadata names one.
    function_names: Mapping[int, str] = field(default_factory=dict)
    #: True when the reachable call graph has a cycle (depth is then
    #: input-dependent and the bound fields below are None).
    recursive: bool = False
    #: Peak saved-frame count per variable stack across a whole main
    #: activation (empty for unbounded programs).
    var_peaks: Mapping[str, int] = field(default_factory=dict)
    #: Peak saved-frame count of the return-address stack (None: unbounded).
    max_addr_depth: Optional[int] = None
    #: Peak *logical* depth (saved frames + the live top) over every stack
    #: in the machine, exactly as instrumented high-water marks observe it.
    max_logical_depth: Optional[int] = None
    #: The proven stack depth (D): the fewest saved frames per stack that no
    #: execution of this program exceeds.  None when unbounded.
    required_stack_depth: Optional[int] = None

    @property
    def bounded(self) -> bool:
        return self.required_stack_depth is not None

    def reachable(self, block: int) -> bool:
        """Was ``block`` verified (reachable from some function entry)?"""
        return self.function_entry[block] is not None

    def check_snapshot_frames(self, saved_frames: int) -> None:
        """Admission check for restoring a snapshot of ``saved_frames``.

        Raises ``ValueError`` when the snapshot claims more frames than this
        program can ever produce — a corrupt or foreign snapshot that a
        machine's stacks would otherwise grow to hold.
        """
        bound = self.required_stack_depth
        if bound is not None and saved_frames > bound:
            raise ValueError(
                f"snapshot holds {saved_frames} saved frames but verification "
                f"proved this program never exceeds {bound}; refusing a "
                "snapshot this program cannot have produced"
            )


@dataclass(frozen=True)
class StackCheckResult:
    """Facts (when derivable) plus the severity-ranked finding list."""

    facts: Optional[ProgramFacts]
    diagnostics: Tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not errors_only(self.diagnostics)


def analyze_stack_program(program: StackProgram) -> StackCheckResult:
    """Run every check, collecting findings instead of raising.

    Structural errors abort the deeper analysis (``facts`` is None); the
    abstract interpretation otherwise always produces facts, with the bound
    fields None when an error or recursion prevents a sound bound.
    """
    diags = list(structural_diagnostics(program))
    if errors_only(diags):
        return StackCheckResult(facts=None, diagnostics=tuple(sort_diagnostics(diags)))
    facts = _abstract_interpret(program, diags)
    return StackCheckResult(facts=facts, diagnostics=tuple(sort_diagnostics(diags)))


def verify_stack_program(program: StackProgram, context: str = "stack program") -> ProgramFacts:
    """Verify ``program`` or raise :class:`VerificationError`.

    Returns the proven :class:`ProgramFacts` on success; warnings and info
    findings (unreachable blocks, the unbounded-recursion verdict) do not
    fail verification — only errors do.
    """
    result = analyze_stack_program(program)
    if not result.ok or result.facts is None:
        raise VerificationError(result.diagnostics, context=context)
    return result.facts


# -- the abstract interpreter -------------------------------------------------


def _function_name(program: StackProgram, entry: int) -> str:
    for name, pc in program.function_entries.items():
        if pc == entry:
            return name
    return f"fn@{entry}"


def _abstract_interpret(program: StackProgram, diags: List[Diagnostic]) -> ProgramFacts:
    blocks = program.blocks
    n = len(blocks)

    # Function entries are block 0 (main) plus every call target; the
    # partition is derived from the CFG itself, not trusted from metadata,
    # so hand-built programs verify and stale metadata cannot mask errors.
    entries = {0}
    for blk in blocks:
        if isinstance(blk.terminator, PushJump):
            entries.add(blk.terminator.jump_target)
    entry_list = sorted(entries)
    names = {e: _function_name(program, e) for e in entry_list}

    owner: Dict[int, int] = {}
    entry_state: Dict[int, Dict[str, int]] = {}
    # Per function: peak saved-frame count per variable within one
    # activation, excluding frames held across calls (added via call edges).
    own_peaks: Dict[int, Dict[str, int]] = {e: {} for e in entry_list}
    # Per function: (callee entry, state at the call block's end) per site.
    call_sites: Dict[int, List[Tuple[int, Dict[str, int]]]] = {e: [] for e in entry_list}
    sound = True  # bounds are only claimed when no depth error was found

    def err(code: str, message: str, block: int, fn: int) -> None:
        diags.append(
            Diagnostic(Severity.ERROR, code, message, block=block, function=names[fn])
        )

    for e in entry_list:
        if e in owner:
            # Claimed while walking an earlier function: already reported
            # as a cross-function jump or shared block.
            continue
        owner[e] = e
        entry_state[e] = {}
        work = deque([e])
        while work:
            b = work.popleft()
            state = dict(entry_state[b])
            peaks = own_peaks[e]
            aborted = False
            for op in blocks[b].ops:
                if isinstance(op, PushOp):
                    if program.kind(op.output) is not VarKind.STACKED:
                        err(
                            "stack-op-on-register",
                            f"push of non-stacked variable {op.output!r}",
                            b,
                            e,
                        )
                        sound = False
                    depth = state.get(op.output, 0) + 1
                    state[op.output] = depth
                    if depth > peaks.get(op.output, 0):
                        peaks[op.output] = depth
                elif isinstance(op, PopOp):
                    if program.kind(op.var) is not VarKind.STACKED:
                        err(
                            "stack-op-on-register",
                            f"pop of non-stacked variable {op.var!r}",
                            b,
                            e,
                        )
                        sound = False
                    depth = state.get(op.var, 0)
                    if depth <= 0:
                        err(
                            "pop-underflow",
                            f"pop of {op.var!r} underflows this activation: "
                            "no frame pushed since function entry remains "
                            "(it would consume a caller's frame)",
                            b,
                            e,
                        )
                        sound = False
                        aborted = True
                        break
                    state[op.var] = depth - 1
            if aborted:
                continue  # don't propagate a known-broken state

            term = blocks[b].terminator

            def flow(target: int, out_state: Dict[str, int]) -> None:
                nonlocal sound
                if target in entries and target != e:
                    err(
                        "cross-function-jump",
                        f"jumps into {names[target]!r} (entry pc {target}) "
                        "without a PushJump; the callee's Return would pop "
                        "a frame this path never pushed",
                        b,
                        e,
                    )
                    sound = False
                    return
                prev_owner = owner.get(target)
                if prev_owner is None:
                    owner[target] = e
                    entry_state[target] = dict(out_state)
                    work.append(target)
                elif prev_owner != e:
                    err(
                        "shared-block",
                        f"block {target} is reachable from function entries "
                        f"{prev_owner} and {e}; every pc must belong to "
                        "exactly one function",
                        b,
                        e,
                    )
                    sound = False
                else:
                    prev = _normalize(entry_state[target])
                    here = _normalize(out_state)
                    if prev != here:
                        disagree = sorted(
                            v
                            for v in set(prev) | set(here)
                            if prev.get(v, 0) != here.get(v, 0)
                        )
                        v = disagree[0]
                        err(
                            "depth-mismatch",
                            f"block {target} is entered with inconsistent "
                            f"stack depths: {v!r} holds {prev.get(v, 0)} "
                            f"frame(s) along one path but {here.get(v, 0)} "
                            "along another — the per-pc entry depth must be "
                            "single-valued",
                            b,
                            e,
                        )
                        sound = False

            if isinstance(term, Jump):
                flow(term.target, state)
            elif isinstance(term, Branch):
                flow(term.true_target, state)
                flow(term.false_target, state)
            elif isinstance(term, PushJump):
                call_sites[e].append((term.jump_target, dict(state)))
                # Calls are net-zero on every variable stack (proven by the
                # callee's own unbalanced-return check), so the state flows
                # unchanged to the return continuation.
                flow(term.return_target, state)
            elif isinstance(term, Return):
                unbalanced = sorted(v for v, d in state.items() if d != 0)
                if unbalanced:
                    v = unbalanced[0]
                    err(
                        "unbalanced-return",
                        f"return with {state[v]:+d} net frame(s) on "
                        f"{v!r} (and {len(unbalanced) - 1} more)"
                        if len(unbalanced) > 1
                        else f"return with {state[v]:+d} net frame(s) on {v!r}; "
                        "every path from entry to return must balance its "
                        "pushes and pops",
                        b,
                        e,
                    )
                    sound = False

    # Unreachable blocks never execute (pcs only arise from verified
    # terminator targets and same-program snapshots) but are dead weight
    # and stay unverified — surface them.
    for b in range(n):
        if b not in owner:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "unreachable-block",
                    f"block {b} ({blocks[b].label!r}) is unreachable from "
                    "every function entry and was not verified",
                    block=b,
                )
            )

    # -- call graph: reachability from main, cycles, depth bounds ----------
    edges = sorted({(e, callee) for e in entry_list for callee, _ in call_sites[e]})
    reachable_fns = {0}
    frontier = [0]
    while frontier:
        f = frontier.pop()
        for callee, _ in call_sites.get(f, ()):
            if callee not in reachable_fns:
                reachable_fns.add(callee)
                frontier.append(callee)
    for e in entry_list:
        if e not in reachable_fns:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "uncalled-function",
                    f"function {names[e]!r} (entry pc {e}) is never called "
                    "on any path from main",
                    block=e,
                    function=names[e],
                )
            )

    recursive = _has_cycle(reachable_fns, call_sites)
    var_peaks: Dict[str, int] = {}
    max_addr = max_logical = required = None
    if recursive:
        cycle_names = sorted(names[e] for e in reachable_fns)
        diags.append(
            Diagnostic(
                Severity.INFO,
                "depth-unbounded",
                "recursive call graph: the stack depth is input-dependent, "
                f"so no static bound exists (functions: {cycle_names}); "
                "machines start their stacks small and grow them",
                block=0,
                function=names[0],
            )
        )
    elif sound:
        addr_memo: Dict[int, int] = {}
        var_memo: Dict[int, Dict[str, int]] = {}

        def bound(f: int) -> Tuple[int, Dict[str, int]]:
            if f in addr_memo:
                return addr_memo[f], var_memo[f]
            addr = 0
            peaks = dict(own_peaks[f])
            for callee, at_call in call_sites[f]:
                c_addr, c_peaks = bound(callee)
                # The pushed return address is held for the whole callee
                # activation: one saved frame plus the callee's own peak.
                addr = max(addr, 1 + c_addr)
                for v, d in c_peaks.items():
                    depth = at_call.get(v, 0) + d
                    if depth > peaks.get(v, 0):
                        peaks[v] = depth
                for v, d in at_call.items():
                    # Frames held across a call even if the callee never
                    # touches that variable's stack.
                    if d > peaks.get(v, 0):
                        peaks[v] = d
            addr_memo[f] = addr
            var_memo[f] = peaks
            return addr, peaks

        max_addr, var_peaks = bound(0)
        peak_saved = max([max_addr, *var_peaks.values()])
        max_logical = peak_saved + 1  # the implicit base frame
        # D must cover the deepest saved-frame count; D=0 stacks exist but
        # a floor of 1 keeps the base-frame arithmetic uniform.
        required = max(1, peak_saved)

    entry_depth_facts: List[Optional[Mapping[str, int]]] = []
    fn_of: List[Optional[int]] = []
    for b in range(n):
        if b in owner:
            fn_of.append(owner[b])
            entry_depth_facts.append(_normalize(entry_state[b]))
        else:
            fn_of.append(None)
            entry_depth_facts.append(None)

    return ProgramFacts(
        num_blocks=n,
        function_entry=tuple(fn_of),
        entry_depths=tuple(entry_depth_facts),
        entries=tuple(entry_list),
        call_edges=tuple(edges),
        function_names=names,
        recursive=recursive,
        var_peaks=var_peaks,
        max_addr_depth=max_addr,
        max_logical_depth=max_logical,
        required_stack_depth=required,
    )


def _has_cycle(
    reachable: set, call_sites: Mapping[int, Sequence[Tuple[int, Dict[str, int]]]]
) -> bool:
    """Cycle detection over the reachable call graph (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {f: WHITE for f in reachable}
    for root in sorted(reachable):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, i = stack[-1]
            callees = [c for c, _ in call_sites.get(node, ())]
            if i < len(callees):
                stack[-1] = (node, i + 1)
                nxt = callees[i]
                if nxt not in color:
                    continue
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return False
