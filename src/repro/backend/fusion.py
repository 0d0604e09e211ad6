"""Basic-block fusion: compile each block to one generated Python function.

The interpreted program-counter machine dispatches every primitive through a
plan loop — the analog of TensorFlow Eager's per-kernel dispatch.  This
module plays the role of XLA: for each basic block it *generates source
code* executing the block's whole operation sequence as straight-line Python
with temporaries as local variables, storage handles and kernel functions
pre-bound in the closure, and the terminator inlined.  The machine then
makes one call per block execution instead of one per operation.

Since the executor refactor this is just one implementation of the
:class:`~repro.vm.executors.BlockExecutor` protocol —
:class:`FusedBlockExecutor`, selected with ``executor="fused"`` on
``run_pc``, :class:`~repro.serve.engine.Engine`, or
:meth:`~repro.frontend.api.AutobatchFunction.execution_plan`.  There is no
separate fused driver loop: the fused machine *is* the ordinary
program-counter machine bound to a fused
:class:`~repro.vm.executors.ExecutionPlan`.

Every generated block is *compact*: it runs on the step's live lanes only.
The step's ``idx`` is the one active-lane set a block uses.  Stored inputs
are read as their ``idx`` rows (``read_at(idx)``); every temporary and
constant stays ``(|idx|, …)`` (a constant is a view of a full-width array
bound once per machine); stored variables are written with
``write_at(idx, ·)``; pushes take the kernel's result as it comes; and a
``Branch`` loads its lanes' next pcs out of the block's two-entry target
table (``targets[cond.astype(np.intp)]``).  Nothing is scattered back to
full width, so no masked-off lane computes or is written, and a block costs
what its live lanes cost.  This is the paper's gather-scatter side of its
first free choice (Section 2).  The paper masks because XLA needs static
shapes; generated numpy code has no such constraint, so the choice is made
once, for every block.  The eager executor keeps both modes, as the
ablation and the op-by-op reference.  Because a compact block touches only
the lanes of ``idx``, it runs identically whatever the machine's ``mode``.

Generated blocks are *observationally identical* to the eager interpreter
under ``mode="gather"``: the same outputs and the same
:class:`~repro.vm.instrumentation.Instrumentation` counts at every step
boundary — the property the differential tests pin down.  A block's
operation list is static, so the generated code does not record operations
at all: each execution bumps one per-(machine, block)
:class:`~repro.vm.instrumentation.BlockTally` (``executions`` and the
active-lane total), and ``Instrumentation`` expands pending tallies through
the block's primitive, push, pop and storage-access sites whenever one of
those counters is read, charging every site ``slots = active``.  (A block
that raises part-way is not tallied, where the interpreter has recorded the
operations before the raise; a raise reaches no step boundary, and the
machine is not stepped again.)  Outputs also equal eager *masking*'s: every
registered primitive computes a row from that row alone.  A kernel that
lets BLAS order a sum by the operand's shape (the logistic matmuls) may
differ in the last bits between a compact and a full-width call, exactly as
it already does between any batched strategy and the ``Z = 1`` reference.

That identity extends to lane checkpoint/resume (the serving engine's
preemption): generated namespaces capture *storage objects* — never the
arrays inside them, which a machine allocates when its inputs fix its types
(after binding its blocks), so every fused closure stays valid, and a
snapshot taken under either executor restores under either, bit-identically.
Anything added to the bind spec must preserve this indirection.

A stacked variable is a base pointer plus a *static frame offset*.  The
paper's batched stack (Section 3) moves a per-lane pointer on every push
and pop; but within one block every lane executes the same operations, so
how far a variable's pointer has moved at each operation is a compile-time
constant ``k``.  A block loads the variable's flat pointers once, at its
first use (``p = s.fp[idx]``); a push or pop only moves ``k``, in the code
generator; every read, update or push addresses ``p + k * Z`` (``s.get`` /
``s.put``); and at the end the block stores the pointers once, if its net
``k`` is not zero, and marks the ``reached`` row of its highest ``k``, if
that is above zero (the row a push-by-push stack would have marked last,
which is all ``high_water`` reads).  No pop clamps at a lane's base frame:
that is sound because the executor verifies every program before it
generates code for it (:func:`~repro.analysis.stackcheck.verify_stack_program`,
once per program, or the plan's already-proven facts), and the verifier
rules out any pop below the frames the lane's own activation pushed
(``pop-underflow``).  A program that fails verification is refused with
the verifier's error; it runs under the eager executor only, whose pops
clamp.  A push past the stack's last row still raises
:class:`~repro.vm.stack.StackOverflowError` from the bounds check of its
scatter, before it writes.

No block enters ``np.errstate``, and a machine bound to these executors
enters none either (``live_lanes_only``): compact blocks compute no junk
lanes, so their numerics warn exactly as the unbatched reference's do.
The eager executor keeps the machine's one context per
:meth:`~repro.vm.program_counter.ProgramCounterVM.run` or ``step_lanes()``
call, because eager masking computes masked-off lanes on junk.

The same generated executors serve two strategies from the paper's Figure 5:

* ``pc_fused`` — the program-counter VM with every block fused;
* ``hybrid`` — local static autobatching driving fused straight-line blocks
  (see :mod:`repro.bench.figure5`), which the paper found fastest at very
  large batch sizes.
"""

from __future__ import annotations

import textwrap
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.frontend.registry import PrimitiveRegistry
from repro.ir.instructions import (
    Branch,
    ConstOp,
    Jump,
    PopOp,
    PrimOp,
    PushJump,
    PushOp,
    Return,
    StackProgram,
    VarKind,
)
from repro.vm.executors import BlockExecutor, register_executor
from repro.vm.instrumentation import (
    BlockOps,
    BlockTally,
    Instrumentation,
    TallyTable,
    elements_per_lane,
)
from repro.vm.local_static import _const_array


class FusionUnsupported(ValueError):
    """Raised when a program/configuration cannot be fused."""


#: Process-wide count of per-program fused codegen events, across every
#: executor instance.  Snapshot before/after building a machine fleet to
#: prove code-cache sharing: N same-plan machines must add exactly 1.
_TOTAL_FUSED_COMPILES = [0]


def total_fused_compiles() -> int:
    """How many programs have been fused (codegen + compile) process-wide."""
    return _TOTAL_FUSED_COMPILES[0]


class _CompiledBlock:
    """One block's generated source, compiled code object, and bind spec.

    Machine-independent: the expensive work (source generation plus
    ``compile()``) happens once per plan; :meth:`bind` only resolves the
    spec's names against one VM (storage handles, kernel functions,
    batch-width constants, block tallies) and ``exec``s the pre-compiled
    code object into that namespace.  ``ops`` is the entry block's static
    operation list, from which the executor builds each machine's tallies.
    """

    __slots__ = ("index", "source", "code", "spec", "ops")

    def __init__(
        self, index: int, source: str, spec: List[tuple], ops: BlockOps
    ):
        self.index = index
        self.source = source
        self.code = compile(source, f"<fused block {index}>", "exec")
        self.spec = spec
        self.ops = ops

    def bind(
        self, vm: Any, registry: PrimitiveRegistry, tallies: TallyTable
    ) -> Callable:
        namespace: Dict[str, object] = {"np": np, "_el": elements_per_lane}
        for name, kind, payload in self.spec:
            if kind == "storage":
                namespace[name] = vm.storage(payload)
            elif kind == "prim_fn":
                namespace[name] = registry.get(payload).fn
            elif kind == "const":
                namespace[name] = _const_array(payload, vm.batch_size)
            elif kind == "targets":
                namespace[name] = np.array(payload, dtype=np.int64)
            elif kind == "offset":  # a static frame offset, in flat rows
                namespace[name] = np.array(payload * vm.batch_size)
            else:  # "tally": the machine's BlockTally for block ``payload``
                namespace[name] = tallies.blocks[payload]
        exec(self.code, namespace)
        fn = namespace[f"_fused_block_{self.index}"]
        fn.__fused_source__ = self.source  # type: ignore[attr-defined]
        return fn


class _Frame:
    """One stacked variable inside one generated block: its storage name,
    the local holding its lanes' flat pointers at block entry, its static
    frame offset from them, the highest offset a push reached, and the
    address locals computed so far, by offset."""

    __slots__ = ("storage", "offset", "high", "addrs")

    def __init__(self, storage: str, base: str):
        self.storage = storage
        self.offset = 0
        self.high = 0
        self.addrs = {0: base}


class _BlockCompiler:
    """Generates the fused executor source for one basic block."""

    def __init__(self, program: StackProgram):
        self.program = program
        self.spec: List[tuple] = []
        #: Static operation list of every block emitted so far, by index.
        self.ops: Dict[int, BlockOps] = {}
        self._mangle: Dict[str, str] = {}
        #: The stacked variables of the block being emitted.
        self._frames: Dict[str, _Frame] = {}
        self._n = 0

    def _fresh(self, prefix: str) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        return name

    def _bind(self, prefix: str, kind: str, payload: object) -> str:
        name = self._fresh(prefix)
        self.spec.append((name, kind, payload))
        return name

    def _temp_local(self, var: str) -> str:
        if var not in self._mangle:
            self._mangle[var] = f"t{len(self._mangle)}"
        return self._mangle[var]

    def _frame(self, var: str, lines: List[str]) -> _Frame:
        """``var``'s frame in this block; the first use loads its pointers."""
        frame = self._frames.get(var)
        if frame is None:
            s = self._bind("s", "storage", var)
            base = self._fresh("p")
            lines.append(f"{base} = {s}.fp[idx]")
            frame = self._frames[var] = _Frame(s, base)
        return frame

    def _addr(self, frame: _Frame, lines: List[str]) -> str:
        """The local holding ``frame``'s flat addresses at its offset."""
        name = frame.addrs.get(frame.offset)
        if name is None:
            z = self._bind("z", "offset", frame.offset)
            name = frame.addrs[frame.offset] = self._fresh("a")
            lines.append(f"{name} = {frame.addrs[0]} + {z}")
        return name

    def _read_expr(self, var: str, ops: BlockOps, lines: List[str]) -> str:
        """Expression reading ``var``'s live rows, counting the interpreter's
        read record."""
        kind = self.program.kind(var)
        if kind is VarKind.TEMP:
            return self._temp_local(var)
        if kind is VarKind.STACKED:
            ops.stacked_reads += 1
            frame = self._frame(var, lines)
            return f"{frame.storage}.get({self._addr(frame, lines)})"
        return f"{self._bind('s', 'storage', var)}.read_at(idx)"

    def _write_lines(
        self, var: str, expr: str, lines: List[str], ops: BlockOps
    ) -> None:
        """Statements writing ``expr`` (live rows) to ``var``, counting the
        interpreter's storage-write record."""
        kind = self.program.kind(var)
        if kind is VarKind.TEMP:
            lines.append(f"{self._temp_local(var)} = {expr}")
        elif kind is VarKind.STACKED:
            ops.stacked_writes += 1
            frame = self._frame(var, lines)
            addr = self._addr(frame, lines)
            lines.append(f"{frame.storage}.put({addr}, {expr})")
        else:
            ops.register_writes += 1
            s = self._bind("s", "storage", var)
            lines.append(f"{s}.write_at(idx, {expr})")

    def _store_frames(self, lines: List[str]) -> None:
        """Store each moved variable's pointers once, and mark the highest
        row a push reached (what ``high_water`` reads)."""
        for frame in self._frames.values():
            if frame.offset:
                addr = self._addr(frame, lines)
                lines.append(f"{frame.storage}.fp[idx] = {addr}")
            if frame.high > 0:
                top = frame.addrs[frame.high]
                lines.append(f"{frame.storage}.reached[{top}] = True")
        self._frames = {}

    def emit_block(self, block_index: int, lines: List[str]) -> None:
        """Append block ``block_index``'s body, terminator and tally statements.

        Emitted statements are flat (no multi-line constructs), reading the
        conventional locals ``vm``/``idx``/``_na`` — so a caller can splice
        several blocks into one function body (superblocks) by re-deriving
        ``idx``/``_na`` between members.  Every value is ``(|idx|, …)``.
        """
        block = self.program.blocks[block_index]
        ops = self.ops[block_index] = BlockOps()
        firsts: List[str] = []  # each primitive site's first output

        for j, op in enumerate(block.ops):
            if isinstance(op, ConstOp):
                const = self._bind("c", "const", op.value)
                self._write_lines(op.output, f"{const}[:_na]", lines, ops)
            elif isinstance(op, PrimOp):
                k = self._bind("k", "prim_fn", op.fn)
                args = ", ".join(self._read_expr(v, ops, lines) for v in op.inputs)
                call = f"{k}({args})"
                if len(op.outputs) == 1:
                    out = op.outputs[0]
                    if self.program.kind(out) is VarKind.TEMP:
                        first = self._temp_local(out)
                        lines.append(f"{first} = {call}")
                    else:
                        first = f"v{block_index}_{j}"
                        lines.append(f"{first} = {call}")
                        self._write_lines(out, first, lines, ops)
                else:
                    tmps = [
                        f"o{block_index}_{j}_{i}" for i in range(len(op.outputs))
                    ]
                    lines.append(f"{', '.join(tmps)} = {call}")
                    for tmp, out in zip(tmps, op.outputs):
                        self._write_lines(out, tmp, lines, ops)
                    first = tmps[0]
                ops.prim_fns.append(op.fn)
                firsts.append(first)
            elif isinstance(op, PushOp):
                k = self._bind("k", "prim_fn", op.fn)
                args = ", ".join(self._read_expr(v, ops, lines) for v in op.inputs)
                frame = self._frame(op.output, lines)
                frame.offset += 1
                frame.high = max(frame.high, frame.offset)
                addr = self._addr(frame, lines)
                lines.append(f"{frame.storage}.put({addr}, {k}({args}))")
                ops.pushes += 1
            elif isinstance(op, PopOp):
                self._frame(op.var, lines).offset -= 1
                ops.pops += 1
            else:
                raise FusionUnsupported(f"cannot fuse op {op!r}")

        term = block.terminator
        if isinstance(term, Branch):
            # Read before the stores below, through the block's one load.
            cond = self._read_expr(term.cond, ops, lines)
        # Pointers are stored before the terminator, as a push-by-push
        # stack's would be, should the return-address push overflow.
        self._store_frames(lines)
        if isinstance(term, Jump):
            lines.append(f"vm.pcreg[idx] = {term.target}")
        elif isinstance(term, Branch):
            # A bool cast to an index is 0 or 1: the branch is an indexed load
            # from the block's two targets, not a ufunc.
            tgt = self._bind("g", "targets", (term.false_target, term.true_target))
            lines.append(f"_c = np.asarray({cond}, dtype=bool)")
            lines.append(f"vm.pcreg[idx] = {tgt}[_c.astype(np.intp)]")
        elif isinstance(term, PushJump):
            lines.append(f"vm.addr_stack.push_at(idx, {term.return_target})")
            lines.append(f"vm.pcreg[idx] = {term.jump_target}")
        elif isinstance(term, Return):
            lines.append("vm.pcreg[idx] = vm.addr_stack.pop_at(idx)")
        else:
            raise FusionUnsupported(f"cannot fuse terminator {term!r}")

        # One tally per executed block stands for every record the
        # interpreter makes; the per-site element counts are shape facts,
        # captured the first time the block has values to measure.
        t = self._bind("n", "tally", block_index)
        if firsts:
            els = ", ".join(f"_el({first})" for first in firsts)
            lines.append(f"if {t}.elements is None: {t}.elements = ({els},)")
        lines.append(f"{t}.executions += 1")
        lines.append(f"{t}.active += _na")

    def _wrap(self, entry_index: int, lines: List[str]) -> _CompiledBlock:
        body = textwrap.indent("\n".join(lines), "    ")
        source = (
            f"def _fused_block_{entry_index}(vm, idx):\n"
            f"    _na = idx.size\n"
            f"{body}\n"
        )
        return _CompiledBlock(entry_index, source, self.spec, self.ops[entry_index])

    def compile(self, block_index: int) -> _CompiledBlock:
        """Generate and compile block ``block_index``'s fused source."""
        lines: List[str] = []
        self.emit_block(block_index, lines)
        return self._wrap(block_index, lines)

    def compile_chain(self, chain: Sequence[int]) -> _CompiledBlock:
        """Generate one guarded multi-block function for a superblock run.

        The entry member executes exactly as a plain fused block.  Each
        later member re-derives its lane set from the *current* program
        counters and runs under an ``if idx.size`` guard, so:

        * lanes that left the hot path have already fallen out — the side
          exit costs nothing beyond the pc compare;
        * lanes that were already parked at the member (other requests,
          resumed stragglers) are swept into the same dispatch, which is
          sound because each lane's results are independent of its
          dispatch companions.

        Per-member instrumentation matches the machine loop: one step and
        one block tally per member that ran, profiling through the
        machine's own ``_record_block`` when armed, and the active-lane
        sets of every member concatenated into the callable's return value
        so serving step budgets charge the same per-block rate as the
        single-block executors.
        """
        start = chain[0]
        if len(chain) == 1:
            return self.compile(start)
        lines: List[str] = ["_i = vm.instr"]
        self.emit_block(start, lines)
        lines.append("_stepped = [idx]")
        for member in chain[1:]:
            body: List[str] = []
            self.emit_block(member, body)
            lines.append(f"idx = (vm.pcreg == {member}).nonzero()[0]")
            lines.append("if idx.size:")
            inner = [
                "_na = idx.size",
                "_i.steps += 1",
                "_stepped.append(idx)",
                "if _i.track_blocks:",
                f"    vm._record_block({member}, idx)",
            ] + body
            lines.extend("    " + stmt for stmt in inner)
        lines.append("if len(_stepped) > 1:")
        lines.append("    return np.concatenate(_stepped)")
        return self._wrap(start, lines)


class FusedBlockExecutor(BlockExecutor):
    """Every block pre-compiled into one generated straight-line callable.

    One host dispatch per block execution instead of one per primitive —
    the XLA analog, and the executor behind Figure 5's ``pc_fused`` line
    and the serving engine's ``executor="fused"``.

    Every block is compact (see the module docstring): it computes and
    writes its step's live lanes only, so outputs equal eager masking's and
    every counter equals eager gather-scatter's.  The machine's ``mode``
    changes nothing here: under ``mode="mask"`` or ``mode="gather"`` the
    same code runs on the same lanes; only the block profile's offered
    slots follow it.  Stacked variables move by static frame offsets, so
    a program is verified before its first codegen and refused with
    :class:`~repro.analysis.stackcheck.VerificationError` if it fails.
    """

    name = "fused"
    accounting = "fused"
    live_lanes_only = True

    def __init__(self):
        # Source generation + compile() happen once per *program*; every bind
        # only re-resolves the spec's names against one VM and its registry.
        # The cache is keyed per program (identity), so one executor
        # instance can be shared by many plans/machines — a whole serving
        # cluster binds one code cache — and alternating binds across
        # programs never thrash.  The cache holds a strong reference to each
        # program so an id() is never reused while its entry is alive;
        # entries live as long as the executor, so a long-lived instance
        # should serve a bounded program population (plans already pin their
        # programs anyway).
        self._compiled: Dict[int, Tuple[StackProgram, List[_CompiledBlock]]] = {}
        #: Codegen events this instance has performed, one per cache entry
        #: (the compile-once counter the cluster tests assert on).
        self.compile_count = 0

    def _compile(self, program: StackProgram) -> List[_CompiledBlock]:
        return [
            _BlockCompiler(program).compile(i) for i in range(len(program.blocks))
        ]

    def _compiled_blocks(
        self, program: StackProgram, facts: Any = None
    ) -> List[_CompiledBlock]:
        entry = self._compiled.get(id(program))
        if entry is None:
            if facts is None:
                # Static frame offsets assume no pop goes below a lane's
                # base frame: an unverifiable program is refused here, and
                # runs under the eager executor only.
                from repro.analysis.stackcheck import verify_stack_program

                verify_stack_program(program)
            blocks = self._compile(program)
            self._compiled[id(program)] = (program, blocks)
            self.compile_count += 1
            _TOTAL_FUSED_COMPILES[0] += 1
            return blocks
        return entry[1]

    def bind(self, vm: Any) -> List[Callable]:
        registry = vm.registry
        compiled = self._compiled_blocks(vm.program, vm.plan.facts)
        # Every block fronts its own compiled entry (a superblock chain
        # starts at it), so the entries' operation lists cover the program.
        tallies = vm._tallies = TallyTable(
            [
                BlockTally(blk.ops, [registry.get(fn) for fn in blk.ops.prim_fns])
                for blk in compiled
            ]
        )
        return [blk.bind(vm, registry, tallies) for blk in compiled]

    def dispatch_count(self, instr: Instrumentation) -> int:
        """One host→device launch per basic-block execution."""
        return instr.steps

    def device_dispatch_count(self, instr: Instrumentation) -> int:
        """Identical: the fused block *is* the launch unit (XLA accounting)."""
        return instr.steps


register_executor(FusedBlockExecutor.name, FusedBlockExecutor)


class SuperblockExecutor(FusedBlockExecutor):
    """Hot block *runs* compiled into one guarded callable per entry block.

    Where the fused executor pays one host dispatch per basic block per
    machine step, this executor compiles every block's superblock run (see
    :func:`repro.backend.regions.select_regions`) into a single function:
    one dispatch executes the entry block and then falls through the run's
    members, each guarded by a fresh pc compare.  Lanes that diverge fall out
    at a side exit with their pcs already set by the member terminator that
    diverted them; lanes parked further down the run are swept in.  Every
    block fronts its own run, so arbitrary entry pcs (preemption resume,
    side exits, snapshot migration) never hit a slow path.

    Regions are static: runs follow fall-through edges and end at every
    branch, so they depend on the program alone and are derived once per
    program.

    Results are bit-identical to the eager and fused executors: each lane's
    values are independent of its dispatch companions, so sweeping extra
    lanes through a member block changes *when* work happens, never what it
    computes.  Dispatch accounting uses
    :attr:`~repro.vm.instrumentation.Instrumentation.host_dispatches`
    (one per ``step_lanes`` call) rather than ``steps``; the gap between
    the two is the amortization superblocks buy.
    """

    name = "superblock"
    accounting = "fused"

    def __init__(self):
        super().__init__()
        self._regions: Dict[int, Tuple[StackProgram, Any]] = {}

    def regions_for(self, program: StackProgram):
        """The :class:`~repro.backend.regions.RegionTable` for ``program``.

        Derived once per program and cached; codegen and plan verification
        read it.
        """
        from repro.backend.regions import select_regions

        entry = self._regions.get(id(program))
        if entry is None:
            table = select_regions(program)
            self._regions[id(program)] = (program, table)
            return table
        return entry[1]

    def _compile(self, program: StackProgram) -> List[_CompiledBlock]:
        table = self.regions_for(program)
        # A stale or hand-built table must not reach codegen: every run
        # edge has to exist in this program's CFG.  (Plan verification
        # additionally checks runs against the abstract interpreter's
        # reachability facts; this structural gate also covers plans
        # compiled with verify=False.)
        from repro.analysis.stackcheck.regions import verify_region_table

        verify_region_table(program, table)
        return [
            _BlockCompiler(program).compile_chain(table.chain(i))
            for i in range(len(program.blocks))
        ]

    def dispatch_count(self, instr: Instrumentation) -> int:
        """One host launch per machine dispatch — several blocks each."""
        return instr.host_dispatches

    def device_dispatch_count(self, instr: Instrumentation) -> int:
        """Identical: the whole superblock is the launch unit."""
        return instr.host_dispatches


register_executor(SuperblockExecutor.name, SuperblockExecutor)
