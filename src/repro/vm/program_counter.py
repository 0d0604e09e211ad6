"""Program-counter autobatching — the paper's Algorithm 2.

A flat, non-recursive batched machine over the stack dialect.  All state —
variable values, per-variable stacks, stack pointers, and the program
counter with its own return-address stack — is arrays, so the whole runtime
is a single loop of batched array operations: exactly the property that lets
the original system stage into graph-mode TensorFlow/XLA, and that lets this
reproduction compile basic blocks into fused closures (see
:mod:`repro.backend.fusion`).

Because recursive state is explicit, the machine batches logical threads at
*different stack depths* whenever they wait at the same block — the paper's
headline capability (e.g. the 5th gradient of one chain's 3rd NUTS
trajectory in tandem with the 8th gradient of another's 2nd).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frontend.registry import PrimitiveRegistry, default_registry
from repro.ir.instructions import StackProgram, VarKind
from repro.ir.types import TensorType
from repro.vm.executors import ExecutionPlan, resolve_executor
from repro.vm.instrumentation import Instrumentation
from repro.vm.local_static import ExecutionLimitExceeded, batch_arrays
from repro.vm.scheduler import make_scheduler
from repro.vm.stack import BatchedStack, StackOverflowError
from repro.vm.state import RegisterStorage, StackedStorage, TypeMismatchError, check_fits

#: Stack depth used when nothing better is known: no explicit
#: ``max_stack_depth`` was given and the plan carries no verified bound
#: (unverified plan, or a recursive program whose depth is input-dependent).
DEFAULT_MAX_STACK_DEPTH = 32


class SnapshotIncompatibleError(StackOverflowError):
    """A :class:`LaneSnapshot` statically cannot restore into this machine.

    Raised by :meth:`ProgramCounterVM.restore_lane` *before* any machine
    state is touched, naming the required vs available depth — replacing
    the old mid-restore overflow that surfaced from inside a stack after
    the lane had already been reset.  Subclasses
    :class:`~repro.vm.stack.StackOverflowError`, so the serving engine's
    fail-only-this-handle handling is unchanged.
    """


@dataclass
class LaneSnapshot:
    """One lane's complete machine state, detached from any machine.

    Because the program-counter machine keeps *all* recursive state explicit
    — the pc, the return-address stack, and per-variable value stacks are
    arrays with a lane dimension — a mid-flight lane is checkpointable: its
    column slices are the whole logical thread.  A snapshot captures those
    slices as plain arrays, so it can be reinstalled into any vacant lane of
    any machine running the same program (any width, any executor) and the
    thread resumes bit-identically from where it was.
    This is what lets the serving engine *preempt* a lane (evict, requeue
    with the snapshot, resume later) and lets the cluster migrate a
    preempted lane to another shard.

    ``storages`` maps variable name to the payload its storage class
    captured: a value copy for registers, the logical frames for stacked
    variables, each at the restoring machine's type (None, which the wire
    format can carry, restores as zeros).  Executors
    hold no per-lane state, so these four fields are the whole thread and
    a snapshot moves freely between eager, fused, and superblock machines.

    :meth:`to_bytes`/:meth:`from_bytes` round-trip the snapshot through a
    versioned, integrity-checked wire format
    (:mod:`repro.vm.snapshot_codec`) — the basis for snapshot spilling and
    cross-process migration.
    """

    program: StackProgram
    pc: int
    addr_frames: np.ndarray
    storages: Dict[str, Optional[np.ndarray]]

    def required_depth(self) -> int:
        """Smallest machine ``max_stack_depth`` that can hold these frames.

        The deepest saved-frame count across the return-address stack and
        every captured variable stack (the live top is the implicit base
        frame and needs no saved slot).  ``ValueError`` when a stack holds
        no frame at all: every stack keeps its base frame, so such a
        snapshot was not captured from a machine.
        """
        stacks = [("return-address stack", self.addr_frames)] + [
            (f"stacked variable {name!r}", payload)
            for name, payload in self.storages.items()
            if payload is not None and self.program.kind(name) is VarKind.STACKED
        ]
        required = 0
        for what, frames in stacks:
            rows = np.shape(frames)[:1]
            if not rows or rows[0] < 1:
                raise ValueError(
                    f"lane snapshot's {what} holds frames of shape "
                    f"{np.shape(frames)}; every stack holds at least its "
                    "base frame"
                )
            required = max(required, rows[0] - 1)
        return required

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format.

        Deterministic: identical snapshots encode to identical bytes.
        Raises :class:`~repro.vm.snapshot_codec.SnapshotCodecError` (a
        ``ValueError``) naming the storage if one holds an object-dtype
        array, which has no byte representation.
        """
        from repro.vm.snapshot_codec import encode_snapshot

        return encode_snapshot(self)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        program: StackProgram,
        *,
        facts: Any = None,
        max_stack_depth: Optional[int] = None,
    ) -> "LaneSnapshot":
        """Decode serialized snapshot bytes against ``program``.

        The bytes are admission-checked *before* any lane state is
        materialized: integrity (CRC), program fingerprint, pc range, and
        — when ``facts``/``max_stack_depth`` are given — the same static
        depth checks :meth:`ProgramCounterVM.restore_lane` performs.  See
        :func:`repro.vm.snapshot_codec.decode_snapshot` for the typed
        error taxonomy.
        """
        from repro.vm.snapshot_codec import decode_snapshot

        return decode_snapshot(
            data, program, facts=facts, max_stack_depth=max_stack_depth
        )

    def __repr__(self) -> str:
        return (
            f"LaneSnapshot(pc={self.pc}, "
            f"addr_depth={self.addr_frames.shape[0]}, "
            f"storages={sorted(self.storages)})"
        )


class ProgramCounterVM:
    """Algorithm 2 with pluggable execution mode, scheduler, and block executors."""

    def __init__(
        self,
        program: Union[StackProgram, ExecutionPlan],
        batch_size: int,
        registry: Optional[PrimitiveRegistry] = None,
        mode: str = "mask",
        scheduler: Any = "earliest",
        max_stack_depth: Optional[int] = None,
        instrumentation: Optional[Instrumentation] = None,
        max_steps: int = 10 ** 9,
        executor: Any = None,
    ):
        if mode not in ("mask", "gather"):
            raise ValueError(f"mode must be 'mask' or 'gather', got {mode!r}")
        if isinstance(program, ExecutionPlan):
            plan = program
            program = plan.program
            if executor is not None:
                raise ValueError("pass either an ExecutionPlan or executor=, not both")
        else:
            plan = ExecutionPlan(program=program, executor=resolve_executor(executor))
        if max_stack_depth is None:
            # Pre-size from the verifier's proven bound when the plan has
            # one; recursive (depth-unbounded) or unverified programs fall
            # back to the legacy default.  An explicit argument always wins.
            facts = getattr(plan, "facts", None)
            proven = None if facts is None else facts.required_stack_depth
            max_stack_depth = (
                DEFAULT_MAX_STACK_DEPTH if proven is None else proven
            )
        self.program = program
        self.batch_size = int(batch_size)
        self.registry = registry or default_registry
        self.mode = mode
        self.scheduler = make_scheduler(scheduler)
        self.max_stack_depth = int(max_stack_depth)
        self.instr = instrumentation or Instrumentation()
        self.instr.batch_size = self.batch_size
        self.max_steps = max_steps
        self.exit_index = program.exit_index

        self.storages: Dict[str, Any] = {}
        # Every variable's type, fixed by the first inputs bound.
        self.types: Optional[Dict[str, TensorType]] = None
        self._temps: Dict[str, np.ndarray] = {}
        self.pcreg = np.zeros(self.batch_size, dtype=np.int64)
        self.addr_stack = BatchedStack(
            batch_size=self.batch_size,
            depth=self.max_stack_depth,
            event_shape=(),
            dtype="int64",
        )
        # The bottom of every member's pc stack is the exit index, so the
        # main function's Return halts that member (Algorithm 2's pc init).
        self.addr_stack.update(
            np.ones(self.batch_size, dtype=bool),
            np.full(self.batch_size, self.exit_index, dtype=np.int64),
        )
        # Executors whose blocks tally their executions instead of recording
        # each operation install the machine's TallyTable here at bind.
        self._tallies = None
        # Compile/attach the plan's per-block callables; the step loop only
        # ever dispatches through these.
        self.plan = plan
        self._block_fns = plan.bind(self)
        self._live_lanes_only = plan.executor.live_lanes_only
        self._steps = 0

    # -- storage ----------------------------------------------------------------

    def storage(self, name: str):
        """The storage backing ``name``, allocated once types are fixed."""
        st = self.storages.get(name)
        if st is None:
            kind = self.program.kind(name)
            if kind is VarKind.STACKED:
                st = StackedStorage(name, self.batch_size, self.max_stack_depth)
            else:
                st = RegisterStorage(name, self.batch_size)
            if self.types is not None:
                st.allocate(self.types[name])
            self.storages[name] = st
        return st

    def _fix_types(self, signature: Tuple[TensorType, ...]) -> None:
        """Fix the types for input ``signature`` and allocate every storage."""
        self.types = self.plan.types_for(signature, self.registry)
        for name, st in self.storages.items():
            st.allocate(self.types[name])

    def _read(self, name: str, idx: Optional[np.ndarray]) -> np.ndarray:
        if name in self._temps:
            return self._temps[name]
        self.instr.record_storage(self.program.kind(name), is_write=False)
        if idx is None:
            return self.storage(name).read()
        return self.storage(name).read_at(idx)

    def _write(self, name: str, value: np.ndarray, mask: np.ndarray, idx: np.ndarray) -> None:
        kind = self.program.kind(name)
        if kind is VarKind.TEMP:
            self._temps[name] = np.asarray(value)
            return
        self.instr.record_storage(kind, is_write=True)
        if self.mode == "mask":
            self.storage(name).write(mask, np.asarray(value))
        else:
            self.storage(name).write_at(idx, np.asarray(value))

    # -- execution ------------------------------------------------------------------

    def _typed_inputs(self, inputs: Sequence[np.ndarray], width: int, what: str):
        """``(name, array)`` per input, checked.  The first inputs fix the
        machine's types; later ones must cast ``same_kind`` into them."""
        if len(inputs) != len(self.program.inputs):
            raise ValueError(
                f"program takes {len(self.program.inputs)} inputs, got {len(inputs)}"
            )
        pairs = [(name, np.asarray(v)) for name, v in zip(self.program.inputs, inputs)]
        for name, value in pairs:
            if value.shape[0] != width:
                raise ValueError(
                    f"input {name!r} has leading dimension {value.shape[0]}, "
                    f"expected {what} {width}"
                )
        if self.types is None:
            self._fix_types(tuple(TensorType(v.dtype, v.shape[1:]) for _, v in pairs))
        for name, value in pairs:
            check_fits(f"input {name!r}", self.types[name], value)
        return pairs

    def bind_inputs(self, inputs: Sequence[np.ndarray]) -> None:
        """Write the batch inputs into the machine's input variables."""
        everyone = np.ones(self.batch_size, dtype=bool)
        for name, value in self._typed_inputs(inputs, self.batch_size, "batch size"):
            self.storage(name).write(everyone, value)

    def outputs(self) -> List[np.ndarray]:
        """Current values of the program's output variables."""
        return [self.storage(name).read() for name in self.program.outputs]

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Execute until every member halts; returns the output arrays."""
        if self._steps:
            # A machine that has stepped holds its last members, parked at
            # the exit or mid-flight: start every lane over, as a fresh
            # machine would, or the new inputs would never execute.
            self.reset_lanes(np.arange(self.batch_size))
            self._steps = 0
        self.types = None  # every lane starts over, so may bind new types
        self.bind_inputs(inputs)
        self.scheduler.reset()
        self._attach_tallies()
        step = self._step
        if self._live_lanes_only:
            while step() is not None:
                pass
        else:
            with np.errstate(all="ignore"):
                while step() is not None:
                    pass
        # A finished run leaves nothing behind in a shared Instrumentation
        # (re-attached first, had a kernel read a counter mid-run).
        self._attach_tallies()
        self.instr.expand_tallies()
        # Copies: the next run() on this machine resets the storages.
        return [np.array(out) for out in self.outputs()]

    def step(self) -> bool:
        """Select and execute one basic block; False when all members halted."""
        return self.step_lanes() is not None

    def step_lanes(self) -> Optional[np.ndarray]:
        """Like :meth:`step`, but returns the executed lane indices.

        Returns ``None`` when every member has halted, else the (possibly
        empty-shaped) index array of lanes that were active in the executed
        block — the serving engine uses this for per-request step budgets.
        """
        self._attach_tallies()
        if self._live_lanes_only:
            return self._step()
        with np.errstate(all="ignore"):
            return self._step()

    def _attach_tallies(self) -> None:
        """List this machine's block tallies with ``instr`` (any counter read
        detaches them) — per entry into the machine, not per block."""
        tallies = self._tallies
        if tallies is not None and not tallies.attached:
            self.instr.attach(tallies)

    def _step(self) -> Optional[np.ndarray]:
        """One step.  No block (generated or interpreted) enters
        ``np.errstate``: unless the executor computes live lanes only, the
        caller holds ``np.errstate(all="ignore")``, since eager masking
        computes masked-off lanes on junk."""
        i = self.scheduler.select(self.pcreg, self.exit_index)
        if i is None:
            return None
        self._steps += 1
        if self._steps > self.max_steps:
            raise ExecutionLimitExceeded(f"exceeded max_steps={self.max_steps}")
        instr = self.instr
        instr.steps += 1
        instr.host_dispatches += 1
        idx = (self.pcreg == i).nonzero()[0]
        if instr.track_blocks:
            self._record_block(i, idx)
        # A superblock returns the lanes of every member block it ran in
        # this one dispatch, for per-request step budgets; a block, nothing.
        stepped = self._block_fns[i](self, idx)
        return idx if stepped is None else stepped

    def _record_block(self, i: int, idx: np.ndarray) -> None:
        """Per-block profiling (an O(Z) scan per step, so only when armed).

        Superblock members call it too, for each member that runs.  Lane
        occupancy is not counted here: the serving engine, the one
        consumer, records it from its lane pool's busy count.
        """
        live = int(np.count_nonzero(self.pcreg < self.exit_index))
        # The machine's mode sets the lane-slots offered, whatever the
        # executor: the full batch width under masking, the block's lanes
        # under gather-scatter.
        slots = int(idx.size) if self.mode == "gather" else self.batch_size
        self.instr.record_block(i, int(idx.size), live, slots)

    # -- lane lifecycle (continuous-batching serving) -----------------------------
    #
    # A lane whose program counter sits at ``exit_index`` is *vacant*: the
    # machine's masked steps never touch it, so its storage can be recycled
    # for a fresh logical thread without disturbing in-flight neighbors.
    # These hooks let :class:`repro.serve.Engine` retire finished members
    # and inject queued requests mid-flight, never waiting for the batch
    # to empty.

    @property
    def entry_index(self) -> int:
        """Block index where a freshly injected member begins (the entry block)."""
        return 0

    def halted_mask(self) -> np.ndarray:
        """Boolean (Z,) mask of lanes whose member has reached the exit."""
        return self.pcreg >= self.exit_index

    def halt_lanes(self, idx: np.ndarray) -> None:
        """Force the lanes in ``idx`` to the exit (aborting their members)."""
        idx = np.asarray(idx, dtype=np.int64)
        self.pcreg[idx] = self.exit_index

    def reset_lanes(self, idx: np.ndarray) -> None:
        """Return the lanes in ``idx`` to the machine's initial state.

        Program counters go to the entry block, each lane's return-address
        stack is emptied down to the exit-index base frame (Algorithm 2's pc
        init), and every allocated storage zeroes those lanes — bitwise the
        state a fresh machine would give them.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        self.pcreg[idx] = self.entry_index
        self.addr_stack.reset_lanes(
            idx, top=np.full(idx.size, self.exit_index, dtype=np.int64)
        )
        for st in self.storages.values():
            st.reset_lanes(idx)

    def inject_lanes(self, idx: np.ndarray, inputs: Sequence[np.ndarray]) -> None:
        """Start new members in the lanes ``idx`` with the given inputs.

        ``inputs`` carries one array per program input with leading dimension
        ``len(idx)`` (the gathered batch of the injected requests).  The
        lanes must be vacant; in-flight lanes are untouched.
        """
        idx = np.asarray(idx, dtype=np.int64)
        pairs = self._typed_inputs(inputs, idx.size, "injected lane count")
        self.reset_lanes(idx)
        for name, value in pairs:
            self.storage(name).write_at(idx, value)

    def retire_lanes(self, idx: np.ndarray) -> List[np.ndarray]:
        """Gather the program outputs of the (halted) lanes in ``idx``.

        Returns one ``(len(idx), *event)`` array per program output; the
        lanes themselves stay vacant until the next injection.
        """
        idx = np.asarray(idx, dtype=np.int64)
        return [self.storage(name).read_at(idx) for name in self.program.outputs]

    # -- lane checkpoint/resume (preemptive serving) -----------------------------
    #
    # snapshot_lane/restore_lane extend the lifecycle hooks above from
    # "recycle a *finished* lane" to "checkpoint a *mid-flight* lane":
    # the serving engine evicts a straggler (snapshot + halt + requeue) so
    # higher-priority work can take its lane, and later reinstalls the
    # snapshot — on this machine or on another shard's — to resume, not
    # restart, the evicted thread.

    def snapshot_lane(self, lane: int) -> LaneSnapshot:
        """Capture lane ``lane``'s state as a machine-independent snapshot.

        Safe between steps (temporaries are block-local, so nothing lives
        outside the storages, the pc, and the return-address stack).  The
        machine is not modified.
        """
        lane = int(lane)
        return LaneSnapshot(
            program=self.program,
            pc=int(self.pcreg[lane]),
            addr_frames=np.array(self.addr_stack.frames(lane), copy=True),
            storages={
                name: st.capture_lane(lane)
                for name, st in self.storages.items()
            },
        )

    def restore_lane(self, lane: int, snapshot: LaneSnapshot) -> None:
        """Reinstall ``snapshot`` into lane ``lane``, resuming its thread.

        The lane is reset first, then the snapshot's pc, return-address
        frames, and storage slices are written back; storages the snapshot
        never saw stay zeroed (the thread never wrote them, so it must
        write before reading them again).  Whatever occupied the lane is
        destroyed — the serving engine only restores into vacant lanes.
        An untyped machine takes its types from the snapshot's inputs.

        Incompatibility is rejected *statically, before any machine state
        is touched*: ``ValueError`` on a program mismatch, an impossible
        pc or a stack without its base frame,
        :class:`SnapshotIncompatibleError` (a
        :class:`~repro.vm.stack.StackOverflowError`) when this machine's
        ``max_stack_depth`` cannot hold the captured frames — naming the
        required vs available depth, instead of the old mid-restore
        overflow that left the lane half-written; and a
        :class:`~repro.vm.state.TypeMismatchError` for a payload of other types.
        """
        if snapshot.program is not self.program:
            raise ValueError(
                "lane snapshot was captured from a different program; "
                "snapshots only restore into machines bound to the same "
                "StackProgram"
            )
        if not (0 <= snapshot.pc <= self.exit_index):
            raise ValueError(
                f"lane snapshot pc {snapshot.pc} is outside this program's "
                f"pc range [0, {self.exit_index}]"
            )
        required = snapshot.required_depth()
        if required > self.max_stack_depth:
            raise SnapshotIncompatibleError(
                f"lane snapshot at pc={snapshot.pc} requires stack depth "
                f"{required} but this machine has max_stack_depth="
                f"{self.max_stack_depth}; restore it into a machine with "
                f"max_stack_depth >= {required}"
            )
        facts = getattr(self.plan, "facts", None)
        if facts is not None:
            # A snapshot claiming more frames than the verified bound was
            # not produced by this program — reject it even on a machine
            # deep enough to physically hold it.
            facts.check_snapshot_frames(required, self.max_stack_depth)
        kind = self.program.kind
        held = {  # each payload's dtype and event shape (a stack's are frames)
            name: (p.dtype, p.shape[1:] if kind(name) is VarKind.STACKED else p.shape)
            for name, p in snapshot.storages.items() if p is not None
        }
        types = self.types
        if types is None:
            if not all(name in held for name in self.program.inputs):
                raise ValueError("lane snapshot holds no inputs to take types from")
            signature = tuple(TensorType(*held[name]) for name in self.program.inputs)
            types = self.plan.types_for(signature, self.registry)
        for name, (dtype, event) in held.items():
            if (dtype, event) != (types[name].np_dtype, types[name].event_shape):
                raise TypeMismatchError(
                    f"lane snapshot's {name!r} holds {dtype} values of event "
                    f"shape {event}; its type is {types[name]}"
                )
        if self.types is None:
            self._fix_types(signature)
        lane = int(lane)
        idx = np.asarray([lane], dtype=np.int64)
        self.reset_lanes(idx)
        self.pcreg[lane] = snapshot.pc
        self.addr_stack.restore_lane(lane, snapshot.addr_frames)
        for name, payload in snapshot.storages.items():
            if payload is not None:
                self.storage(name).restore_lane(lane, payload)

    def observed_max_depth(self) -> int:
        """Peak logical stack depth any lane reached on this machine.

        The maximum over the return-address stack's and every variable
        stack's high-water mark, plus the implicit base frame — the exact
        runtime observable the verifier's static
        ``ProgramFacts.max_logical_depth`` bounds (and, for bounded
        programs whose deepest path executes, equals).
        """
        stacks = [self.addr_stack] + [
            st.stack for st in self.storages.values() if isinstance(st, StackedStorage)
        ]
        return max(stack.high_water for stack in stacks) + 1

    # -- inspection (Figure 3 snapshots) ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Runtime-state snapshot in the style of the paper's Figure 3."""
        stacks = {}
        for name, st in sorted(self.storages.items()):
            if isinstance(st, StackedStorage) and st.stack is not None:
                stacks[name] = {
                    "frames": [st.stack.frames(b) for b in range(self.batch_size)],
                    "stack_pointers": st.stack.sp.copy(),
                }
        return {
            "program_counter": self.pcreg.copy(),
            "pc_stack": {
                "frames": [self.addr_stack.frames(b) for b in range(self.batch_size)],
                "stack_pointers": self.addr_stack.sp.copy(),
            },
            "variable_stacks": stacks,
        }


def run_program_counter(
    program: Union[StackProgram, ExecutionPlan],
    inputs: Sequence[np.ndarray],
    registry: Optional[PrimitiveRegistry] = None,
    mode: str = "mask",
    scheduler: Any = "earliest",
    max_stack_depth: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
    max_steps: int = 10 ** 9,
    executor: Any = None,
):
    """Run a stack program on a batch of inputs under Algorithm 2.

    ``program`` may be a bare :class:`StackProgram` (optionally with
    ``executor="eager"|"fused"`` or a :class:`~repro.vm.executors.BlockExecutor`)
    or a pre-compiled :class:`~repro.vm.executors.ExecutionPlan`.
    Returns a single array for single-output programs, else a tuple.
    """
    arrays = batch_arrays(inputs)
    vm = ProgramCounterVM(
        program,
        batch_size=arrays[0].shape[0],
        registry=registry,
        mode=mode,
        scheduler=scheduler,
        max_stack_depth=max_stack_depth,
        instrumentation=instrumentation,
        max_steps=max_steps,
        executor=executor,
    )
    outputs = vm.run(arrays)
    return outputs[0] if len(outputs) == 1 else tuple(outputs)
