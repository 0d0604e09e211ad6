"""Execution counters for both machines.

The key derived metric is **batch utilization** (paper Figure 6): the
fraction of executed primitive lane-slots that belonged to locally active
batch members.  Under masking, a primitive executed at batch size ``Z`` with
``a`` active members does ``Z`` lanes of work of which ``a`` are useful;
under gather-scatter, it does ``a`` lanes but the divergence still shows up
as extra machine steps.  We count *slots* and *active* (``a``) per primitive
name and per tag, so utilization can be reported for any class of primitives
— Figure 6 uses the target-density gradient.

*Slots* are the lanes the kernel was run on, per call site: ``Z`` per
execution under ``mode="mask"`` in the interpreters, ``a`` under
``mode="gather"`` and in every generated block (fused blocks are compact —
see :mod:`repro.backend.fusion`).  ``flops`` follow slots, so both read as
the work that ran.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np


def elements_per_lane(value) -> int:
    """Per-member element count of a batched value (1 for scalars)."""
    v = np.asarray(value)
    if v.ndim == 0 or v.shape[0] == 0:
        return 1
    return int(v.size // v.shape[0])


@dataclass
class OpCounter:
    executions: int = 0
    slots: int = 0     # lanes the platform executed (Z per masked execution)
    active: int = 0    # lanes that were locally active (useful work)
    flops: float = 0.0  # abstract work: cost_weight * elements/lane * slots

    def utilization(self) -> float:
        """Fraction of this counter's lane-slots that were active."""
        return self.active / self.slots if self.slots else 1.0


class BlockCounter:
    """Per-basic-block lane accounting (profiling only, off by default).

    ``slots - active`` is the block's masked-lane waste — the per-block
    signal superblock fusion ranks stragglers by.  ``live`` records how
    many lanes were live anywhere in the machine at those steps, which
    separates "the batch is drained" from "the batch diverged away from
    this block".  Slotted: it is updated once per machine step when
    profiling is armed.
    """

    __slots__ = ("executions", "active", "live", "slots")

    def __init__(
        self, executions: int = 0, active: int = 0, live: int = 0, slots: int = 0
    ):
        self.executions = executions
        self.active = active    # lanes whose pc sat at this block (useful work)
        self.live = live        # lanes live anywhere in the machine at those steps
        self.slots = slots      # lane-slots the platform offered (Z per execution)

    def __repr__(self) -> str:
        return (
            f"BlockCounter(executions={self.executions}, active={self.active}, "
            f"live={self.live}, slots={self.slots})"
        )

    def waste(self) -> int:
        """Offered lane-slots that did no useful work at this block."""
        return self.slots - self.active

    def occupancy(self) -> float:
        """Fraction of offered slots active at this block."""
        return self.active / self.slots if self.slots else 1.0


class BlockOps:
    """What one execution of a basic block counts: its static operation list."""

    __slots__ = (
        "prim_fns", "pushes", "pops", "stacked_reads", "stacked_writes",
        "register_writes",
    )

    def __init__(self) -> None:
        self.prim_fns: List[str] = []  # one per PrimOp site, in block order
        self.pushes = 0
        self.pops = 0
        self.stacked_reads = 0
        self.stacked_writes = 0
        self.register_writes = 0


class BlockTally:
    """One basic block's executions on one machine, not yet counted per op.

    Generated block code (:mod:`repro.backend.fusion`) does not record its
    operations one by one: a block's operation list is static, so it bumps
    ``executions`` and ``active`` once per execution, and
    :class:`Instrumentation` multiplies them through ``ops`` when a counter
    is read.  ``prims`` resolves ``ops.prim_fns`` in the machine's registry;
    ``elements`` holds the per-lane element count of each of those sites'
    first output, captured on the block's first execution (an allocated
    storage's event shape never changes, so neither do these).
    """

    __slots__ = ("ops", "prims", "executions", "active", "elements")

    def __init__(self, ops: BlockOps, prims: Sequence[Any]):
        self.ops = ops
        self.prims = prims
        self.executions = 0
        self.active = 0
        self.elements: Optional[Sequence[int]] = None


class TallyTable:
    """One machine's :class:`BlockTally` per block.

    ``attached`` is true while the machine's :class:`Instrumentation` lists
    the table as holding uncounted executions; the machine re-attaches it on
    its next step after every expansion.
    """

    __slots__ = ("blocks", "attached")

    def __init__(self, blocks: List[BlockTally]):
        self.blocks = blocks
        self.attached = False


def _tallied(name: str) -> property:
    """A counter that folds pending block tallies in before it is read."""

    def read(self):
        if self._tables:
            self.expand_tallies()
        return getattr(self, name)

    return property(read)


class Instrumentation:
    """Mutable counters, shared across nested interpreter activations.

    The per-operation counters (``kernel_calls`` … ``by_tag``) are written
    directly by the interpreters and lazily by generated code: reading any
    of them first expands every attached :class:`TallyTable`, so a reader
    cannot tell which executor produced the counts.
    """

    kernel_calls = _tallied("_kernel_calls")    # primitive dispatches
    pushes = _tallied("_pushes")                # stack frames pushed (all variables)
    pops = _tallied("_pops")
    push_lanes = _tallied("_push_lanes")        # per-lane stack traffic
    pop_lanes = _tallied("_pop_lanes")
    stacked_reads = _tallied("_stacked_reads")      # reads of stack-backed variables
    stacked_writes = _tallied("_stacked_writes")    # writes into a stack array
    register_writes = _tallied("_register_writes")  # masked updates of registers
    by_prim = _tallied("_by_prim")
    by_tag = _tallied("_by_tag")

    def __init__(self, batch_size: int = 0, track_blocks: bool = False):
        self.batch_size = batch_size
        self.steps = 0              # basic-block executions
        #: Machine dispatches (``step_lanes`` calls).  The eager and fused
        #: executors run one block per dispatch, so it equals ``steps``; a
        #: superblock runs several, pushing ``host_dispatches / steps``
        #: below one — the amortization ``tests/test_superblock.py`` asserts.
        self.host_dispatches = 0
        self._kernel_calls = 0
        self._pushes = 0
        self._pops = 0
        self._push_lanes = 0
        self._pop_lanes = 0
        self._stacked_reads = 0
        self._stacked_writes = 0
        self._register_writes = 0
        self.lane_slots = 0         # machine lanes offered (Z per step)
        self.lane_live = 0          # lanes holding a live (unhalted) member
        self._by_prim: Dict[str, OpCounter] = defaultdict(OpCounter)
        self._by_tag: Dict[str, OpCounter] = defaultdict(OpCounter)
        self.track_blocks = track_blocks  # arm per-block profiling (O(Z) scan/step)
        self.by_block: Dict[int, BlockCounter] = {}
        self._tables: List[TallyTable] = []

    def record_step(self) -> None:
        """Count one basic-block execution."""
        self.steps += 1

    def record_occupancy(self, live: int, slots: int) -> None:
        """Count one machine step's lane occupancy.

        Every step the machine offers ``slots`` SIMD lanes (the batch width
        ``Z`` under masking) of which ``live`` hold a member whose program
        counter has not reached the exit.  The ratio is *lane utilization*
        — the serving-level analog of per-primitive batch utilization, and
        the quantity continuous batching exists to keep high: a drained
        machine ends its run with mostly-dead lanes, a recycled one refills
        them mid-flight.
        """
        self.lane_slots += slots
        self.lane_live += live

    def record_block(self, index: int, active: int, live: int, slots: int) -> None:
        """Count one basic-block execution's lane accounting (profiling).

        Only called when ``track_blocks`` is set; ``slots`` follows the
        machine's mode whatever the executor (batch width under masking,
        the block's lane count under gather-scatter).
        """
        counter = self.by_block.get(index)
        if counter is None:
            counter = self.by_block[index] = BlockCounter()
        counter.executions += 1
        counter.active += active
        counter.live += live
        counter.slots += slots

    def record_prim(
        self,
        name: str,
        tags,
        active: int,
        slots: int,
        elements: int = 1,
        weight: float = 1.0,
    ) -> None:
        """Count one primitive dispatch with its lane accounting."""
        self._count_prim(name, tags, 1, active, slots, weight * elements * slots)

    def _count_prim(
        self, name: str, tags, executions: int, active: int, slots: int, flops: float
    ) -> None:
        self._kernel_calls += executions
        counter = self._by_prim[name]
        counter.executions += executions
        counter.slots += slots
        counter.active += active
        counter.flops += flops
        for tag in tags:
            t = self._by_tag[tag]
            t.executions += executions
            t.slots += slots
            t.active += active
            t.flops += flops

    def record_push(self, lanes: int) -> None:
        """Count one stack push touching ``lanes`` members."""
        self._pushes += 1
        self._push_lanes += lanes

    def record_pop(self, lanes: int) -> None:
        """Count one stack pop touching ``lanes`` members."""
        self._pops += 1
        self._pop_lanes += lanes

    def record_storage(self, kind, is_write: bool) -> None:
        """Count one variable access by storage class (ablation C metric)."""
        name = getattr(kind, "name", str(kind))
        if name == "STACKED":
            if is_write:
                self._stacked_writes += 1
            else:
                self._stacked_reads += 1
        elif is_write:
            self._register_writes += 1

    # -- block tallies (generated code) ------------------------------------

    def attach(self, table: TallyTable) -> None:
        """List ``table`` as holding executions no counter reflects yet."""
        table.attached = True
        self._tables.append(table)

    def expand_tallies(self) -> None:
        """Fold every attached table into the per-operation counters.

        Each pending block execution counts exactly what the interpreter
        records op by op: ``n`` executions with ``a`` active lanes in total
        add ``n`` to every per-site count, ``a`` to every lane count and
        ``n`` times the site's per-execution flops (equal to ``n`` separate
        additions whenever those are exactly representable, as they are for
        the integer-valued weights every registered primitive carries).  A
        generated block runs its kernels on the active lanes only, so every
        site's slots are ``a`` and its flops follow — what the interpreter
        records under ``mode="gather"``.
        Tables are detached afterwards, so an ``Instrumentation`` keeps no
        reference to a machine that has stopped stepping.
        """
        tables, self._tables = self._tables, []
        for table in tables:
            table.attached = False
            for tally in table.blocks:
                n, active = tally.executions, tally.active
                if not n:
                    continue
                tally.executions = tally.active = 0
                ops = tally.ops
                self._pushes += n * ops.pushes
                self._push_lanes += active * ops.pushes
                self._pops += n * ops.pops
                self._pop_lanes += active * ops.pops
                self._stacked_reads += n * ops.stacked_reads
                self._stacked_writes += n * ops.stacked_writes
                self._register_writes += n * ops.register_writes
                for prim, elements in zip(tally.prims, tally.elements or ()):
                    self._count_prim(
                        prim.name, prim.tags, n, active, active,
                        prim.cost_weight * elements * active,
                    )

    # -- derived metrics ---------------------------------------------------

    def lane_utilization(self) -> float:
        """Fraction of offered machine lane-slots that held live members."""
        return self.lane_live / self.lane_slots if self.lane_slots else 1.0

    def utilization(self, tag: Optional[str] = None, prim: Optional[str] = None) -> float:
        """Fraction of executed lane-slots that were active.

        With ``tag`` or ``prim``, restrict to that class of primitives
        (Figure 6 uses ``tag="gradient"``).
        """
        if tag is not None:
            return self.by_tag[tag].utilization()
        if prim is not None:
            return self.by_prim[prim].utilization()
        slots = sum(c.slots for c in self.by_prim.values())
        active = sum(c.active for c in self.by_prim.values())
        return active / slots if slots else 1.0

    def count(self, tag: Optional[str] = None, prim: Optional[str] = None) -> OpCounter:
        """The raw :class:`OpCounter` for a tag or primitive."""
        if tag is not None:
            return self.by_tag[tag]
        if prim is not None:
            return self.by_prim[prim]
        raise ValueError("specify tag= or prim=")

    def summary(self) -> str:
        """Human-readable multi-line counter summary."""
        lines = [
            f"steps={self.steps} kernel_calls={self.kernel_calls} "
            f"pushes={self.pushes} pops={self.pops} "
            f"overall_utilization={self.utilization():.3f} "
            f"lane_utilization={self.lane_utilization():.3f}"
        ]
        for tag in sorted(self.by_tag):
            c = self.by_tag[tag]
            lines.append(
                f"  tag {tag}: execs={c.executions} active={c.active} "
                f"slots={c.slots} util={c.utilization():.3f}"
            )
        return "\n".join(lines)
