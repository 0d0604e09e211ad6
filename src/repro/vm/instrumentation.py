"""Execution counters for both machines.

The key derived metric is **batch utilization** (paper Figure 6): the
fraction of executed primitive lane-slots that belonged to locally active
batch members.  Under masking, a primitive executed at batch size ``Z`` with
``a`` active members does ``Z`` lanes of work of which ``a`` are useful;
under gather-scatter, it does ``a`` lanes but the divergence still shows up
as extra machine steps.  We count *slots* (``Z`` per execution) and *active*
(``a``) per primitive name and per tag, so utilization can be reported for
any class of primitives — Figure 6 uses the target-density gradient.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

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
    slots: int = 0     # lanes the platform executed (Z per execution, masked)
    active: int = 0    # lanes that were locally active (useful work)
    flops: float = 0.0  # abstract work: cost_weight * elements/lane * slots

    def utilization(self) -> float:
        """Fraction of this counter's lane-slots that were active."""
        return self.active / self.slots if self.slots else 1.0


@dataclass(slots=True)
class BlockCounter:
    """Per-basic-block lane accounting (profiling only, off by default).

    ``slots - active`` is the block's masked-lane waste — the per-block
    signal superblock fusion ranks stragglers by.  ``live`` records how
    many lanes were live anywhere in the machine at those steps, which
    separates "the batch is drained" from "the batch diverged away from
    this block".  Slotted: it is updated once per machine step when
    profiling is armed.
    """

    executions: int = 0
    active: int = 0    # lanes whose pc sat at this block (useful work)
    live: int = 0      # lanes live anywhere in the machine at those steps
    slots: int = 0     # lane-slots the platform offered (Z per execution)

    def waste(self) -> int:
        """Offered lane-slots that did no useful work at this block."""
        return self.slots - self.active

    def occupancy(self) -> float:
        """Fraction of offered slots active at this block."""
        return self.active / self.slots if self.slots else 1.0


@dataclass
class Instrumentation:
    """Mutable counters, shared across nested interpreter activations."""

    batch_size: int = 0
    steps: int = 0                      # basic-block executions
    host_dispatches: int = 0            # machine dispatches (step_lanes calls)
    kernel_calls: int = 0               # primitive dispatches
    pushes: int = 0                     # stack frames pushed (all variables)
    pops: int = 0
    push_lanes: int = 0                 # per-lane stack traffic
    pop_lanes: int = 0
    stacked_reads: int = 0              # reads hitting a stack-backed variable
    stacked_writes: int = 0             # writes scattering into a stack array
    register_writes: int = 0            # masked updates of stack-free variables
    lane_slots: int = 0                 # machine lanes offered (Z per step)
    lane_live: int = 0                  # lanes holding a live (unhalted) member
    by_prim: Dict[str, OpCounter] = field(default_factory=lambda: defaultdict(OpCounter))
    by_tag: Dict[str, OpCounter] = field(default_factory=lambda: defaultdict(OpCounter))
    track_blocks: bool = False          # arm per-block profiling (O(Z) scan/step)
    by_block: Dict[int, BlockCounter] = field(default_factory=dict)

    def record_step(self) -> None:
        """Count one basic-block execution."""
        self.steps += 1

    def record_dispatch(self) -> None:
        """Count one host dispatch (one ``step_lanes`` call).

        For the eager and fused executors every dispatch executes exactly
        one basic block, so ``host_dispatches == steps``.  A superblock
        executor runs several blocks per dispatch, pushing
        ``host_dispatches / steps`` strictly below one — the amortization
        ``tests/test_superblock.py`` asserts on.
        """
        self.host_dispatches += 1

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

        Only called when ``track_blocks`` is set; ``slots`` mirrors the
        primitive-level convention (batch width under masking, the
        gathered index size under gather-scatter).
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
        self.kernel_calls += 1
        flops = weight * elements * slots
        counter = self.by_prim[name]
        counter.executions += 1
        counter.slots += slots
        counter.active += active
        counter.flops += flops
        for tag in tags:
            t = self.by_tag[tag]
            t.executions += 1
            t.slots += slots
            t.active += active
            t.flops += flops

    def record_push(self, lanes: int) -> None:
        """Count one stack push touching ``lanes`` members."""
        self.pushes += 1
        self.push_lanes += lanes

    def record_pop(self, lanes: int) -> None:
        """Count one stack pop touching ``lanes`` members."""
        self.pops += 1
        self.pop_lanes += lanes

    def record_storage(self, kind, is_write: bool) -> None:
        """Count one variable access by storage class (ablation C metric)."""
        name = getattr(kind, "name", str(kind))
        if name == "STACKED":
            if is_write:
                self.stacked_writes += 1
            else:
                self.stacked_reads += 1
        elif is_write:
            self.register_writes += 1

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
