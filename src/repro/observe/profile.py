"""Per-block execution profiles: where the batch's lanes go to waste.

Under masked execution every basic-block dispatch offers the full batch
width ``Z`` of lane-slots but only the lanes whose program counter sits
at that block do useful work.  The VM (when profiling is enabled)
records, per block: how many times it executed, how many lanes were
active at it, how many lanes were live anywhere in the machine at that
step, and how many slots the platform burned.  ``slots - active`` is the
block's *masked-lane waste* — the exact per-block signal superblock
region selection (:mod:`repro.backend.regions`) needs: a block whose waste
dominates is a straggler that serializes the batch, and the fusion pass
should target the region around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class BlockRow:
    """Aggregated counters for one basic block (summed across machines)."""

    index: int
    label: str
    source: str
    executions: int = 0
    active: int = 0   # lane-slots doing useful work at this block
    live: int = 0     # lanes live anywhere in the machine at those steps
    slots: int = 0    # lane-slots the platform offered (Z per execution)

    @property
    def waste(self) -> int:
        """Masked-lane waste: offered slots that did no useful work."""
        return self.slots - self.active

    @property
    def occupancy(self) -> float:
        """Fraction of offered slots active at this block."""
        return self.active / self.slots if self.slots else 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "source": self.source,
            "executions": self.executions,
            "active": self.active,
            "live": self.live,
            "slots": self.slots,
            "waste": self.waste,
            "occupancy": round(self.occupancy, 6),
        }


class BlockProfile:
    """Per-block execution report, merged across one or more machines.

    Build with :meth:`collect` over ``(program, instrumentation)`` pairs
    — a cluster contributes one pair per shard; shards running the same
    program merge by block index, so the fleet-wide profile reads like a
    single machine's.
    """

    def __init__(self, rows: Dict[int, BlockRow]) -> None:
        self._rows = rows

    @classmethod
    def collect(cls, machines: Iterable[Tuple[object, object]]) -> "BlockProfile":
        """Merge per-block counters from ``(program, instrumentation)`` pairs.

        Labels come from the first program that names a block index;
        callers merging *different* programs get index-keyed sums with
        first-seen labels, which is only meaningful if the programs share
        a block layout.
        """
        rows: Dict[int, BlockRow] = {}
        for program, instr in machines:
            by_block = getattr(instr, "by_block", None)
            if not by_block:
                continue
            blocks = getattr(program, "blocks", ())
            sources = getattr(program, "block_sources", ())
            for index in sorted(by_block):
                counter = by_block[index]
                row = rows.get(index)
                if row is None:
                    label = blocks[index].label if index < len(blocks) else f"block{index}"
                    source = sources[index] if index < len(sources) else ""
                    row = rows[index] = BlockRow(index=index, label=label, source=source)
                row.executions += counter.executions
                row.active += counter.active
                row.live += counter.live
                row.slots += counter.slots
        return cls(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[BlockRow]:
        """All profiled blocks, in block-index order."""
        return [self._rows[i] for i in sorted(self._rows)]

    def row(self, index: int) -> Optional[BlockRow]:
        return self._rows.get(index)

    def stragglers(
        self, limit: Optional[int] = None, min_slots: int = 0
    ) -> List[BlockRow]:
        """Blocks ranked by masked-lane waste, worst first.

        The ranking is fully deterministic: waste descending, then block
        index ascending — equal-waste blocks always come out in program
        order, independent of dict iteration or collection order.  The top
        of this list is the input to superblock fusion: the blocks whose
        executions burn the most dead lane-slots.

        ``min_slots`` floors the ranking on offered slots: a block the
        profile barely sampled can post a perfect waste-per-execution
        ratio out of noise, so blocks with ``slots < min_slots`` are
        dropped (not just demoted) before ranking.  The default of 0
        keeps every profiled block.
        """
        if min_slots < 0:
            raise ValueError(f"min_slots must be >= 0, got {min_slots}")
        ranked = sorted(
            (r for r in self._rows.values() if r.slots >= min_slots),
            key=lambda r: (-r.waste, r.index),
        )
        return ranked if limit is None else ranked[:limit]

    @property
    def total_slots(self) -> int:
        return sum(r.slots for r in self._rows.values())

    @property
    def total_waste(self) -> int:
        return sum(r.waste for r in self._rows.values())

    def to_json(self) -> Dict[str, object]:
        """Canonical JSON-ready dict, rows in block-index order."""
        return {
            "total_slots": self.total_slots,
            "total_waste": self.total_waste,
            "blocks": [r.as_dict() for r in self.rows()],
        }

    def summary(self, limit: int = 5) -> str:
        """Straggler table: top blocks by waste, with occupancy."""
        if not self._rows:
            return "no blocks profiled"
        total = self.total_waste
        lines = [
            f"blocks={len(self._rows)} slots={self.total_slots} "
            f"waste={total} ({total / self.total_slots:.1%} of slots)"
            if self.total_slots
            else f"blocks={len(self._rows)} slots=0"
        ]
        for row in self.stragglers(limit):
            share = row.waste / total if total else 0.0
            lines.append(
                f"  block {row.index} [{row.label}] ({row.source}): "
                f"execs={row.executions} waste={row.waste} ({share:.1%}) "
                f"occupancy={row.occupancy:.3f}"
            )
        return "\n".join(lines)
