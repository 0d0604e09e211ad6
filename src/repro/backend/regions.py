"""Superblock region selection over the stack-dialect CFG.

A *superblock* is a run of basic blocks executed by one host dispatch:
the entry block runs for the lanes the scheduler selected, then control
falls through the run — each member block re-derives its own lanes from
the program counters, so lanes that diverged simply fall out at a side
exit (their pcs already point elsewhere) and lanes that were *already*
parked at a later member get swept into the same dispatch.  Because every
primitive computes a lane's row from that row alone, a lane's results are
independent of which other lanes share the dispatch — which is why
superblock outputs stay bit-identical to the eager and fused executors no
matter how regions are chosen.

This module only picks the runs; the codegen lives in
:mod:`repro.backend.fusion`.  Selection is static: a run follows
unconditional fall-through edges (``Jump`` and the ``PushJump`` call
edge), and ``Branch`` ends it.  Extending runs through branches into the
side a traced warm-up saw more often bought only 1.06-1.07x over these
static runs in serving, and no driver ran the warm-up it needed, so it
was dropped.

Every block fronts a run (its own suffix of some hot path), so a lane
resuming at an arbitrary pc — after preemption, snapshot migration, or a
side exit — still enters through a superblock rather than a degenerate
single block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Jump, PushJump, StackProgram

#: Cap on member blocks per superblock.  Long runs amortize more
#: dispatch overhead but each member adds a guard (one pc compare) that
#: every dispatch through the region pays even after flow dies out.
DEFAULT_MAX_LENGTH = 8


@dataclass(frozen=True)
class RegionTable:
    """The selected superblocks of one program, one run per entry block.

    ``chains[i]`` is the member-block run fronted by block ``i`` (always
    starting with ``i`` itself; a singleton when nothing follows it).
    ``next_block[i]`` is the continuation edge selection chose for ``i``,
    or None where the run must end (Branch or Return).
    """

    chains: Tuple[Tuple[int, ...], ...]
    next_block: Tuple[Optional[int], ...]

    def chain(self, index: int) -> Tuple[int, ...]:
        return self.chains[index]

    def mean_length(self) -> float:
        """Average member count across all runs (1.0 = no fusion found)."""
        if not self.chains:
            return 0.0
        return sum(len(c) for c in self.chains) / len(self.chains)

    def to_json(self) -> Dict[str, object]:
        return {
            "mean_length": round(self.mean_length(), 4),
            "chains": [list(c) for c in self.chains],
        }

    def __repr__(self) -> str:
        return (
            f"RegionTable(blocks={len(self.chains)}, "
            f"mean_length={self.mean_length():.2f})"
        )


def select_regions(program: StackProgram) -> RegionTable:
    """Pick the superblock run fronted by every block of ``program``.

    Continuation edges: ``Jump`` and ``PushJump`` (the call edge) always
    continue; ``Branch`` and ``Return`` never do (the return target is
    dynamic).  Runs stop at ``DEFAULT_MAX_LENGTH`` members or when they
    would revisit a member (a loop re-enters through its own entry block's
    run instead).
    """
    n = len(program.blocks)
    next_block: List[Optional[int]] = []
    for block in program.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            next_block.append(term.target)
        elif isinstance(term, PushJump):
            next_block.append(term.jump_target)
        else:
            next_block.append(None)
    # An edge to the exit (or out of range) never extends a run.
    next_block = [
        t if t is not None and 0 <= t < n else None for t in next_block
    ]
    chains = []
    for start in range(n):
        chain = [start]
        seen = {start}
        while len(chain) < DEFAULT_MAX_LENGTH:
            nxt = next_block[chain[-1]]
            if nxt is None or nxt in seen:
                break
            chain.append(nxt)
            seen.add(nxt)
        chains.append(tuple(chain))
    return RegionTable(chains=tuple(chains), next_block=tuple(next_block))
