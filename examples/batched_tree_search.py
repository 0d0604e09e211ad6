"""Batched recursive game-tree search — the intro's first motivation.

The paper opens by noting that tree searches (Silver et al. 2016) are
exactly the "sophisticated classical algorithms" that are painful to batch
by hand.  This example writes a plain recursive **minimax with shallow
pruning** over procedurally generated game trees — leaf payoffs come from a
counter-based hash of the path, so no tree is materialized — and evaluates a
whole batch of root positions at different search depths in one
program-counter machine.

Divergence is everywhere: different members search different depths, and
the value-based pruning cuts different subtrees per member.  The example
reports how much of the work still batches.

Run: ``python examples/batched_tree_search.py``
"""

import numpy as np

from repro import autobatch, ops
from repro.bench.report import format_table
from repro.vm.instrumentation import Instrumentation


@autobatch
def leaf_payoff(state):
    """Deterministic pseudo-random payoff in (0, 1) for a tree node."""
    return ops.runif(state)


@autobatch
def minimax(state, depth, maximizing):
    """Minimax value of a binary game tree rooted at ``state``.

    A node's children are ``2*state + 1`` and ``2*state + 2``; leaf payoffs
    hash the path.  A shallow prune skips the second child when the first
    is already decisive for the player to move (>= 0.9 when maximizing,
    <= 0.1 when minimizing) — a cheap stand-in for alpha-beta that makes
    control flow data-dependent.
    """
    if depth <= 0:
        return leaf_payoff(state)
    left = minimax(2 * state + 1, depth - 1, 1 - maximizing)
    if maximizing > 0:
        if left >= 0.9:
            return left
        right = minimax(2 * state + 2, depth - 1, 1 - maximizing)
        return max(left, right)
    if left <= 0.1:
        return left
    right = minimax(2 * state + 2, depth - 1, 1 - maximizing)
    return min(left, right)


def main():
    rng = np.random.RandomState(0)
    z = 32
    roots = rng.randint(1, 10_000, size=z).astype(np.int64)
    depths = rng.randint(4, 11, size=z).astype(np.int64)  # 16..1024 leaves
    maximizing = np.ones(z, dtype=np.int64)

    print(f"minimax over {z} procedurally generated game trees, "
          f"depths {depths.min()}..{depths.max()} (pruned)\n")

    instr = Instrumentation()
    values = minimax.run_pc(roots, depths, maximizing, instrumentation=instr)
    reference = minimax.run_reference(roots, depths, maximizing)
    assert np.allclose(values, reference), "batched search disagrees!"

    rows = [
        [b, int(depths[b]), f"{values[b]:.4f}"]
        for b in range(0, z, 4)
    ]
    print(format_table(["member", "depth", "minimax value"], rows))

    print(f"\nbatched == member-at-a-time reference: True")
    print(f"machine steps:        {instr.steps}")
    print(f"kernel dispatches:    {instr.kernel_calls}")
    print(f"payoff-lane utilization: {instr.utilization(prim='runif'):.3f}")
    print("\nEven with per-member depths AND data-dependent pruning, the")
    print("program-counter machine keeps about a fifth of every payoff-kernel")
    print("lane doing useful work — the Python-stack version could only batch")
    print("members whose entire search trees happened to align.")


if __name__ == "__main__":
    main()
