"""Control-flow-graph utilities over callable-IR functions."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.instructions import Function


def successors(fn: Function) -> Dict[str, Tuple[str, ...]]:
    """Block label -> labels of possible successor blocks."""
    return {
        b.label: tuple(t for t in b.terminator.targets()) if b.terminator else ()
        for b in fn.blocks
    }


def reverse_postorder(fn: Function) -> List[str]:
    """Blocks in reverse postorder from the entry (good forward-flow order)."""
    succ = successors(fn)
    visited = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(succ[label]))]
        visited.add(label)
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(fn.blocks[0].label)
    # Unreachable blocks come last, in program order, so analyses still cover them.
    for b in fn.blocks:
        if b.label not in visited:
            order.append(b.label)
            visited.add(b.label)
    order.reverse()
    return order
