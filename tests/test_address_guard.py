"""Generated blocks address every stack access inside its own lane's rows.

Fused and superblock code addresses a stacked variable at ``p + k·Z``, a
flat pointer plus a static frame offset, and nothing at run time checks
the result.  A put past the last row grows the stack (numpy's
``IndexError`` triggers the growth), but a negative address wraps silently
into another row, and a get past the last row raises a bare ``IndexError``.  The
``address_guard`` fixture wraps :meth:`BatchedStack.get` and
:meth:`BatchedStack.put` and asserts, for every access a machine makes
while it steps:

* every address is ``>= 0``;
* every ``get`` address is below ``(D + 1)·Z``;
* the lanes ``addr % Z`` are distinct and all sit at one pc.

Every corpus program then runs under both generated-code executors with
the guard armed and must still equal the plain-Python reference, and so
does one uncapped recursion hundreds of frames past the stacks' first size.
"""

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import pytest

from repro.ir.instructions import VarKind
from repro.vm.program_counter import ProgramCounterVM
from repro.vm.stack import BatchedStack

from .helpers import assert_results_equal
from .programs import ALL_EXAMPLES, sum_to


@dataclass
class AddressGuard:
    """The machine stepping now, and how many accesses were checked."""

    vm: Optional[Any] = None
    checked: int = 0

    def check(self, stack: BatchedStack, addr: np.ndarray, op: str) -> None:
        addr = np.asarray(addr)
        z = stack.batch_size
        assert np.all(addr >= 0), f"{op} at a negative address: {addr}"
        if op == "get":
            assert np.all(addr < (stack.depth + 1) * z), (
                f"get past row (D + 1)·Z = {(stack.depth + 1) * z}: {addr}"
            )
        lanes = addr % z
        assert np.unique(lanes).size == lanes.size, f"{op} repeats a lane: {lanes}"
        if self.vm is not None and lanes.size:
            pcs = np.unique(self.vm.pcreg[lanes])
            assert pcs.size == 1, f"{op} spans lanes at pcs {pcs}"
        self.checked += 1


@pytest.fixture
def address_guard(monkeypatch):
    """Check every ``BatchedStack.get`` / ``put`` a stepping machine makes.

    Patched on the class, before any machine allocates its storages, since
    a storage binds its stack's methods at allocation.
    """
    guard = AddressGuard()
    get, put, step = BatchedStack.get, BatchedStack.put, ProgramCounterVM._step

    def guarded_get(self, addr):
        guard.check(self, addr, "get")
        return get(self, addr)

    def guarded_put(self, addr, values):
        guard.check(self, addr, "put")
        return put(self, addr, values)

    def guarded_step(self):
        guard.vm = self
        try:
            return step(self)
        finally:
            guard.vm = None

    monkeypatch.setattr(BatchedStack, "get", guarded_get)
    monkeypatch.setattr(BatchedStack, "put", guarded_put)
    monkeypatch.setattr(ProgramCounterVM, "_step", guarded_step)
    return guard


@pytest.mark.parametrize("executor", ["fused", "superblock"])
@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_generated_blocks_stay_in_their_lanes(address_guard, name, executor):
    fn, inputs = ALL_EXAMPLES[name]
    expected = fn.run_reference(*inputs)
    actual = fn.run_pc(*inputs, executor=executor, max_stack_depth=64)
    assert_results_equal(expected, actual, context=f"{executor} {name}")
    program = fn.stack_program()
    if any(kind is VarKind.STACKED for kind in program.var_kinds.values()):
        assert address_guard.checked > 0, "the guard saw no access"


@pytest.mark.parametrize("executor", ["fused", "superblock"])
def test_growing_stacks_stay_in_their_lanes(address_guard, executor):
    """No cap: every stack starts small and grows while the guard checks
    each access against the rows allocated at that moment."""
    n = np.array([500, 4, 0, 170])
    out = sum_to.run_pc(n, executor=executor)
    np.testing.assert_array_equal(out, n * (n + 1) // 2)
    assert address_guard.checked > 0


def test_guard_refuses_a_wrapped_address(address_guard):
    """The check the guard exists for: ``b − Z`` is a legal numpy index that
    lands in row D of the same lane, so only the guard notices it."""
    stack = BatchedStack(batch_size=4, depth=3)
    stack.put(np.arange(4), np.arange(4.0))
    np.testing.assert_array_equal(stack.get(np.arange(4)), np.arange(4.0))
    with pytest.raises(AssertionError, match="negative"):
        stack.get(np.arange(4) - 4)
    with pytest.raises(AssertionError, match="past row"):
        stack.get(np.array([16]))
    with pytest.raises(AssertionError, match="repeats a lane"):
        stack.put(np.array([1, 5]), np.zeros(2))


@pytest.mark.parametrize("executor", ["eager", "fused", "superblock"])
def test_shallow_requests_after_a_deep_one_match_a_fresh_engine(address_guard, executor):
    """Recycling a lane writes only its base row, so the rows above a
    shallow request's top still hold a deep request's frames.  Nothing may
    read them: the shallow requests' results, and every busy lane's
    snapshot bytes at every tick, equal those of an engine whose stacks
    never grew."""
    shallow = [3, 0, 7, 1, 5, 2, 6, 4, 7, 0, 2, 5]

    def engine_after(first):
        engine = sum_to.serve(num_lanes=4, executor=executor)
        engine.submit(np.int64(first))
        engine.run_until_idle()
        return engine

    deep, fresh = engine_after(2000), engine_after(3)
    assert deep.vm.addr_stack.depth >= 2000 > fresh.vm.addr_stack.depth
    handles = {
        engine: [engine.submit(np.int64(n)) for n in shallow]
        for engine in (deep, fresh)
    }
    while deep.tick() | fresh.tick():
        for lane in deep.pool.busy_lanes().tolist():
            assert (
                deep.vm.snapshot_lane(lane).to_bytes()
                == fresh.vm.snapshot_lane(lane).to_bytes()
            ), f"lane {lane} at tick {deep.now}"
    for engine in (deep, fresh):
        results = [int(h.result()) for h in handles[engine]]
        assert results == [n * (n + 1) // 2 for n in shallow]
    assert address_guard.checked > 0
