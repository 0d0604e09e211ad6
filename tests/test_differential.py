"""Differential tests: every corpus program, every strategy, identical results.

This is the backbone correctness argument for the whole system: plain
single-example Python is the semantics; Algorithm 1 and Algorithm 2 (under
every mode, scheduler, and optimization toggle) must reproduce it exactly.
"""

import numpy as np
import pytest

from repro.lowering.pipeline import lower_program
from repro.vm.program_counter import run_program_counter

from .helpers import OPTION_GRID, assert_all_strategies_agree, assert_results_equal
from .programs import ALL_EXAMPLES, ackermann, fib, gcd, rng_walk


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_all_strategies_agree(name):
    fn, inputs = ALL_EXAMPLES[name]
    assert_all_strategies_agree(fn, inputs)


@pytest.mark.parametrize("opts_index", range(len(OPTION_GRID)))
@pytest.mark.parametrize("name", ["fib", "ackermann", "gcd", "recursive_pair", "loop_calling"])
def test_pc_optimization_grid(name, opts_index):
    """Every lowering-optimization combination preserves semantics."""
    fn, inputs = ALL_EXAMPLES[name]
    expected = fn.run_reference(*inputs)
    program = lower_program(fn.program, optimize=OPTION_GRID[opts_index])
    actual = run_program_counter(program, list(inputs), max_stack_depth=64)
    assert_results_equal(expected, actual, context=f"{name} opts={opts_index}")


@pytest.mark.parametrize("mode", ["mask", "gather"])
def test_pc_mode_grid(mode):
    batch = np.array([0, 1, 5, 9, 12, 3])
    expected = fib.run_reference(batch)
    actual = fib.run_pc(batch, mode=mode, max_stack_depth=32)
    assert_results_equal(expected, actual)


def test_batch_of_one():
    for name, (fn, inputs) in ALL_EXAMPLES.items():
        single = tuple(np.asarray(x)[:1] for x in inputs)
        assert_all_strategies_agree(fn, single)


def test_uniform_batch_matches_scalar():
    """A batch of identical members equals the scalar result replicated."""
    scalar = int(fib(9))
    batch = np.full(6, 9)
    out = fib.run_pc(batch)
    np.testing.assert_array_equal(out, np.full(6, scalar))


def test_results_independent_of_batch_companions():
    """Each member's result must not depend on who else is in the batch."""
    rng = np.random.default_rng(0)
    base = rng.integers(0, 12, size=8)
    expected = fib.run_reference(base)
    for _ in range(3):
        companions = rng.integers(0, 12, size=5)
        batch = np.concatenate([base, companions])
        out = np.asarray(fib.run_pc(batch, max_stack_depth=32))[: base.size]
        np.testing.assert_array_equal(out, expected)
        out_local = np.asarray(fib.run_local(batch))[: base.size]
        np.testing.assert_array_equal(out_local, expected)


def test_random_fib_batches():
    rng = np.random.default_rng(42)
    for _ in range(5):
        z = int(rng.integers(1, 17))
        batch = rng.integers(0, 14, size=z)
        assert_all_strategies_agree(fib, (batch,), max_stack_depth=32)


def test_random_gcd_batches():
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = int(rng.integers(1, 33))
        a = rng.integers(0, 1000, size=z)
        b = rng.integers(0, 1000, size=z)
        assert_all_strategies_agree(gcd, (a, b))


def test_random_ackermann_batches():
    rng = np.random.default_rng(3)
    for _ in range(3):
        z = int(rng.integers(1, 9))
        m = rng.integers(0, 3, size=z)
        n = rng.integers(0, 4, size=z)
        assert_all_strategies_agree(ackermann, (m, n), max_stack_depth=128)


def test_rng_walk_strategy_invariance():
    """Counter-based RNG makes chains identical across all strategies."""
    from repro import ops

    ctr = ops.make_counters(123, 7)
    n = np.array([0, 1, 3, 10, 25, 4, 17])
    assert_all_strategies_agree(rng_walk, (ctr, n))
