"""Shared assertion helpers for the test suite."""

import numpy as np

from repro.lowering.pipeline import LoweringOptions


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def assert_results_equal(expected, actual, context=""):
    expected, actual = as_tuple(expected), as_tuple(actual)
    assert len(expected) == len(actual), (
        f"{context}: arity mismatch {len(expected)} vs {len(actual)}"
    )
    for i, (e, a) in enumerate(zip(expected, actual)):
        e, a = np.asarray(e), np.asarray(a)
        np.testing.assert_allclose(
            a.astype(np.float64, copy=False),
            e.astype(np.float64, copy=False),
            rtol=1e-10,
            atol=1e-12,
            err_msg=f"{context}: output {i} differs",
        )


def assert_results_identical(expected, actual, context=""):
    """Bitwise output comparison: same arity, every output array-equal."""
    expected, actual = as_tuple(expected), as_tuple(actual)
    assert len(expected) == len(actual), f"{context}: arity mismatch"
    for i, (e, a) in enumerate(zip(expected, actual)):
        assert np.array_equal(e, a), f"{context}: output {i} differs"


def assert_instrumentation_identical(a, b, context=""):
    """Field-by-field op-count comparison (names the divergent counter)."""
    for field in (
        "steps", "kernel_calls", "pushes", "pops", "push_lanes", "pop_lanes",
        "stacked_reads", "stacked_writes", "register_writes",
    ):
        assert getattr(a, field) == getattr(b, field), f"{context}: {field}"
    assert dict(a.by_prim) == dict(b.by_prim), f"{context}: by_prim"
    assert dict(a.by_tag) == dict(b.by_tag), f"{context}: by_tag"


def run_all_strategies(fn, inputs, max_stack_depth=64):
    """Run every execution strategy; return {name: result}."""
    results = {"reference": fn.run_reference(*inputs)}
    for mode in ("mask", "gather"):
        results[f"local/{mode}"] = fn.run_local(*inputs, mode=mode)
        results[f"pc/{mode}"] = fn.run_pc(
            *inputs, mode=mode, max_stack_depth=max_stack_depth
        )
    results["pc/noopt"] = fn.run_pc(
        *inputs, optimize=False, max_stack_depth=max_stack_depth
    )
    results["pc/fused"] = fn.run_pc(
        *inputs, executor="fused", max_stack_depth=max_stack_depth
    )
    results["pc/nocache"] = fn.run_pc(
        *inputs, top_cache=False, max_stack_depth=max_stack_depth
    )
    for sched in ("most_active", "round_robin"):
        results[f"pc/{sched}"] = fn.run_pc(
            *inputs, scheduler=sched, max_stack_depth=max_stack_depth
        )
    return results


def assert_all_strategies_agree(fn, inputs, max_stack_depth=64):
    results = run_all_strategies(fn, inputs, max_stack_depth=max_stack_depth)
    reference = results.pop("reference")
    for name, result in results.items():
        assert_results_equal(reference, result, context=f"{fn.name} under {name}")
    return reference


OPTION_GRID = [
    LoweringOptions(),
    LoweringOptions(temp_opt=False),
    LoweringOptions(register_opt=False),
    LoweringOptions(pop_push_opt=False),
    LoweringOptions.none(),
]
