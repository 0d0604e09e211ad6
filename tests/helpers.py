"""Shared assertion helpers for the test suite."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.types import infer_types
from repro.ir.types import TensorType
from repro.lowering.pipeline import LoweringOptions
from repro.vm.state import RegisterStorage, StackedStorage


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


@contextmanager
def observing_writes():
    """Spy on every program-counter storage write in the ``with`` body.

    Yields a dict filling with variable name -> the set of ``(dtype, event
    shape)`` of the values written to it: what the machine observes, as
    opposed to what :func:`infer_types` predicts.
    """
    seen = {}

    def spy(name, write):
        def spied(where, value):
            value = np.asarray(value)
            seen.setdefault(name, set()).add((value.dtype, value.shape[1:]))
            return write(where, value)

        return spied

    def spying(allocate, methods):
        def spied_allocate(self, ttype):
            allocate(self, ttype)
            for method in methods:
                setattr(self, method, spy(self.name, getattr(self, method)))

        return spied_allocate

    with pytest.MonkeyPatch.context() as patch:
        for cls, methods in (
            (RegisterStorage, ("write", "write_at")),
            (StackedStorage, ("write", "write_at", "push", "push_at", "put")),
        ):
            patch.setattr(cls, "allocate", spying(cls.allocate, methods))
        yield seen


def assert_types_observed(program, registry, inputs, seen, context=""):
    """The types :func:`infer_types` gives ``program`` for ``inputs`` are
    the ones the writes in ``seen`` observed: each written variable's one
    event shape, at the join of its written dtypes (the type dynamic
    allocation and promotion gave it)."""
    signature = tuple(
        TensorType(np.asarray(x).dtype, np.shape(x)[1:]) for x in inputs
    )
    types = infer_types(program, registry, signature)
    assert seen, context
    for name, writes in seen.items():
        shapes = {shape for _, shape in writes}
        assert len(shapes) == 1, f"{context}: {name} written at {shapes}"
        dtype = np.result_type(*[dtype for dtype, _ in writes])
        assert types[name] == TensorType(dtype, shapes.pop()), f"{context}: {name}"


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
    LoweringOptions.none(),
]
