"""The type-inference pass and the signature rule it brings.

:func:`~repro.analysis.types.infer_types` must predict, before the first
step, exactly the dtype and event shape the machine's writes observe.  A
machine's types are then fixed by its first inputs: a later input, or a
snapshot, that would need other types is refused before any lane is
touched, and never leaks its dtype into its neighbours.
"""

import numpy as np
import pytest

from repro import autobatch, ops
from repro.analysis.types import infer_types
from repro.ir.types import TensorType
from repro.vm.executors import ExecutionPlan
from repro.vm.program_counter import ProgramCounterVM
from repro.vm.state import TypeMismatchError

from .helpers import assert_types_observed, observing_writes
from .programs import ALL_EXAMPLES, fib, mixed_paths, mixed_rec, twice


@autobatch
def shape_conflict(v):
    if ops.dot(v, v) > 1.0:
        x = v
    else:
        x = 0.0
    return x


def _signature(*inputs):
    return tuple(TensorType(x.dtype, x.shape[1:]) for x in inputs)


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
@pytest.mark.parametrize("executor", ["eager", "fused"])
def test_inferred_types_are_the_observed_ones(name, executor):
    fn, inputs = ALL_EXAMPLES[name]
    with observing_writes() as seen:
        fn.run_pc(*inputs, executor=executor, max_stack_depth=64)
    assert_types_observed(fn.stack_program(), fn.registry, inputs, seen, name)


def test_inferred_types_are_the_observed_ones_on_nuts():
    from repro.nuts.kernel import NutsKernel
    from repro.targets.logistic import BayesianLogisticRegression

    target = BayesianLogisticRegression(n_data=20, n_features=3)
    kernel = NutsKernel(target)
    z = 4
    inputs = (
        target.initial_state(z, seed=0),
        np.full(z, 0.1),
        np.full(z, 3.0),
        np.full(z, 2.0),
        np.full(z, 2.0),
        np.zeros(z),
        kernel.initial_rng(z, seed=0),
    )
    chain = kernel.functions.nuts_chain
    with observing_writes() as seen:
        chain.run_pc(*inputs, executor="fused", max_stack_depth=16)
    assert_types_observed(chain.stack_program(), chain.registry, inputs, seen, "nuts")


@pytest.mark.parametrize("fn", [mixed_paths, mixed_rec], ids=lambda f: f.__name__)
def test_int_on_one_path_and_float_on_the_other_joins_to_float64(fn):
    types = infer_types(
        fn.stack_program(), fn.registry, _signature(np.array([1, 2]))
    )
    assert types[f"{fn.__name__}.n"] == TensorType("int64")
    assert types[f"{fn.__name__}.x"] == TensorType("float64")


def test_event_shape_conflict_names_the_variable():
    signature = _signature(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"'shape_conflict\.x'.*event shape"):
        infer_types(shape_conflict.stack_program(), shape_conflict.registry, signature)


def test_pass_records_nothing_and_plan_infers_once():
    plan = ExecutionPlan.compile(mixed_rec.stack_program(), executor="fused")
    n = np.array([0, 3, 4])
    instr_runs = []
    for _ in range(2):
        vm = ProgramCounterVM(plan, batch_size=3)
        vm.run([n])
        instr_runs.append(vm.instr.kernel_calls)
    key = (mixed_rec.registry, _signature(n))
    assert list(plan.types) == [key]
    assert instr_runs[0] == instr_runs[1]
    assert vm.types is plan.types[key]


def test_run_rebinds_a_new_signature():
    """``run()`` starts every lane over, so its inputs may bind new types."""
    vm = ProgramCounterVM(twice.execution_plan("fused"), batch_size=2)
    first = vm.run([np.array([3, 200])])[0]
    assert first.dtype == np.int64
    second = vm.run([np.array([1.5, 300.0])])[0]
    assert second.dtype == np.float64
    np.testing.assert_array_equal(second, [3.0, 300.0])
    third = vm.run([np.array([4, 5])])[0]
    assert third.dtype == np.int64
    np.testing.assert_array_equal(third, [8, 10])


def _machine_state(vm):
    state = [vm.pcreg, vm.addr_stack.data, vm.addr_stack.sp]
    for _, st in sorted(vm.storages.items()):
        state += [st.stack.data, st.stack.sp] if hasattr(st, "stack") else [st.array]
    return [a.copy() for a in state]


@pytest.mark.parametrize("executor", ["eager", "fused"])
def test_float_snapshot_is_refused_by_an_int_machine(executor):
    """A snapshot from a float-typed machine does not restore into an
    int-typed one: it is refused before the lane is touched, and the
    neighbour lanes finish with int64 outputs equal to the reference."""
    plan = fib.execution_plan(executor)
    donor = ProgramCounterVM(plan, batch_size=1)
    donor.bind_inputs([np.array([6.0])])
    for _ in range(5):
        donor.step()
    snap = donor.snapshot_lane(0)

    vm = ProgramCounterVM(plan, batch_size=3)
    ns = np.array([7, 5, 9])
    vm.bind_inputs([ns])
    for _ in range(5):
        vm.step()
    before = _machine_state(vm)
    with pytest.raises(TypeMismatchError, match="float64.*int64"):
        vm.restore_lane(0, snap)
    for got, want in zip(_machine_state(vm), before):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    while vm.step():
        pass
    out = vm.outputs()[0]
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, fib.run_reference(ns))


def test_untyped_machine_takes_its_types_from_the_snapshot():
    plan = mixed_rec.execution_plan("fused")
    donor = ProgramCounterVM(plan, batch_size=2)
    n = np.array([5, 2])
    donor.bind_inputs([n])
    for _ in range(6):
        donor.step()
    snap = donor.snapshot_lane(0)
    vm = ProgramCounterVM(plan, batch_size=1)
    vm.restore_lane(0, snap)
    assert vm.types == donor.types
    while vm.step():
        pass
    np.testing.assert_array_equal(vm.outputs()[0], mixed_rec.run_reference(n[:1]))


def test_untyped_machine_refuses_a_snapshot_without_inputs():
    plan = fib.execution_plan("fused")
    donor = ProgramCounterVM(plan, batch_size=1)
    donor.bind_inputs([np.array([4])])
    snap = donor.snapshot_lane(0)
    snap.storages["fib.n"] = None
    vm = ProgramCounterVM(plan, batch_size=1)
    with pytest.raises(ValueError, match="no inputs"):
        vm.restore_lane(0, snap)
    assert vm.types is None
