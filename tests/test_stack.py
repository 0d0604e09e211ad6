"""Unit and property tests for the batched stack (paper Section 3)."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vm.stack
from repro.ir.types import TensorType
from repro.vm.program_counter import ProgramCounterVM
from repro.vm.stack import BatchedStack, StackOverflowError, StackUnderflowError
from repro.vm.state import StackedStorage

from .programs import fib


def full_mask(z):
    return np.ones(z, dtype=bool)


def test_one_stack_class_backs_every_stack():
    """The module defines one stack, and a machine's return-address stack
    and every variable stack are instances of it."""
    classes = [
        obj for _, obj in inspect.getmembers(repro.vm.stack, inspect.isclass)
        if obj.__module__ == repro.vm.stack.__name__
        and not issubclass(obj, Exception)
    ]
    assert classes == [BatchedStack]
    vm = ProgramCounterVM(fib.execution_plan("fused"), 3, max_stack_depth=16)
    vm.run([np.array([4, 7, 2])])
    stacks = [vm.addr_stack] + [
        st.stack for st in vm.storages.values() if isinstance(st, StackedStorage)
    ]
    assert len(stacks) > 1
    assert all(type(s) is BatchedStack for s in stacks)


# A variable stack holds float64 by default and the return-address stack
# holds int64 program counters; both are the one class, so the basic
# operations run on both element types.
ELEMENT_DTYPES = pytest.mark.parametrize(
    "dtype", ["float64", "int64"], ids=["variable", "address"]
)


def _vals(dtype, values):
    return np.asarray(values, dtype=dtype)


@ELEMENT_DTYPES
class TestBasicOps:
    def test_initial_top_is_zero(self, dtype):
        s = BatchedStack(batch_size=3, depth=4, dtype=dtype)
        np.testing.assert_array_equal(s.read(), np.zeros(3))
        assert s.read().dtype == np.dtype(dtype)
        np.testing.assert_array_equal(s.depths(), np.ones(3))

    def test_update_then_read(self, dtype):
        s = BatchedStack(batch_size=3, depth=4, dtype=dtype)
        s.update(full_mask(3), _vals(dtype, [1, 2, 3]))
        np.testing.assert_array_equal(s.read(), [1, 2, 3])

    def test_masked_update_leaves_inactive_lanes(self, dtype):
        s = BatchedStack(batch_size=3, depth=4, dtype=dtype)
        s.update(np.array([True, False, True]), _vals(dtype, [1, 2, 3]))
        np.testing.assert_array_equal(s.read(), [1, 0, 3])

    def test_push_pop_roundtrip(self, dtype):
        s = BatchedStack(batch_size=2, depth=4, dtype=dtype)
        s.update(full_mask(2), _vals(dtype, [10, 20]))
        s.push(full_mask(2), _vals(dtype, [11, 21]))
        np.testing.assert_array_equal(s.read(), [11, 21])
        np.testing.assert_array_equal(s.depths(), [2, 2])
        popped = s.pop(full_mask(2))
        assert popped.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(popped, [11, 21])
        np.testing.assert_array_equal(s.read(), [10, 20])

    def test_masked_push_diverges_depths(self, dtype):
        s = BatchedStack(batch_size=3, depth=4, dtype=dtype)
        s.update(full_mask(3), _vals(dtype, [1, 2, 3]))
        s.push(np.array([True, False, True]), _vals(dtype, [9, 9, 9]))
        np.testing.assert_array_equal(s.depths(), [2, 1, 2])
        np.testing.assert_array_equal(s.read(), [9, 2, 9])
        s.pop(np.array([True, False, False]))
        np.testing.assert_array_equal(s.read(), [1, 2, 9])
        np.testing.assert_array_equal(s.depths(), [1, 1, 2])

    def test_vector_events(self, dtype):
        s = BatchedStack(batch_size=2, depth=3, event_shape=(2,), dtype=dtype)
        v0 = _vals(dtype, [[1, 2], [3, 4]])
        v1 = _vals(dtype, [[5, 6], [7, 8]])
        s.update(full_mask(2), v0)
        s.push(full_mask(2), v1)
        np.testing.assert_array_equal(s.read(), v1)
        s.pop(full_mask(2))
        np.testing.assert_array_equal(s.read(), v0)

    def test_overflow_raises(self, dtype):
        s = BatchedStack(batch_size=1, depth=2, dtype=dtype, cap=2)
        s.push(full_mask(1), _vals(dtype, [1]))
        s.push(full_mask(1), _vals(dtype, [2]))
        with pytest.raises(StackOverflowError):
            s.push(full_mask(1), _vals(dtype, [3]))

    def test_masked_overflow_only_on_active_lanes(self, dtype):
        s = BatchedStack(batch_size=2, depth=1, dtype=dtype, cap=1)
        s.push(np.array([True, False]), _vals(dtype, [1, 1]))
        # Lane 0 is full; pushing only on lane 1 must succeed.
        s.push(np.array([False, True]), _vals(dtype, [2, 2]))
        with pytest.raises(StackOverflowError):
            s.push(np.array([True, False]), _vals(dtype, [3, 3]))

    def test_indexed_overflow_only_on_active_lanes(self, dtype):
        s = BatchedStack(batch_size=2, depth=1, dtype=dtype, cap=1)
        s.push_at(np.array([0]), _vals(dtype, [1]))
        # Lane 0 is full; pushing only on lane 1 must succeed.
        s.push_at(np.array([1]), _vals(dtype, [2]))
        before = (s.sp.copy(), s.data.copy(), s.read().copy(), s.high_water)
        with pytest.raises(StackOverflowError, match="max_stack_depth"):
            s.push_at(np.array([0, 1]), _vals(dtype, [3, 3]))
        # The raise comes before any write, for the lanes in idx too.
        for was, now in zip(before, (s.sp, s.data, s.read(), s.high_water)):
            np.testing.assert_array_equal(now, was)

    def test_pop_at_base_keeps_the_top(self, dtype):
        """A non-strict pop at the base frame leaves depth and top as they
        were, whether or not the lane ever pushed (a stale saved row must
        not reappear)."""
        s = BatchedStack(batch_size=2, depth=2, dtype=dtype)
        s.update(full_mask(2), _vals(dtype, [5, 6]))
        s.push_at(np.array([1]), _vals(dtype, [7]))
        s.drop_at(np.array([1]))
        s.update_at(np.array([1]), _vals(dtype, [8]))
        s.pop(full_mask(2))  # popping the base frame is benign by design
        np.testing.assert_array_equal(s.depths(), [1, 1])
        np.testing.assert_array_equal(s.read(), [5, 8])
        s.drop_at(np.array([0, 1]))
        np.testing.assert_array_equal(s.read(), [5, 8])

    def test_pop_at_base_clamps_to_the_lanes_own_row(self, dtype):
        """At Z = 2 a base clamp to row 0 would hand lane 1 lane 0's row."""
        s = BatchedStack(batch_size=2, depth=2, dtype=dtype)
        s.update(full_mask(2), _vals(dtype, [1, 7]))
        s.push_at(np.array([0]), _vals(dtype, [2]))  # lane 0 saves frame 1
        s.drop_at(np.array([1]))  # non-strict pop of lane 1 at its base
        s.update_at(np.array([1]), _vals(dtype, [9]))
        s.push_at(np.array([1]), _vals(dtype, [8]))  # saves 9 in lane 1's row
        np.testing.assert_array_equal(s.depths(), [2, 2])
        np.testing.assert_array_equal(s.frames(1), [9, 8])
        s.drop_at(np.array([0]))
        np.testing.assert_array_equal(s.read(), [1, 8])
        np.testing.assert_array_equal(s.frames(0), [1])

    def test_frames_inspection(self, dtype):
        s = BatchedStack(batch_size=2, depth=4, dtype=dtype)
        s.update(full_mask(2), _vals(dtype, [1, 10]))
        s.push(np.array([True, False]), _vals(dtype, [2, 0]))
        s.push(np.array([True, False]), _vals(dtype, [3, 0]))
        assert s.frames(0).dtype == np.dtype(dtype)
        np.testing.assert_array_equal(s.frames(0), [1, 2, 3])
        np.testing.assert_array_equal(s.frames(1), [10])

    def test_gathered_ops_match_masked(self, dtype):
        z = 5
        masked = BatchedStack(batch_size=z, depth=4, dtype=dtype)
        gathered = BatchedStack(batch_size=z, depth=4, dtype=dtype)
        rng = np.random.default_rng(0)
        vals = _vals(dtype, rng.normal(size=z) * 100)
        mask = np.array([True, False, True, True, False])
        idx = np.flatnonzero(mask)
        masked.update(full_mask(z), vals)
        gathered.update_at(np.arange(z), vals)
        masked.push(mask, vals * 2)
        gathered.push_at(idx, (vals * 2)[idx])
        np.testing.assert_array_equal(masked.read(), gathered.read())
        np.testing.assert_array_equal(masked.sp, gathered.sp)
        masked.pop(mask)
        gathered.pop_at(idx)
        np.testing.assert_array_equal(masked.read(), gathered.read())


class TestGrowth:
    """A push or restore past the last row grows the stack; only a cap
    raises."""

    def test_growth_keeps_every_lanes_frames_and_high_water(self):
        s = BatchedStack(batch_size=3, depth=1)
        s.update(full_mask(3), np.array([1.0, 10.0, 100.0]))
        s.push_at(np.array([0, 2]), np.array([2.0, 200.0]))  # lanes 0, 2 full
        data = s.data
        s.push_at(np.array([0, 1]), np.array([3.0, 20.0]))  # lane 0 overflows
        assert s.data is not data and s.depth == 2  # doubled
        s.push_at(np.array([0]), np.array([4.0]))
        assert s.depth == 4  # doubled again, past the 3 frames needed
        for lane, want in enumerate(([1, 2, 3, 4], [10, 20], [100, 200])):
            np.testing.assert_array_equal(s.frames(lane), want)
        np.testing.assert_array_equal(s.sp, [3, 1, 1])
        assert s.high_water == 3
        np.testing.assert_array_equal(s.pop_at(np.arange(3)), [4, 20, 200])
        np.testing.assert_array_equal(s.read(), [3, 10, 100])
        assert s.high_water == 3

    def test_growth_reaches_the_frames_a_put_addresses(self):
        """A generated block may push several frames at once: one growth
        covers the highest address, at least doubling."""
        s = BatchedStack(batch_size=2, depth=1, event_shape=(2,))
        s.put(np.array([5 * 2 + 1]), np.array([[7.0, 8.0]]))
        assert s.depth == 5
        np.testing.assert_array_equal(s.get(np.array([11])), [[7.0, 8.0]])
        s.put(np.array([6 * 2]), np.array([[1.0, 2.0]]))
        assert s.depth == 10

    def test_growth_rebinds_the_storages_tables(self):
        storage = StackedStorage("v", 2, depth=1)
        storage.allocate(TensorType("int64"))
        fp, reached = storage.fp, storage.reached
        storage.push_at(np.array([1]), np.array([5]))
        storage.push_at(np.array([1]), np.array([6]))
        assert storage.fp is fp and storage.reached is not reached
        assert storage.reached is storage.stack._reached
        assert storage.stack.depth == 2
        assert storage.reached.size == (2 + 1) * 2
        np.testing.assert_array_equal(storage.stack.frames(1), [0, 5, 6])
        # A re-allocation (a machine re-fixing its types) keeps the grown
        # depth, so the new stack fits the grown ``reached`` table.
        storage.allocate(TensorType("float64"))
        assert storage.stack.depth == 2
        assert storage.stack._reached is storage.reached

    def test_capped_growth_stops_at_the_cap_and_touches_nothing(self):
        s = BatchedStack(batch_size=2, depth=1, cap=3)
        for v in (1.0, 2.0, 3.0):
            s.push_at(np.array([0, 1]), np.array([v, -v]))
        assert s.depth == 3  # 1 -> 2 -> 3: doubling stops at the cap
        fp, data = s._fp, s.data
        before = (fp.copy(), data.copy(), s.high_water)
        with pytest.raises(StackOverflowError, match="max_stack_depth=3"):
            s.push_at(np.array([1]), np.array([-4.0]))
        assert s._fp is fp and s.data is data and s.depth == 3
        for was, now in zip(before, (s._fp, s.data, s.high_water)):
            np.testing.assert_array_equal(now, was)
        with pytest.raises(StackOverflowError, match="snapshot"):
            s.restore_lane(0, np.zeros(5))
        assert s.data is data

    def test_other_index_errors_are_not_growth(self):
        s = BatchedStack(batch_size=2, depth=1)
        with pytest.raises(IndexError) as info:
            s.put(np.array([-5]), np.zeros(1))
        assert not isinstance(info.value, StackOverflowError)
        assert s.depth == 1

    def test_restore_grows_an_uncapped_stack(self):
        s = BatchedStack(batch_size=2, depth=1, dtype="int64")
        s.update(full_mask(2), np.array([7, 8]))
        s.restore_lane(0, np.arange(6))
        assert s.depth == 5 and s.high_water == 5
        np.testing.assert_array_equal(s.frames(0), np.arange(6))
        np.testing.assert_array_equal(s.frames(1), [8])


def test_joined_type_keeps_saved_frames():
    """A stacked variable typed by the join of int and float writes holds
    float64 from allocation: int writes and pushes cast into it exactly,
    float ones land as written, and pops walk the frames back unchanged —
    the values dynamic promotion gave, with no widening mid-run."""
    storage = StackedStorage("v", 2, depth=3)
    storage.allocate(TensorType("float64"))
    s = storage.stack
    storage.write(full_mask(2), np.array([1, 10]))
    storage.push(full_mask(2), np.array([2, 20]))
    storage.push(np.array([True, False]), np.array([3, 0]))
    storage.write_at(np.array([1]), np.array([20.5]))
    storage.push_at(np.array([1]), np.array([21.25]))
    assert storage.stack is s and s.dtype == np.float64
    np.testing.assert_array_equal(s.frames(0), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(s.frames(1), [10.0, 20.5, 21.25])
    for lane, want in ((0, [3.0, 2.0, 1.0]), (1, [21.25, 20.5, 10.0])):
        got = []
        for _ in want:
            got.append(s.read_at(np.array([lane]))[0])
            s.drop_at(np.array([lane]))
        assert np.asarray(got).dtype == np.float64
        np.testing.assert_array_equal(got, want)
    assert s.read().dtype == np.float64


class _ReferenceStacks:
    """Per-member Python-list stacks: the obvious model."""

    def __init__(self, z):
        self.stacks = [[0.0] for _ in range(z)]

    def update(self, mask, values):
        for b, on in enumerate(mask):
            if on:
                self.stacks[b][-1] = values[b]

    def push(self, mask, values):
        for b, on in enumerate(mask):
            if on:
                self.stacks[b].append(values[b])

    def pop(self, mask):
        for b, on in enumerate(mask):
            if on and len(self.stacks[b]) > 1:
                self.stacks[b].pop()  # a pop at the base keeps the top

    def tops(self):
        return np.array([s[-1] for s in self.stacks])


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["push", "pop", "update"]),
            st.lists(st.booleans(), min_size=4, max_size=4),
            st.lists(st.floats(-100, 100), min_size=4, max_size=4),
        ),
        max_size=30,
    ),
)
def test_stack_matches_reference_model(ops):
    """Property: a batched stack behaves like Z independent list stacks,
    including at the base frame, where a pop keeps the top."""
    z = 4
    s = BatchedStack(batch_size=z, depth=40)
    ref = _ReferenceStacks(z)
    for kind, mask_list, vals_list in ops:
        mask = np.array(mask_list)
        vals = np.array(vals_list)
        if kind == "push":
            s.push(mask, vals)
            ref.push(mask, vals)
        elif kind == "update":
            s.update(mask, vals)
            ref.update(mask, vals)
        else:
            s.pop(mask)
            ref.pop(mask)
        np.testing.assert_allclose(s.read(), ref.tops())
        np.testing.assert_array_equal(
            s.depths(), [len(st_) for st_ in ref.stacks]
        )


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10),
)
def test_push_pop_is_identity(values):
    """Property: n pushes followed by n pops restore the original top."""
    s = BatchedStack(batch_size=2, depth=len(values) + 1)
    mask = np.ones(2, dtype=bool)
    s.update(mask, np.array([3.5, -1.25]))
    for v in values:
        s.push(mask, np.array([v, v]))
    for _ in values:
        s.pop(mask)
    np.testing.assert_array_equal(s.read(), [3.5, -1.25])
    np.testing.assert_array_equal(s.depths(), [1, 1])


@ELEMENT_DTYPES
def test_masked_ops_accept_lists(dtype):
    """``push``/``update`` take any array-like."""
    s = BatchedStack(batch_size=3, depth=2, dtype=dtype)
    s.update([True, True, True], [1, 2, 3])
    s.push(np.array([True, False, True]), [7, 8, 9])
    assert s.read().dtype == np.dtype(dtype)
    np.testing.assert_array_equal(s.read(), [7, 2, 9])
    np.testing.assert_array_equal(s.depths(), [2, 1, 2])


# -- the list-of-lists model, operation by operation ---------------------------

MODEL_Z, MODEL_D, MODEL_E = 4, 3, 3

_lanes = st.lists(st.integers(0, MODEL_Z - 1), unique=True, max_size=MODEL_Z)
_numbers = st.lists(
    st.integers(-50, 50), min_size=MODEL_Z * MODEL_E, max_size=MODEL_Z * MODEL_E
)
_model_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["push_at", "push_at", "drop_at", "pop_at", "update", "update_at",
             "reset_lanes", "restore_lane"]
        ),
        _lanes,
        _numbers,
        st.integers(1, MODEL_D + 2),  # restore_lane: logical frames to install
    ),
    max_size=40,
)


def _stack_state(s):
    return s.sp.copy(), s.data.copy(), s.read().copy(), s.high_water


def _assert_untouched(s, before):
    for was, now in zip(before, _stack_state(s)):
        np.testing.assert_array_equal(now, was)


@pytest.mark.parametrize(
    "depth, cap", [(MODEL_D, MODEL_D), (1, None)], ids=["capped", "growing"]
)
@settings(max_examples=150, deadline=None)
@given(
    ops=_model_ops,
    vector=st.booleans(),
    dtype=st.sampled_from(["int64", "float64"]),
    strict=st.booleans(),
)
def test_indexed_ops_match_list_model(depth, cap, ops, vector, dtype, strict):
    """Every indexed operation against Z plain Python lists of frames.

    ``frames(b)``, ``depths()`` and ``high_water`` agree after every
    operation; a push overflows exactly when a lane of ``idx`` already holds
    ``cap`` saved frames, a strict pop underflows exactly when one sits at
    the base, and either raise leaves the stack bitwise as it was; a
    non-strict pop at the base keeps depth 1 and the lane's top.  Without a
    cap, a stack that starts one frame deep grows under every push and
    restore that needs it, and its storage sees the grown tables.
    """
    event = (MODEL_E,) if vector else ()
    storage = StackedStorage("v", MODEL_Z, depth, cap=cap)
    storage.allocate(TensorType(dtype, event))
    s = storage.stack
    assert type(s) is BatchedStack
    s.strict = strict
    zero = np.zeros(event)
    model = [[zero] for _ in range(MODEL_Z)]
    peak = 0

    for kind, lanes, numbers, n_frames in ops:
        idx = np.array(lanes, dtype=np.int64)
        full = np.array(numbers, dtype=s.dtype).reshape((MODEL_Z, MODEL_E))
        full = full if vector else full[:, 0]
        values = full[idx]
        before = _stack_state(s)
        if kind == "push_at":
            if cap is not None and any(len(model[b]) - 1 == cap for b in lanes):
                with pytest.raises(StackOverflowError, match="max_stack_depth"):
                    s.push_at(idx, values)
                _assert_untouched(s, before)
            else:
                s.push_at(idx, values)
                for b, v in zip(lanes, values):
                    model[b].append(v)
        elif kind in ("drop_at", "pop_at"):
            if strict and any(len(model[b]) == 1 for b in lanes):
                with pytest.raises(StackUnderflowError):
                    getattr(s, kind)(idx)
                _assert_untouched(s, before)
            else:
                popped = getattr(s, kind)(idx)
                if kind == "pop_at":
                    np.testing.assert_array_equal(
                        popped, np.array([model[b][-1] for b in lanes]).reshape(values.shape)
                    )
                for b in lanes:
                    if len(model[b]) > 1:
                        model[b].pop()
        elif kind == "update":
            mask = np.zeros(MODEL_Z, dtype=bool)
            mask[idx] = True
            s.update(mask, full)
            for b in lanes:
                model[b][-1] = full[b]
        elif kind == "update_at":
            s.update_at(idx, values)
            for b, v in zip(lanes, values):
                model[b][-1] = v
        elif kind == "reset_lanes":
            top = values if n_frames % 2 else None
            s.reset_lanes(idx, top=top)
            for k, b in enumerate(lanes):
                model[b] = [zero if top is None else top[k]]
        else:  # restore_lane
            lane = n_frames % MODEL_Z
            frames = np.resize(full, (n_frames,) + event)
            if cap is not None and n_frames - 1 > cap:
                with pytest.raises(StackOverflowError, match="snapshot"):
                    s.restore_lane(lane, frames)
                _assert_untouched(s, before)
            else:
                s.restore_lane(lane, frames)
                model[lane] = list(frames)

        peak = max([peak] + [len(frames) - 1 for frames in model])
        assert s.high_water == peak
        assert storage.reached is s._reached and s.depth >= peak
        np.testing.assert_array_equal(s.depths(), [len(f) for f in model])
        for b in range(MODEL_Z):
            got = s.frames(b)
            assert got.dtype == s.dtype and got.shape == (len(model[b]),) + event
            np.testing.assert_array_equal(got, np.array(model[b]))
