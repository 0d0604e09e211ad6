"""Unit and property tests for the batched stacks (paper optimization 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.stack import (
    BatchedStack,
    StackOverflowError,
    StackUnderflowError,
    UncachedBatchedStack,
)
from repro.vm.state import StackedStorage

STACK_CLASSES = [BatchedStack, UncachedBatchedStack]


def full_mask(z):
    return np.ones(z, dtype=bool)


@pytest.mark.parametrize("cls", STACK_CLASSES)
class TestBasicOps:
    def test_initial_top_is_zero(self, cls):
        s = cls(batch_size=3, depth=4)
        np.testing.assert_array_equal(s.read(), np.zeros(3))
        np.testing.assert_array_equal(s.depths(), np.ones(3))

    def test_update_then_read(self, cls):
        s = cls(batch_size=3, depth=4)
        s.update(full_mask(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(s.read(), [1.0, 2.0, 3.0])

    def test_masked_update_leaves_inactive_lanes(self, cls):
        s = cls(batch_size=3, depth=4)
        s.update(np.array([True, False, True]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(s.read(), [1.0, 0.0, 3.0])

    def test_push_pop_roundtrip(self, cls):
        s = cls(batch_size=2, depth=4)
        s.update(full_mask(2), np.array([10.0, 20.0]))
        s.push(full_mask(2), np.array([11.0, 21.0]))
        np.testing.assert_array_equal(s.read(), [11.0, 21.0])
        np.testing.assert_array_equal(s.depths(), [2, 2])
        popped = s.pop(full_mask(2))
        np.testing.assert_array_equal(popped, [11.0, 21.0])
        np.testing.assert_array_equal(s.read(), [10.0, 20.0])

    def test_masked_push_diverges_depths(self, cls):
        s = cls(batch_size=3, depth=4)
        s.update(full_mask(3), np.array([1.0, 2.0, 3.0]))
        s.push(np.array([True, False, True]), np.array([9.0, 9.0, 9.0]))
        np.testing.assert_array_equal(s.depths(), [2, 1, 2])
        np.testing.assert_array_equal(s.read(), [9.0, 2.0, 9.0])
        s.pop(np.array([True, False, False]))
        np.testing.assert_array_equal(s.read(), [1.0, 2.0, 9.0])
        np.testing.assert_array_equal(s.depths(), [1, 1, 2])

    def test_vector_events(self, cls):
        s = cls(batch_size=2, depth=3, event_shape=(2,))
        v0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        v1 = np.array([[5.0, 6.0], [7.0, 8.0]])
        s.update(full_mask(2), v0)
        s.push(full_mask(2), v1)
        np.testing.assert_array_equal(s.read(), v1)
        s.pop(full_mask(2))
        np.testing.assert_array_equal(s.read(), v0)

    def test_overflow_raises(self, cls):
        s = cls(batch_size=1, depth=2)
        s.push(full_mask(1), np.array([1.0]))
        s.push(full_mask(1), np.array([2.0]))
        with pytest.raises(StackOverflowError):
            s.push(full_mask(1), np.array([3.0]))

    def test_masked_overflow_only_on_active_lanes(self, cls):
        s = cls(batch_size=2, depth=1)
        s.push(np.array([True, False]), np.array([1.0, 1.0]))
        # Lane 0 is full; pushing only on lane 1 must succeed.
        s.push(np.array([False, True]), np.array([2.0, 2.0]))
        with pytest.raises(StackOverflowError):
            s.push(np.array([True, False]), np.array([3.0, 3.0]))

    def test_indexed_overflow_only_on_active_lanes(self, cls):
        s = cls(batch_size=2, depth=1)
        s.push_at(np.array([0]), np.array([1.0]))
        # Lane 0 is full; pushing only on lane 1 must succeed.
        s.push_at(np.array([1]), np.array([2.0]))
        before = (s.sp.copy(), s.data.copy(), s.read().copy(), s.high_water)
        with pytest.raises(StackOverflowError, match="max_stack_depth"):
            s.push_at(np.array([0, 1]), np.array([3.0, 3.0]))
        # The raise comes before any write, for the lanes in idx too.
        for was, now in zip(before, (s.sp, s.data, s.read(), s.high_water)):
            np.testing.assert_array_equal(now, was)

    def test_pop_at_base_is_clamped(self, cls):
        s = cls(batch_size=1, depth=2)
        s.update(full_mask(1), np.array([5.0]))
        s.pop(full_mask(1))  # popping the base frame is benign by design
        np.testing.assert_array_equal(s.depths(), [1])

    def test_frames_inspection(self, cls):
        s = cls(batch_size=2, depth=4)
        s.update(full_mask(2), np.array([1.0, 10.0]))
        s.push(np.array([True, False]), np.array([2.0, 0.0]))
        s.push(np.array([True, False]), np.array([3.0, 0.0]))
        np.testing.assert_array_equal(s.frames(0), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.frames(1), [10.0])

    def test_gathered_ops_match_masked(self, cls):
        z = 5
        masked = cls(batch_size=z, depth=4)
        gathered = cls(batch_size=z, depth=4)
        rng = np.random.default_rng(0)
        vals = rng.normal(size=z)
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
                self.stacks[b].pop()
            elif on:
                self.stacks[b][-1] = 0.0  # clamped base pop reads junk; model as 0

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
    cached=st.booleans(),
)
def test_stack_matches_reference_model(ops, cached):
    """Property: batched stacks behave like Z independent list stacks.

    Pops are only applied on lanes whose model stack is non-empty (the
    machine never underflows on well-formed programs; clamped behavior at
    the base is unspecified junk).
    """
    z = 4
    cls = BatchedStack if cached else UncachedBatchedStack
    s = cls(batch_size=z, depth=40)
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
            # Only pop lanes that have something above the base frame.
            depth_ok = s.depths() > 1
            mask = mask & depth_ok
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


@pytest.mark.parametrize("cls", STACK_CLASSES)
def test_masked_ops_accept_lists(cls):
    """``push``/``update`` take any array-like, on either layout."""
    s = cls(batch_size=3, depth=2)
    s.update([True, True, True], [1.0, 2.0, 3.0])
    s.push(np.array([True, False, True]), [7.0, 8.0, 9.0])
    np.testing.assert_array_equal(s.read(), [7.0, 2.0, 9.0])
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
             "reset_lanes", "restore_lane", "promote"]
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


@settings(max_examples=150, deadline=None)
@given(
    ops=_model_ops,
    cached=st.booleans(),
    vector=st.booleans(),
    dtype=st.sampled_from(["int64", "float64"]),
    strict=st.booleans(),
)
def test_indexed_ops_match_list_model(ops, cached, vector, dtype, strict):
    """Every indexed operation against Z plain Python lists of frames.

    ``frames(b)``, ``depths()`` and ``high_water`` agree after every
    operation; a push overflows exactly when a lane of ``idx`` already holds
    D saved frames, a strict pop underflows exactly when one sits at the
    base, and either raise leaves the stack bitwise as it was; a non-strict
    pop at the base keeps depth 1 (its top is then whatever slot 0 held:
    the model re-reads it).  ``promote`` widens the stack mid-sequence
    through ``StackedStorage``, as a float write to an int variable does.
    """
    event = (MODEL_E,) if vector else ()
    storage = StackedStorage("v", MODEL_Z, MODEL_D, top_cache=cached)
    s = storage._ensure(event, np.dtype(dtype))
    assert type(s) is (BatchedStack if cached else UncachedBatchedStack)
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
            if any(len(model[b]) - 1 == MODEL_D for b in lanes):
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
                    else:
                        model[b] = [s.frames(b)[-1]]
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
        elif kind == "restore_lane":
            lane = n_frames % MODEL_Z
            frames = np.resize(full, (n_frames,) + event)
            if n_frames - 1 > MODEL_D:
                with pytest.raises(StackOverflowError, match="snapshot"):
                    s.restore_lane(lane, frames)
                _assert_untouched(s, before)
            else:
                s.restore_lane(lane, frames)
                model[lane] = list(frames)
        else:  # promote: a float write reaches an int stack
            storage.write_at(idx, values + 0.5)
            assert storage.stack is s and s.dtype == np.float64
            for b, v in zip(lanes, values):
                model[b][-1] = v + 0.5

        peak = max([peak] + [len(frames) - 1 for frames in model])
        assert s.high_water == peak
        np.testing.assert_array_equal(s.depths(), [len(f) for f in model])
        for b in range(MODEL_Z):
            got = s.frames(b)
            assert got.dtype == s.dtype and got.shape == (len(model[b]),) + event
            np.testing.assert_array_equal(got, np.array(model[b]))
