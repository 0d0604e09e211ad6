"""Unit and property tests for the batched stacks (paper optimization 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.stack import BatchedStack, StackOverflowError, UncachedBatchedStack

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
