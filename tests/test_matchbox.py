"""Tests for the Matchbox-style autobatcher, including the §5 equivalence:
this third implementation style must agree with both of our machines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.matchbox import MaskedBatch, cond, matchbox_call, while_loop
from repro.matchbox.masked import as_masked

from .programs import collatz_steps, fib, gcd


# -- matchbox renditions of corpus programs ------------------------------------


def mb_fib(n: MaskedBatch):
    def base(n):
        return (as_masked(1, n.batch_size).with_mask(n.mask),)

    def recurse(n):
        (left,) = matchbox_call(mb_fib, n - 2)
        (right,) = matchbox_call(mb_fib, n - 1)
        return (left + right,)

    return cond(n <= 1, base, recurse, (n,))


def mb_gcd(a: MaskedBatch, b: MaskedBatch):
    def still_going(a, b):
        return b != 0

    def body(a, b):
        return b, a % b

    return while_loop(still_going, body, (a, b))


def mb_collatz(n: MaskedBatch):
    steps = as_masked(np.zeros(n.batch_size, dtype=np.int64), n.batch_size)

    def going(n, steps):
        return n != 1

    def body(n, steps):
        def even(n, steps):
            return n // 2, steps

        def odd(n, steps):
            return 3 * n + 1, steps

        n, steps = cond(n % 2 == 0, even, odd, (n, steps))
        return n, steps + 1

    return while_loop(going, body, (n, steps))


class TestMaskedBatch:
    def test_construction_and_masks(self):
        mb = MaskedBatch(np.arange(4), np.array([1, 0, 1, 1], dtype=bool))
        assert mb.batch_size == 4
        assert mb.event_shape == ()
        np.testing.assert_array_equal(mb.mask, [True, False, True, True])

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            MaskedBatch(np.float64(3.0))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            MaskedBatch(np.arange(4), np.ones(3, dtype=bool))

    def test_binop_intersects_masks(self):
        a = MaskedBatch(np.arange(4), np.array([1, 1, 0, 1], dtype=bool))
        b = MaskedBatch(np.arange(4), np.array([1, 0, 1, 1], dtype=bool))
        out = a + b
        np.testing.assert_array_equal(out.mask, [True, False, False, True])
        np.testing.assert_array_equal(out.data, [0, 2, 4, 6])

    def test_reflected_ops(self):
        mb = MaskedBatch(np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose((8.0 / mb).data, [8.0, 4.0, 2.0])
        np.testing.assert_allclose((10.0 - mb).data, [9.0, 8.0, 6.0])

    def test_merge_writes_only_active(self):
        base = MaskedBatch(np.zeros(4))
        update = MaskedBatch(np.ones(4), np.array([0, 1, 0, 1], dtype=bool))
        out = base.merge(update)
        np.testing.assert_array_equal(out.data, [0, 1, 0, 1])
        assert out.mask.all()

    def test_merge_promotes_dtype(self):
        base = MaskedBatch(np.zeros(3, dtype=np.int64))
        update = MaskedBatch(np.full(3, 0.5), np.array([1, 0, 0], dtype=bool))
        out = base.merge(update)
        assert out.data.dtype == np.float64
        np.testing.assert_allclose(out.data, [0.5, 0.0, 0.0])

    def test_junk_lane_errors_suppressed(self):
        a = MaskedBatch(np.array([4.0, -1.0]), np.array([1, 0], dtype=bool))
        out = a / MaskedBatch(np.array([2.0, 0.0]))  # junk lane divides by 0
        assert out.data[0] == 2.0  # active lane fine


class TestCombinators:
    def test_cond_runs_only_needed_arms(self):
        calls = []

        def then(v):
            calls.append("then")
            return (v + 1,)

        def other(v):
            calls.append("else")
            return (v - 1,)

        v = MaskedBatch(np.array([5, 6]))
        (out,) = cond(v > 0, then, other, (v,))  # everyone takes then
        assert calls == ["then"]
        np.testing.assert_array_equal(out.data, [6, 7])

    def test_cond_merges_divergent_arms(self):
        v = MaskedBatch(np.array([-2, 3, -4, 5]))
        (out,) = cond(v > 0, lambda v: (v * 10,), lambda v: (-v,), (v,))
        np.testing.assert_array_equal(out.data, [2, 30, 4, 50])

    def test_cond_arity_checked(self):
        v = MaskedBatch(np.array([1, -1]))
        with pytest.raises(ValueError):
            cond(v > 0, lambda v: (v, v), lambda v: (v,), (v,))

    def test_while_freezes_finished_members(self):
        v = MaskedBatch(np.array([3, 0, 1]))
        total = MaskedBatch(np.zeros(3, dtype=np.int64))
        out_v, out_total = while_loop(
            lambda v, t: v > 0, lambda v, t: (v - 1, t + v), (v, total)
        )
        np.testing.assert_array_equal(out_total.data, [6, 0, 1])

    def test_while_iteration_guard(self):
        v = MaskedBatch(np.array([1]))
        with pytest.raises(RuntimeError):
            while_loop(lambda v: v > 0, lambda v: (v,), (v,), max_iterations=10)

    def test_while_arity_checked(self):
        v = MaskedBatch(np.array([1]))
        with pytest.raises(ValueError):
            while_loop(lambda v: v > 0, lambda v: (v, v), (v,))


class TestSection5Equivalence:
    """The paper: Matchbox's mask-queue 'data structure is equivalent' to
    Algorithm 1's program counter — so results must match our machines."""

    def test_fib_matches_machines(self):
        batch = np.array([0, 1, 3, 7, 4, 5, 10])
        (out,) = mb_fib(MaskedBatch(batch))
        np.testing.assert_array_equal(out.data, fib.run_reference(batch))
        np.testing.assert_array_equal(out.data, fib.run_local(batch))
        np.testing.assert_array_equal(out.data, fib.run_pc(batch))

    def test_gcd_matches_machines(self):
        a = np.array([48, 54, 17, 100])
        b = np.array([18, 24, 5, 75])
        out_a, _ = mb_gcd(MaskedBatch(a), MaskedBatch(b))
        np.testing.assert_array_equal(out_a.data, gcd.run_reference(a, b))
        np.testing.assert_array_equal(out_a.data, gcd.run_pc(a, b))

    def test_collatz_matches_machines(self):
        n = np.array([6, 27, 1, 97])
        _, steps = mb_collatz(MaskedBatch(n))
        np.testing.assert_array_equal(steps.data, collatz_steps.run_reference(n))

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.int64, (5,), elements=st.integers(0, 14)))
    def test_fib_property(self, batch):
        (out,) = mb_fib(MaskedBatch(batch))
        np.testing.assert_array_equal(out.data, fib.run_reference(batch))
