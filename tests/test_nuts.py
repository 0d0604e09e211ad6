"""Tests for the NUTS implementations: differential, structural, statistical."""

import numpy as np
import pytest

from repro.nuts import IterativeNuts, NutsKernel, run_nuts
from repro.nuts.kernel import KERNEL_STRATEGIES
from repro.nuts.sampler import STRATEGIES, DualAveragingAdapter
from repro.targets import CorrelatedGaussian, NealsFunnel, Rosenbrock
from repro.vm.instrumentation import Instrumentation


@pytest.fixture(scope="module")
def gauss():
    return CorrelatedGaussian(dim=4, rho=0.5)


@pytest.fixture(scope="module")
def kernel(gauss):
    return NutsKernel(gauss)


@pytest.fixture(scope="module")
def reference_run(gauss, kernel):
    q0 = gauss.initial_state(6, seed=1)
    result = kernel.run(
        q0, step_size=0.15, n_trajectories=4, max_depth=5, seed=11,
        strategy="reference",
    )
    return q0, result


class TestDifferential:
    """Every execution strategy reproduces the plain-Python chains bitwise."""

    @pytest.mark.parametrize("strategy", [s for s in KERNEL_STRATEGIES if s != "reference"])
    def test_strategy_matches_reference(self, gauss, kernel, reference_run, strategy):
        q0, ref = reference_run
        result = kernel.run(
            q0, step_size=0.15, n_trajectories=4, max_depth=5, seed=11,
            strategy=strategy,
        )
        np.testing.assert_allclose(result.positions, ref.positions)
        np.testing.assert_allclose(result.grad_evals, ref.grad_evals)
        np.testing.assert_array_equal(result.rng, ref.rng)

    @pytest.mark.parametrize("mode", ["mask", "gather"])
    def test_execution_modes_agree(self, gauss, kernel, reference_run, mode):
        q0, ref = reference_run
        result = kernel.run(
            q0, step_size=0.15, n_trajectories=4, max_depth=5, seed=11,
            strategy="pc", mode=mode,
        )
        np.testing.assert_allclose(result.positions, ref.positions)

    def test_schedulers_agree(self, gauss, kernel, reference_run):
        q0, ref = reference_run
        for scheduler in ("earliest", "most_active", "round_robin"):
            result = kernel.run(
                q0, step_size=0.15, n_trajectories=4, max_depth=5, seed=11,
                strategy="pc", scheduler=scheduler,
            )
            np.testing.assert_allclose(result.positions, ref.positions)

    def test_batch_members_independent_of_batch_composition(self, gauss, kernel):
        """A member's chain is identical whether run alone or in a batch."""
        q0 = gauss.initial_state(5, seed=2)
        rng_all = kernel.initial_rng(5, seed=3)
        full = kernel.run(
            q0, step_size=0.15, n_trajectories=3, max_depth=4,
            strategy="pc", rng=rng_all,
        )
        for b in range(5):
            solo = kernel.run(
                q0[b : b + 1], step_size=0.15, n_trajectories=3, max_depth=4,
                strategy="pc", rng=rng_all[b : b + 1],
            )
            np.testing.assert_allclose(solo.positions[0], full.positions[b])


class TestStructure:
    def test_moves_from_start(self, gauss, kernel):
        q0 = gauss.initial_state(4, seed=4)
        result = kernel.run(
            q0, step_size=0.1, n_trajectories=2, max_depth=5, seed=5, strategy="pc"
        )
        assert not np.allclose(result.positions, q0)

    def test_grad_evals_multiple_of_leaf_cost(self, gauss, kernel):
        # Each leaf costs n_leapfrog + 1 gradients, plus nothing else.
        q0 = gauss.initial_state(3, seed=6)
        result = kernel.run(
            q0, step_size=0.1, n_trajectories=2, max_depth=5, seed=7,
            strategy="reference", n_leapfrog=4,
        )
        assert np.all(result.grad_evals % 5 == 0)
        assert np.all(result.grad_evals >= 5)

    def test_max_depth_caps_tree_size(self, gauss, kernel):
        q0 = gauss.initial_state(3, seed=8)
        # Tiny step + depth cap: at most 2^1 + 2^0 = 3 doublings' leaves/traj.
        result = kernel.run(
            q0, step_size=0.001, n_trajectories=1, max_depth=2, seed=9,
            strategy="reference", n_leapfrog=4,
        )
        assert np.all(result.grad_evals <= 3 * 5)

    def test_instrumentation_counts_gradients(self, gauss, kernel):
        q0 = gauss.initial_state(4, seed=10)
        result = kernel.run(
            q0, step_size=0.15, n_trajectories=2, max_depth=4, seed=11,
            strategy="pc", instrument=True,
        )
        instr = result.instrumentation
        assert isinstance(instr, Instrumentation)
        # Active gradient lanes == the in-program per-member counters.
        assert instr.count(tag="gradient").active == int(np.sum(result.grad_evals))
        # Masked execution wastes some lanes whenever members diverge.
        assert instr.count(tag="gradient").slots >= instr.count(tag="gradient").active

    def test_unknown_strategy_rejected(self, gauss, kernel):
        with pytest.raises(ValueError):
            kernel.run(gauss.initial_state(2), step_size=0.1, strategy="warp")
        with pytest.raises(ValueError):
            run_nuts(gauss, 2, 1, 0.1, strategy="warp")

    def test_wrong_dim_rejected(self, gauss, kernel):
        with pytest.raises(ValueError):
            kernel.run(np.zeros((2, 3)), step_size=0.1)

    def test_per_member_step_sizes(self, gauss, kernel):
        q0 = gauss.initial_state(3, seed=12)
        eps = np.array([0.05, 0.1, 0.2])
        result = kernel.run(
            q0, step_size=eps, n_trajectories=2, max_depth=4, seed=13, strategy="pc"
        )
        ref = kernel.run(
            q0, step_size=eps, n_trajectories=2, max_depth=4, seed=13,
            strategy="reference",
        )
        np.testing.assert_allclose(result.positions, ref.positions)


class TestIterative:
    def test_matches_reference_tree_statistics(self, gauss):
        """Iterative and recursive NUTS agree on mean tree size (distribution-level)."""
        q0 = gauss.initial_state(1, seed=14)[0]
        it = IterativeNuts(gauss, step_size=0.12, max_depth=6)
        res = it.sample(q0, 150, seed=15)
        # Recursive version, same regime:
        kernel = NutsKernel(gauss)
        ref = kernel.run(
            q0[None, :], step_size=0.12, n_trajectories=150, max_depth=6,
            seed=16, strategy="reference",
        )
        rec_leaves = float(ref.grad_evals[0]) / 5.0 / 150.0
        assert res.mean_tree_leaves == pytest.approx(rec_leaves, rel=0.35)

    def test_divergence_terminates_subtree(self):
        """A huge step size must not loop forever or error out."""
        target = Rosenbrock(dim=2, temperature=1.0)
        it = IterativeNuts(target, step_size=5.0, max_depth=8)
        res = it.sample(np.array([1.0, 1.0]), 20, seed=17)
        assert res.positions.shape == (20, 2)
        assert np.all(np.isfinite(res.positions))

    def test_sample_batch_serial_equivalence(self, gauss):
        it = IterativeNuts(gauss, step_size=0.12, max_depth=5)
        q0 = gauss.initial_state(3, seed=18)
        finals, total = it.sample_batch(q0, 10, seed=19)
        for b in range(3):
            single = it.sample(q0[b], 10, seed=19 + b)
            np.testing.assert_allclose(finals[b], single.positions[-1])

    def test_invalid_args_rejected(self, gauss):
        with pytest.raises(ValueError):
            IterativeNuts(gauss, step_size=0.0)
        with pytest.raises(ValueError):
            IterativeNuts(gauss, step_size=0.1, max_depth=0)
        it = IterativeNuts(gauss, step_size=0.1)
        with pytest.raises(ValueError):
            it.sample(np.zeros(3), 5)


class TestStatistical:
    """NUTS must actually sample the target (slow-ish, small sizes)."""

    def test_gaussian_moments_recovered(self):
        target = CorrelatedGaussian(dim=3, rho=0.6, min_scale=0.5, max_scale=1.0)
        result = run_nuts(
            target, batch_size=16, n_trajectories=150, step_size=0.25,
            strategy="pc", seed=20, trace=True, max_depth=6,
        )
        chains = result.samples[50:]  # warmup discard
        flat = chains.reshape(-1, 3)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=0.15)
        np.testing.assert_allclose(
            np.cov(flat.T), target.covariance, atol=0.35
        )

    def test_iterative_gaussian_moments(self):
        target = CorrelatedGaussian(dim=3, rho=0.6, min_scale=0.5, max_scale=1.0)
        it = IterativeNuts(target, step_size=0.25, max_depth=6)
        res = it.sample(target.initial_state(1, seed=21)[0], 1500, seed=22)
        draws = res.positions[300:]
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.15)
        np.testing.assert_allclose(np.cov(draws.T), target.covariance, atol=0.4)

    def test_funnel_explores_negative_v(self):
        target = NealsFunnel(dim=3, scale=1.5)
        result = run_nuts(
            target, batch_size=8, n_trajectories=200, step_size=0.1,
            strategy="pc", seed=23, trace=True, max_depth=7,
        )
        v = result.samples[50:, :, 0]
        assert v.min() < -1.0 and v.max() > 1.0  # both funnel regimes visited


class TestSamplerHelpers:
    def test_strategies_tuple_is_exhaustive(self):
        assert set(STRATEGIES) == {
            "reference", "local", "hybrid", "pc", "pc_fused", "pc_noopt", "stan",
        }

    def test_dual_averaging_converges_to_target(self):
        adapter = DualAveragingAdapter(initial_step_size=1.0, target_accept=0.8)
        # Fake environment: acceptance decreases with step size.
        for _ in range(200):
            accept = float(np.clip(1.2 - adapter.step_size, 0.0, 1.0))
            adapter.update(accept)
        final_accept = 1.2 - adapter.adapted_step_size
        assert final_accept == pytest.approx(0.8, abs=0.1)

    def test_trace_matches_untraced_final_state(self, gauss):
        kernel = NutsKernel(gauss)
        traced = run_nuts(
            gauss, batch_size=4, n_trajectories=5, step_size=0.15,
            strategy="pc", seed=25, trace=True, kernel=kernel,
        )
        plain = run_nuts(
            gauss, batch_size=4, n_trajectories=5, step_size=0.15,
            strategy="pc", seed=25, trace=False, kernel=kernel,
        )
        np.testing.assert_allclose(traced.positions, plain.positions)
        assert traced.grad_evals == plain.grad_evals
