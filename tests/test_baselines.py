"""Tests for the Figure 5 baseline comparator."""

import pytest

from repro.baselines import StanLikeSampler
from repro.targets import CorrelatedGaussian


@pytest.fixture(scope="module")
def target():
    return CorrelatedGaussian(dim=3, rho=0.4)


class TestStanLike:
    def test_runs_and_counts(self, target):
        sampler = StanLikeSampler(target, step_size=0.2, max_depth=5)
        q0 = target.initial_state(3, seed=0)
        run = sampler.run(q0, n_trajectories=5, seed=1)
        assert run.positions.shape == (3, 3)
        assert run.grad_evals > 0
        assert run.gradients_per_second() > 0

    def test_throughput_flat_in_batch_size(self, target):
        """Serial chains: total gradients scale with Z, so grads/sec is ~flat
        while total wall time grows ~linearly."""
        sampler = StanLikeSampler(target, step_size=0.2, max_depth=5)
        small = sampler.run(target.initial_state(1, seed=2), 20, seed=3)
        large = sampler.run(target.initial_state(8, seed=2), 20, seed=3)
        assert large.grad_evals > 4 * small.grad_evals
        assert large.wall_time > small.wall_time

    def test_calibration_scales_throughput(self, target):
        fast = StanLikeSampler(target, step_size=0.2, speed_ratio=10.0)
        run = fast.run(target.initial_state(2, seed=4), 3, seed=5)
        assert fast.calibrated_grads_per_second(run) == pytest.approx(
            10.0 * run.gradients_per_second()
        )

    def test_invalid_speed_ratio(self, target):
        with pytest.raises(ValueError):
            StanLikeSampler(target, step_size=0.1, speed_ratio=0.0)

