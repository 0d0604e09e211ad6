"""The paper's workload, pinned: the logistic kernels bit for bit, and NUTS on
logistic regression differentially across every strategy.

Two layers changed together in the PR that added this file — the kernels'
bodies (mask-free ``_sigmoid`` / ``_softplus``) and where fused blocks run
them (on the live lanes only) — so the checks are kept together too and run
as a CI fast gate: a kernel or codegen regression fails here in seconds.
"""

import hashlib

import numpy as np
import pytest

from repro.autodiff import ops as ad
from repro.backend.fusion import GATHER_MIN_COST_WEIGHT
from repro.frontend.primitives import _sigmoid, _softplus
from repro.nuts.kernel import KERNEL_STRATEGIES, NutsKernel
from repro.ops import sigmoid
from repro.targets.logistic import BayesianLogisticRegression


def _two_branch_sigmoid(x):
    """The oracle: the mask-indexed formula every copy used before."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=np.result_type(x, np.float64))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.shape else out[()]


SPECIALS = np.array(
    [0.0, -0.0, 745.2, -745.2, np.inf, -np.inf, np.nan, 5e-324]
)


class TestKernelsBitwise:
    @pytest.mark.parametrize("scale", [0.1, 3.0, 50.0])
    def test_sigmoid_is_the_two_branch_formula(self, scale):
        x = np.random.RandomState(int(scale * 10)).randn(64, 1000) * scale
        assert np.array_equal(_sigmoid(x), _two_branch_sigmoid(x))

    def test_sigmoid_special_values(self):
        got = _sigmoid(SPECIALS)
        assert np.array_equal(got, _two_branch_sigmoid(SPECIALS), equal_nan=True)
        assert np.array_equal(got[:6], [0.5, 0.5, 1.0, 0.0, 1.0, 0.0])
        assert np.isnan(got[6])

    def test_sigmoid_promotes_ints_and_returns_scalars(self):
        xi = np.arange(-40, 41, dtype=np.int64)
        got = _sigmoid(xi)
        assert got.dtype == np.float64
        assert np.array_equal(got, _two_branch_sigmoid(xi))
        for zero_d in (np.float64(0.3), np.array(-1.5), 2):
            one = _sigmoid(zero_d)
            assert isinstance(one, np.float64)
            assert one == _two_branch_sigmoid(zero_d)
        empty = _sigmoid(np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_kernels_leave_their_argument_alone(self):
        x = np.linspace(-3.0, 3.0, 7)
        before = x.copy()
        _sigmoid(x)
        _softplus(x)
        assert np.array_equal(x, before)

    def test_one_definition_behind_all_three(self):
        x = np.random.RandomState(1).randn(5, 7) * 4
        want = _two_branch_sigmoid(x)
        assert np.array_equal(sigmoid(x), want)            # the primitive
        assert np.array_equal(ad.sigmoid(x).value, want)   # autodiff
        assert sigmoid.fn is _sigmoid

    @pytest.mark.parametrize("scale", [0.1, 3.0, 50.0])
    def test_softplus_within_two_ulp_of_logaddexp(self, scale):
        x = np.random.RandomState(int(scale * 10)).randn(64, 1000) * scale
        got, want = _softplus(x), np.logaddexp(0.0, x)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        special = _softplus(SPECIALS)  # warning-free, unlike the oracle
        with np.errstate(invalid="ignore"):
            want = np.logaddexp(0.0, SPECIALS)
        assert np.array_equal(special, want, equal_nan=True)
        assert isinstance(_softplus(0.5), np.float64)

    def test_kernels_do_not_depend_on_batch_shape(self):
        """Elementwise and size-independent: a row computed alone, in a
        gathered subset, or in the full batch is the same bits — what lets
        the gathered call sites, the full-width ones and the ``Z = 1``
        reference agree."""
        x = np.random.RandomState(2).randn(32, 203) * 5
        rows = np.array([0, 3, 4, 17, 31])
        for fn in (_sigmoid, _softplus):
            full = fn(x)
            assert np.array_equal(fn(x[rows]), full[rows])
            assert np.array_equal(fn(x[7]), full[7])
            assert np.array_equal(fn(x[7, 5:14]), full[7, 5:14])

    def test_synthetic_dataset_is_the_parents(self):
        """``labels = uniform < sigmoid(X w)``: digest computed on the parent
        commit (mask-indexed sigmoid), same container."""
        target = BayesianLogisticRegression(n_data=1000, n_features=20, seed=0)
        assert hashlib.sha256(target.labels.tobytes()).hexdigest() == (
            "9db9c9125d00fed15afc15905052e2387043d4589392169d12da7c56612fca24"
        )

    def test_gradient_is_the_two_branch_gradient(self):
        target = BayesianLogisticRegression(n_data=300, n_features=7, seed=3)
        q = target.initial_state(16, seed=1) * 4
        logits = q @ target.features.T
        want = (
            (target.labels - _two_branch_sigmoid(logits)) @ target.features
            - q / target.prior_scale**2
        )
        assert np.array_equal(target.grad_log_prob(q), want)
        want_lp = np.sum(
            target.labels * logits - np.logaddexp(0.0, logits), axis=-1
        ) - 0.5 * np.sum(q * q, axis=-1)
        np.testing.assert_allclose(target.log_prob(q), want_lp, rtol=1e-13)
        assert np.array_equal(q, target.initial_state(16, seed=1) * 4)


Z = 16
ARGS = dict(step_size=0.1, n_trajectories=3, max_depth=5, n_leapfrog=4)


@pytest.fixture(scope="module")
def logistic_runs():
    target = BayesianLogisticRegression(n_data=200, n_features=5)
    kernel = NutsKernel(target)
    q0 = target.initial_state(Z, seed=0)
    return target, {
        strategy: kernel.run(q0, strategy=strategy, instrument=True, **ARGS)
        for strategy in KERNEL_STRATEGIES
    }


class TestLogisticNutsDifferential:
    @pytest.mark.parametrize(
        "strategy", [s for s in KERNEL_STRATEGIES if s != "reference"]
    )
    def test_strategy_matches_reference(self, logistic_runs, strategy):
        """The benchmark's rule: the integer outputs pin every branch the
        sampler took and are bitwise; positions are float sums that BLAS
        orders by shape, so 1e-9 relative."""
        _, runs = logistic_runs
        ref, got = runs["reference"], runs[strategy]
        assert np.array_equal(got.rng, ref.rng)
        assert np.array_equal(got.grad_evals, ref.grad_evals)
        np.testing.assert_allclose(got.positions, ref.positions, rtol=1e-9, atol=0)

    def test_batch_diverges(self, logistic_runs):
        """The accounting below is only a check if lanes are masked off."""
        _, runs = logistic_runs
        eager = runs["pc"].instrumentation
        assert len(set(runs["reference"].grad_evals)) > 1
        assert eager.utilization(tag="gradient") < 1.0
        assert eager.utilization(tag="logp") < 1.0

    def test_heavy_sites_are_charged_their_live_lanes(self, logistic_runs):
        target, runs = logistic_runs
        prims = target.primitives()
        assert prims.grad_log_prob.cost_weight >= GATHER_MIN_COST_WEIGHT
        assert prims.log_prob.cost_weight >= GATHER_MIN_COST_WEIGHT
        eager = runs["pc"].instrumentation
        fused = runs["pc_fused"].instrumentation
        for tag, prim in (
            ("gradient", prims.grad_log_prob), ("logp", prims.log_prob)
        ):
            e, f = eager.count(tag=tag), fused.count(tag=tag)
            assert f.slots == f.active, tag
            assert e.slots == e.executions * Z, tag
            assert (f.active, f.executions) == (e.active, e.executions), tag
            elements = target.dim if tag == "gradient" else 1
            assert f.flops == prim.cost_weight * elements * f.active, tag
            assert fused.count(prim=prim.name) == f, tag

    def test_every_other_primitive_counts_as_eager_does(self, logistic_runs):
        target, runs = logistic_runs
        eager = runs["pc"].instrumentation
        fused = runs["pc_fused"].instrumentation
        prims = target.primitives()
        heavy = {prims.log_prob.name, prims.grad_log_prob.name}
        assert set(eager.by_prim) == set(fused.by_prim)
        for name, counter in eager.by_prim.items():
            if name not in heavy:
                assert fused.by_prim[name] == counter, name
        for tag in set(eager.by_tag) - {"gradient", "logp", "target"}:
            assert fused.by_tag[tag] == eager.by_tag[tag], tag
        for field in (
            "steps", "kernel_calls", "pushes", "pops", "push_lanes",
            "pop_lanes", "stacked_reads", "stacked_writes", "register_writes",
        ):
            assert getattr(fused, field) == getattr(eager, field), field
