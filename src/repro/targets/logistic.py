"""Bayesian logistic regression on synthetic data (Section 4.1).

The paper's problem: 10,000 data points, 100 regressors.  We synthesize the
dataset the obvious way — standard-normal features scaled by ``1/sqrt(d)``
so logits stay O(1), a standard-normal true weight vector, Bernoulli labels
— and put a standard-normal prior on the weights.  The posterior
log-density and its gradient are computed in numerically stable form on
whole-array ufuncs (the mask-free ``_sigmoid`` / ``_softplus`` of
:mod:`repro.frontend.primitives`): no boolean-mask gather, no scalar loop,
so a call costs its arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.primitives import _sigmoid, _softplus
from repro.targets.base import Target


class BayesianLogisticRegression(Target):
    """Posterior of logistic-regression weights on synthetic data.

    ``log p(q) = sum_n [ y_n * l_n - softplus(l_n) ] - ||q||^2 / (2 s^2)``
    with logits ``l = X q``.

    Parameters
    ----------
    n_data, n_features:
        Dataset size; the paper uses 10,000 x 100.
    prior_scale:
        Standard deviation ``s`` of the isotropic Gaussian prior.
    seed:
        Seed for the synthetic data generator.
    """

    name = "logistic"

    def __init__(
        self,
        n_data: int = 10_000,
        n_features: int = 100,
        prior_scale: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(n_features)
        if n_data < 1:
            raise ValueError(f"n_data must be positive, got {n_data}")
        if prior_scale <= 0:
            raise ValueError(f"prior_scale must be positive, got {prior_scale}")
        self.n_data = int(n_data)
        self.prior_scale = float(prior_scale)
        rng = np.random.RandomState(seed)
        self.features = rng.randn(n_data, n_features) / np.sqrt(n_features)
        self.true_weights = rng.randn(n_features)
        probs = _sigmoid(self.features @ self.true_weights)
        self.labels = (rng.uniform(size=n_data) < probs).astype(np.float64)

    def log_prob(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        logits = q @ self.features.T                      # (..., N)
        softplus = _softplus(logits)
        logits *= self.labels             # the matmul's result is ours to reuse
        logits -= softplus
        loglik = np.sum(logits, axis=-1)
        logprior = -0.5 * np.sum(q * q, axis=-1) / self.prior_scale**2
        return loglik + logprior

    def grad_log_prob(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        logits = q @ self.features.T
        residual = self.labels - _sigmoid(logits)          # (..., N)
        return residual @ self.features - q / self.prior_scale**2

    def log_prob_ad(self, q):
        from repro.autodiff import ops as ad
        from repro.autodiff.tape import ensure_variable

        q = ensure_variable(q)
        logits = ad.matmul(q, self.features.T)
        # y*l - softplus(l) == y*log(sigmoid(l)) + (1-y)*log(sigmoid(-l)).
        loglik = ad.sum(
            ad.mul(self.labels, ad.log_sigmoid(logits))
            + ad.mul(1.0 - self.labels, ad.log_sigmoid(ad.neg(logits))),
            axis=-1,
        )
        logprior = ad.sum(q * q, axis=-1) * (-0.5 / self.prior_scale**2)
        return loglik + logprior

    def grad_flops_per_member(self) -> float:
        # Two N x d matrix products dominate.
        return 4.0 * self.n_data * self.dim

    def accuracy(self, q: np.ndarray) -> float:
        """Training accuracy of the weight vector ``q`` (diagnostics aid)."""
        q = np.asarray(q, dtype=np.float64)
        preds = (self.features @ q >= 0.0).astype(np.float64)
        return float(np.mean(preds == self.labels))
