"""The non-autobatched comparator of Figure 5.

* :mod:`repro.baselines.stan_like` — an optimized single-chain iterative
  NUTS loop standing in for Stan's custom C++ sampler.

Figure 5's "Eager mode without autobatching" line is
``NutsKernel.run(strategy="reference")``: the same program run one batch
member at a time.
"""

from repro.baselines.stan_like import StanLikeSampler

__all__ = ["StanLikeSampler"]
