"""Hand-derived iterative NUTS — the "considerable work to do by hand".

This is a single-chain, recursion-free No-U-Turn sampler in straight numpy,
playing two roles from the paper:

* the **Stan baseline** of Figure 5: a well-optimized single-chain CPU
  implementation with no batching machinery whatsoever (its throughput is
  flat in batch size — chains run serially); and
* the hand-rewritten non-recursive NUTS the paper cites (Phan & Pradhan
  2019; Lao & Dillon 2019) as the labor-intensive alternative to
  autobatching.

The recursion of ``build_tree`` is replaced by the classic checkpoint
trick: while adding the ``i``-th leaf of a ``2**j``-leaf subtree, the
sampler keeps one saved state per tree level.  Leaf ``i`` is the *first*
leaf of every subtree level ``L`` with ``2**L | i`` (checkpoint it), and the
*last* leaf of every level ``L <= trailing_ones(i)`` (run that level's
U-turn test against its checkpoint).  This visits exactly the internal
nodes the recursive version tests, in the same order.

Proposals use reservoir sampling over slice-accepted leaves, which is
distributionally identical to the recursive slice sampler's hierarchical
``n2/(n1+n2)`` coin flips (both make the proposal uniform over accepted
leaves).  The RNG layout differs from the autobatched programs, so chains
agree in distribution, not bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nuts.leapfrog import leapfrog
from repro.targets.base import Target

#: Slice divergence threshold, as in Hoffman & Gelman.
DELTA_MAX = 1000.0


def _trailing_ones(i: int) -> int:
    count = 0
    while i & 1:
        count += 1
        i >>= 1
    return count


@dataclass
class IterativeResult:
    """Outcome of one single-chain iterative run."""

    positions: np.ndarray     #: (n_trajectories, dim) post-trajectory states
    grad_evals: int           #: total gradient evaluations
    mean_tree_leaves: float   #: average leaves per trajectory (diagnostics)


class IterativeNuts:
    """Recursion-free single-chain NUTS over a :class:`Target`."""

    def __init__(
        self,
        target: Target,
        step_size: float,
        max_depth: int = 6,
        n_leapfrog: int = 4,
    ):
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.target = target
        self.step_size = float(step_size)
        self.max_depth = int(max_depth)
        self.n_leapfrog = int(n_leapfrog)
        self.grad_evals = 0

    # -- internals -------------------------------------------------------------

    def _leaf(
        self, q: np.ndarray, p: np.ndarray, direction: float
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """One tree leaf: ``n_leapfrog`` steps; returns (q, p, joint)."""
        q, p = leapfrog(
            q, p, direction * self.step_size, self.target.grad_log_prob,
            n_steps=self.n_leapfrog,
        )
        self.grad_evals += self.n_leapfrog + 1
        # A divergent leaf (|p| ~ 1e170+) overflows the kinetic term; that
        # is a legitimate -inf joint (never slice-accepted), not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            joint = float(self.target.log_prob(q) - 0.5 * np.dot(p, p))
        if not np.isfinite(joint):
            joint = -np.inf
        # Acceptance statistic for dual-averaging adaptation (H&G §3.2):
        # mean over leaves of min(1, exp(joint - joint0)).
        self._alpha_sum += min(1.0, float(np.exp(min(joint - self._joint0, 0.0))))
        self._alpha_count += 1
        return q, p, joint

    @staticmethod
    def _uturn(q_minus, p_minus, q_plus, p_plus) -> bool:
        dq = q_plus - q_minus
        return bool(np.dot(dq, p_minus) < 0.0 or np.dot(dq, p_plus) < 0.0)

    def _build_subtree(
        self,
        q: np.ndarray,
        p: np.ndarray,
        log_u: float,
        direction: float,
        depth: int,
        rng: np.random.RandomState,
    ):
        """Iteratively add ``2**depth`` leaves extending from ``(q, p)``.

        Returns ``(q_end, p_end, proposal, n_accepted, still_going)`` where
        ``proposal`` is uniform over the slice-accepted leaves (or None).
        """
        n_leaves = 1 << depth
        ckpt_q = [None] * (depth + 1)
        ckpt_p = [None] * (depth + 1)
        n_accepted = 0
        proposal: Optional[np.ndarray] = None
        for i in range(n_leaves):
            q, p, joint = self._leaf(q, p, direction)
            if log_u <= joint:
                n_accepted += 1
                # Reservoir: keep this leaf with probability 1/n_accepted.
                if rng.uniform() * n_accepted < 1.0:
                    proposal = q
            if log_u >= joint + DELTA_MAX:
                return q, p, proposal, n_accepted, False
            # Checkpoint: leaf i starts every level-L subtree with 2^L | i.
            for level in range(depth + 1):
                if i % (1 << level) == 0:
                    ckpt_q[level] = q
                    ckpt_p[level] = p
                else:
                    break
            # U-turn tests: leaf i ends one subtree per trailing one-bit.
            for level in range(1, _trailing_ones(i) + 1):
                if self._uturn(ckpt_q[level], ckpt_p[level], q, p):
                    return q, p, proposal, n_accepted, False
        return q, p, proposal, n_accepted, True

    # -- public API --------------------------------------------------------------

    def trajectory(
        self, q: np.ndarray, rng: np.random.RandomState
    ) -> Tuple[np.ndarray, int]:
        """One NUTS transition from ``q``; returns (new_q, leaves_used)."""
        q = np.asarray(q, dtype=np.float64)
        p0 = rng.randn(self.target.dim)
        joint0 = float(self.target.log_prob(q) - 0.5 * np.dot(p0, p0))
        self._joint0 = joint0
        self._alpha_sum = 0.0
        self._alpha_count = 0
        log_u = joint0 + np.log(rng.uniform())
        q_minus, p_minus = q, p0
        q_plus, p_plus = q, p0
        q_cur = q
        n = 1
        leaves = 0
        for depth in range(self.max_depth):
            direction = -1.0 if rng.uniform() < 0.5 else 1.0
            if direction < 0:
                q_minus, p_minus, proposal, n_new, going = self._build_subtree(
                    q_minus, p_minus, log_u, direction, depth, rng
                )
            else:
                q_plus, p_plus, proposal, n_new, going = self._build_subtree(
                    q_plus, p_plus, log_u, direction, depth, rng
                )
            leaves += 1 << depth
            if going and proposal is not None:
                if rng.uniform() * n < n_new:
                    q_cur = proposal
            n += n_new
            if not going or self._uturn(q_minus, p_minus, q_plus, p_plus):
                break
        self.last_accept_stat = (
            self._alpha_sum / self._alpha_count if self._alpha_count else 0.0
        )
        return q_cur, leaves

    def warmup(
        self,
        q0: np.ndarray,
        n_warmup: int,
        seed: int = 0,
        target_accept: float = 0.8,
    ) -> Tuple[np.ndarray, float]:
        """Dual-averaging step-size adaptation (extension; H&G §3.2).

        Runs ``n_warmup`` trajectories, adapting ``step_size`` toward the
        ``target_accept`` acceptance statistic.  Returns the final state and
        the adapted step size; ``self.step_size`` is updated in place.
        """
        from repro.nuts.sampler import DualAveragingAdapter

        rng = np.random.RandomState(seed)
        adapter = DualAveragingAdapter(
            initial_step_size=self.step_size, target_accept=target_accept
        )
        q = np.asarray(q0, dtype=np.float64)
        for _ in range(n_warmup):
            self.step_size = adapter.step_size
            q, _ = self.trajectory(q, rng)
            adapter.update(self.last_accept_stat)
        self.step_size = adapter.adapted_step_size
        return q, self.step_size

    def sample(
        self, q0: np.ndarray, n_trajectories: int, seed: int = 0
    ) -> IterativeResult:
        """Run a single chain for ``n_trajectories`` transitions."""
        rng = np.random.RandomState(seed)
        self.grad_evals = 0
        q = np.asarray(q0, dtype=np.float64)
        if q.shape != (self.target.dim,):
            raise ValueError(
                f"q0 must have shape ({self.target.dim},), got {q.shape}"
            )
        positions = np.empty((n_trajectories, self.target.dim))
        total_leaves = 0
        for t in range(n_trajectories):
            q, leaves = self.trajectory(q, rng)
            positions[t] = q
            total_leaves += leaves
        return IterativeResult(
            positions=positions,
            grad_evals=self.grad_evals,
            mean_tree_leaves=total_leaves / max(n_trajectories, 1),
        )

    def sample_batch(
        self, q0: np.ndarray, n_trajectories: int, seed: int = 0
    ) -> Tuple[np.ndarray, int]:
        """Run independent chains *serially*, one per row of ``q0``.

        This is how a single-chain system covers a batch workload; its
        throughput is flat in batch size (the Stan line of Figure 5).
        Returns (final positions (Z, dim), total gradient evaluations).
        """
        q0 = np.atleast_2d(np.asarray(q0, dtype=np.float64))
        finals = np.empty_like(q0)
        total_grads = 0
        for b in range(q0.shape[0]):
            result = self.sample(q0[b], n_trajectories, seed=seed + b)
            finals[b] = result.positions[-1]
            total_grads += result.grad_evals
        return finals, total_grads
