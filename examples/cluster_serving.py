"""Sharded serving: one request stream across a fleet of batched machines.

A single serving engine is capped by its machine's SIMD width — at most
``num_lanes`` requests in flight.  ``repro.serve.cluster`` scales past one
machine: N engine shards, each a lane-recycled program-counter machine,
behind one ``submit``/``map`` façade with pluggable request routing.

This walkthrough:

1. serves the same request trace through 1, 2, and 4 shards and shows the
   requests-per-fleet-tick scaling (with bit-identical results throughout —
   lanes are independent under masked execution, so *where* a request runs
   never changes *what* it computes).  This is the tick clock: the shards
   of one process step one after another, so on the wall clock one engine
   with as many lanes serves more requests per second;
2. shows code-cache sharing: every shard binds the function's one fused
   ``ExecutionPlan``, so the expensive block codegen happens exactly once
   for the whole fleet (the compile counter proves it);
3. compares the routing policies on a skewed workload;
4. demonstrates rebalancing: work stealing un-skews an adversarially
   pinned arrival trace.

Run: ``python examples/cluster_serving.py``
"""

import numpy as np

from repro import autobatch


@autobatch
def collatz_steps(n):
    steps = 0
    while n > 1:
        if n % 2 == 0:
            n = n // 2
        else:
            n = 3 * n + 1
        steps = steps + 1
    return steps


def main():
    rng = np.random.RandomState(11)
    sizes = rng.randint(5, 4000, size=48).astype(np.int64)
    requests = [(np.int64(n),) for n in sizes]
    expected = collatz_steps.run_pc(sizes)

    # -- 1. shard scaling ---------------------------------------------------
    print(f"serving {len(sizes)} collatz requests "
          f"(trajectory lengths {expected.min()}..{expected.max()} steps)\n")
    print("shard scaling (4 lanes per shard, fused executor, least-loaded):")
    base = None
    for shards in (1, 2, 4):
        cluster = collatz_steps.serve_cluster(
            shards, num_lanes=4, executor="fused", policy="least_loaded"
        )
        results = cluster.map(requests)
        assert np.array_equal(np.stack(results), expected), "results diverged"
        throughput = cluster.telemetry.aggregate_throughput()
        base = base or throughput
        print(f"  {shards} shard(s): {cluster.telemetry.ticks:6d} ticks, "
              f"{throughput:.4f} req/tick ({throughput / base:4.2f}x), "
              f"fleet utilization {cluster.telemetry.fleet_utilization():.3f}")

    # -- 2. code-cache sharing ---------------------------------------------
    plan = collatz_steps.execution_plan(executor="fused")
    print(f"\none shared execution plan: {plan.stats.bind_count} machine "
          f"bindings, {plan.executor.compile_count} fused compile(s)")
    assert plan.executor.compile_count == 1

    # -- 3. routing policies ------------------------------------------------
    print("\nrouting policies on the same trace (3 shards x 2 lanes, "
          "queue depth 4):")
    for policy in ("round_robin", "least_loaded"):
        cluster = collatz_steps.serve_cluster(
            3, num_lanes=2, policy=policy, max_queue_depth=4
        )
        results = cluster.map(requests)
        assert np.array_equal(np.stack(results), expected), policy
        t = cluster.telemetry
        print(f"  {policy:13s}: per-shard completed {t.completed_per_shard()}, "
              f"completion skew {t.completion_skew():.3f}, "
              f"spillovers {t.spillovers}, "
              f"mean wait {t.mean_queue_wait():.1f} ticks")
    print("\nevery policy returned the identical result set — routing only "
          "moves work, never changes it")

    # -- 4. rebalancing: work stealing ----------------------------------------
    from repro.serve import RoutingPolicy

    class Pinned(RoutingPolicy):
        """Adversarial skew: every request lands on shard 0."""

        name = "pinned"

        def preference(self, cluster):
            return list(range(len(cluster.engines)))

    print("\nadversarial skew (all requests to shard 0 of 4):")
    for label, options in (
        ("no steal", {}),
        ("steal", dict(steal=True)),
    ):
        cluster = collatz_steps.serve_cluster(
            4, num_lanes=2, executor="fused", policy=Pinned(), **options
        )
        results = cluster.map(requests)
        assert np.array_equal(np.stack(results), expected), label
        t = cluster.telemetry
        print(f"  {label:9s}: {t.ticks:6d} ticks, per-shard completed "
              f"{t.completed_per_shard()}, steals {t.steals}")
    print("stealing spread the pinned backlog across every shard — same "
          "bits, a fraction of the ticks")


if __name__ == "__main__":
    main()
