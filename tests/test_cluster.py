"""Tests for multi-engine sharded serving (repro.serve.cluster).

Three load-bearing properties:

* **routing invariance** — a request computes the same bits no matter which
  shard (or policy) runs it, so any trace through any policy must match the
  static ``run_pc`` batch and every other policy;
* **code-cache sharing** — one :class:`~repro.vm.executors.ExecutionPlan`
  is compiled once and bound to every shard: the fused executor's compile
  counter stays at 1 for a whole fleet;
* **rebalancing safety** — work stealing may move a request to any shard,
  but never loses or duplicates a handle, never demotes its
  priority/arrival order, and never changes its bits.

The CI workflow runs this file as a fast gate before the full suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import autobatch
from repro.serve import (
    Cluster,
    ClusterTelemetry,
    DeadlinePreemptPolicy,
    Journal,
    LeastLoadedPolicy,
    PreemptPolicy,
    QueueFullError,
    RequestQueue,
    ROUTING_POLICIES,
    RoundRobinPolicy,
    RoutingPolicy,
    ServeTelemetry,
    StealPolicy,
    StepBudgetExceeded,
    recover,
    resolve_policy,
    resolve_steal_policy,
)
from repro.serve.queue import ResultHandle, ServeRequest
from repro.vm.executors import ExecutionPlan

from .programs import ALL_EXAMPLES, fib, gcd
from .test_serve import check_deadline_invariants, check_trace_invariants

CLUSTER_CORPUS = ["fib", "gcd", "collatz_steps", "poly", "rng_walk",
                  "recursive_pair", "newton_sqrt"]

POLICIES = sorted(ROUTING_POLICIES)


@autobatch
def tri(n):
    """Hermetic to this module, so its plan cache starts cold here."""
    if n <= 0:
        return 0
    return n + tri(n - 1)


def rows_of(arrays):
    """Per-request input tuples from a batch of input arrays."""
    z = np.asarray(arrays[0]).shape[0]
    return [tuple(np.asarray(a)[b] for a in arrays) for b in range(z)]


class TestClusterCorrectness:
    @pytest.mark.parametrize("name", CLUSTER_CORPUS)
    @pytest.mark.parametrize("num_engines", [1, 3])
    def test_cluster_matches_static_run_pc(self, name, num_engines):
        fn, inputs = ALL_EXAMPLES[name]
        expected = fn.run_pc(*inputs, max_stack_depth=64)
        cluster = fn.serve_cluster(
            num_engines, num_lanes=2, max_stack_depth=64
        )
        results = cluster.map(rows_of(inputs))
        expected_tuple = expected if isinstance(expected, tuple) else (expected,)
        for b, result in enumerate(results):
            result_tuple = result if isinstance(result, tuple) else (result,)
            assert len(result_tuple) == len(expected_tuple)
            for out, (got, exp) in enumerate(zip(result_tuple, expected_tuple)):
                got = np.asarray(got)
                assert got.dtype == exp.dtype, (name, b, out)
                np.testing.assert_array_equal(
                    got, exp[b], err_msg=f"{name}[{b}].{out}"
                )

    def test_cluster_matches_single_engine_trace(self):
        ns = np.array([9, 2, 13, 5, 11, 3, 7, 14, 1, 8], dtype=np.int64)
        engine = fib.serve(num_lanes=2)
        single = engine.map(rows_of((ns,)))
        cluster = fib.serve_cluster(3, num_lanes=2)
        sharded = cluster.map(rows_of((ns,)))
        np.testing.assert_array_equal(np.stack(sharded), np.stack(single))

    def test_mid_flight_submission(self):
        cluster = gcd.serve_cluster(2, num_lanes=1, max_stack_depth=64)
        first = [cluster.submit(np.int64(a), np.int64(b))
                 for a, b in [(1071, 462), (17, 5)]]
        for _ in range(3):
            cluster.tick()
        second = [cluster.submit(np.int64(a), np.int64(b))
                  for a, b in [(100, 75), (3, 0), (270, 192)]]
        cluster.run_until_idle()
        a = np.array([1071, 17, 100, 3, 270], dtype=np.int64)
        b = np.array([462, 5, 75, 0, 192], dtype=np.int64)
        got = np.array([h.result() for h in first + second])
        np.testing.assert_array_equal(got, gcd.run_pc(a, b, max_stack_depth=64))

    def test_step_budget_fails_only_its_own_request(self):
        cluster = fib.serve_cluster(2, num_lanes=1)
        doomed = cluster.submit(np.int64(25), step_budget=5)
        survivors = [cluster.submit(np.int64(n)) for n in (9, 10, 11)]
        cluster.run_until_idle()
        assert isinstance(doomed.exception(), StepBudgetExceeded)
        got = np.array([h.result() for h in survivors])
        np.testing.assert_array_equal(
            got, fib.run_pc(np.array([9, 10, 11], dtype=np.int64))
        )
        assert cluster.telemetry.failed == 1
        assert cluster.telemetry.completed == 3

    def test_wrong_arity_rejected_before_routing(self):
        cluster = gcd.serve_cluster(2, num_lanes=1)
        with pytest.raises(ValueError, match="takes 2 inputs"):
            cluster.submit(np.int64(4))
        assert cluster.telemetry.submitted == 0

    def test_run_until_idle_max_ticks(self):
        cluster = fib.serve_cluster(2, num_lanes=1)
        cluster.submit(np.int64(8))
        ticks = cluster.run_until_idle()
        assert ticks > 0 and cluster.now == ticks
        cluster2 = fib.serve_cluster(2, num_lanes=1)
        cluster2.submit(np.int64(8))
        with pytest.raises(RuntimeError, match="still busy"):
            cluster2.run_until_idle(max_ticks=ticks - 1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="num_engines"):
            fib.serve_cluster(0, num_lanes=2)
        with pytest.raises(ValueError, match="not both"):
            Cluster(fib.execution_plan("eager"), 2, 2, executor="fused")

    def test_shared_instrumentation_rejected(self):
        """One counter object across N machines would overcount N-fold."""
        from repro.vm.instrumentation import Instrumentation

        with pytest.raises(ValueError, match="shared across shards"):
            fib.serve_cluster(2, num_lanes=2, instrumentation=Instrumentation())


class TestRoutingPolicies:
    def test_policy_differential_same_result_set(self):
        """The satellite contract: one trace, every policy, identical
        results request-for-request — only telemetry may differ."""
        ns = np.array([12, 3, 14, 5, 9, 1, 13, 7, 2, 11, 4, 8], dtype=np.int64)
        results = {}
        telem = {}
        for policy in POLICIES:
            cluster = fib.serve_cluster(
                3, num_lanes=2, policy=policy, max_queue_depth=4
            )
            results[policy] = np.stack(cluster.map(rows_of((ns,))))
            telem[policy] = cluster.telemetry
        expected = fib.run_pc(ns)
        for policy in POLICIES:
            np.testing.assert_array_equal(results[policy], expected, err_msg=policy)
            assert telem[policy].completed == len(ns)
            assert telem[policy].submitted == len(ns)

    def test_four_shards_scale_requests_per_fleet_tick(self):
        """Tick clock (deterministic): the same closed-load trace through
        4 shards completes >= 2.5x the requests per *fleet tick* of one
        shard at equal lane width.  Shards step serially in one process,
        so this is not a wall-clock claim — ``ladder.cluster_4x4_us`` in
        ``benchmarks/e2e`` is (a 4x4 fleet tick costs 3.5x a 16-lane
        engine tick)."""
        ns = np.random.RandomState(0).randint(3, 13, size=48).astype(np.int64)
        throughput = {}
        for shards in (1, 4):
            cluster = fib.serve_cluster(shards, num_lanes=2, policy="least_loaded")
            np.testing.assert_array_equal(
                np.stack(cluster.map(rows_of((ns,)))), fib.run_pc(ns)
            )
            throughput[shards] = cluster.telemetry.aggregate_throughput()
        assert throughput[4] >= 2.5 * throughput[1]

    def test_round_robin_cycles_shards(self):
        cluster = fib.serve_cluster(3, num_lanes=1, policy="round_robin")
        handles = [cluster.submit(np.int64(5)) for _ in range(6)]
        assert [h.shard for h in handles] == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_the_idle_shard(self):
        cluster = fib.serve_cluster(2, num_lanes=1, policy="least_loaded")
        a = cluster.submit(np.int64(12))
        b = cluster.submit(np.int64(12))
        c = cluster.submit(np.int64(12))
        assert (a.shard, b.shard) == (0, 1)
        assert c.shard == 0  # tie on load breaks to the lower index
        cluster.run_until_idle()

    def test_resolve_policy_forms(self):
        assert isinstance(resolve_policy(None), RoundRobinPolicy)
        assert isinstance(resolve_policy("least_loaded"), LeastLoadedPolicy)
        assert isinstance(resolve_policy(RoundRobinPolicy), RoundRobinPolicy)
        inst = LeastLoadedPolicy()
        assert resolve_policy(inst) is inst
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_policy("sticky")
        with pytest.raises(TypeError):
            resolve_policy(42)
        assert RoutingPolicy.name == "abstract"


class TestSpilloverAdmission:
    def test_spills_to_next_shard_when_preferred_is_full(self):
        cluster = fib.serve_cluster(
            2, num_lanes=1, policy="round_robin", max_queue_depth=1
        )
        # Fill shard 0's queue out-of-band, then submit through the cluster:
        # round robin prefers shard 0 first, which must spill to shard 1.
        cluster.engines[0].submit(np.int64(6))
        h = cluster.submit(np.int64(7))
        assert h.shard == 1
        assert cluster.telemetry.spillovers == 1
        assert cluster.telemetry.rejected == 0
        cluster.run_until_idle()
        assert h.result() == 21

    def test_rejects_only_when_every_shard_is_full(self):
        cluster = fib.serve_cluster(2, num_lanes=1, max_queue_depth=1)
        cluster.submit(np.int64(5))
        cluster.submit(np.int64(5))
        with pytest.raises(QueueFullError, match="every shard"):
            cluster.submit(np.int64(5))
        assert cluster.telemetry.rejected == 1
        # Draining reopens admission.
        cluster.run_until_idle()
        h = cluster.submit(np.int64(5))
        cluster.run_until_idle()
        assert h.result() == 8

    def test_map_applies_backpressure_instead_of_overflowing(self):
        ns = np.arange(12, dtype=np.int64)
        cluster = fib.serve_cluster(2, num_lanes=1, max_queue_depth=1)
        results = cluster.map(rows_of((ns,)))
        np.testing.assert_array_equal(np.stack(results), fib.run_pc(ns))
        assert cluster.telemetry.rejected == 0

    def test_map_with_unadmittable_queue_raises(self):
        cluster = fib.serve_cluster(2, num_lanes=1, max_queue_depth=0)
        with pytest.raises(QueueFullError, match="idle"):
            cluster.map([(np.int64(3),)])


class TestCodeCacheSharing:
    def test_one_fused_compile_for_a_whole_fleet(self):
        cluster = tri.serve_cluster(4, num_lanes=2, executor="fused")
        assert cluster.plan is tri.execution_plan("fused")
        assert cluster.plan.executor.compile_count == 1
        assert cluster.plan.stats.bind_count >= 4
        # A second fleet over the same function reuses the same plan and
        # generated code: the counter must not move.
        again = tri.serve_cluster(2, num_lanes=3, executor="fused")
        assert again.plan is cluster.plan
        assert again.plan.executor.compile_count == 1
        ns = np.array([4, 0, 9, 2, 7, 5], dtype=np.int64)
        np.testing.assert_array_equal(
            np.stack(again.map(rows_of((ns,)))), tri.run_pc(ns)
        )

    def test_shards_share_generated_code_objects(self):
        cluster = tri.serve_cluster(3, num_lanes=2, executor="fused")
        fns = [e.vm._block_fns for e in cluster.engines]
        for blocks in fns[1:]:
            for f0, fk in zip(fns[0], blocks):
                assert f0.__code__ is fk.__code__
        assert all(e.plan is cluster.plan for e in cluster.engines)

    def test_explicit_plan_bound_to_many_machines(self):
        plan = ExecutionPlan.compile(gcd.stack_program(), executor="fused")
        assert plan.executor.compile_count == 0
        cluster = Cluster(plan, 3, num_lanes=1, max_stack_depth=64)
        assert plan.executor.compile_count == 1
        assert plan.stats.bind_count == 3
        pairs = [(48, 36), (7, 0), (12, 18), (270, 192), (9, 9)]
        results = cluster.map([(np.int64(a), np.int64(b)) for a, b in pairs])
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        np.testing.assert_array_equal(
            np.stack(results), gcd.run_pc(a, b, max_stack_depth=64)
        )


class TestClusterTelemetry:
    def test_rollup_consistency(self):
        ns = np.array([6, 13, 2, 9, 14, 4, 11, 7], dtype=np.int64)
        cluster = fib.serve_cluster(2, num_lanes=2, policy="least_loaded")
        cluster.map(rows_of((ns,)))
        t = cluster.telemetry
        assert t.num_shards == 2
        assert t.submitted == t.injected == t.completed == len(ns)
        assert t.failed == 0 and t.rejected == 0
        assert t.ticks == cluster.now
        for shard in t.shards:
            assert shard.ticks == cluster.now  # lock-step clocks
        assert sum(t.completed_per_shard()) == t.completed
        assert 0.0 < t.fleet_utilization() <= 1.0
        assert t.aggregate_throughput() == t.completed / t.ticks
        assert t.mean_queue_wait() >= 0.0
        assert t.first_result_tick() is not None
        assert 0.0 <= t.completion_skew()
        assert 0.0 <= t.utilization_skew() <= 1.0
        summary = t.summary()
        assert "fleet_utilization" in summary and "per-shard completed" in summary

    def test_zero_tick_edge_cases(self):
        """A freshly built fleet reports zeros, not ZeroDivisionError."""
        cluster = fib.serve_cluster(3, num_lanes=2)
        t = cluster.telemetry
        assert t.ticks == 0
        assert t.aggregate_throughput() == 0.0
        assert t.fleet_utilization() == 0.0
        assert t.mean_queue_wait() == 0.0
        assert t.max_queue_wait() == 0
        assert t.completion_skew() == 0.0
        assert t.utilization_skew() == 0.0
        assert t.first_result_tick() is None
        assert isinstance(t.summary(), str)

    def test_empty_telemetry_object(self):
        t = ClusterTelemetry()
        assert t.num_shards == 0 and t.ticks == 0
        assert t.aggregate_throughput() == 0.0
        assert t.fleet_utilization() == 0.0
        assert t.mean_queue_wait() == 0.0
        assert t.completion_skew() == 0.0
        assert t.utilization_skew() == 0.0
        assert isinstance(t.summary(), str)

    def test_skew_metrics_fold_over_every_shard(self):
        even_a = ServeTelemetry(num_lanes=1, completed=5)
        even_b = ServeTelemetry(num_lanes=1, completed=5)
        assert ClusterTelemetry(shards=[even_a, even_b]).completion_skew() == 0.0
        # A fixed fleet has no shard to leave out: a lagging shard counts
        # in the totals and in the skew alike.
        lagging = ServeTelemetry(num_lanes=1, completed=1)
        t = ClusterTelemetry(shards=[even_a, even_b, lagging])
        assert t.completed == 11
        assert t.completed_per_shard() == [5, 5, 1]
        assert t.completion_skew() == pytest.approx((5 - 1) / (11 / 3))

    def test_rejected_includes_shard_level_rejections(self):
        """Out-of-band submissions straight to a shard stay consistent
        with the summed fleet counters."""
        cluster = fib.serve_cluster(2, num_lanes=1, max_queue_depth=1)
        cluster.engines[0].submit(np.int64(5))
        with pytest.raises(QueueFullError):
            cluster.engines[0].submit(np.int64(5))
        assert cluster.telemetry.rejected == 1
        assert cluster.telemetry.cluster_rejected == 0
        assert cluster.telemetry.submitted == 1
        cluster.run_until_idle()

    def test_all_rejected_traffic(self):
        cluster = fib.serve_cluster(2, num_lanes=1, max_queue_depth=0)
        for _ in range(5):
            with pytest.raises(QueueFullError):
                cluster.submit(np.int64(3))
        t = cluster.telemetry
        assert t.rejected == 5 and t.submitted == 0 and t.completed == 0
        assert t.aggregate_throughput() == 0.0
        assert t.mean_queue_wait() == 0.0
        # Ticking an all-rejected fleet stays well-defined too.
        cluster.tick()
        assert t.aggregate_throughput() == 0.0
        assert t.fleet_utilization() == 0.0


class PinnedPolicy(RoutingPolicy):
    """Adversarial router: every request prefers shard 0 (spill in index
    order), so with unbounded queues all traffic backlogs one shard."""

    name = "pinned"

    def preference(self, cluster):
        return list(range(len(cluster.engines)))


#: Unbatched reference for every fib argument the schedules draw from.
FIB_REF = {
    int(n): int(v)
    for n, v in zip(range(15), fib.run_pc(np.arange(15, dtype=np.int64)))
}


class TestRejectionLeavesPolicyStateUntouched:
    """A fully-rejected ``Cluster.submit`` must not advance the routing
    policy's cursor, so a replayed trace with rejections routes
    identically to one without."""

    def test_round_robin_cursor_unmoved_by_rejection(self):
        cluster = fib.serve_cluster(
            3, num_lanes=1, policy="round_robin", max_queue_depth=0
        )
        cursor = cluster.policy._next
        for _ in range(4):
            with pytest.raises(QueueFullError):
                cluster.submit(np.int64(5))
        assert cluster.policy._next == cursor
        assert cluster.telemetry.cluster_rejected == 4

    @pytest.mark.parametrize(
        "refused,message",
        [
            (dict(deadline_ticks=-1), "deadline_ticks must be >= 0"),
            (dict(step_budget=0), "step_budget must be >= 1"),
        ],
        ids=["deadline_ticks", "step_budget"],
    )
    def test_refused_invalid_submit_replays_identically(
        self, tmp_path, refused, message
    ):
        """Regression: the shard checked a submit's arguments only after
        the routing policy had ranked the shards, so a refused
        ``deadline_ticks=-1`` moved the round-robin cursor.  The journal
        holds accepted submits only, so recover() used to seat the next
        request on another shard and finish it at another tick."""
        path = str(tmp_path / "fleet.jsonl")
        cluster = fib.serve_cluster(2, num_lanes=1, journal=Journal(path))
        handles = [cluster.submit(np.int64(9))]
        cursor = cluster.policy._next
        with pytest.raises(ValueError, match=message):
            cluster.submit(np.int64(9), **refused)
        assert cluster.policy._next == cursor
        handles.append(cluster.submit(np.int64(10)))
        cluster.run_until_idle()
        run = recover(Journal.load(path), fib)
        replayed = [run.handles[h.request_id] for h in handles]
        assert [h.shard for h in replayed] == [h.shard for h in handles]
        assert [h.finish_tick for h in replayed] == [
            h.finish_tick for h in handles
        ]
        assert (
            run.server.telemetry.completed_per_shard()
            == cluster.telemetry.completed_per_shard()
        )

    def test_partial_preference_order_is_reported_as_policy_bug(self):
        """A policy that ranks only some shards breaks its contract; when
        an unranked shard had the only queue space, the error must name
        the policy, not masquerade as queue-full or an internal assert."""

        class HalfBlind(RoutingPolicy):
            name = "half_blind"

            def preference(self, cluster):
                return [0]

        cluster = fib.serve_cluster(
            2, num_lanes=1, policy=HalfBlind(), max_queue_depth=1
        )
        cluster.engines[0].submit(np.int64(5))  # shard 0 full, shard 1 open
        with pytest.raises(RuntimeError, match="must rank every shard"):
            cluster.submit(np.int64(5))
        cluster.run_until_idle()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_replayed_trace_with_rejections_routes_identically(self, policy):
        """Replay determinism: the same accepted submissions land on the
        same shards whether or not rejected submissions happened between
        them."""

        def route_trace(inject_rejections):
            cluster = fib.serve_cluster(
                3, num_lanes=1, policy=policy, max_queue_depth=1
            )
            # Fill every shard's queue, optionally hammer the full fleet
            # with submissions that must all be rejected, then drain and
            # record where the next accepted submissions route.
            for _ in range(3):
                cluster.submit(np.int64(6))
            if inject_rejections:
                for _ in range(5):
                    with pytest.raises(QueueFullError):
                        cluster.submit(np.int64(6))
            cluster.run_until_idle()
            shards = []
            for _ in range(6):
                shards.append(cluster.submit(np.int64(4)).shard)
                cluster.run_until_idle()
            return shards

        assert route_trace(True) == route_trace(False)


class TestWorkStealing:
    def test_idle_shards_steal_from_most_backlogged(self):
        cluster = fib.serve_cluster(
            3, num_lanes=1, policy=PinnedPolicy(), steal=True
        )
        handles = [cluster.submit(np.int64(n)) for n in (8, 9, 10, 11, 12)]
        assert all(h.shard == 0 for h in handles)
        cluster.tick()  # steal runs before the shard ticks
        assert cluster.telemetry.steals >= 2
        assert {h.shard for h in handles} == {0, 1, 2}
        cluster.run_until_idle()
        got = [int(h.result()) for h in handles]
        assert got == [FIB_REF[n] for n in (8, 9, 10, 11, 12)]

    def test_steal_matches_static_batch_bit_identically(self):
        ns = np.array([12, 3, 14, 5, 9, 1, 13, 7, 2, 11, 4, 8], dtype=np.int64)
        cluster = fib.serve_cluster(
            4, num_lanes=2, policy=PinnedPolicy(), steal=True, executor="fused"
        )
        results = cluster.map([(n,) for n in ns])
        np.testing.assert_array_equal(np.stack(results), fib.run_pc(ns))
        assert cluster.telemetry.steals > 0

    def test_steal_beats_no_steal_on_a_pinned_trace(self):
        """Tick clock (deterministic): under total skew stealing drains
        the burst in <= 1/1.8 of the no-steal ticks."""
        ns = np.arange(15, dtype=np.int64)

        def drain(num_engines, **options):
            cluster = fib.serve_cluster(
                num_engines, num_lanes=2, policy=PinnedPolicy(), **options
            )
            handles = [cluster.submit(np.int64(n)) for n in ns]
            cluster.run_until_idle()
            assert [int(h.result()) for h in handles] == [FIB_REF[int(n)] for n in ns]
            return cluster

        no_steal = drain(4).now
        assert drain(4, steal=True).now * 1.8 <= no_steal

    def test_stolen_request_keeps_step_budget_and_priority(self):
        cluster = fib.serve_cluster(
            2, num_lanes=1, policy=PinnedPolicy(), steal=True
        )
        filler = cluster.submit(np.int64(12))
        doomed = cluster.submit(np.int64(25), priority=3, step_budget=4)
        assert doomed.shard == 0
        cluster.run_until_idle()
        # The doomed request was stolen onto shard 1 with its metadata
        # intact: the budget still aborts it, the priority survives.
        assert doomed.shard == 1
        assert doomed.request.priority == 3
        assert doomed.request.step_budget == 4
        assert isinstance(doomed.exception(), StepBudgetExceeded)
        assert int(filler.result()) == FIB_REF[12]

    def test_threshold_gates_stealing(self):
        cluster = fib.serve_cluster(
            2,
            num_lanes=1,
            policy=PinnedPolicy(),
            steal=StealPolicy(threshold=50),
        )
        handles = [cluster.submit(np.int64(5)) for _ in range(6)]
        cluster.run_until_idle()
        assert cluster.telemetry.steals == 0
        assert all(h.shard == 0 for h in handles)

    def test_batch_size_caps_one_tick_haul(self):
        cluster = fib.serve_cluster(
            3,
            num_lanes=2,
            policy=PinnedPolicy(),
            steal=StealPolicy(batch_size=1),
        )
        for _ in range(10):
            cluster.submit(np.int64(9))
        cluster.tick()
        # Two idle thieves, one request each despite two free lanes apiece.
        assert cluster.telemetry.steals == 2
        cluster.run_until_idle()

    def test_resolve_steal_policy_forms(self):
        assert resolve_steal_policy(None) is None
        assert resolve_steal_policy(False) is None
        assert isinstance(resolve_steal_policy(True), StealPolicy)
        assert isinstance(resolve_steal_policy("threshold"), StealPolicy)
        inst = StealPolicy(threshold=2, batch_size=3)
        assert resolve_steal_policy(inst) is inst
        assert isinstance(resolve_steal_policy(StealPolicy), StealPolicy)
        with pytest.raises(ValueError, match="unknown steal policy"):
            resolve_steal_policy("snatch")
        with pytest.raises(TypeError):
            resolve_steal_policy(42)
        with pytest.raises(ValueError, match="threshold"):
            StealPolicy(threshold=0)
        with pytest.raises(ValueError, match="batch_size"):
            StealPolicy(batch_size=0)

    def test_single_shard_never_steals(self):
        cluster = fib.serve_cluster(1, num_lanes=2, steal=True)
        cluster.map([(np.int64(n),) for n in range(6)])
        assert cluster.telemetry.steals == 0


class TestPriorityAcrossShards:
    """A high-priority request spilled or stolen onto another shard must
    not starve behind that shard's low-priority natives."""

    def test_spilled_high_priority_beats_queued_low_priority_natives(self):
        cluster = fib.serve_cluster(
            2, num_lanes=1, policy="round_robin", max_queue_depth=3
        )
        # Shard 0: busy lane + full queue.  Shard 1: busy lane + two
        # queued low-priority natives, one queue slot left.
        for _ in range(3):
            cluster.engines[0].submit(np.int64(10))
        cluster.engines[1].submit(np.int64(10))
        cluster.tick()  # seat each shard's first request in its lane
        cluster.engines[0].submit(np.int64(10))
        natives = [
            cluster.engines[1].submit(np.int64(10), priority=0)
            for _ in range(2)
        ]
        vip = cluster.submit(np.int64(10), priority=5)
        assert vip.shard == 1  # spilled: round robin preferred full shard 0
        assert cluster.telemetry.spillovers == 1
        cluster.run_until_idle()
        assert all(vip.finish_tick < n.finish_tick for n in natives)

    def test_stolen_high_priority_beats_victims_low_priority_backlog(self):
        cluster = fib.serve_cluster(
            2, num_lanes=1, policy=PinnedPolicy(), steal=True
        )
        low = [cluster.submit(np.int64(10), priority=0) for _ in range(4)]
        vip = cluster.submit(np.int64(10), priority=5)
        cluster.run_until_idle()
        # The vip was first in shard 0's queue (priority order), so the
        # steal moved exactly it onto the idle shard's vacant lane.
        assert vip.shard == 1
        assert all(vip.finish_tick < h.finish_tick for h in low[1:])
        assert {int(h.result()) for h in low + [vip]} == {FIB_REF[10]}

    def test_requeue_preserves_priority_and_arrival_order(self):
        """Queue-level contract: migrated handles keep their original
        ``(-priority, arrival)`` position among the destination's natives."""

        def handle(request_id, priority, submit_tick=0):
            return ResultHandle(
                ServeRequest(
                    request_id=request_id,
                    inputs=(np.int64(1),),
                    priority=priority,
                    submit_tick=submit_tick,
                )
            )

        source, dest = RequestQueue(), RequestQueue()
        migrant_vip = handle(100, priority=5)
        migrant_old = handle(101, priority=0, submit_tick=0)
        source.push(migrant_vip)
        source.push(migrant_old)
        native_mid = handle(0, priority=1, submit_tick=1)
        native_late = handle(1, priority=0, submit_tick=2)
        dest.push(native_mid)
        dest.push(native_late)
        for h in (migrant_vip, migrant_old):
            dest.requeue(h)
        order = [dest.pop().request_id for _ in range(4)]
        # Priority first (5, then 1, then the 0s); within priority 0 the
        # migrant's earlier arrival stamp (tick 0) beats the tick-2 native.
        assert order == [100, 0, 101, 1]


class TestPreemptedLaneMigration:
    """PR 4 left 'preempted-lane migration' open; these tests close it: a
    preempted request's snapshot rides work stealing (or a shard drain) to
    another machine and resumes there bit-identically."""

    def _saturated_cluster(self, **options):
        """Two 1-lane shards: shard 0 runs a long straggler, shard 1 a
        short native; a pinned high-priority arrival then preempts the
        straggler, whose snapshot must later migrate to shard 1."""
        cluster = fib.serve_cluster(
            2, num_lanes=1, policy=PinnedPolicy(), preempt=True, **options
        )
        strag = cluster.submit(np.int64(16))
        short = cluster.engines[1].submit(np.int64(5))
        cluster.tick()  # both seated
        vip = cluster.submit(np.int64(14), priority=5)
        return cluster, strag, short, vip

    def test_steal_migrates_preempted_snapshot_across_shards(self):
        cluster, strag, short, vip = self._saturated_cluster(steal=True)
        cluster.run_until_idle()
        t = cluster.telemetry
        assert strag.preemptions == 1
        assert t.preempted_migrations == 1
        # The straggler resumed on the *other* shard's machine — and still
        # produced the exact bits of an undisturbed run.
        assert strag.shard == cluster.engines[1].shard_id
        assert strag.resume_tick is not None and strag.snapshot is None
        np.testing.assert_array_equal(
            np.array([int(strag.result()), int(short.result()),
                      int(vip.result())]),
            fib.run_pc(np.array([16, 5, 14], dtype=np.int64)),
        )
        # Fleet counters balance even though eviction and resume happened
        # on different shards.
        assert t.preemptions == t.resumes == 1
        shard_preempts = [s.preemptions for s in t.shards]
        shard_resumes = [s.resumes for s in t.shards]
        assert shard_preempts == [1, 0] and shard_resumes == [0, 1]

    def test_include_preempted_false_keeps_snapshot_home(self):
        cluster, strag, short, vip = self._saturated_cluster(
            steal=StealPolicy(include_preempted=False)
        )
        cluster.run_until_idle()
        t = cluster.telemetry
        assert strag.preemptions >= 1
        assert t.preempted_migrations == 0
        # The straggler could only resume on its home shard, after the vip.
        assert strag.shard == cluster.engines[0].shard_id
        assert strag.resume_tick >= vip.finish_tick
        np.testing.assert_array_equal(
            np.array([int(strag.result()), int(short.result()),
                      int(vip.result())]),
            fib.run_pc(np.array([16, 5, 14], dtype=np.int64)),
        )

    def test_migrated_resume_matches_home_resume_bitwise(self):
        """The same preempt-heavy trace with and without migration must
        produce identical request results — where a snapshot resumes can
        never change what it computes."""
        results = {}
        for label, steal in (
            ("migrated", True),
            ("home", StealPolicy(include_preempted=False)),
        ):
            cluster, strag, short, vip = self._saturated_cluster(steal=steal)
            cluster.run_until_idle()
            results[label] = [
                int(strag.result()), int(short.result()), int(vip.result())
            ]
        assert results["migrated"] == results["home"]

    def test_exported_preempted_snapshot_resumes_on_another_shard(self):
        """A shard's exported queue carries a preempted request's
        snapshot, and the shard it is requeued on resumes it."""
        cluster = fib.serve_cluster(
            2, num_lanes=1, policy=PinnedPolicy(), preempt=True
        )
        strag = cluster.submit(np.int64(14))
        cluster.tick()
        vip = cluster.submit(np.int64(12), priority=5)
        cluster.tick()  # straggler evicted, waiting with its snapshot
        assert strag.state == "preempted" and strag.snapshot is not None
        orphans = cluster.engines[0].export_queue()
        assert orphans == [strag]
        cluster.engines[1].requeue(orphans)
        strag.shard = cluster.engines[1].shard_id
        cluster.run_until_idle()
        assert strag.state == "done" and strag.preemptions == 1
        assert [s.resumes for s in cluster.telemetry.shards] == [0, 1]
        np.testing.assert_array_equal(
            np.array([int(strag.result()), int(vip.result())]),
            fib.run_pc(np.array([14, 12], dtype=np.int64)),
        )

    def test_export_queue_leaves_in_flight_lanes(self):
        cluster = fib.serve_cluster(2, num_lanes=1, policy="round_robin")
        handles = [cluster.submit(np.int64(9)) for _ in range(6)]
        cluster.tick()  # seat each shard's first request in its lane
        queued_on_1 = [h for h in handles if h.shard == 1][1:]
        orphans = cluster.engines[1].export_queue()
        assert orphans == queued_on_1  # in-flight lane stays; queue exports
        cluster.engines[0].requeue(orphans)
        for h in orphans:
            h.shard = cluster.engines[0].shard_id
        cluster.run_until_idle()
        assert all(int(h.result()) == FIB_REF[9] for h in handles)

    def test_engine_keeps_admitting_after_export_queue(self):
        """Exporting a queue is not a one-way drain: the engine finishes
        its in-flight lane and still admits new work afterwards."""
        engine = fib.serve(num_lanes=1)
        engine.submit(np.int64(8))
        engine.submit(np.int64(9))
        engine.tick()
        orphans = engine.export_queue()
        assert len(orphans) == 1 and engine.pool.busy_count() == 1
        late = engine.submit(np.int64(5))
        engine.run_until_idle()
        assert int(late.result()) == FIB_REF[5]
        assert engine.pool.busy_count() == 0 and engine.load() == 0

    def test_failed_restore_fails_only_its_handle(self):
        """A snapshot migrated onto a machine too shallow for its frames
        must fail that handle — and vacate the lane — not leak a lane or
        escape the tick loop."""
        from repro.vm.stack import StackOverflowError

        deep = fib.serve(num_lanes=1, preempt=True, max_stack_depth=64)
        strag = deep.submit(np.int64(14))
        deep.tick()
        while deep.vm.addr_stack.sp[0] < 5:
            deep.tick()  # recurse well past the shallow machine's depth
        deep.submit(np.int64(3), priority=5)
        while strag.state != "preempted":
            deep.tick()
        orphans = deep.export_queue()
        assert strag in orphans and strag.snapshot is not None
        assert strag.snapshot.addr_frames.shape[0] > 3

        shallow = fib.serve(num_lanes=1, max_stack_depth=2)
        shallow.requeue(orphans)
        survivor = shallow.submit(np.int64(1))  # fits the shallow stack
        shallow.run_until_idle()
        assert strag.state == "failed"
        assert isinstance(strag.exception(), StackOverflowError)
        assert strag.snapshot is None
        # The engine kept serving: no lane leaked, the native completed.
        assert int(survivor.result()) == FIB_REF[1]
        assert shallow.pool.busy_count() == 0
        assert shallow.telemetry.failed == 1

    def test_snapshot_only_backlog_is_not_a_steal_victim(self):
        """With include_preempted=False, a queue holding nothing but
        preempted snapshots must not be nominated for steals that would
        churn it and move nothing."""
        cluster, strag, short, vip = self._saturated_cluster(
            steal=StealPolicy(include_preempted=False)
        )
        cluster.tick()  # the straggler is evicted: shard 0's queue is one snapshot
        assert strag.state == "preempted"
        assert cluster.engines[0].queue.snapshot_count() == 1
        # Let shard 1 go idle next to the snapshot-only backlog: no steal
        # may ever fire.
        cluster.run_until_idle()
        assert cluster.telemetry.steals == 0
        assert cluster.telemetry.steal_ticks == 0
        np.testing.assert_array_equal(
            np.array([int(strag.result()), int(short.result()),
                      int(vip.result())]),
            fib.run_pc(np.array([16, 5, 14], dtype=np.int64)),
        )

    def test_per_shard_policy_instances_are_private(self):
        """Each shard gets its own copy of the preempt policy, so a
        stateful custom policy cannot leak decisions across shards."""
        shared = PreemptPolicy(min_age=3)
        cluster = fib.serve_cluster(3, num_lanes=1, preempt=shared)
        policies = [e.preempt for e in cluster.engines]
        assert all(p is not shared for p in policies)
        assert len({id(p) for p in policies}) == 3
        assert all(p.min_age == 3 for p in policies)

    def test_cluster_preempt_matches_static_batch(self):
        ns = np.array([14, 3, 13, 5, 9, 1, 12, 7, 2, 11], dtype=np.int64)
        prios = [0, 5, 0, 5, 2, 6, 1, 4, 6, 0]
        cluster = fib.serve_cluster(
            2, num_lanes=2, policy=PinnedPolicy(), steal=True, preempt=True,
            executor="fused",
        )
        handles = []
        for n, p in zip(ns, prios):
            handles.append(cluster.submit(np.int64(n), priority=p))
            cluster.tick()
        cluster.run_until_idle()
        got = np.array([int(h.result()) for h in handles])
        np.testing.assert_array_equal(got, fib.run_pc(ns))
        t = cluster.telemetry
        assert t.preemptions == t.resumes
        assert t.preemptions > 0


# -- property-based rebalancing schedules -------------------------------------
#
# The PR-3 schedule generator, extended with priorities plus steal and
# preempt toggles: whatever the rebalancer and the preemptor do — including
# migrating preempted-lane snapshots between shards — no handle is lost or
# duplicated, every eviction resumes exactly once, and results stay
# bit-identical to the unbatched reference.

rebalance_schedule = st.lists(
    st.tuples(
        st.integers(0, 14),                            # fib argument
        st.integers(0, 3),                             # arrival gap (ticks)
        st.integers(-2, 2),                            # priority
        st.one_of(st.none(), st.integers(1, 2000)),    # step budget
        st.one_of(st.none(), st.integers(0, 500)),     # deadline_ticks
    ),
    min_size=1,
    max_size=14,
)


class TestRebalancingSchedules:
    @settings(max_examples=20, deadline=None)
    @given(
        schedule=rebalance_schedule,
        num_engines=st.integers(1, 3),
        num_lanes=st.integers(1, 2),
        policy=st.sampled_from(POLICIES + ["pinned"]),
        steal=st.booleans(),
        preempt=st.sampled_from([None, "priority", "deadline"]),
        trace=st.booleans(),
        executor=st.sampled_from(["eager", "superblock"]),
    )
    def test_random_schedule_invariants(
        self, schedule, num_engines, num_lanes, policy, steal, preempt,
        trace, executor
    ):
        cluster = fib.serve_cluster(
            num_engines,
            num_lanes=num_lanes,
            policy=PinnedPolicy() if policy == "pinned" else policy,
            steal=StealPolicy() if steal else None,
            preempt={
                None: None,
                "priority": PreemptPolicy(),
                "deadline": DeadlinePreemptPolicy(),
            }[preempt],
            trace="events" if trace else None,
            executor=executor,
            max_stack_depth=64,
        )
        handles = []
        for n, gap, priority, budget, deadline in schedule:
            for _ in range(gap):
                cluster.tick()
            handles.append(
                (
                    n,
                    cluster.submit(
                        np.int64(n),
                        priority=priority,
                        step_budget=budget,
                        deadline_ticks=deadline,
                    ),
                )
            )
        cluster.run_until_idle()
        t = cluster.telemetry
        # No lost or duplicated handles: every submission reached exactly
        # one terminal state, and the counters agree one-for-one.
        assert all(h.done() for _, h in handles)
        done = [h for _, h in handles if h.state == "done"]
        failed = [h for _, h in handles if h.state == "failed"]
        assert len(done) + len(failed) == len(handles)
        assert t.submitted == len(handles)
        assert t.completed == len(done)
        assert t.failed == len(failed)
        assert t.injected == len(done) + len(failed)
        # Results bit-identical to the unbatched reference, wherever the
        # request ended up running.
        for n, h in handles:
            if h.state == "done":
                assert int(h.result()) == FIB_REF[n]
            else:
                assert isinstance(h.exception(), StepBudgetExceeded)
            assert h.shard is not None
            assert h.inject_tick is not None and h.finish_tick is not None
            assert h.request.submit_tick <= h.inject_tick <= h.finish_tick
            # No checkpoint survives the drain: every eviction resumed.
            assert h.snapshot is None
            if h.preemptions:
                assert h.resume_tick is not None
        # Preemption bookkeeping balances fleet-wide (a migrated snapshot
        # is evicted on one shard, resumed on another).
        assert t.preemptions == t.resumes
        assert sum(h.preemptions for _, h in handles) == t.preemptions
        assert t.preempted_migrations <= t.steals
        if preempt is None:
            assert t.preemptions == 0
        # Deadline accounting reconstructs from the handles fleet-wide.
        check_deadline_invariants(handles, t)
        assert cluster.load() == 0
        assert cluster.num_engines == num_engines
        # Every traced timeline is well-formed and the event counts agree
        # one-for-one with the fleet's telemetry counters.
        if trace:
            check_trace_invariants(handles, t, cluster.trace)
        else:
            assert cluster.trace is None


# -- observability determinism -------------------------------------------------
#
# Tracing rides the logical clock, so two identical schedules must produce
# *byte-identical* artifacts: the Chrome-trace export and the metrics series
# are pure functions of (program, schedule), even under the full
# rebalancing stack (steal + preempt).


class TestClusterObservability:
    def _traced_run(self, tmp_path, tag):
        from repro.observe import Trace, validate_chrome_trace

        trace = Trace()
        cluster = fib.serve_cluster(
            2,
            num_lanes=1,
            policy=PinnedPolicy(),
            steal=StealPolicy(),
            preempt=PreemptPolicy(min_age=0),
            trace=trace,
            max_stack_depth=64,
        )
        handles = []
        for i, (n, priority) in enumerate(
            [(12, 0), (11, 0), (13, 0), (4, 3), (5, 3), (10, 1), (9, 2)]
        ):
            handles.append(cluster.submit(np.int64(n), priority=priority))
            if i % 2:
                cluster.tick()
        cluster.run_until_idle()
        path = tmp_path / f"trace_{tag}.json"
        trace.export_chrome_trace(path)
        validate_chrome_trace(path)
        return cluster, handles, trace, path.read_bytes()

    def test_two_identical_runs_are_byte_identical(self, tmp_path):
        cluster_a, handles_a, trace_a, chrome_a = self._traced_run(tmp_path, "a")
        cluster_b, handles_b, trace_b, chrome_b = self._traced_run(tmp_path, "b")
        # The exercise is real: the schedule provokes rebalancing events.
        assert trace_a.tracer.count("preempt") > 0
        assert cluster_a.telemetry.steals > 0
        # Chrome export, raw event stream, and metric series all match
        # byte-for-byte across the two runs.
        assert chrome_a == chrome_b
        assert trace_a.tracer.to_json() == trace_b.tracer.to_json()
        assert trace_a.metrics.to_json() == trace_b.metrics.to_json()
        assert [int(h.result()) for h in handles_a] == [
            int(h.result()) for h in handles_b
        ]
        check_trace_invariants(
            [(None, h) for h in handles_a], cluster_a.telemetry, trace_a
        )

    def test_first_result_tick_is_the_fleet_minimum(self):
        # Shards tick in lock-step, so the earliest completion on any
        # shard is the fleet's first result.
        early = ServeTelemetry(num_lanes=1, completed=3)
        early.first_result_tick = 2
        late = ServeTelemetry(num_lanes=1, completed=5)
        late.first_result_tick = 9
        idle = ServeTelemetry(num_lanes=1)
        t = ClusterTelemetry(shards=[late, idle, early])
        assert t.first_result_tick() == 2
        assert ClusterTelemetry(shards=[idle]).first_result_tick() is None
