"""Multi-engine sharded serving: one façade over N lane-recycled machines.

One :class:`~repro.serve.engine.Engine` is bounded by its machine's SIMD
width — ``num_lanes`` requests in flight, one block execution per tick.
:class:`Cluster` scales past that by owning ``num_engines`` engine shards,
each with its own lane pool and logical machine, behind the same
``submit``/``map``/``run_until_idle`` surface.  A cluster tick ticks every
shard once (the shards' logical clocks stay in lock-step), so requests
completed per fleet tick grow with the shard count.  That is a tick-clock
figure: in one process every shard's tick costs wall time of its own.
Per-request trajectories stay bit-identical to a single machine: lanes
are independent under masked execution, so *where* a request runs never
changes *what* it computes.

Routing is pluggable (:class:`RoutingPolicy`): ``round_robin`` cycles
shards and ``least_loaded`` picks the shard with the fewest outstanding
requests (queue depth plus busy lanes — vacant lanes lower the score).
Admission spills over: if the routed shard's queue is
full, the next shard in preference order takes the request, and only when
*every* shard's queue is full does ``submit`` raise
:class:`~repro.serve.queue.QueueFullError`.

The cluster also realizes the code-cache-sharing item from the roadmap:
the :class:`~repro.vm.executors.ExecutionPlan` is compiled **once** (or
taken from the function's plan cache) and bound to every shard's machine,
so N fused engines share one generated-code cache — the fused executor's
``compile_count`` stays at 1 no matter the fleet size, which
``tests/test_cluster.py`` asserts.

Routing alone cannot fix load *skew*: a mispredicted or adversarial
arrival pattern leaves one shard backlogged while neighbors idle.
Cross-shard work stealing (``steal=``) rebalances between cluster ticks:
every shard with vacant lanes and an empty queue steals queued requests
from the most backlogged shard, per a pluggable :class:`StealPolicy`
(threshold + batch size).  Migration moves the
:class:`~repro.serve.queue.ServeRequest` with its priority, arrival stamp,
and step budget intact (so the ``(-priority, arrival)`` service order
survives the move), updates ``handle.shard``, and is accounted in
:class:`~repro.serve.telemetry.ClusterTelemetry` (``steals``/
``steal_ticks``).  Placement never changes results: lanes are independent
under masked execution.

The fleet is fixed-size.  Shard elasticity was measured and deleted: it
halved the tick count of a 360-request backlog and served no more
requests per second.

Entry points: ``Cluster(fn, num_engines, num_lanes)`` directly, or
``fn.serve_cluster(num_engines, num_lanes)`` on any autobatched function,
with ``steal=`` opting into rebalancing.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, List, Optional, Sequence, Tuple, Type, Union

from repro.serve.config import resolve_spec
from repro.serve.engine import Engine
from repro.serve.queue import QueueFullError, ResultHandle
from repro.serve.server import Server, configure
from repro.serve.telemetry import ClusterTelemetry


class RoutingPolicy:
    """Strategy choosing which shard admits each submitted request.

    :meth:`preference` returns shard indices in descending preference; the
    cluster seats the request on the first shard in that order with queue
    space (spillover), so a policy only has to rank, not to reject.
    Policies may hold state (cursors) — one instance belongs to one
    cluster.
    """

    #: Name used in ``policy="..."`` selection.
    name: str = "abstract"

    def preference(self, cluster: "Cluster") -> Sequence[int]:
        """Shard indices, most preferred first; must cover every shard."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through shards in index order, one submission per step."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def preference(self, cluster: "Cluster") -> Sequence[int]:
        n = len(cluster.engines)
        start = self._next % n
        self._next += 1
        return [(start + k) % n for k in range(n)]


class LeastLoadedPolicy(RoutingPolicy):
    """Prefer the shard with the fewest outstanding requests.

    Load is :meth:`Engine.load`: queue depth plus busy lanes, so a shard
    with vacant lanes beats an equally-queued full one.  Ties break on the
    lower shard index, keeping routing deterministic.
    """

    name = "least_loaded"

    def preference(self, cluster: "Cluster") -> Sequence[int]:
        return sorted(
            range(len(cluster.engines)),
            key=lambda i: (cluster.engines[i].load(), i),
        )


#: Routing-policy factories by selection name.
ROUTING_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


class StealPolicy:
    """Threshold work stealing: idle-laned shards rob the most backlogged.

    Each cluster tick, :meth:`plan` proposes migrations as
    ``(victim, thief, count)`` triples over the shards.  The
    default policy qualifies a shard as a thief when it has vacant lanes
    and an empty queue (so stealing never starves the thief's own
    natives), picks as its victim the shard with the deepest remaining
    queue, and moves work only when that queue holds at least
    ``threshold`` requests.  ``batch_size`` caps one thief's haul per tick
    (``None`` = the thief's vacant-lane count, i.e. exactly what it can
    seat next tick).

    Subclass and override :meth:`plan` for other disciplines; the cluster
    only needs the triples.  Stateless by default, so one instance may be
    shared — but like routing policies, one instance per cluster is the
    safe idiom.
    """

    #: Name used in ``steal="..."`` selection.
    name = "threshold"

    def __init__(
        self,
        threshold: int = 1,
        batch_size: Optional[int] = None,
        include_preempted: bool = True,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.threshold = int(threshold)
        self.batch_size = batch_size
        #: whether thieves may take requests waiting with a preempted-lane
        #: snapshot (they resume mid-flight on the thief's machine — the
        #: snapshot is machine-independent); False restricts stealing to
        #: never-started requests.
        self.include_preempted = bool(include_preempted)

    def plan(self, cluster: "Cluster") -> List[Tuple[Engine, Engine, int]]:
        """Migrations ``(victim, thief, count)`` for this tick, in order."""
        engines = cluster.engines
        if len(engines) < 2:
            return []
        # Only count what a thief could actually take: with preempted
        # requests excluded, a backlog of pure snapshots must not keep
        # nominating its shard as a victim (every such steal would churn
        # the victim's queue and move nothing).
        if self.include_preempted:
            remaining = [len(e.queue) for e in engines]
        else:
            remaining = [
                len(e.queue) - e.queue.snapshot_count() for e in engines
            ]
        moves: List[Tuple[Engine, Engine, int]] = []
        for t, thief in enumerate(engines):
            free = thief.pool.free_count()
            if remaining[t] or not free:
                continue
            capacity = free if self.batch_size is None else min(
                free, self.batch_size
            )
            # Deepest remaining queue wins; ties break to the lower shard
            # index so planning is deterministic.
            v = max(
                (i for i in range(len(engines)) if i != t),
                key=lambda i: (remaining[i], -i),
            )
            if remaining[v] < self.threshold:
                continue
            count = min(capacity, remaining[v])
            remaining[v] -= count
            moves.append((engines[v], thief, count))
        return moves

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(threshold={self.threshold}, "
            f"batch_size={self.batch_size}, "
            f"include_preempted={self.include_preempted})"
        )


#: Steal-policy factories by selection name.
STEAL_POLICIES = {StealPolicy.name: StealPolicy}


def resolve_steal_policy(spec: Any) -> Optional[StealPolicy]:
    """Turn a ``steal=`` argument into a :class:`StealPolicy` (or None = off)."""
    return resolve_spec(spec, "steal policy", StealPolicy, STEAL_POLICIES, StealPolicy)


def resolve_policy(
    spec: Union[str, RoutingPolicy, Type[RoutingPolicy], None],
) -> RoutingPolicy:
    """Turn a ``policy=`` argument into a :class:`RoutingPolicy` instance."""
    return resolve_spec(
        RoundRobinPolicy if spec is None else spec,
        "routing policy", RoutingPolicy, ROUTING_POLICIES,
    )


class Cluster(Server):
    """Serve streaming requests across a fleet of engine shards.

    ``Cluster(program, num_engines, num_lanes, **options)``: ``program``
    is an :class:`~repro.frontend.api.AutobatchFunction`, a
    :class:`~repro.ir.instructions.StackProgram`, or a pre-compiled
    :class:`~repro.vm.executors.ExecutionPlan` — whatever the form,
    exactly one plan is compiled and shared by every shard's machine;
    ``num_engines`` shards, each with its own lane pool and queue, of
    ``num_lanes`` lanes each (the fleet holds ``num_engines * num_lanes``
    requests in flight at most); ``options`` are the fields of
    :class:`~repro.serve.config.ServeConfig`, documented there.  Every
    shard is built from the one validated config object, so no option can
    be lost between the fleet and its engines.
    """

    GAUGES = ("queue_depth", "busy_lanes", "active_shards")

    def __init__(
        self, program: Any, num_engines: int, num_lanes: int, **options: Any
    ):
        plan, config = configure(program, options, num_engines)
        super().__init__(plan, config, num_lanes, num_engines)
        self.policy = config.policy
        self.steal = config.steal
        self.preempt = config.preempt
        #: One request-id counter for the whole fleet: ids are
        #: fleet-unique, so the shared tracer's per-request index never
        #: conflates two shards' requests.
        self._ids = itertools.count()
        self.telemetry = ClusterTelemetry()
        self.engines: List[Engine] = [
            self._spawn_engine(shard_id) for shard_id in range(num_engines)
        ]
        self.set_journal(self.journal)

    def _spawn_engine(self, shard_id: int) -> Engine:
        """Build one shard from the fleet's config, plan and id source."""
        engine = Engine.from_config(self.plan, self.config, self._num_lanes)
        # Each shard owns a private deep copy of the preempt policy, so a
        # stateful custom policy (even one with mutable attributes) never
        # leaks decisions across shards.
        engine.preempt = copy.deepcopy(self.preempt)
        engine.shard_id = shard_id
        engine._ids = self._ids
        self.telemetry.shards.append(engine.telemetry)
        return engine

    def set_journal(self, journal: Any) -> None:
        """Attach (or detach, with None) one admission journal fleet-wide:
        one :meth:`schedule_record`, then every shard records into it."""
        super().set_journal(journal)
        for engine in self.engines:
            engine.journal = journal

    # -- introspection -------------------------------------------------------

    @property
    def num_engines(self) -> int:
        """Shard count."""
        return len(self.engines)

    @property
    def num_lanes(self) -> int:
        """Lane count per shard (total capacity is num_engines times this)."""
        return self._num_lanes

    def load(self) -> int:
        """Outstanding requests fleet-wide (queued plus in flight)."""
        return sum(e.load() for e in self.engines)

    def dispatch_count(self) -> int:
        """Host→device launches summed across every shard's machine."""
        return sum(e.dispatch_count() for e in self.engines)

    def _series_prefix(self) -> str:
        return "fleet/"

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        *inputs: Any,
        priority: int = 0,
        step_budget: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> ResultHandle:
        """Route one request to a shard; returns its handle.

        The routing policy ranks the shards; the first with queue space
        admits the request (``handle.shard`` records which).  Raises
        :class:`QueueFullError` only when every shard's queue is full.  An
        invalid or rejected submission is refused *before* the routing
        policy is consulted, so it leaves policy state (the round-robin
        cursor) untouched and a replayed journal, which holds accepted
        submissions only, routes identically to the live run.
        """
        self._check_request(inputs, step_budget, deadline_ticks)
        if self.admission_full():
            self.telemetry.cluster_rejected += 1
            self._emit("reject", priority=priority)
            raise QueueFullError(
                f"every shard's queue is at max_depth="
                f"{self.engines[0].queue.max_depth}"
            )
        order = list(self.policy.preference(self))
        for shard in order:
            engine = self.engines[shard]
            if engine.queue.full():
                continue
            handle = engine._enqueue(
                inputs, priority, step_budget, deadline_ticks
            )
            handle.shard = engine.shard_id
            if shard != order[0]:
                self.telemetry.spillovers += 1
            return handle
        # Some shard had queue space (admission_full() was False), yet the
        # preference order never reached it: the policy broke its
        # must-cover-every-shard contract.
        raise RuntimeError(
            f"routing policy {self.policy.name!r} returned a preference "
            f"order covering {len(order)} of {len(self.engines)} shards; "
            "preference() must rank every shard"
        )

    # -- the fleet loop ------------------------------------------------------

    def busy(self) -> bool:
        """True while any shard holds work."""
        return any(e.busy() for e in self.engines)

    def admission_full(self) -> bool:
        """True while no shard can queue a new submission."""
        return all(e.queue.full() for e in self.engines)

    def progress_signature(self) -> Tuple[Tuple[int, ...], ...]:
        """Fleet fingerprint that changes iff some shard makes progress:
        the per-shard :meth:`Engine.progress_signature` tuples, which
        exclude the logical clock (it advances unconditionally)."""
        return tuple(e.progress_signature() for e in self.engines)

    # -- rebalancing ---------------------------------------------------------

    def _steal_step(self) -> None:
        """Migrate queued work from backlogged shards to idle-laned ones.

        A stolen request waiting with a preempted-lane snapshot migrates
        snapshot and all: it resumes mid-flight on the thief's machine
        (both bind the same :class:`~repro.vm.executors.ExecutionPlan`, so
        the restore is bit-identical), counted separately in
        ``preempted_migrations``.
        """
        moved = migrated_snapshots = 0
        for victim, thief, count in self.steal.plan(self):
            handles = victim.export_queue(
                count, include_preempted=self.steal.include_preempted
            )
            if not handles:
                continue
            thief.requeue(handles)
            for handle in handles:
                handle.shard = thief.shard_id
                self._emit(
                    "steal", handle, shard=thief.shard_id, src=victim.shard_id
                )
                if handle.snapshot is not None:
                    # The eviction checkpoint crossed shards: record the
                    # migration on top of the steal that carried it.
                    self._emit(
                        "migrate",
                        handle,
                        shard=thief.shard_id,
                        src=victim.shard_id,
                    )
            moved += len(handles)
            migrated_snapshots += sum(
                1 for h in handles if h.snapshot is not None
            )
        if moved:
            self.telemetry.steals += moved
            self.telemetry.steal_ticks += 1
            self.telemetry.preempted_migrations += migrated_snapshots

    # -- the tick ------------------------------------------------------------

    def tick(self) -> bool:
        """One cluster step: rebalance, then tick every shard in order.

        Between ticks the steal policy may migrate queued requests onto
        idle lanes; then every shard ticks once.  Idle shards still tick
        (advancing their logical clocks), so the fleet's clocks stay
        aligned and per-shard telemetry is comparable.  Returns True while
        any shard holds work after the tick.
        """
        if self.steal is not None:
            self._steal_step()
        if self.trace is not None and self.trace.metrics is not None:
            self._sample(
                float(sum(len(e.queue) for e in self.engines)),
                float(sum(e.pool.busy_count() for e in self.engines)),
                float(len(self.engines)),
            )
        self._tick += 1
        pending = False
        for engine in self.engines:
            if engine.tick():
                pending = True
        return pending

    def __repr__(self) -> str:
        extras = ""
        if self.steal is not None:
            extras += f", steal={self.steal.name!r}"
        if self.preempt is not None:
            extras += f", preempt={self.preempt.name!r}"
        return (
            f"Cluster(engines={self.num_engines}, lanes={self.num_lanes}, "
            f"policy={self.policy.name!r}, executor={self.plan.name!r}, "
            f"load={self.load()}, tick={self._tick}{extras})"
        )
