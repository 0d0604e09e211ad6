"""Multi-engine sharded serving: one façade over N lane-recycled machines.

One :class:`~repro.serve.engine.Engine` is bounded by its machine's SIMD
width — ``num_lanes`` requests in flight, one block execution per tick.
:class:`Cluster` scales past that by owning ``num_engines`` engine shards,
each with its own lane pool and logical machine, behind the same
``submit``/``map``/``run_until_idle`` surface.  A cluster tick ticks every
shard once (the shards' logical clocks stay in lock-step), so aggregate
throughput grows with the shard count while per-request trajectories stay
bit-identical to a single machine: lanes are independent under masked
execution, so *where* a request runs never changes *what* it computes.

Routing is pluggable (:class:`RoutingPolicy`): ``round_robin`` cycles
shards, ``least_loaded`` picks the shard with the fewest outstanding
requests (queue depth plus busy lanes — vacant lanes lower the score), and
``power_of_two`` samples two shards with a seeded RNG and takes the less
loaded (the classic load-balancing compromise: almost least-loaded balance
at O(1) cost).  Admission spills over: if the routed shard's queue is
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
arrival pattern leaves one shard backlogged while neighbors idle, and a
fixed shard count cannot follow offered load.  Two rebalancing layers run
between cluster ticks:

* **cross-shard work stealing** (``steal=``): each tick, every shard with
  vacant lanes and an empty queue steals queued requests from the most
  backlogged shard, per a pluggable :class:`StealPolicy` (threshold +
  batch size).  Migration moves the :class:`~repro.serve.queue.ServeRequest`
  with its priority, arrival stamp, and step budget intact (so the
  ``(-priority, arrival)`` service order survives the move), updates
  ``handle.shard``, and is accounted in
  :class:`~repro.serve.telemetry.ClusterTelemetry` (``steals``/
  ``steal_ticks``).  Placement never changes results: lanes are
  independent under masked execution.
* **shard elasticity** (``autoscale=``): an :class:`AutoscalePolicy`
  grows the fleet under sustained queue pressure and shrinks it when the
  remaining work would fit on fewer shards.  New shards bind the *shared*
  :class:`~repro.vm.executors.ExecutionPlan` (the fused compile counter
  stays at 1 across grow events) and join the lock-step logical clock;
  shrunk shards drain — admission closes, their queue migrates to the
  survivors, in-flight lanes run to completion — and only then retire, so
  no handle is ever lost.

Entry points: ``Cluster(fn, num_engines, num_lanes)`` directly, or
``fn.serve_cluster(num_engines, num_lanes)`` on any autobatched function,
with ``steal=``/``autoscale=`` opting into rebalancing.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

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
    Policies may hold state (cursors, RNGs) — one instance belongs to one
    cluster.
    """

    #: Name used in ``policy="..."`` selection.
    name: str = "abstract"

    def __init__(self, seed: int = 0):
        del seed  # deterministic policies ignore it

    def preference(self, cluster: "Cluster") -> Sequence[int]:
        """Shard indices, most preferred first; must cover every shard."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through shards in index order, one submission per step."""

    name = "round_robin"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
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


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two shards (seeded RNG), route to the less loaded one.

    The "power of two choices" scheme: nearly least-loaded balance while
    inspecting only two shards per request.  The RNG is seeded at
    construction, so a replayed submission sequence routes identically.
    """

    name = "power_of_two"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._rng = np.random.RandomState(seed)

    def preference(self, cluster: "Cluster") -> Sequence[int]:
        n = len(cluster.engines)
        if n == 1:
            return [0]
        i, j = (int(x) for x in self._rng.choice(n, size=2, replace=False))
        key = lambda k: (cluster.engines[k].load(), k)  # noqa: E731
        first, second = (i, j) if key(i) <= key(j) else (j, i)
        spill = [k for k in range(n) if k != first and k != second]
        return [first, second] + spill


#: Routing-policy factories by selection name.
ROUTING_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    PowerOfTwoPolicy.name: PowerOfTwoPolicy,
}


class StealPolicy:
    """Threshold work stealing: idle-laned shards rob the most backlogged.

    Each cluster tick, :meth:`plan` proposes migrations as
    ``(victim, thief, count)`` triples over the *active* shards.  The
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


class AutoscalePolicy:
    """Grow/shrink the shard fleet on sustained pressure vs. sustained slack.

    Called once per cluster tick (:meth:`decide`), before stealing and the
    shard ticks.  The default signals:

    * **grow** (+1) when the fleet-wide queue backlog exceeds the vacant
      lanes for ``grow_patience`` consecutive ticks — lanes cannot absorb
      the queue, so routing/stealing alone cannot help — and the fleet is
      below ``max_engines``;
    * **shrink** (-1) when all outstanding work (queued + in flight) would
      fit on one fewer shard for ``shrink_patience`` consecutive ticks and
      the fleet is above ``min_engines``;
    * **hold** (0) otherwise.  Patience counters reset whenever their
      condition breaks, so one-tick blips never resize the fleet.

    ``max_engines=None`` is resolved by the cluster to twice its initial
    shard count.
    """

    name = "pressure"

    def __init__(
        self,
        min_engines: int = 1,
        max_engines: Optional[int] = None,
        grow_patience: int = 2,
        shrink_patience: int = 8,
    ):
        if min_engines < 1:
            raise ValueError(f"min_engines must be >= 1, got {min_engines}")
        if max_engines is not None and max_engines < min_engines:
            raise ValueError(
                f"max_engines={max_engines} is below min_engines={min_engines}"
            )
        if grow_patience < 1 or shrink_patience < 1:
            raise ValueError("grow_patience and shrink_patience must be >= 1")
        self.min_engines = int(min_engines)
        self.max_engines = max_engines
        self.grow_patience = int(grow_patience)
        self.shrink_patience = int(shrink_patience)
        self._pressure_streak = 0
        self._slack_streak = 0

    def decide(self, cluster: "Cluster") -> int:
        """+1 to grow, -1 to start draining a shard, 0 to hold."""
        engines = cluster.engines
        n = len(engines)
        queued = sum(len(e.queue) for e in engines)
        busy = sum(e.pool.busy_count() for e in engines)
        free = n * cluster.num_lanes - busy
        unbounded = self.max_engines is None  # cluster resolution missed
        if queued > free and (unbounded or n < self.max_engines):
            self._pressure_streak += 1
            self._slack_streak = 0
            if self._pressure_streak >= self.grow_patience:
                self._pressure_streak = 0
                return 1
            return 0
        self._pressure_streak = 0
        if n > self.min_engines and queued + busy <= (n - 1) * cluster.num_lanes:
            self._slack_streak += 1
            if self._slack_streak >= self.shrink_patience:
                self._slack_streak = 0
                return -1
            return 0
        self._slack_streak = 0
        return 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(min={self.min_engines}, "
            f"max={self.max_engines}, grow_patience={self.grow_patience}, "
            f"shrink_patience={self.shrink_patience})"
        )


def resolve_autoscale(spec: Any) -> Optional[AutoscalePolicy]:
    """Turn an ``autoscale=`` argument into an :class:`AutoscalePolicy`."""
    return resolve_spec(
        spec, "autoscale policy", AutoscalePolicy, default=AutoscalePolicy
    )


def resolve_policy(
    spec: Union[str, RoutingPolicy, Type[RoutingPolicy], None],
    seed: int = 0,
) -> RoutingPolicy:
    """Turn a ``policy=`` argument into a :class:`RoutingPolicy` instance."""
    return resolve_spec(
        RoundRobinPolicy if spec is None else spec,
        "routing policy", RoutingPolicy, ROUTING_POLICIES, seed=seed,
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
    shard — grown ones included — is built from the one validated config
    object, so no option can be lost between the fleet and its engines.
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
        self.autoscale = config.autoscale
        if self.autoscale is not None:
            # The cluster owns a private copy: it resolves the default cap
            # and drives the patience streaks, so a caller's policy
            # instance is never mutated or shared between clusters.
            self.autoscale = copy.copy(self.autoscale)
            if self.autoscale.max_engines is None:
                self.autoscale.max_engines = max(2 * num_engines, 2)
        self._next_shard_id = 0
        #: One request-id counter for the whole fleet (grown shards
        #: included): ids are fleet-unique, so the shared tracer's
        #: per-request index never conflates two shards' requests.
        self._ids = itertools.count()
        self.telemetry = ClusterTelemetry()
        #: Shards being retired: closed to admission and routing, still
        #: ticking until their in-flight lanes complete.
        self.draining: List[Engine] = []
        self._retired_dispatches = 0
        self.engines: List[Engine] = [
            self._spawn_engine() for _ in range(num_engines)
        ]
        self.set_journal(self.journal)

    def _spawn_engine(self) -> Engine:
        """Build one shard from the fleet's config, plan and clock."""
        engine = Engine.from_config(self.plan, self.config, self._num_lanes)
        # Each shard owns a private deep copy of the preempt policy, so a
        # stateful custom policy (even one with mutable attributes) never
        # leaks decisions across shards.
        engine.preempt = copy.deepcopy(self.preempt)
        engine.journal = self.journal
        engine.shard_id = self._next_shard_id
        self._next_shard_id += 1
        engine._ids = self._ids
        # Join the fleet's lock-step logical clock mid-flight, so queue
        # waits and finish ticks stay comparable across grow events.
        engine._tick = self._tick
        self.telemetry.shards.append(engine.telemetry)
        return engine

    def set_journal(self, journal: Any) -> None:
        """Attach (or detach, with None) one admission journal fleet-wide:
        one :meth:`schedule_record`, then every shard records into it."""
        super().set_journal(journal)
        for engine in self.engines + self.draining:
            engine.journal = journal

    # -- introspection -------------------------------------------------------

    @property
    def num_engines(self) -> int:
        """Active (routable) shards; draining shards are not counted."""
        return len(self.engines)

    @property
    def num_lanes(self) -> int:
        """Lane count per shard (total capacity is num_engines times this)."""
        return self._num_lanes

    def load(self) -> int:
        """Outstanding requests fleet-wide (queued plus in flight)."""
        return sum(e.load() for e in self.engines) + sum(
            e.load() for e in self.draining
        )

    def dispatch_count(self) -> int:
        """Host→device launches summed across every shard's machine.

        Includes draining shards and the final tallies of shards already
        retired by autoscale, so the count never moves backwards.
        """
        return (
            sum(e.dispatch_count() for e in self.engines)
            + sum(e.dispatch_count() for e in self.draining)
            + self._retired_dispatches
        )

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
        :class:`QueueFullError` only when every shard's queue is full —
        and in that case *before* consulting the routing policy, so a
        rejected submission leaves policy state (round-robin cursor,
        power-of-two RNG) untouched and a replayed trace with rejections
        routes identically to one without.
        """
        n_expected = len(self.engines[0].vm.program.inputs)
        if len(inputs) != n_expected:
            raise ValueError(
                f"program takes {n_expected} inputs, got {len(inputs)}"
            )
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
            handle = engine.submit(
                *inputs,
                priority=priority,
                step_budget=step_budget,
                deadline_ticks=deadline_ticks,
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
        """True while any shard (including draining) holds work."""
        return any(e.busy() for e in self.engines) or any(
            e.busy() for e in self.draining
        )

    def admission_full(self) -> bool:
        """True while no active shard can queue a new submission."""
        return all(e.queue.full() for e in self.engines)

    def progress_signature(self) -> Tuple[Tuple[int, ...], ...]:
        """Fleet fingerprint that changes iff some shard makes progress.

        The per-shard :meth:`Engine.progress_signature` tuples (draining
        shards included) plus the fleet shape, so growth, shrinkage, and
        drain-retirement all register as progress.  Like the shard version
        it excludes the logical clock, which advances unconditionally.
        """
        shape = (len(self.engines), len(self.draining))
        return (shape,) + tuple(
            e.progress_signature() for e in self.engines + self.draining
        )

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
        # Custom StealPolicy subclasses may predate the knob; default on.
        include_preempted = getattr(self.steal, "include_preempted", True)
        for victim, thief, count in self.steal.plan(self):
            handles = victim.export_queue(
                count, include_preempted=include_preempted
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

    def _autoscale_step(self) -> None:
        decision = self.autoscale.decide(self)
        cap = self.autoscale.max_engines
        if decision > 0 and (cap is None or len(self.engines) < cap):
            self._grow()
        elif decision < 0 and len(self.engines) > self.autoscale.min_engines:
            self._shrink()

    def _grow(self) -> None:
        """Add one shard bound to the shared plan (no recompilation)."""
        self.engines.append(self._spawn_engine())
        self.telemetry.grow_events += 1

    def _shrink(self) -> None:
        """Send the least-loaded shard into drain-retirement.

        The shard leaves the routing set immediately, its queued requests
        migrate to the surviving shards (preserving priority/arrival
        order), and its in-flight lanes keep running until it goes idle —
        no handle is lost or duplicated.
        """
        # Least loaded drains fastest; ties retire the youngest shard.
        victim = min(
            self.engines, key=lambda e: (e.load(), -(e.shard_id or 0))
        )
        self.engines.remove(victim)
        self.draining.append(victim)
        self.telemetry.shrink_events += 1
        orphans = victim.begin_drain()
        for handle in orphans:
            # Seat each orphan on the currently least-loaded survivor
            # (ties to the lower index), like a fresh spillover would.
            target = min(
                range(len(self.engines)),
                key=lambda i: (self.engines[i].load(), i),
            )
            self.engines[target].requeue([handle])
            handle.shard = self.engines[target].shard_id
            self._emit(
                "drain", handle, shard=handle.shard, src=victim.shard_id
            )
        self.telemetry.drain_migrations += len(orphans)

    def _retire_drained(self) -> None:
        for engine in [e for e in self.draining if not e.busy()]:
            self.draining.remove(engine)
            self._retired_dispatches += engine.dispatch_count()
            engine.telemetry.retired = True
            self.telemetry.shards_retired += 1

    # -- the tick ------------------------------------------------------------

    def tick(self) -> bool:
        """One cluster step: rebalance, then tick every shard in order.

        Between ticks the autoscale policy may grow the fleet or start
        draining a shard, and the steal policy may migrate queued requests
        onto idle lanes; then every shard (draining ones included) ticks
        once.  Idle shards still tick (advancing their logical clocks), so
        the fleet's clocks stay aligned and per-shard telemetry is
        comparable.  Returns True while any shard holds work after the
        tick.
        """
        if self.autoscale is not None:
            self._autoscale_step()
        if self.steal is not None:
            self._steal_step()
        if self.trace is not None and self.trace.metrics is not None:
            self._sample(
                float(sum(len(e.queue) for e in self.engines)),
                float(
                    sum(e.pool.busy_count() for e in self.engines)
                    + sum(e.pool.busy_count() for e in self.draining)
                ),
                float(len(self.engines)),
            )
        self._tick += 1
        pending = False
        for engine in self.engines + self.draining:
            if engine.tick():
                pending = True
        self._retire_drained()
        return pending

    def __repr__(self) -> str:
        extras = ""
        if self.steal is not None:
            extras += f", steal={self.steal.name!r}"
        if self.autoscale is not None:
            extras += f", autoscale={self.autoscale.name!r}"
        if self.preempt is not None:
            extras += f", preempt={self.preempt.name!r}"
        if self.draining:
            extras += f", draining={len(self.draining)}"
        return (
            f"Cluster(engines={self.num_engines}, lanes={self.num_lanes}, "
            f"policy={self.policy.name!r}, executor={self.plan.name!r}, "
            f"load={self.load()}, tick={self._tick}{extras})"
        )
