"""Serving-level telemetry, layered over the machine's Instrumentation.

The engine advances a *logical clock*: one tick per engine step (one
machine block execution, or one idle step while the pool waits for
arrivals).  All latency metrics are in ticks, so serving runs are exactly
reproducible — a wall-clock mapping belongs to the benchmark harness, not
the engine.

Metrics:

* **lane utilization** — busy lane-slots / offered lane-slots per tick.
  The serving analog of the paper's Figure 6 batch utilization: a
  drain-then-refill front end lets this decay to ``1/Z`` as stragglers
  finish; lane recycling keeps it near 1 under load.
* **queue wait** — ticks between submission and lane injection.
* **time-to-first-result** — ticks until the first request retires.
* **throughput** — completed requests per tick.
* **latency percentiles** — nearest-rank p50/p90/p99 completion latency
  (:func:`repro.observe.nearest_rank`), overall and per priority level,
  the deterministic counterpart to ``slo_attainment``.

:class:`ClusterTelemetry` rolls per-shard :class:`ServeTelemetry` up into
fleet-level metrics — fleet utilization, aggregate throughput, per-shard
completion skew — for the multi-engine :class:`~repro.serve.cluster.Cluster`.
Every derived metric here returns 0.0 on an empty denominator (zero ticks,
zero completions, all-rejected traffic) rather than raising, so telemetry
is always safe to summarize mid-run or after a dead engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.observe.metrics import nearest_rank
from repro.vm.instrumentation import Instrumentation


class _Derived:
    """The metrics and summary sections :class:`ServeTelemetry` and
    :class:`ClusterTelemetry` derive the same way.

    Written once over what both provide: the counters (plain fields on an
    engine, declared :data:`FLEET_ROLLUPS` on a fleet), the
    ``queue_waits``/``resume_waits`` samples, and the :meth:`latencies` /
    :meth:`deadline_outcomes` / :meth:`priorities` accessors.
    """

    def lane_utilization(self) -> float:
        """Fraction of offered lane-slots that held an in-flight request."""
        return (
            self.busy_lane_slots / self.lane_slots if self.lane_slots else 0.0
        )

    def throughput(self) -> float:
        """Completed requests per tick."""
        return self.completed / self.ticks if self.ticks else 0.0

    def mean_queue_wait(self) -> float:
        """Average ticks requests spent queued before injection."""
        waits = self.queue_waits
        return sum(waits) / len(waits) if waits else 0.0

    def max_queue_wait(self) -> int:
        return max(self.queue_waits, default=0)

    def mean_resume_wait(self) -> float:
        """Average ticks preempted requests waited before resuming."""
        waits = self.resume_waits
        return sum(waits) / len(waits) if waits else 0.0

    def slo_attainment(
        self,
        slo_ticks: Union[int, str],
        priority: Optional[int] = None,
    ) -> float:
        """Fraction of completed requests finishing within their SLO.

        With an integer ``slo_ticks``, one shared target: completions
        within ``slo_ticks`` of submission, overall or for one priority
        level.  With ``slo_ticks="deadline"`` (the deadline mode), each
        request is measured against its *own* ``deadline_ticks``, over
        the deadline-carrying completions only.  0.0 with no qualifying
        completions (an empty class never claims perfect attainment)."""
        if slo_ticks == "deadline":
            pairs = self.deadline_outcomes(priority)
            if not pairs:
                return 0.0
            return sum(1 for lat, dl in pairs if lat <= dl) / len(pairs)
        lats = self.latencies(priority)
        if not lats:
            return 0.0
        return sum(1 for l in lats if l <= slo_ticks) / len(lats)

    def percentile(self, q: float, priority: Optional[int] = None) -> float:
        """Nearest-rank completion-latency percentile, in ticks.

        The deterministic counterpart to :meth:`slo_attainment`: where
        attainment answers "what fraction met the target?", this answers
        "what target would the q% slowest have met?" — over the same
        pooled :meth:`latencies` values (a percentile of the union, never
        a mean of per-shard percentiles), optionally for one priority
        level.  0.0 with no completions.
        """
        return nearest_rank(self.latencies(priority), q)

    def priority_table(
        self, slo_ticks: Optional[int] = None
    ) -> Dict[int, Dict[str, float]]:
        """Per-priority completion count, nearest-rank p50/p90/p99 and max
        latency (plus ``slo_attainment`` when ``slo_ticks`` is given),
        keyed by priority level, sorted."""
        table: Dict[int, Dict[str, float]] = {}
        for priority in self.priorities():
            lats = self.latencies(priority)
            row: Dict[str, float] = {
                "count": len(lats),
                "p50": nearest_rank(lats, 50),
                "p90": nearest_rank(lats, 90),
                "p99": nearest_rank(lats, 99),
                "max": float(max(lats)) if lats else 0.0,
            }
            if slo_ticks is not None:
                row["slo_attainment"] = self.slo_attainment(slo_ticks, priority)
            table[priority] = row
        return table

    def _queue_wait_line(self) -> str:
        return (
            f"queue wait: mean={self.mean_queue_wait():.1f} "
            f"max={self.max_queue_wait()} ticks"
        )

    def _latency_lines(self) -> List[str]:
        """Summary: latency percentiles (per priority when levels differ)."""
        if not self.latencies():
            return []
        lines = [
            f"latency: p50={self.percentile(50):.0f} "
            f"p99={self.percentile(99):.0f} ticks"
        ]
        if len(self.priorities()) >= 2:
            lines.extend(
                f"  priority {p}: n={row['count']:.0f} p50={row['p50']:.0f} "
                f"p99={row['p99']:.0f} max={row['max']:.0f} ticks"
                for p, row in self.priority_table().items()
            )
        return lines

    def _feature_lines(self) -> List[str]:
        """Summary: preemption, spilling, deadlines — each only once used."""
        lines = []
        if self.preemptions or self.resumes:
            lines.append(
                f"preemption: evictions={self.preemptions} "
                f"resumes={self.resumes} "
                f"mean_resume_wait={self.mean_resume_wait():.1f} ticks"
            )
        if self.spills or self.rehydrations or self.spill_errors:
            lines.append(
                f"spilling: spills={self.spills} "
                f"rehydrations={self.rehydrations} "
                f"errors={self.spill_errors} "
                f"resident_peak={self.resident_peak}"
            )
        if self.deadline_outcomes():
            lines.append(
                f"deadlines: carried={len(self.deadline_outcomes())} "
                f"misses={self.deadline_misses} "
                f"attainment={self.slo_attainment('deadline'):.3f}"
            )
        return lines


@dataclass
class ServeTelemetry(_Derived):
    """Counters for one engine's lifetime."""

    num_lanes: int = 0
    ticks: int = 0                 # engine steps (machine steps + idle steps)
    idle_ticks: int = 0            # ticks where no lane held a live member
    lane_slots: int = 0            # num_lanes per tick
    busy_lane_slots: int = 0       # occupied lanes summed over ticks
    submitted: int = 0             # requests accepted into the queue
    rejected: int = 0              # requests refused at max_queue_depth
    injected: int = 0              # requests seated into a lane
    completed: int = 0             # requests retired with results
    failed: int = 0                # requests aborted (e.g. step budget)
    first_result_tick: Optional[int] = None
    queue_waits: List[int] = field(default_factory=list)
    # -- preemption (lane checkpoint/resume) --
    preemptions: int = 0           # running lanes evicted with a snapshot
    resumes: int = 0               # preempted requests reinstalled in a lane
    resume_waits: List[int] = field(default_factory=list)  # evict→resume ticks
    # -- durability (snapshot spilling; see repro.serve.durability) --
    spills: int = 0                #: queued snapshots serialized out of memory
    rehydrations: int = 0          #: spilled snapshots decoded back at resume
    #: snapshots that could not serialize (unserializable executor state);
    #: they stay resident — counted loudly, never dropped silently
    spill_errors: int = 0
    #: high-water mark of queued snapshots held as live arrays — what a
    #: ``max_resident_snapshots`` cap bounds (sampled each spill sweep)
    resident_peak: int = 0
    #: completion latency (finish - submit ticks) per priority level; the
    #: raw material for per-priority SLO attainment
    priority_latencies: Dict[int, List[int]] = field(default_factory=dict)
    #: ``(latency, deadline_ticks)`` per priority for completions that
    #: carried their own deadline — the raw material for the telemetry
    #: deadline mode (``slo_attainment("deadline")``)
    priority_deadlines: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    #: deadline-carrying completions that finished past their own deadline
    deadline_misses: int = 0
    #: the machine-level counters (primitive/batch utilization etc.)
    instrumentation: Optional[Instrumentation] = None

    # -- recording ----------------------------------------------------------

    def record_tick(self, busy_lanes: int) -> None:
        self.ticks += 1
        self.lane_slots += self.num_lanes
        self.busy_lane_slots += busy_lanes
        if busy_lanes == 0:
            self.idle_ticks += 1

    def record_inject(self, queue_wait: int) -> None:
        self.injected += 1
        self.queue_waits.append(queue_wait)

    def record_completion(
        self,
        tick: int,
        priority: Optional[int] = None,
        latency: Optional[int] = None,
        deadline_ticks: Optional[int] = None,
    ) -> None:
        self.completed += 1
        if self.first_result_tick is None:
            self.first_result_tick = tick
        if priority is not None and latency is not None:
            self.priority_latencies.setdefault(priority, []).append(latency)
            if deadline_ticks is not None:
                self.priority_deadlines.setdefault(priority, []).append(
                    (latency, deadline_ticks)
                )
                if latency > deadline_ticks:
                    self.deadline_misses += 1

    def record_preempt(self) -> None:
        self.preemptions += 1

    def record_resume(self, wait: int) -> None:
        self.resumes += 1
        self.resume_waits.append(wait)

    # -- derived (the rest comes from _Derived) -------------------------------

    def latencies(self, priority: Optional[int] = None) -> List[int]:
        """Completion latencies (finish - submit), optionally one priority."""
        if priority is None:
            return [l for ls in self.priority_latencies.values() for l in ls]
        return list(self.priority_latencies.get(priority, []))

    def deadline_outcomes(
        self, priority: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """``(latency, deadline_ticks)`` pairs of deadline-carrying
        completions, optionally for one priority level."""
        if priority is None:
            return [p for ps in self.priority_deadlines.values() for p in ps]
        return list(self.priority_deadlines.get(priority, []))

    def priorities(self) -> List[int]:
        """Priority levels with at least one completion, sorted."""
        return sorted(self.priority_latencies)

    def summary(self) -> str:
        """Human-readable multi-line telemetry summary."""
        lines = [
            f"ticks={self.ticks} (idle={self.idle_ticks}) lanes={self.num_lanes} "
            f"lane_utilization={self.lane_utilization():.3f}",
            f"requests: submitted={self.submitted} rejected={self.rejected} "
            f"injected={self.injected} completed={self.completed} "
            f"failed={self.failed}",
            self._queue_wait_line(),
            f"time-to-first-result={self.first_result_tick} ticks, "
            f"throughput={self.throughput():.4f} requests/tick",
            *self._latency_lines(),
            *self._feature_lines(),
        ]
        if self.instrumentation is not None:
            lines.append(
                "machine: "
                f"batch_utilization={self.instrumentation.utilization():.3f} "
                f"kernel_calls={self.instrumentation.kernel_calls}"
            )
        return "\n".join(lines)


def _pooled(lists: Iterable[List[int]]) -> List[int]:
    return [x for xs in lists for x in xs]


def _worst(values: Iterable[int]) -> int:
    return max(values, default=0)


#: How each fleet-level value of :class:`ClusterTelemetry` rolls up from
#: the same-named :class:`ServeTelemetry` field of every shard:
#: ``name -> (fold, own)``,
#: where ``own`` names a cluster-level field added on top.
FLEET_ROLLUPS = {
    **dict.fromkeys(
        (
            "submitted", "injected", "completed", "failed", "lane_slots",
            "busy_lane_slots", "deadline_misses", "spills", "spill_errors",
            # A migrated preemption is evicted (or spilled) on one shard and
            # resumed (or rehydrated) on another, so only the fleet totals
            # of these balance.
            "preemptions", "resumes", "rehydrations",
        ),
        (sum, None),
    ),
    # Cluster-level refusals (every shard full) plus per-shard ones, so
    # out-of-band submissions straight to a shard stay consistent with
    # the summed ``submitted``.
    "rejected": (sum, "cluster_rejected"),
    "queue_waits": (_pooled, None),
    "resume_waits": (_pooled, None),
    # ``max_resident_snapshots`` caps each shard, so the fleet metric is
    # the worst shard, not a sum.
    "resident_peak": (_worst, None),
    # Shards tick in lock-step: the fleet's logical clock is the max.
    "ticks": (_worst, None),
}


@dataclass
class ClusterTelemetry(_Derived):
    """Fleet-level rollup of per-shard :class:`ServeTelemetry`.

    Holds live references to the shard telemetries, so every aggregate is
    computed on demand from the shards' current counters — each one
    declared in :data:`FLEET_ROLLUPS` and installed as a read-only
    property.  Only events the shards cannot see are recorded here
    directly: the admission counters (``cluster_rejected`` — every
    shard's queue was full — and ``spillovers`` — the preferred shard was
    full but another accepted) and the work-stealing counters
    (``steals``/``steal_ticks``).
    """

    shards: List[ServeTelemetry] = field(default_factory=list)
    cluster_rejected: int = 0  # refusals because every shard was full
    spillovers: int = 0        # admissions that overflowed their preferred shard
    # -- rebalancing (work stealing) --
    steals: int = 0            # queued requests migrated between shards
    steal_ticks: int = 0       # cluster ticks on which at least one steal ran
    #: stolen requests that carried a preempted-lane snapshot — evicted on
    #: one shard, resumed mid-flight on another
    preempted_migrations: int = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- derived (the rest comes from _Derived, over the rollups) -------------

    def latencies(self, priority: Optional[int] = None) -> List[int]:
        """Completion latencies across every shard."""
        return [l for s in self.shards for l in s.latencies(priority)]

    def deadline_outcomes(
        self, priority: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Deadline-carrying ``(latency, deadline_ticks)`` completions
        pooled across every shard."""
        return [p for s in self.shards for p in s.deadline_outcomes(priority)]

    def priorities(self) -> List[int]:
        """Priority levels with a completion on any shard, sorted."""
        return sorted({p for s in self.shards for p in s.priority_latencies})

    #: Busy lane-slots / offered lane-slots, summed across shards.
    fleet_utilization = _Derived.lane_utilization
    #: Completed requests per cluster tick, across all shards.
    aggregate_throughput = _Derived.throughput

    def first_result_tick(self) -> Optional[int]:
        """Earliest completion tick across every shard.

        The min is meaningful across shards because they tick in
        lock-step: every shard's clock reads the same logical time.  None
        until any shard completes a request.
        """
        firsts = [
            s.first_result_tick
            for s in self.shards
            if s.first_result_tick is not None
        ]
        return min(firsts) if firsts else None

    def completed_per_shard(self) -> List[int]:
        return [s.completed for s in self.shards]

    def completion_skew(self) -> float:
        """Relative completion imbalance: (max - min) / mean across shards.

        0.0 for a perfectly balanced fleet (and for an idle or empty one);
        1.0 means the busiest shard completed one whole mean-share more
        than the idlest.
        """
        per_shard = self.completed_per_shard()
        if not per_shard:
            return 0.0
        mean = sum(per_shard) / len(per_shard)
        if not mean:
            return 0.0
        return (max(per_shard) - min(per_shard)) / mean

    def utilization_skew(self) -> float:
        """Max minus min lane utilization across the shards."""
        utils = [s.lane_utilization() for s in self.shards]
        return max(utils) - min(utils) if utils else 0.0

    def summary(self) -> str:
        """Human-readable multi-line fleet summary."""
        lines = [
            f"shards={self.num_shards} ticks={self.ticks} "
            f"fleet_utilization={self.fleet_utilization():.3f}",
            f"requests: submitted={self.submitted} rejected={self.rejected} "
            f"spillovers={self.spillovers} injected={self.injected} "
            f"completed={self.completed} failed={self.failed}",
            self._queue_wait_line(),
            f"throughput={self.aggregate_throughput():.4f} requests/tick, "
            f"completion skew={self.completion_skew():.3f}, "
            f"utilization skew={self.utilization_skew():.3f}",
            "per-shard completed: "
            + " ".join(str(c) for c in self.completed_per_shard()),
            *self._latency_lines(),
        ]
        if self.steals or self.steal_ticks:
            lines.append(
                f"rebalancing: steals={self.steals} over "
                f"{self.steal_ticks} ticks "
                f"(preempted-lane migrations={self.preempted_migrations})"
            )
        lines.extend(self._feature_lines())
        return "\n".join(lines)


def _rollup(name: str, fold: Any, own: Optional[str]) -> property:
    def read(self: ClusterTelemetry) -> Any:
        total = fold(getattr(shard, name) for shard in self.shards)
        return total if own is None else total + getattr(self, own)

    return property(read, doc=f"Fleet ``{name}``; see :data:`FLEET_ROLLUPS`.")


for _name, (_fold, _own) in FLEET_ROLLUPS.items():
    setattr(ClusterTelemetry, _name, _rollup(_name, _fold, _own))
