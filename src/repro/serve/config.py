"""The serving surface, declared once.

Every option ``Engine(...)``, ``Cluster(...)``, ``fn.serve(...)``,
``fn.serve_cluster(...)`` and :func:`~repro.serve.durability.recover`
accept is a field of :class:`ServeConfig`.  The five entry points build
it the same way (:func:`~repro.serve.server.configure`), it validates and resolves every
default *before* any plan, machine, store directory or trace attachment
exists, and a cluster hands the one validated object to every shard —
so an option cannot be dropped, re-defaulted, or checked too late on the
way down.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Any, Dict, Mapping, Optional

from repro.observe import resolve_trace
from repro.serve.durability import resolve_spill_store
from repro.vm.scheduler import scheduler_name

#: Lane refill disciplines.
REFILL_POLICIES = ("continuous", "drain")

#: Options only a fleet reads; a single engine rejects them.
FLEET_OPTIONS = ("policy", "steal")

#: The fields that determine the schedule by value (see
#: :meth:`ServeConfig.schedule_record`); policies are recorded by ``repr``.
_SCHEDULE_SCALARS = (
    "mode", "max_stack_depth", "max_queue_depth", "default_step_budget",
    "refill", "max_steps", "max_resident_snapshots",
)


def resolve_spec(
    spec: Any,
    what: str,
    base: type,
    registry: Optional[Mapping[str, type]] = None,
    default: Optional[type] = None,
    **kwargs: Any,
) -> Any:
    """Turn a policy argument into an instance of ``base`` (or None = off).

    The one ladder behind ``preempt=``, ``steal=`` and ``policy=``: an
    instance passes through, a subclass or a ``registry`` name is
    constructed with ``kwargs``, and — for on/off options, those with a
    ``default`` class — ``None``/``False`` is off and ``True`` the
    default.
    """
    if default is not None:
        if spec is None or spec is False:
            return None
        if spec is True:
            return default(**kwargs)
    if isinstance(spec, base):
        return spec
    if isinstance(spec, type) and issubclass(spec, base):
        return spec(**kwargs)
    if isinstance(spec, str) and registry is not None:
        try:
            return registry[spec](**kwargs)
        except KeyError:
            raise ValueError(
                f"unknown {what} {spec!r}; known: {sorted(registry)}"
            ) from None
    accepted = [
        kind
        for kind, ok in (("a bool", default), ("a name", registry))
        if ok is not None
    ]
    raise TypeError(
        f"{what} must be {', '.join(accepted + [f'a {base.__name__}'])}, "
        f"got {type(spec).__name__}"
    )


@dataclass(frozen=True)
class ServeConfig:
    """Every serving option, validated and resolved at construction.

    After ``__post_init__`` the policy fields hold instances (or None),
    ``scheduler`` a registered name, ``trace`` a
    :class:`~repro.observe.Trace` (or None) and
    ``spill_store`` a :class:`~repro.serve.durability.SpillStore` (or
    None), so the tick loop reads resolved values only.  ``num_engines``
    is not an option but the fleet size the options are checked against
    (None = a single engine, which rejects :data:`FLEET_OPTIONS`).

    registry:
        The :class:`~repro.frontend.registry.PrimitiveRegistry` kernels
        resolve through (default: the served function's own).
    mode, max_stack_depth, max_steps, instrumentation:
        Passed to each :class:`~repro.vm.program_counter.ProgramCounterVM`.
        ``max_stack_depth`` caps how far its stacks grow (None: no cap); a
        request whose next step would push past it fails with
        :class:`~repro.vm.stack.StackOverflowError` and its neighbours
        step on.  Stacks never shrink: uncapped ones keep ``num_lanes`` x
        the deepest request's frames for life, and only the cap or a
        ``default_step_budget`` bounds a runaway.
        One ``instrumentation`` object cannot serve a fleet: N machines
        sharing a counter would overcount N-fold.
    scheduler:
        The block-selection rule: ``"earliest"`` (the paper's, default),
        ``"most_active"`` or ``"round_robin"``, or one of their classes
        or instances — resolved to the name, so every machine (each shard
        of a fleet, a recovered one) builds its own and none shares a
        cursor.  Queued work is always seated in strict
        :class:`~repro.serve.queue.RequestQueue` service order.
    optimize:
        Lowering optimizations: a bool or a
        :class:`~repro.lowering.pipeline.LoweringOptions`.
    executor:
        ``"eager"`` (per-op dispatch), ``"fused"`` (each block one
        pre-compiled callable — same results, a fraction of the
        dispatches), ``"superblock"`` (hot block *runs* fused into one
        callable each — below one dispatch per executed block), or a
        :class:`~repro.vm.executors.BlockExecutor` instance.  Lane recycling is
        executor-agnostic; a fleet compiles one plan for every shard.
    verify:
        Statically verify the program once at plan compile (the default;
        :mod:`repro.analysis.stackcheck`).  Zero steady-state cost: the
        proven facts are cached on the plan, and the stacks start at the
        proven bound, so a bounded program never grows them.
    max_queue_depth:
        Per-engine queue bound, >= 0 (``None`` = unbounded).  An engine
        raises :class:`~repro.serve.queue.QueueFullError` beyond it; a
        cluster spills over to the next shard in preference order and
        raises only when every shard is full.
    default_step_budget:
        Per-request cap, >= 1, on machine steps in which the request's
        member is active (overridable per ``submit``, with the same
        floor); exhausted requests fail with
        :class:`~repro.serve.queue.StepBudgetExceeded` and their lane is
        recycled.
    refill:
        ``"continuous"`` (inject into vacated lanes mid-flight) or
        ``"drain"`` (admit only into a fully drained machine — the static
        baseline).
    preempt:
        Checkpoint-and-evict straggler lanes for queued higher-priority
        work, which *resumes* later from its snapshot: ``True`` or a name
        for a default :class:`~repro.serve.engine.PreemptPolicy`, an
        instance for tuned thresholds, ``None``/``False`` (default) off.
        Requires ``refill="continuous"``.  Each shard of a fleet owns a
        private deep copy, so a stateful policy never leaks decisions
        across shards.
    policy:
        Fleet only.  Routing policy name (``"round_robin"``,
        ``"least_loaded"``), instance, or class.
    steal:
        Fleet only.  Cross-shard work stealing between ticks: ``True`` or
        a name for the default :class:`~repro.serve.cluster.StealPolicy`,
        an instance for tuned thresholds, ``None``/``False`` (default) off.
    trace:
        Observability, off by default at zero cost: ``True`` for a full
        :class:`~repro.observe.Trace`, ``"events"``/``"metrics"``/
        ``"profile"`` for one piece, or an instance.  Stamped with the
        logical clock, so identical runs trace byte-identically.  A fleet
        *shares* the one resolved ``Trace`` (unlike per-shard policies):
        one event stream including ``steal``/``migrate``,
        gauges under ``shard<N>/`` and ``fleet/``, a merged block profile.
    max_resident_snapshots:
        Cap (per engine) on queued preempted-lane snapshots held as live
        arrays; overflow is serialized into ``spill_store`` and rehydrated
        through the full static admission checks at resume.  ``None``
        (default) never spills.
    spill_store:
        A :class:`~repro.serve.durability.SpillStore`, ``"memory"``, or a
        directory path; a fresh in-memory store when only a cap is set.
        Shared by every shard, so a stolen spilled entry rehydrates
        wherever stealing carries it.
    journal:
        An admission :class:`~repro.serve.durability.Journal`, shared by
        every shard: opens with :meth:`schedule_record`, then records
        every accepted submit and every completion, so
        :func:`~repro.serve.durability.recover` replays a crashed server
        bit-identically.
    """

    registry: Any = None
    mode: str = "mask"
    scheduler: Any = "earliest"
    max_stack_depth: Optional[int] = None
    optimize: Any = True
    executor: Any = None
    verify: bool = True
    max_queue_depth: Optional[int] = None
    default_step_budget: Optional[int] = None
    refill: str = "continuous"
    preempt: Any = None
    trace: Any = None
    max_steps: int = 10 ** 12
    instrumentation: Any = None
    max_resident_snapshots: Optional[int] = None
    spill_store: Any = None
    journal: Any = None
    policy: Any = "round_robin"
    steal: Any = None
    num_engines: InitVar[Optional[int]] = None

    def __post_init__(self, num_engines: Optional[int]) -> None:
        # Lazy: the policy classes live beside the servers that run them,
        # and those modules import this one.
        from repro.serve.cluster import resolve_policy, resolve_steal_policy
        from repro.serve.engine import resolve_preempt_policy

        resolved: Dict[str, Any] = {}
        if num_engines is None:
            for name in FLEET_OPTIONS:
                # A dataclass default is the class attribute of that name.
                if getattr(self, name) != getattr(type(self), name):
                    raise TypeError(
                        f"{name}= is a fleet option; pass it to Cluster or "
                        "fn.serve_cluster, a single engine has no use for it"
                    )
        else:
            if num_engines <= 0:
                raise ValueError(
                    f"num_engines must be positive, got {num_engines}"
                )
            if self.instrumentation is not None:
                raise ValueError(
                    "instrumentation cannot be shared across shards; read the "
                    "per-shard counters via cluster.engines[i].vm.instr instead"
                )
        if self.refill not in REFILL_POLICIES:
            raise ValueError(
                f"refill must be one of {REFILL_POLICIES}, got {self.refill!r}"
            )
        resolved["preempt"] = resolve_preempt_policy(self.preempt)
        if resolved["preempt"] is not None and self.refill == "drain":
            raise ValueError(
                "preemption requires refill='continuous': a drained machine "
                "admits nothing until empty, so an evicted request could "
                "never resume ahead of the drain"
            )
        for name, floor in (
            ("max_queue_depth", 0),
            ("default_step_budget", 1),
            ("max_resident_snapshots", 0),
        ):
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        cap = self.max_resident_snapshots
        resolved.update(
            scheduler=scheduler_name(self.scheduler),
            max_resident_snapshots=None if cap is None else int(cap),
            policy=resolve_policy(self.policy),
            steal=resolve_steal_policy(self.steal),
            trace=resolve_trace(self.trace),
        )
        # Last, once nothing above can still reject: resolving a path
        # creates its directory.
        if self.spill_store is not None or cap is not None:
            resolved["spill_store"] = resolve_spill_store(self.spill_store)
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    def schedule_record(
        self, num_lanes: int, num_engines: Optional[int], executor: str
    ) -> Dict[str, Any]:
        """The JSON-ready part of this configuration that determines the
        schedule — what a :class:`~repro.serve.durability.Journal` opens
        with and :func:`~repro.serve.durability.recover` checks against.

        Lanes, shards, the scalar options, the executor and scheduler by
        name, and each policy by its parameter-complete ``repr``.  Left
        out: what cannot change a tick (``registry``, ``verify``,
        ``trace``, ``instrumentation``, ``journal``, ``spill_store``).
        """
        record: Dict[str, Any] = {
            "num_lanes": int(num_lanes),
            "num_engines": None if num_engines is None else int(num_engines),
            "executor": executor,
            "scheduler": self.scheduler,
            "optimize": (
                self.optimize if isinstance(self.optimize, bool)
                else repr(self.optimize)
            ),
        }
        record.update((name, getattr(self, name)) for name in _SCHEDULE_SCALARS)
        for name in ("preempt",) + (() if num_engines is None else FLEET_OPTIONS):
            value = getattr(self, name)
            record[name] = (
                value if value is None or isinstance(value, int) else repr(value)
            )
        return record
