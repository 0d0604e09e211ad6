"""The serving surface is declared once and nothing is dropped on the way down.

Every option the five entry points (``Engine``, ``fn.serve``, ``Cluster``,
``fn.serve_cluster``, ``recover``) accept is a field of
:class:`~repro.serve.config.ServeConfig`; these tests pin that down as
properties rather than examples:

* the field set is exactly the 22 serving options, and neither server
  constructor names one in its signature;
* an unknown option, and each invalid value, is refused identically at
  every entry point — *before* anything is built (no engine attached to a
  shared trace, no spill directory, no journal record);
* every field — read from ``dataclasses.fields``, so a future one cannot
  be forgotten — set on a cluster takes effect on every shard
  (``Cluster(verify=False)`` was once silently dropped on the way to a
  shard);
* every declared fleet rollup equals the fold over the shards recomputed
  by hand, and an engine and a one-shard cluster summarize the same run in
  the same words.

The CI workflow runs this file in the cluster fast gate.
"""

import dataclasses
import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import autobatch
from repro.frontend.registry import default_registry
from repro.lowering.pipeline import normalize_lowering_options
from repro.observe import Trace
from repro.serve import (
    Cluster,
    Engine,
    Journal,
    MemorySpillStore,
    PreemptPolicy,
    QueueFullError,
    ServeConfig,
    StealPolicy,
    recover,
)
from repro.serve.config import FLEET_OPTIONS
from repro.serve.telemetry import FLEET_ROLLUPS
from repro.vm.instrumentation import Instrumentation

from .programs import fib
from .test_cluster import rebalance_schedule

#: Today's options, literally: the config object may neither grow nor
#: shrink the surface without this list (and the README table) changing.
OPTIONS = [
    "registry", "mode", "scheduler", "max_stack_depth", "top_cache",
    "optimize", "executor", "verify", "max_queue_depth",
    "default_step_budget", "refill", "preempt", "resume_batching",
    "resume_defer_limit", "trace", "max_steps", "instrumentation",
    "max_resident_snapshots", "spill_store", "journal",
    "policy", "steal",
]
FIELDS = [f.name for f in dataclasses.fields(ServeConfig)]


@autobatch
def unverified(n):
    """Served only with ``verify=False``, so its cached plan never gains
    facts from a neighbouring test."""
    if n <= 0:
        return 0
    return n + unverified(n - 1)


ENTRY_POINTS = {
    "Engine": lambda **o: Engine(fib, 2, **o),
    "fn.serve": lambda **o: fib.serve(2, **o),
    "Cluster": lambda **o: Cluster(fib, 2, 2, **o),
    "fn.serve_cluster": lambda **o: fib.serve_cluster(2, 2, **o),
    "recover": lambda **o: recover(Journal(), fib, 2, **o),
}
FLEET_ENTRY_POINTS = {
    "Cluster": ENTRY_POINTS["Cluster"],
    "fn.serve_cluster": ENTRY_POINTS["fn.serve_cluster"],
    "recover": lambda **o: recover(Journal(), fib, 2, num_engines=2, **o),
}

#: ``(options, exception, message)`` every entry point must refuse alike.
INVALID = [
    (dict(refill="sometimes"), ValueError, "refill must be one of"),
    (dict(preempt=True, refill="drain"), ValueError,
     "preemption requires refill='continuous'"),
    (dict(resume_defer_limit=0), ValueError, "resume_defer_limit must be >= 1"),
    (dict(max_resident_snapshots=-1), ValueError,
     "max_resident_snapshots must be >= 0"),
    (dict(max_queue_depth=-1), ValueError, "max_queue_depth must be >= 0"),
    (dict(default_step_budget=0), ValueError,
     "default_step_budget must be >= 1"),
    (dict(preempt="nope"), ValueError, "unknown preempt policy"),
    (dict(preempt=3), TypeError, "preempt policy must be"),
    (dict(trace="nope"), ValueError, "unknown trace spec"),
]
INVALID_FLEET = [
    (dict(steal="nope"), ValueError, "unknown steal policy"),
    (dict(policy="nope"), ValueError, "unknown routing policy"),
    (dict(instrumentation=Instrumentation()), ValueError,
     "shared across shards"),
]


class TestDeclaredOnce:
    def test_the_fields_are_exactly_todays_options(self):
        assert sorted(FIELDS) == sorted(OPTIONS)
        assert len(FIELDS) == 22
        assert FLEET_OPTIONS == ("policy", "steal")

    def test_constructors_name_no_serving_option(self):
        engine = list(inspect.signature(Engine.__init__).parameters)
        cluster = list(inspect.signature(Cluster.__init__).parameters)
        assert engine == ["self", "program", "num_lanes", "options"]
        assert cluster == [
            "self", "program", "num_engines", "num_lanes", "options"
        ]
        assert not set(engine + cluster) & set(FIELDS)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unknown_option_is_a_type_error_naming_it(self, entry):
        with pytest.raises(TypeError, match="lane_count"):
            ENTRY_POINTS[entry](lane_count=4)

    @pytest.mark.parametrize("option", ["seed", "autoscale"])
    def test_deleted_fleet_options_are_unknown_everywhere(self, option):
        """The fleet is fixed-size and routes without an RNG: neither
        ``seed`` nor ``autoscale`` is an option at any entry point."""
        for make in [*ENTRY_POINTS.values(), *FLEET_ENTRY_POINTS.values()]:
            with pytest.raises(TypeError, match=option):
                make(**{option: 1})

    @pytest.mark.parametrize("entry", ["Engine", "fn.serve", "recover"])
    @pytest.mark.parametrize("option", FLEET_OPTIONS)
    def test_single_engine_refuses_fleet_options(self, entry, option):
        value = {"policy": "least_loaded"}.get(option, True)
        with pytest.raises(TypeError, match=option):
            ENTRY_POINTS[entry](**{option: value})

    @pytest.mark.parametrize("kind", ["engine", "cluster"])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_step_budget_below_one_is_refused_before_admission(
        self, kind, budget
    ):
        server = fib.serve_cluster(2, 2) if kind == "cluster" else fib.serve(2)
        with pytest.raises(ValueError, match="step_budget must be >= 1"):
            server.submit(np.int64(3), step_budget=budget)
        assert server.telemetry.submitted == 0 and server.load() == 0

    @pytest.mark.parametrize("options,exc,message", INVALID)
    def test_invalid_value_same_message_everywhere(self, options, exc, message):
        messages = set()
        for make in ENTRY_POINTS.values():
            with pytest.raises(exc, match=message) as info:
                make(**options)
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("options,exc,message", INVALID_FLEET)
    def test_invalid_fleet_value_same_message_everywhere(
        self, options, exc, message
    ):
        messages = set()
        for make in FLEET_ENTRY_POINTS.values():
            with pytest.raises(exc, match=message) as info:
                make(**options)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_num_engines_checked_with_the_options(self):
        for num_engines in (0, -1):
            with pytest.raises(ValueError, match="num_engines must be positive"):
                Cluster(fib, num_engines, 2)
            with pytest.raises(ValueError, match="num_engines must be positive"):
                recover(Journal(), fib, 2, num_engines=num_engines)


class TestRejectedConstructionLeavesNoDebris:
    """Regression: the value checks used to sit *below* the machine build
    and the trace attachment, so a refused ``Engine(fib, 4, trace=t,
    max_resident_snapshots=-1)`` left a half-built engine in ``t``'s block
    profile and a path-valued ``spill_store=`` had made its directory."""

    @pytest.mark.parametrize(
        "entry,options,exc",
        [
            (entry, options, exc)
            for entry in sorted(ENTRY_POINTS)
            for options, exc, _ in INVALID
            if "trace" not in options
        ]
        + [
            (entry, options, exc)
            for entry in ("Cluster", "fn.serve_cluster")
            for options, exc, _ in INVALID_FLEET
        ],
    )
    def test_nothing_is_built_before_the_config_validates(
        self, tmp_path, entry, options, exc
    ):
        trace, journal = Trace(), Journal()
        spill_dir = str(tmp_path / "spill")
        with pytest.raises(exc):
            ENTRY_POINTS[entry](
                trace=trace, journal=journal, spill_store=spill_dir, **options
            )
        assert trace._engines == []
        assert trace.block_profile() is not None and not len(trace.block_profile())
        assert not os.path.exists(spill_dir)
        assert len(journal) == 0


# -- nothing is dropped on the way down ---------------------------------------

_policy = PreemptPolicy(min_age=3)
_trace = Trace()
_store = MemorySpillStore()
_journal = Journal()
_registry = default_registry.child()

#: field -> (value to set on the cluster, what a shard must show for it).
SHARD_EFFECTS = {
    "registry": (_registry, lambda s: s.vm.registry is _registry),
    "mode": ("gather", lambda s: s.vm.mode == "gather"),
    "scheduler": ("most_active", lambda s: s.vm.scheduler.name == "most_active"),
    "max_stack_depth": (48, lambda s: s.vm.max_stack_depth == 48),
    "top_cache": (False, lambda s: s.vm.top_cache is False),
    "optimize": (
        False,
        lambda s: s.plan.options == normalize_lowering_options(False),
    ),
    "executor": ("fused", lambda s: s.executor == "fused"),
    "verify": (False, lambda s: s.plan.facts is None),
    "max_queue_depth": (3, lambda s: s.queue.max_depth == 3),
    "default_step_budget": (50, lambda s: s.default_step_budget == 50),
    "refill": ("drain", lambda s: s.refill == "drain"),
    "preempt": (
        _policy,
        lambda s: s.preempt is not _policy and repr(s.preempt) == repr(_policy),
    ),
    "resume_batching": (True, lambda s: s.resume_batching is True),
    "resume_defer_limit": (9, lambda s: s.resume_defer_limit == 9),
    "trace": (_trace, lambda s: s.trace is _trace and s in _trace._engines),
    "max_steps": (12345, lambda s: s.vm.max_steps == 12345),
    "max_resident_snapshots": (
        1,
        lambda s: s.max_resident_snapshots == 1 and s.spill_store is not None,
    ),
    "spill_store": (_store, lambda s: s.spill_store is _store),
    "journal": (_journal, lambda s: s.journal is _journal),
    "policy": ("least_loaded", lambda s: s.config.policy.name == "least_loaded"),
    "steal": (True, lambda s: isinstance(s.config.steal, StealPolicy)),
}


class TestNothingDroppedOnTheWayDown:
    def test_every_field_has_a_case(self):
        assert set(SHARD_EFFECTS) | {"instrumentation"} == set(FIELDS)

    @pytest.mark.parametrize("via", ["Cluster", "fn.serve_cluster"])
    @pytest.mark.parametrize("name", sorted(SHARD_EFFECTS))
    def test_option_reaches_every_shard(self, name, via):
        value, shows = SHARD_EFFECTS[name]
        fn = unverified if name == "verify" else fib
        if via == "Cluster":
            cluster = Cluster(fn, 2, 1, **{name: value})
        else:
            cluster = fn.serve_cluster(2, 1, **{name: value})
        for _ in range(3):
            cluster.submit(np.int64(3))
        for _ in range(6):
            cluster.tick()
        for shard in cluster.engines:
            assert shard.config is cluster.config
            assert getattr(shard.config, name) is getattr(cluster.config, name)
            assert shows(shard), f"{name}={value!r} not visible on {shard!r}"
        cluster.run_until_idle()

    def test_instrumentation_is_the_one_option_a_fleet_refuses(self):
        instr = Instrumentation()
        assert Engine(fib, 2, instrumentation=instr).vm.instr is instr
        with pytest.raises(ValueError, match="shared across shards"):
            Cluster(fib, 2, 2, instrumentation=instr)


# -- telemetry: declared rollups, shared words ---------------------------------

#: The folds of FLEET_ROLLUPS, written out again by hand.
BY_HAND = {
    "sum": lambda values: sum(values),
    "_worst": lambda values: max(values) if values else 0,
    "_pooled": lambda values: [x for xs in values for x in xs],
}
SHARED_SECTIONS = (
    "queue wait", "latency", "  priority", "preemption", "spilling",
    "deadlines",
)


def _shared_lines(summary):
    return [
        line for line in summary.splitlines()
        if line.startswith(SHARED_SECTIONS)
    ]


def _drive(server, schedule):
    for n, gap, priority, budget, deadline in schedule:
        for _ in range(gap):
            server.tick()
        try:
            server.submit(
                np.int64(n), priority=priority, step_budget=budget,
                deadline_ticks=deadline,
            )
        except QueueFullError:
            pass  # counted in ``rejected``, which the rollup test reads
    server.run_until_idle()
    return server.telemetry


class TestTelemetryDeclaredOnce:
    @settings(max_examples=15, deadline=None)
    @given(
        schedule=rebalance_schedule,
        num_engines=st.integers(1, 3),
        steal=st.booleans(),
        preempt=st.booleans(),
    )
    def test_every_rollup_is_the_fold_over_the_shards(
        self, schedule, num_engines, steal, preempt
    ):
        t = _drive(
            fib.serve_cluster(
                num_engines, 1, steal=steal, preempt=preempt,
                max_resident_snapshots=1 if preempt else None,
                max_queue_depth=2,
            ),
            schedule,
        )
        for name, (fold, own) in FLEET_ROLLUPS.items():
            values = [getattr(shard, name) for shard in t.shards]
            expected = BY_HAND[fold.__name__](values)
            if own is not None:
                expected += getattr(t, own)
            assert getattr(t, name) == expected, name
        assert t.fleet_utilization() == (
            sum(s.busy_lane_slots for s in t.shards)
            / max(1, sum(s.lane_slots for s in t.shards))
        )

    @settings(max_examples=15, deadline=None)
    @given(schedule=rebalance_schedule, preempt=st.booleans())
    def test_engine_and_one_shard_cluster_summarize_alike(
        self, schedule, preempt
    ):
        options = dict(
            preempt=preempt, max_resident_snapshots=1 if preempt else None
        )
        engine = _drive(fib.serve(2, **options), schedule)
        fleet = _drive(fib.serve_cluster(1, 2, **options), schedule)
        assert _shared_lines(engine.summary()) == _shared_lines(fleet.summary())
        assert _shared_lines(engine.summary())[0].startswith("queue wait")
        for name in FLEET_ROLLUPS:
            assert getattr(fleet, name) == getattr(engine, name), name

    def test_no_rollup_is_hand_written(self):
        from repro.serve.telemetry import ClusterTelemetry

        declared = {
            name for name, member in vars(ClusterTelemetry).items()
            if isinstance(member, property)
        }
        assert declared == set(FLEET_ROLLUPS) | {"num_shards"}
