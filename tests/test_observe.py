"""Unit tests for repro.observe: tracer, metrics, profiles, and the hub.

The integration-grade properties (traced cluster runs reconciling with
telemetry, byte-identical determinism under rebalancing) live in
tests/test_serve.py and tests/test_cluster.py; this file pins down the
building blocks — the timeline state machine, the Chrome-trace schema,
nearest-rank percentiles, ring-buffer windowing, straggler ranking — and
the off-by-default contract.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.observe import (
    EVENT_KINDS,
    BlockProfile,
    MetricsRecorder,
    RingBuffer,
    Trace,
    TraceEvent,
    Tracer,
    nearest_rank,
    resolve_trace,
    validate_chrome_trace,
    validate_timeline,
)
from repro.vm.instrumentation import BlockCounter, Instrumentation

from .programs import fib


# -- nearest-rank percentiles --------------------------------------------------


class TestNearestRank:
    def test_known_values(self):
        values = [15, 20, 35, 40, 50]
        assert nearest_rank(values, 5) == 15.0
        assert nearest_rank(values, 30) == 20.0
        assert nearest_rank(values, 40) == 20.0
        assert nearest_rank(values, 50) == 35.0
        assert nearest_rank(values, 100) == 50.0

    def test_edges(self):
        assert nearest_rank([], 50) == 0.0
        assert nearest_rank([7], 0) == 7.0
        assert nearest_rank([7], 100) == 7.0
        assert nearest_rank([3, 1, 2], 0) == 1.0  # min, unsorted input

    def test_never_interpolates(self):
        # Every answer is an observed value, whatever q is.
        values = [1, 10, 100, 1000]
        for q in range(0, 101, 7):
            assert nearest_rank(values, q) in values

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_rank([1], -1)
        with pytest.raises(ValueError):
            nearest_rank([1], 101)


# -- ring buffers --------------------------------------------------------------


class TestRingBuffer:
    def test_bounded_with_dropped_count(self):
        buf = RingBuffer(3)
        for i in range(7):
            buf.append(i)
        assert len(buf) == 3
        assert buf.items() == [4, 5, 6]  # oldest-first
        assert buf.dropped == 4

    def test_under_capacity(self):
        buf = RingBuffer(8)
        buf.append("a")
        buf.append("b")
        assert buf.items() == ["a", "b"]
        assert buf.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestMetricsRecorder:
    def test_series_lifecycle(self):
        m = MetricsRecorder(window=16)
        for t in range(5):
            m.record("queue_depth", t, t * 2)
        assert m.names() == ["queue_depth"]
        assert m.samples("queue_depth") == [(t, float(t * 2)) for t in range(5)]
        assert m.values("queue_depth") == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert m.latest("queue_depth") == 8.0
        assert m.mean("queue_depth") == 4.0
        assert m.percentile("queue_depth", 50) == 4.0
        assert m.dropped("queue_depth") == 0

    def test_window_eviction(self):
        m = MetricsRecorder(window=4)
        for t in range(10):
            m.record("g", t, t)
        assert m.values("g") == [6.0, 7.0, 8.0, 9.0]
        assert m.dropped("g") == 6
        assert "dropped=6" in m.summary()

    def test_missing_series(self):
        m = MetricsRecorder()
        assert m.samples("nope") == []
        assert m.latest("nope") is None
        assert m.mean("nope") == 0.0
        assert m.percentile("nope", 99) == 0.0

    def test_to_json_is_canonical(self):
        m = MetricsRecorder(window=8)
        m.record("b", 0, 1)
        m.record("a", 0, 2)
        doc = m.to_json()
        assert list(doc["series"]) == ["a", "b"]  # sorted
        assert doc["series"]["a"] == {
            "dropped": 0, "ticks": [0], "values": [2.0],
        }
        # Canonical: same recordings → identical serialization.
        m2 = MetricsRecorder(window=8)
        m2.record("b", 0, 1)
        m2.record("a", 0, 2)
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            m2.to_json(), sort_keys=True
        )


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_record_and_index(self):
        tr = Tracer()
        tr.record("submit", 0, request_id=1, priority=2)
        tr.record("submit", 0, request_id=2)
        tr.record("inject", 1, request_id=1, shard=0, lane=3)
        tr.record("complete", 4, request_id=1, lane=3)
        assert len(tr) == 4
        assert tr.count("submit") == 2
        assert tr.count("steal") == 0
        assert tr.counts() == {"complete": 1, "inject": 1, "submit": 2}
        assert tr.request_ids() == [1, 2]
        timeline = tr.events_for(1)
        assert [e.kind for e in timeline] == ["submit", "inject", "complete"]
        assert tr.events_for(99) == []

    def test_unknown_kind_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.record("teleport", 0)
        with pytest.raises(ValueError):
            tr.count("teleport")

    def test_as_dict_omits_nones(self):
        e = TraceEvent(tick=3, kind="submit", request_id=0)
        assert e.as_dict() == {"tick": 3, "kind": "submit", "request_id": 0}

    def test_event_kinds_frozen_set(self):
        assert set(EVENT_KINDS) >= {
            "submit", "reject", "inject", "preempt", "resume",
            "steal", "migrate", "complete", "fail",
        }


class TestChromeTrace:
    def _traced(self):
        tr = Tracer()
        tr.record("submit", 0, request_id=0, shard=0)
        tr.record("inject", 1, request_id=0, shard=0, lane=2)
        tr.record("preempt", 3, request_id=0, shard=0, lane=2)
        tr.record("resume", 5, request_id=0, shard=1, lane=0)
        tr.record("complete", 8, request_id=0, shard=1, lane=0)
        return tr

    def test_layers(self):
        doc = self._traced().chrome_trace()
        events = doc["traceEvents"]
        by_ph = {}
        for e in events:
            by_ph.setdefault(e["ph"], []).append(e)
        assert len(by_ph["i"]) == 5  # one instant per raw event
        assert len(by_ph["b"]) == 1 and len(by_ph["e"]) == 1  # submit→terminal
        assert by_ph["b"][0]["id"] == 0
        # Two lane-residency spans: inject→preempt (2 ticks, shard 0) and
        # resume→complete (3 ticks, shard 1).
        spans = sorted(by_ph["X"], key=lambda e: e["ts"])
        assert [(s["ts"], s["dur"], s["pid"]) for s in spans] == [
            (1, 2, 0), (5, 3, 1),
        ]
        assert spans[0]["args"]["ended_by"] == "preempt"
        assert spans[1]["args"]["ended_by"] == "complete"

    def test_export_and_validate(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = self._traced().export_chrome_trace(path)
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        assert validate_chrome_trace(path) == len(doc["traceEvents"])
        # Canonical bytes: re-export matches exactly.
        path2 = tmp_path / "trace2.json"
        self._traced().export_chrome_trace(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}
                ]}
            )
        with pytest.raises(ValueError):  # complete span without dur
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
                ]}
            )
        with pytest.raises(ValueError):  # async event without id
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "b", "ts": 0, "pid": 0, "tid": 0}
                ]}
            )


class TestValidateTimeline:
    def _tl(self, *kinds, rid=0):
        return [
            TraceEvent(tick=t, kind=k, request_id=rid)
            for t, k in enumerate(kinds)
        ]

    def test_accepts_well_formed(self):
        assert validate_timeline(self._tl("submit", "inject", "complete")) == "complete"
        assert validate_timeline(
            self._tl("submit", "steal", "inject", "preempt", "migrate",
                     "spill", "resume", "complete")
        ) == "complete"
        assert validate_timeline(self._tl("submit", "inject", "fail")) == "fail"
        # A fail may strand one eviction (failed restore).
        assert validate_timeline(
            self._tl("submit", "inject", "preempt", "fail")
        ) == "fail"

    def test_rejects_violations(self):
        cases = [
            ([], "empty timeline"),
            (self._tl("inject"), "not submit"),
            (self._tl("submit", "inject"), "no terminal"),
            (self._tl("submit", "complete"), "complete while queued"),
            (self._tl("submit", "inject", "resume", "complete"),
             "resume while running"),
            (self._tl("submit", "inject", "inject"), "inject while running"),
            (self._tl("submit", "migrate"), "migrate while queued"),
            (self._tl("submit", "inject", "spill", "complete"),
             "spill while running"),
            (self._tl("submit", "inject", "complete", "complete"),
             "after terminal"),
            (self._tl("submit", "submit", "complete"), "duplicate submit"),
            (self._tl("submit", "inject", "preempt", "resume", "preempt",
                      "resume", "preempt", "complete"),
             "complete while evicted"),
        ]
        for events, fragment in cases:
            with pytest.raises(ValueError, match=fragment):
                validate_timeline(events)

    def test_rejects_time_travel_and_foreign_events(self):
        events = self._tl("submit", "inject", "complete")
        warped = [events[0], TraceEvent(tick=-1, kind="inject", request_id=0),
                  events[2]]
        with pytest.raises(ValueError, match="backwards"):
            validate_timeline(warped)
        foreign = [events[0],
                   TraceEvent(tick=1, kind="inject", request_id=9),
                   events[2]]
        with pytest.raises(ValueError, match="foreign"):
            validate_timeline(foreign)


# -- block profiles ------------------------------------------------------------


def _machine(counters, labels=None):
    """A fake (program, instrumentation) pair for BlockProfile.collect."""
    instr = Instrumentation(track_blocks=True)
    for index, (execs, active, live, slots) in counters.items():
        instr.by_block[index] = BlockCounter(
            executions=execs, active=active, live=live, slots=slots
        )
    labels = labels or {}
    n = (max(counters) + 1) if counters else 0
    program = SimpleNamespace(
        blocks=[SimpleNamespace(label=labels.get(i, f"b{i}")) for i in range(n)],
        block_sources=[f"src{i}" for i in range(n)],
    )
    return program, instr


class TestBlockProfile:
    def test_waste_and_ranking(self):
        profile = BlockProfile.collect([
            _machine({
                0: (10, 40, 80, 80),   # waste 40
                1: (5, 35, 40, 40),    # waste 5
                2: (8, 24, 64, 64),    # waste 40 — ties with block 0
            })
        ])
        assert len(profile) == 3
        assert [r.index for r in profile.stragglers()] == [0, 2, 1]  # tie→index
        assert profile.row(0).waste == 40
        assert profile.row(1).occupancy == pytest.approx(35 / 40)
        assert profile.total_slots == 184
        assert profile.total_waste == 85
        assert [r.index for r in profile.stragglers(limit=1)] == [0]

    def test_stragglers_tie_break_is_deterministic(self):
        # Three-way waste tie: ordering must fall back to block index,
        # regardless of collection order.
        profile = BlockProfile.collect([
            _machine({
                2: (4, 12, 24, 24),    # waste 12
                0: (6, 12, 24, 24),    # waste 12
                1: (5, 12, 24, 24),    # waste 12
            })
        ])
        assert [r.index for r in profile.stragglers()] == [0, 1, 2]
        assert [r.index for r in profile.stragglers()] == [
            r.index for r in profile.stragglers()
        ]

    def test_stragglers_min_slots_floor(self):
        # min_slots drops near-idle blocks entirely (no demotion): block 1
        # has the highest waste but only 4 slots of evidence.
        profile = BlockProfile.collect([
            _machine({
                0: (10, 40, 80, 80),   # waste 40, slots 80
                1: (1, 0, 4, 4),       # waste 4, slots 4 — thin evidence
                2: (8, 56, 64, 64),    # waste 8, slots 64
            })
        ])
        assert [r.index for r in profile.stragglers()] == [0, 2, 1]
        assert [r.index for r in profile.stragglers(min_slots=5)] == [0, 2]
        assert [r.index for r in profile.stragglers(min_slots=5, limit=1)] == [0]
        # A floor above every block's slots yields an empty ranking.
        assert profile.stragglers(min_slots=1000) == []
        with pytest.raises(ValueError, match="min_slots"):
            profile.stragglers(min_slots=-1)

    def test_merge_across_machines(self):
        a = _machine({0: (2, 4, 8, 8)})
        b = _machine({0: (3, 2, 12, 12), 1: (1, 1, 4, 4)})
        profile = BlockProfile.collect([a, b])
        row = profile.row(0)
        assert (row.executions, row.active, row.slots) == (5, 6, 20)
        assert row.waste == 14
        assert profile.row(1).executions == 1

    def test_labels_and_summary(self):
        profile = BlockProfile.collect(
            [_machine({0: (1, 1, 2, 2)}, labels={0: "fib.entry"})]
        )
        assert profile.row(0).label == "fib.entry"
        text = profile.summary()
        assert "fib.entry" in text and "waste=1" in text

    def test_empty(self):
        profile = BlockProfile.collect([_machine({})])
        assert len(profile) == 0
        assert profile.summary() == "no blocks profiled"
        assert profile.to_json()["blocks"] == []


# -- the Trace hub and resolve_trace -------------------------------------------


class TestResolveTrace:
    def test_off_forms(self):
        assert resolve_trace(None) is None
        assert resolve_trace(False) is None

    def test_on_forms(self):
        full = resolve_trace(True)
        assert full.tracer is not None and full.metrics is not None
        assert full.profile
        events = resolve_trace("events")
        assert events.tracer is not None
        assert events.metrics is None and not events.profile
        metrics = resolve_trace("metrics")
        assert metrics.tracer is None and metrics.metrics is not None
        profile = resolve_trace("profile")
        assert profile.profile and profile.tracer is None
        assert resolve_trace("full").profile

    def test_instance_passthrough(self):
        t = Trace(metrics=False)
        assert resolve_trace(t) is t

    def test_rejections(self):
        with pytest.raises(ValueError):
            resolve_trace("verbose")
        with pytest.raises(TypeError):
            resolve_trace(42)

    def test_export_requires_events(self, tmp_path):
        t = Trace(events=False)
        with pytest.raises(ValueError):
            t.export_chrome_trace(tmp_path / "x.json")


class TestEngineIntegration:
    def test_off_by_default(self):
        engine = fib.serve(num_lanes=2, max_stack_depth=64)
        handle = engine.submit(np.int64(8))
        engine.run_until_idle()
        assert engine.trace is None
        assert handle.trace() == []
        # Profiling counters never armed: the per-block scan stayed off.
        assert not engine.vm.instr.track_blocks
        assert engine.vm.instr.by_block == {}

    def test_traced_engine_end_to_end(self, tmp_path):
        engine = fib.serve(num_lanes=2, trace=True, max_stack_depth=64)
        handles = [engine.submit(np.int64(n)) for n in (6, 7, 8)]
        engine.run_until_idle()
        trace = engine.trace
        # Timelines reconstruct and validate per handle.
        for h in handles:
            assert validate_timeline(h.trace()) == "complete"
        assert trace.tracer.count("submit") == engine.telemetry.submitted
        assert trace.tracer.count("complete") == engine.telemetry.completed
        # Metrics sampled each tick (unprefixed series name for standalone
        # engines would be shard-prefixed; check any series exists).
        assert trace.metrics.names()
        # Block profile has fib's blocks and a deterministic ranking.
        profile = trace.block_profile()
        assert len(profile) > 0
        assert profile.total_slots > 0
        ranked = [r.index for r in profile.stragglers()]
        assert ranked == [r.index for r in profile.stragglers()]
        # Full report renders and exports.
        assert "events:" in trace.summary()
        doc = trace.to_json()
        assert doc["events"]["counts"]["submit"] == 3
        path = tmp_path / "engine_trace.json"
        trace.export_chrome_trace(path)
        assert validate_chrome_trace(path) > 0

    def test_traced_engine_that_spills(self, tmp_path):
        """A preempted request's snapshot spilled out of memory is one more
        event on its timeline, between its preempt and its resume."""
        engine = fib.serve(
            1, preempt=True, max_resident_snapshots=0, trace=True,
            max_stack_depth=64,
        )
        handles = [engine.submit(np.int64(15))]
        for _ in range(5):
            engine.tick()
        handles.append(engine.submit(np.int64(6), priority=5))
        engine.run_until_idle()
        assert engine.telemetry.spills == engine.trace.tracer.count("spill") == 1
        for h in handles:
            assert validate_timeline(h.trace()) == "complete"
        kinds = [e.kind for e in handles[0].trace()]
        assert kinds.index("preempt") < kinds.index("spill") < kinds.index("resume")
        np.testing.assert_array_equal(
            [h.result() for h in handles], fib.run_reference(np.array([15, 6]))
        )
        path = tmp_path / "spilled.json"
        engine.trace.export_chrome_trace(path)
        assert validate_chrome_trace(path) > 0

    def test_profile_only_spec(self):
        engine = fib.serve(num_lanes=1, trace="profile", max_stack_depth=64)
        handle = engine.submit(np.int64(5))
        engine.run_until_idle()
        assert engine.vm.instr.track_blocks
        assert engine.trace.tracer is None
        assert handle.trace() == []  # events off → no timeline
        profile = engine.trace.block_profile()
        assert profile.total_slots > 0
        # Waste accounting is self-consistent: active ≤ slots per row.
        for row in profile.rows():
            assert 0 <= row.active <= row.slots
            assert row.waste == row.slots - row.active
