"""Tests for durable serving: the snapshot wire format, spilling, and
journal-based crash recovery (repro.serve.durability + repro.vm.snapshot_codec).

Three load-bearing properties:

1. **Codec fidelity** — serialize → deserialize → restore must complete
   bit-identically to the uninterrupted run, for every corpus program, at
   any interruption point, under every executor.
2. **Admission before allocation** — corrupt, truncated, cross-program, or
   forged-depth bytes are rejected with typed errors *before* any lane
   state is touched; a bad spill entry fails only its own handle.
3. **Replay determinism** — a journaled run recovered after a crash
   completes all unfinished work bit-identically to an uninterrupted run,
   including same-tick cross-shard migration under work stealing.
"""

import base64
import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import autobatch
from repro.frontend.registry import default_registry, primitive
from repro.serve import (
    Cluster,
    DiskSpillStore,
    Engine,
    Journal,
    MemorySpillStore,
    PreemptPolicy,
    RequestQueue,
    ResultHandle,
    ServeRequest,
    SpilledSnapshot,
    recover,
    resolve_spill_store,
)
from repro.serve.aio import AsyncServer
from repro.vm import (
    LaneSnapshot,
    SnapshotCodecError,
    SnapshotDecodeError,
    SnapshotIncompatibleError,
    SnapshotProgramMismatchError,
    program_fingerprint,
)
from repro.vm.program_counter import ProgramCounterVM
from repro.vm.scheduler import RoundRobinScheduler
from repro.vm.snapshot_codec import MAGIC, VERSION

from .helpers import assert_results_equal
from .programs import ALL_EXAMPLES, fib, gcd

CORPUS = sorted(ALL_EXAMPLES)
EXECUTORS = ["eager", "fused", "superblock"]

#: Wire format v2 of lane 0 of the corpus fib batch after 12 eager steps.
#: The lane has halted: its return-address stack holds one frame, the exit
#: index, which the pop at the base left in place.
WIRE_V2_FIB_LEN = 167
WIRE_V2_FIB_SHA256 = (
    "7441d8cff2395c88ce2220517f96e1269364d9b37dd347339f545ef559b29c30"
)

_boxed_registry = default_registry.child()


@primitive(registry=_boxed_registry)
def box(x):
    """A user primitive that fills a storage with Python objects."""
    return np.asarray(x).reshape(-1, 1).astype(object)


@primitive(registry=_boxed_registry)
def unbox(x):
    return np.asarray(x)[..., 0].astype(np.int64)


@autobatch(registry=_boxed_registry)
def boxed_walk(n):
    start = box(n)
    total = 0
    while n > 0:
        total = total + n
        n = n - 1
    return total + unbox(start)


@primitive(registry=_boxed_registry)
def box_flat(x):
    """Python objects in a ``(Z,)`` register: one lane is one bare object."""
    return np.asarray(x).astype(object)


@primitive(registry=_boxed_registry)
def unbox_flat(x):
    return np.asarray(x).astype(np.int64)


@autobatch(registry=_boxed_registry)
def flat_boxed_walk(n):
    start = box_flat(n)
    total = 0
    while n > 0:
        total = total + n
        n = n - 1
    return total + unbox_flat(start)

_PLANS = {}
_TOTALS = {}


def plan_for(name, executor):
    key = (name, executor)
    if key not in _PLANS:
        _PLANS[key] = ALL_EXAMPLES[name][0].execution_plan(executor=executor)
    return _PLANS[key]


def total_steps(name, executor, **vm_options):
    key = (name, executor, tuple(sorted(vm_options.items())))
    if key not in _TOTALS:
        fn, inputs = ALL_EXAMPLES[name]
        vm = ProgramCounterVM(
            plan_for(name, executor),
            batch_size=len(np.asarray(inputs[0])),
            **vm_options,
        )
        vm.bind_inputs([np.asarray(x) for x in inputs])
        steps = 0
        while vm.step():
            steps += 1
        _TOTALS[key] = steps
    return _TOTALS[key]


def snapshots_at(name, executor, stop_at, **vm_options):
    fn, inputs = ALL_EXAMPLES[name]
    inputs = [np.asarray(x) for x in inputs]
    vm = ProgramCounterVM(
        plan_for(name, executor), batch_size=len(inputs[0]), **vm_options
    )
    vm.bind_inputs(inputs)
    for _ in range(stop_at):
        vm.step()
    return [vm.snapshot_lane(b) for b in range(vm.batch_size)]


def finish_from(name, executor, snapshots, **vm_options):
    vm = ProgramCounterVM(
        plan_for(name, executor), batch_size=len(snapshots), **vm_options
    )
    for b, snap in enumerate(snapshots):
        vm.restore_lane(b, snap)
    while vm.step():
        pass
    outputs = vm.outputs()
    return outputs[0] if len(outputs) == 1 else tuple(outputs)


def rows_of(arrays):
    z = np.asarray(arrays[0]).shape[0]
    return [tuple(np.asarray(a)[b] for a in arrays) for b in range(z)]


class TestSnapshotBytesRoundTrip:
    """Tentpole property: the wire format is lossless and admission-checked."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", CORPUS)
    def test_mid_flight_bytes_roundtrip(self, name, executor):
        fn, inputs = ALL_EXAMPLES[name]
        expected = fn.run_pc(
            *[np.asarray(x) for x in inputs], executor=executor, max_stack_depth=64
        )
        total = total_steps(name, executor, max_stack_depth=64)
        plan = plan_for(name, executor)
        snaps = snapshots_at(name, executor, total // 2, max_stack_depth=64)
        rehydrated = [
            LaneSnapshot.from_bytes(
                s.to_bytes(), plan.program, facts=plan.facts, max_stack_depth=64
            )
            for s in snaps
        ]
        got = finish_from(name, executor, rehydrated, max_stack_depth=64)
        assert_results_equal(got, expected, context=f"{name}/{executor}")

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(CORPUS),
        executor=st.sampled_from(EXECUTORS),
        frac=st.floats(0.0, 1.0),
    )
    def test_roundtrip_property(self, name, executor, frac):
        """Hypothesis-chosen interruption point × executor — completion
        stays bit-identical."""
        fn, inputs = ALL_EXAMPLES[name]
        expected = fn.run_pc(
            *[np.asarray(x) for x in inputs], executor=executor, max_stack_depth=64
        )
        total = total_steps(name, executor, max_stack_depth=64)
        stop_at = int(round(frac * total))
        plan = plan_for(name, executor)
        snaps = snapshots_at(name, executor, stop_at, max_stack_depth=64)
        blobs = [s.to_bytes() for s in snaps]
        # Determinism: re-encoding yields byte-identical blobs.
        assert blobs == [s.to_bytes() for s in snaps]
        rehydrated = [
            LaneSnapshot.from_bytes(
                b, plan.program, facts=plan.facts, max_stack_depth=64
            )
            for b in blobs
        ]
        got = finish_from(name, executor, rehydrated, max_stack_depth=64)
        assert_results_equal(
            got, expected, context=f"{name}/{executor}@{stop_at}/{total}"
        )

    def test_wire_format_v2_is_pinned(self):
        """The bytes of one fixed fib lane, to the bit.  A change to the
        layout, the field order or the fib lowering (the fingerprint rides
        in the header) moves this digest; bump ``VERSION`` with the first."""
        snap = snapshots_at("fib", "eager", 12, max_stack_depth=32)[0]
        assert snap.pc == snap.program.exit_index
        np.testing.assert_array_equal(snap.addr_frames, [snap.program.exit_index])
        blob = snap.to_bytes()
        assert blob[:6] == MAGIC + struct.pack("<H", 2) and VERSION == 2
        assert len(blob) == WIRE_V2_FIB_LEN
        assert hashlib.sha256(blob).hexdigest() == WIRE_V2_FIB_SHA256


class TestSnapshotBytesRejection:
    """Mutation tests: every corruption is rejected with a typed error
    before any lane state is allocated."""

    def _blob(self):
        snap = snapshots_at("fib", "eager", 12, max_stack_depth=32)[0]
        return snap, snap.to_bytes()

    def test_every_flipped_byte_rejected(self):
        snap, blob = self._blob()
        program = plan_for("fib", "eager").program
        for i in range(len(blob)):
            mutated = bytearray(blob)
            mutated[i] ^= 0xFF
            with pytest.raises(SnapshotCodecError):
                LaneSnapshot.from_bytes(bytes(mutated), program)

    def test_truncation_rejected(self):
        snap, blob = self._blob()
        program = plan_for("fib", "eager").program
        for cut in (0, 1, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SnapshotDecodeError):
                LaneSnapshot.from_bytes(blob[:cut], program)
        with pytest.raises(SnapshotDecodeError):
            LaneSnapshot.from_bytes(blob + b"\x00", program)

    def test_version_1_blob_refused(self):
        """A blob otherwise intact but stamped version 1 (which carried an
        executor name and an extras section) is refused by the version
        check, not misparsed."""
        snap, blob = self._blob()
        body = blob[:4] + struct.pack("<H", 1) + blob[6:-4]
        v1 = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(
            SnapshotDecodeError, match="format version 1 is not supported"
        ):
            LaneSnapshot.from_bytes(v1, plan_for("fib", "eager").program)

    def test_cross_program_bytes_rejected(self):
        snap, blob = self._blob()
        wrong = plan_for("gcd", "eager").program
        assert program_fingerprint(wrong) != program_fingerprint(
            plan_for("fib", "eager").program
        )
        with pytest.raises(SnapshotProgramMismatchError):
            LaneSnapshot.from_bytes(blob, wrong)

    def test_forged_depth_rejected_by_cap_and_verifier(self):
        plan = plan_for("fib", "eager")
        snap = snapshots_at("fib", "eager", 12, max_stack_depth=32)[0]
        # Forge a return-address stack far deeper than the verifier's bound.
        deep = LaneSnapshot(
            program=snap.program,
            pc=snap.pc,
            addr_frames=np.concatenate(
                [snap.addr_frames, np.zeros(200, dtype=snap.addr_frames.dtype)]
            ),
            storages=snap.storages,
        )
        blob = deep.to_bytes()
        with pytest.raises(SnapshotIncompatibleError):
            LaneSnapshot.from_bytes(blob, plan.program, max_stack_depth=32)

    def test_forged_depth_rejected_by_verifier_bound(self):
        """A snapshot claiming more frames than the verifier proved this
        program can ever produce is refused even on a deep machine.  (This
        needs a *bounded* program — recursion makes the proven bound None.)"""
        plan = plan_for("poly", "eager")
        facts = plan.verify()
        assert facts.required_stack_depth is not None
        snap = snapshots_at("poly", "eager", 2, max_stack_depth=32)[0]
        forged = facts.required_stack_depth + 8
        deep = LaneSnapshot(
            program=snap.program,
            pc=snap.pc,
            addr_frames=np.concatenate(
                [
                    snap.addr_frames,
                    np.zeros(
                        forged - (snap.addr_frames.shape[0] - 1),
                        dtype=snap.addr_frames.dtype,
                    ),
                ]
            ),
            storages=snap.storages,
        )
        blob = deep.to_bytes()
        with pytest.raises(ValueError):
            LaneSnapshot.from_bytes(blob, plan.program, facts=facts)
        # Without facts a deep enough machine would admit it — the verifier
        # bound is what catches the forgery.
        LaneSnapshot.from_bytes(blob, plan.program, max_stack_depth=forged + 8)

    def test_zero_frame_variable_stack_refused(self):
        """Every stack keeps its base frame.  A stacked variable whose
        frames array has zero rows used to pass admission (only a scalar
        was refused) and then either fail mid-restore or point the lane
        below its base row."""
        snap, _ = self._blob()
        assert snap.storages["fib.n"].shape[0] >= 1
        empty = LaneSnapshot(
            program=snap.program,
            pc=snap.pc,
            addr_frames=snap.addr_frames,
            storages=dict(snap.storages, **{"fib.n": snap.storages["fib.n"][:0]}),
        )
        with pytest.raises(SnapshotDecodeError, match="'fib.n'.*base frame"):
            LaneSnapshot.from_bytes(empty.to_bytes(), snap.program)

    def test_rejected_before_arrays_materialize(self, monkeypatch):
        """Admission runs on parsed headers only — a corrupt blob never
        triggers array materialization."""
        import repro.vm.snapshot_codec as codec

        snap, blob = self._blob()
        program = plan_for("fib", "eager").program

        calls = []
        original = codec._Reader.materialize

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(codec._Reader, "materialize", counting)
        mutated = bytearray(blob)
        mutated[-1] ^= 0xFF  # break the CRC
        with pytest.raises(SnapshotCodecError):
            LaneSnapshot.from_bytes(bytes(mutated), program)
        wrong = plan_for("gcd", "eager").program
        with pytest.raises(SnapshotProgramMismatchError):
            LaneSnapshot.from_bytes(blob, wrong)
        assert calls == []
        # The pristine blob does materialize.
        LaneSnapshot.from_bytes(blob, program)
        assert calls


class TestUnencodableStorage:
    """A storage a user primitive filled with Python objects has no byte
    form: encoding refuses it by name, and the engine keeps such a
    snapshot resident instead of losing it."""

    def test_object_dtype_storage_fails_loudly(self):
        vm = ProgramCounterVM(
            boxed_walk.execution_plan(), 2, registry=boxed_walk.registry
        )
        vm.bind_inputs([np.array([5, 7])])
        for _ in range(3):
            vm.step()
        snap = vm.snapshot_lane(1)
        assert snap.storages["boxed_walk.start"].dtype == object
        with pytest.raises(SnapshotCodecError, match="'boxed_walk.start'"):
            snap.to_bytes()

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_engine_keeps_the_snapshot_resident(self, executor):
        alone = boxed_walk.serve(1, executor=executor)
        expected = alone.submit(np.int64(40))
        alone.run_until_idle()

        engine = boxed_walk.serve(
            1, executor=executor, preempt=True, max_resident_snapshots=0
        )
        straggler = engine.submit(np.int64(40))
        for _ in range(5):
            engine.tick()
        # One step of urgent work: its budget vacates the lane at the end
        # of the tick that evicted the straggler, so exactly one spill of
        # the straggler's snapshot is attempted before it resumes.
        urgent = engine.submit(np.int64(3), priority=5, step_budget=1)
        engine.run_until_idle()
        t = engine.telemetry
        assert (t.preemptions, t.resumes, t.spills, t.spill_errors) == (1, 1, 0, 1)
        assert urgent.state == "failed"
        got, want = straggler.result(), expected.result()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert straggler.steps_used == expected.steps_used

    def test_flat_object_register_captures_an_array(self):
        vm = ProgramCounterVM(
            flat_boxed_walk.execution_plan(), 2, registry=flat_boxed_walk.registry
        )
        vm.bind_inputs([np.array([5, 7])])
        for _ in range(3):
            vm.step()
        lane = vm.snapshot_lane(1).storages["flat_boxed_walk.start"]
        assert lane.shape == () and lane.dtype == object and lane[()] == 7

    @pytest.mark.parametrize("executor", ["eager", "fused"])
    def test_preempting_a_flat_object_register_resumes_exactly(self, executor):
        """Capturing a ``(Z,)`` object register's lane used to call
        ``.copy()`` on the bare Python element and crash the tick that
        preempted it."""
        alone = flat_boxed_walk.serve(1, executor=executor)
        expected = alone.submit(np.int64(40))
        alone.run_until_idle()

        engine = flat_boxed_walk.serve(
            1, executor=executor, preempt=True, max_resident_snapshots=0
        )
        straggler = engine.submit(np.int64(40))
        for _ in range(5):
            engine.tick()
        urgent = engine.submit(np.int64(3), priority=5, step_budget=1)
        engine.run_until_idle()
        t = engine.telemetry
        assert (t.preemptions, t.resumes, t.spills, t.spill_errors) == (1, 1, 0, 1)
        assert urgent.state == "failed"
        got, want = straggler.result(), expected.result()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert straggler.steps_used == expected.steps_used


class TestArrivalStampDeterminism:
    """Satellite bugfix: the queue tie-break is the fleet-unique request id,
    not the admitting queue's local sequence counter."""

    @staticmethod
    def _handle(request_id, submit_tick):
        return ResultHandle(
            ServeRequest(request_id, (np.int64(1),), submit_tick=submit_tick)
        )

    def test_admit_stamps_submit_tick_and_request_id(self):
        queue = RequestQueue()
        handle = self._handle(7, submit_tick=3)
        queue.push(handle)
        assert handle.arrival == (3, 7)

    def test_same_tick_cross_shard_migration_orders_by_request_id(self):
        """Two requests admitted on different shards in the same tick must
        keep one global service order after migration, regardless of each
        shard's local _seq history."""
        shard_a, shard_b = RequestQueue(), RequestQueue()
        late = self._handle(5, submit_tick=3)
        early = self._handle(2, submit_tick=3)
        shard_a.push(late)  # shard A stamps it first (local seq 0)
        migrated = shard_a.pop()
        shard_b.requeue(migrated)  # lands on B before B admits anything
        shard_b.push(early)  # B's local seq would order `late` first
        assert shard_b.pop() is early
        assert shard_b.pop() is late

    def test_requeue_preserves_original_arrival(self):
        queue = RequestQueue()
        handle = self._handle(4, submit_tick=1)
        queue.push(handle)
        stamped = handle.arrival
        popped = queue.pop()
        queue.requeue(popped)
        assert popped.arrival == stamped == (1, 4)


class TestSpilling:
    """Tentpole: a resident cap bounds preempted-snapshot memory; overflow
    spills to a store and rehydrates transparently on resume."""

    def _drive(self, store, cap, lanes=4):
        engine = fib.serve(
            num_lanes=lanes,
            executor="fused",
            preempt=PreemptPolicy(),
            max_resident_snapshots=cap,
            spill_store=store,
        )
        handles = [engine.submit(np.int64(n)) for n in (10, 11, 12, 13)]
        for _ in range(3):
            engine.tick()
        handles += [
            engine.submit(np.int64(n), priority=5) for n in (5, 6, 7, 8, 9, 10)
        ]
        max_backlog = 0
        max_resident = 0
        for _ in range(50000):
            engine.tick()
            max_backlog = max(max_backlog, engine.queue.snapshot_count())
            max_resident = max(max_resident, engine.queue.resident_snapshots())
            if all(h.done() for h in handles):
                break
        assert all(h.done() for h in handles)
        return engine, handles, max_backlog, max_resident

    def _expected(self):
        ns = np.array([10, 11, 12, 13, 5, 6, 7, 8, 9, 10], dtype=np.int64)
        return [int(v) for v in fib.run_pc(ns)]

    def test_memory_spill_respects_cap(self):
        store = MemorySpillStore()
        engine, handles, backlog, resident = self._drive(store, cap=1)
        assert [int(h.result()) for h in handles] == self._expected()
        assert backlog >= 4, "workload must build a real preempted backlog"
        assert resident <= 1
        assert engine.telemetry.resident_peak <= 1
        assert engine.telemetry.spills >= 3
        assert engine.telemetry.rehydrations == engine.telemetry.spills
        assert len(store) == 0, "every spilled entry was reclaimed"

    def test_disk_spill_respects_cap(self, tmp_path):
        store = DiskSpillStore(str(tmp_path / "spill"))
        engine, handles, backlog, resident = self._drive(store, cap=1)
        assert [int(h.result()) for h in handles] == self._expected()
        assert resident <= 1
        assert engine.telemetry.spills >= 3
        assert len(store) == 0

    def test_results_match_uncapped_run(self):
        capped_engine, capped, _, _ = self._drive(MemorySpillStore(), cap=1)
        uncapped_engine, uncapped, _, _ = self._drive(None, cap=10**9)
        assert uncapped_engine.telemetry.spills == 0
        assert [int(h.result()) for h in capped] == [
            int(h.result()) for h in uncapped
        ]
        assert [h.finish_tick for h in capped] == [h.finish_tick for h in uncapped]

    def test_resolve_spill_store_specs(self, tmp_path):
        assert isinstance(resolve_spill_store(None), MemorySpillStore)
        assert isinstance(resolve_spill_store("memory"), MemorySpillStore)
        disk = resolve_spill_store(str(tmp_path / "d"))
        assert isinstance(disk, DiskSpillStore)
        store = MemorySpillStore()
        assert resolve_spill_store(store) is store
        with pytest.raises(TypeError):
            resolve_spill_store(123)

    def test_truncated_spill_entry_fails_only_that_handle(self):
        """Satellite bugfix: a corrupt spill entry fails its own handle and
        vacates the lane; every other request completes normally."""
        store = MemorySpillStore()
        engine = fib.serve(
            num_lanes=2,
            executor="fused",
            preempt=PreemptPolicy(),
            max_resident_snapshots=0,
            spill_store=store,
        )
        stragglers = [engine.submit(np.int64(n)) for n in (15, 16)]
        for _ in range(3):
            engine.tick()
        burst = [engine.submit(np.int64(n), priority=5) for n in (5, 6, 7, 8)]
        while not store:
            engine.tick()
        for key in list(store._data):
            store._data[key] = store._data[key][:10]
        engine.run_until_idle()
        doomed = [h for h in stragglers if h.state == "failed"]
        assert doomed, "at least one spilled straggler must have been corrupted"
        for handle in doomed:
            with pytest.raises(SnapshotDecodeError):
                handle.result()
        survivors = [h for h in stragglers + burst if h.state == "done"]
        expected = {
            5: 8, 6: 13, 7: 21, 8: 34, 15: 987, 16: 1597,
        }
        for handle in survivors:
            n = int(handle.request.inputs[0])
            assert int(handle.result()) == expected[n]
        for handle in burst:
            assert handle.state == "done"
        assert engine.pool.busy_count() == 0, "failed rehydration vacated lanes"
        assert engine.telemetry.failed == len(doomed)

    def test_cluster_spills_with_stealing(self, tmp_path):
        cluster = fib.serve_cluster(
            num_engines=2,
            num_lanes=2,
            executor="fused",
            preempt=PreemptPolicy(),
            steal=True,
            max_resident_snapshots=1,
            spill_store=str(tmp_path / "spill"),
        )
        handles = [cluster.submit(np.int64(n)) for n in (13, 14, 15, 16)]
        for _ in range(3):
            cluster.tick()
        handles += [
            cluster.submit(np.int64(n), priority=5)
            for n in (5, 6, 7, 8, 9, 10, 11, 12)
        ]
        cluster.run_until_idle()
        ns = np.array([13, 14, 15, 16, 5, 6, 7, 8, 9, 10, 11, 12], dtype=np.int64)
        assert [int(h.result()) for h in handles] == [
            int(v) for v in fib.run_pc(ns)
        ]
        assert cluster.telemetry.spills > 0
        assert cluster.telemetry.resident_peak <= 1


class TestJournalRecovery:
    """Tentpole: replaying the admission journal reproduces the run
    bit-identically, completing all unfinished work."""

    SCHEDULE = [
        (0, [(14, 0), (15, 0)]),
        (3, [(5, 5), (6, 5), (7, 5), (8, 5)]),
        (5, [(9, 0)]),
    ]

    def _run(self, journal, crash_after=None, **options):
        engine = fib.serve(
            num_lanes=2,
            executor="fused",
            preempt=PreemptPolicy(),
            journal=journal,
            **options,
        )
        handles = []
        for tick, batch in self.SCHEDULE:
            while engine.now < tick:
                engine.tick()
            for n, priority in batch:
                handles.append(engine.submit(np.int64(n), priority=priority))
        if crash_after is None:
            engine.run_until_idle()
        else:
            for _ in range(crash_after):
                engine.tick()
        return engine, handles

    def test_recover_bit_identical_engine(self):
        baseline_journal = Journal()
        _, baseline = self._run(baseline_journal)
        expected = {
            h.request_id: (int(h.result()), h.finish_tick, h.steps_used)
            for h in baseline
        }

        crash_journal = Journal()
        self._run(crash_journal, crash_after=6)
        assert crash_journal.unfinished(), "crash must leave work in flight"
        run = recover(
            crash_journal,
            fib,
            2,
            executor="fused",
            preempt=PreemptPolicy(),
        )
        recovered = {
            rid: (int(h.result()), h.finish_tick, h.steps_used)
            for rid, h in run.handles.items()
        }
        assert recovered == expected
        assert run.failures() == {}
        # unfinished_ids() is the crash-time view: the work recovery
        # existed to finish — and every one of those requests is now done.
        crashed = set(run.unfinished_ids())
        assert crashed
        assert all(run.handles[rid].state == "done" for rid in crashed)

    def test_recover_with_spilling_and_checkpoints(self, tmp_path):
        baseline_journal = Journal()
        _, baseline = self._run(
            baseline_journal,
            max_resident_snapshots=1,
            spill_store=MemorySpillStore(),
        )
        expected = {h.request_id: int(h.result()) for h in baseline}

        journal = Journal(str(tmp_path / "j.jsonl"))
        engine, _ = self._run(
            journal,
            crash_after=8,
            max_resident_snapshots=1,
            spill_store=str(tmp_path / "spill"),
        )
        del engine
        reloaded = Journal.load(str(tmp_path / "j.jsonl"))
        assert len(reloaded) == len(journal)
        run = recover(
            reloaded,
            fib,
            2,
            executor="fused",
            preempt=PreemptPolicy(),
            max_resident_snapshots=1,
            spill_store=MemorySpillStore(),
        )
        assert {rid: int(h.result()) for rid, h in run.handles.items()} == expected

    def test_recover_bit_identical_cluster_with_stealing(self, tmp_path):
        """Regression for the arrival-stamp fix: same-tick submissions that
        migrate across shards keep one global order on replay."""

        def drive(journal, crash_after=None):
            cluster = fib.serve_cluster(
                num_engines=2,
                num_lanes=2,
                executor="fused",
                preempt=PreemptPolicy(),
                steal=True,
                journal=journal,
            )
            handles = [cluster.submit(np.int64(n)) for n in (13, 14, 15, 16)]
            for _ in range(3):
                cluster.tick()
            # Same-tick burst fans out across both shards; stealing then
            # migrates some of them — order must still be fleet-global.
            handles += [
                cluster.submit(np.int64(n), priority=5)
                for n in (5, 6, 7, 8, 9, 10, 11, 12)
            ]
            if crash_after is None:
                cluster.run_until_idle()
            else:
                for _ in range(crash_after):
                    cluster.tick()
            return cluster, handles

        _, baseline = drive(Journal())
        expected = {
            h.request_id: (int(h.result()), h.finish_tick) for h in baseline
        }

        journal = Journal(str(tmp_path / "cluster.jsonl"))
        drive(journal, crash_after=5)
        run = recover(
            Journal.load(str(tmp_path / "cluster.jsonl")),
            fib,
            2,
            num_engines=2,
            executor="fused",
            preempt=PreemptPolicy(),
            steal=True,
        )
        recovered = {
            rid: (int(h.result()), h.finish_tick) for rid, h in run.handles.items()
        }
        assert recovered == expected

    def test_journal_tolerates_torn_final_line(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        self._run(journal, crash_after=6)
        with open(str(tmp_path / "j.jsonl"), "a") as f:
            f.write('{"type": "sub')  # torn mid-record by the crash
        reloaded = Journal.load(str(tmp_path / "j.jsonl"))
        assert len(reloaded) == len(journal)
        run = recover(reloaded, fib, 2, executor="fused", preempt=PreemptPolicy())
        assert all(h.state == "done" for h in run.handles.values())

    def test_journal_rejects_mid_file_corruption(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        self._run(journal, crash_after=4)
        lines = open(path).read().splitlines()
        assert len(lines) >= 3
        lines[1] = "not json at all"
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            Journal.load(path)

    def test_journal_path_refuses_an_existing_run(self, tmp_path):
        """Regression: ``Journal(path)`` over a previous run's file appended
        a second run to it, whose request ids collided with the first's."""
        path = str(tmp_path / "j.jsonl")
        self._run(Journal(path))
        with open(path, "rb") as f:
            before = f.read()
        with pytest.raises(FileExistsError, match=r"Journal\.load"):
            Journal(path)
        with open(path, "rb") as f:
            assert f.read() == before
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        assert Journal(empty).path == empty  # an empty file holds no run

    @pytest.mark.parametrize("crash", ["torn record", "lost newline"])
    def test_journal_continued_after_a_crash_stays_readable(
        self, tmp_path, crash
    ):
        """Regression: ``load`` dropped a torn tail from ``entries`` but left
        it in the file, so the next append fused with the fragment and a
        later ``load`` failed on a corrupt line (or dropped both)."""
        path = str(tmp_path / "j.jsonl")
        self._run(Journal(path), crash_after=6)
        intact = Journal.load(path).entries
        with open(path, "r+b") as f:
            if crash == "torn record":
                f.seek(0, os.SEEK_END)
                f.write(b'{"type": "sub')
            else:
                f.truncate(os.path.getsize(path) - 1)
        journal = Journal.load(path)
        assert journal.entries == intact
        engine = fib.serve(2, executor="fused", journal=journal)
        engine.submit(np.int64(5))
        engine.run_until_idle()
        assert len(journal) == len(intact) + 2
        assert Journal.load(path).entries == journal.entries

    def test_parent_format_journal_with_checkpoints_recovers(self, tmp_path):
        """Journals written before checkpoints were dropped interleave
        ``checkpoint`` records with the rest; readers skip them, and replay
        is bit-identical whether they sit in ``entries`` or in the file."""
        _, baseline = self._run(Journal())
        expected = {
            h.request_id: (int(h.result()), h.finish_tick, h.steps_used)
            for h in baseline
        }
        journal = Journal()
        engine, _ = self._run(journal, crash_after=6)
        blob = base64.b64encode(engine.vm.snapshot_lane(0).to_bytes())
        entries = []
        for entry in journal.entries:
            entries.append(entry)
            if entry["type"] == "submit":
                entries.append({
                    "type": "checkpoint",
                    "tick": entry["tick"] + 1,
                    "request_id": entry["request_id"],
                    "steps_used": 1,
                    "snapshot": blob.decode("ascii"),
                })
        journal.entries = entries
        path = str(tmp_path / "old.jsonl")
        journal.save(path)
        for old in (journal, Journal.load(path)):
            assert sum(e["type"] == "checkpoint" for e in old.entries) == 7
            run = recover(old, fib, 2, executor="fused", preempt=PreemptPolicy())
            recovered = {
                rid: (int(h.result()), h.finish_tick, h.steps_used)
                for rid, h in run.handles.items()
            }
            assert recovered == expected

    def test_recover_records_failures(self):
        journal = Journal()
        engine = fib.serve(num_lanes=1, executor="fused", journal=journal)
        doomed = engine.submit(np.int64(16), step_budget=5)
        fine = engine.submit(np.int64(6))
        engine.run_until_idle()
        assert doomed.state == "failed"
        # Completions (including failures) are journaled; replaying the
        # journal reproduces the same failure.
        run = recover(journal, fib, 1, executor="fused")
        assert set(run.failures()) == {doomed.request_id}
        assert int(run.handles[fine.request_id].result()) == 13

    def test_async_server_threads_journal(self):
        journal = Journal()
        engine = fib.serve(num_lanes=2, executor="fused")
        server = AsyncServer(engine, journal=journal)
        assert engine.journal is journal
        engine.submit(np.int64(5))
        assert len(journal.submissions()) == 1


class TestDiskSpillStoreAfterRestart:
    def test_len_agrees_with_contains_get_pop_on_a_reopened_store(self, tmp_path):
        """Regression: ``__len__`` counted a process-local key dict while
        ``in``/``get``/``pop`` fell back to the directory, so a store
        reopened after a restart held entries it reported not having."""
        directory = str(tmp_path / "spill")
        DiskSpillStore(directory).put("7-1", b"x")
        DiskSpillStore(directory).put("a/b", b"y")  # sanitized file name
        reopened = DiskSpillStore(directory)
        assert "7-1" in reopened and "a/b" in reopened
        assert len(reopened) == 2
        assert reopened.pop("7-1") == b"x"
        assert len(reopened) == 1 and len(DiskSpillStore(directory)) == 1
        with open(os.path.join(directory, "snap-9-9.bin.tmp"), "wb") as f:
            f.write(b"torn")  # an interrupted put is not an entry
        assert len(reopened) == 1 and "9-9" not in reopened


class TestJournalConfigRecord:
    """The journal opens with the schedule-determining part of the
    serving configuration; recover() verifies against it and rebuilds
    from it instead of trusting the caller to retype the options."""

    NS = (14, 15, 13, 12, 6, 7, 8, 9, 10, 11)

    def _serve(self, journal, **options):
        options.setdefault("preempt", True)
        engine = fib.serve(8, executor="fused", journal=journal, **options)
        handles = [engine.submit(np.int64(n)) for n in self.NS]
        for _ in range(40):
            engine.tick()
        handles += [engine.submit(np.int64(n), priority=5) for n in (9, 10, 11, 12)]
        engine.run_until_idle()
        assert engine.telemetry.preemptions > 0
        return engine, handles

    def _record(self, journal, **options):
        engine, handles = self._serve(journal, **options)
        return engine, {h.request_id: h.finish_tick for h in handles}

    def test_retyped_options_that_differ_are_refused(self):
        """Regression: ``recover(j, fib, 4, executor="fused")`` over a
        journal recorded on 8 preempting lanes used to return the right
        outputs from a *different* schedule (other tick count, zero
        preemptions, other finish ticks)."""
        journal = Journal()
        self._record(journal)
        with pytest.raises(ValueError, match="num_lanes=4 .* num_lanes=8"):
            recover(journal, fib, 4, executor="fused")
        with pytest.raises(ValueError, match="preempt=None"):
            recover(journal, fib, 8, executor="fused", preempt=False)
        with pytest.raises(ValueError, match="executor='eager'"):
            recover(journal, fib, 8, executor="eager")
        with pytest.raises(ValueError, match="num_engines=2"):
            recover(journal, fib, 8, num_engines=2)

    @pytest.mark.parametrize(
        "retyped",
        [
            dict(),
            dict(num_lanes=8),
            dict(num_lanes=8, executor="fused"),
            dict(num_lanes=8, executor="fused", preempt=PreemptPolicy()),
        ],
    )
    def test_omitted_options_are_rebuilt_from_the_record(self, retyped, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        engine, finish_ticks = self._record(journal)
        retyped = dict(retyped)
        args = (fib,) + ((retyped.pop("num_lanes"),) if "num_lanes" in retyped else ())
        run = recover(Journal.load(journal.path), *args, **retyped)
        assert run.server.now == engine.now
        assert run.server.telemetry.preemptions == engine.telemetry.preemptions
        assert {r: h.finish_tick for r, h in run.handles.items()} == finish_ticks

    def test_tuned_policy_must_be_passed_not_guessed(self):
        journal = Journal()
        _, finish_ticks = self._record(journal, preempt=PreemptPolicy(min_age=2))
        with pytest.raises(ValueError, match="pass preempt= to recover"):
            recover(journal, fib)
        with pytest.raises(ValueError, match="min_age=0.*min_age=2"):
            recover(journal, fib, preempt=True)
        run = recover(journal, fib, preempt=PreemptPolicy(min_age=2))
        assert {r: h.finish_tick for r, h in run.handles.items()} == finish_ticks

    def test_fleet_writes_one_record_and_rebuilds_from_it(self):
        def drive(journal):
            cluster = fib.serve_cluster(
                2, 2, executor="fused", preempt=True, steal=True,
                policy="least_loaded", journal=journal,
            )
            handles = [cluster.submit(np.int64(n)) for n in (13, 14, 15, 16)]
            for _ in range(3):
                cluster.tick()
            handles += [
                cluster.submit(np.int64(n), priority=5) for n in (5, 6, 7, 8, 9)
            ]
            cluster.run_until_idle()
            return {h.request_id: (h.finish_tick, h.shard) for h in handles}

        journal = Journal()
        expected = drive(journal)
        records = [e for e in journal.entries if e["type"] == "config"]
        assert len(records) == 1 and journal.entries[0] is records[0]
        assert records[0]["num_engines"] == 2 and records[0]["num_lanes"] == 2
        assert records[0]["policy"] == "LeastLoadedPolicy()"
        run = recover(journal, fib)
        assert len(run.server.engines) == 2
        assert {
            r: (h.finish_tick, h.shard) for r, h in run.handles.items()
        } == expected
        with pytest.raises(ValueError, match="steal=None"):
            recover(journal, fib, 2, num_engines=2, steal=False)

    @pytest.mark.parametrize(
        "gone", [("seed",), ("autoscale",), ("seed", "autoscale")]
    )
    def test_fleet_journal_naming_a_deleted_option_is_refused(self, gone):
        """Fleet journals once recorded a routing ``seed`` and an
        ``autoscale`` policy.  Neither exists now, so such a journal names
        a schedule this server cannot rebuild: refused by name, never a
        ``TypeError`` from deep inside the config."""
        journal = Journal()
        cluster = fib.serve_cluster(2, 1, journal=journal)
        cluster.submit(np.int64(5))
        cluster.run_until_idle()
        journal.entries[0].update(dict.fromkeys(gone, 0))
        for call in (
            lambda: recover(journal, fib),
            lambda: recover(journal, fib, 1, num_engines=2),
        ):
            with pytest.raises(ValueError, match=", ".join(gone)):
                call()

    def test_late_attachment_writes_the_record_once(self):
        journal = Journal()
        engine = fib.serve(num_lanes=2, executor="fused")
        AsyncServer(engine, journal=journal)
        AsyncServer(engine, journal=journal)
        assert [e["type"] for e in journal.entries] == ["config"]
        assert journal.config()["num_lanes"] == 2
        fleet_journal = Journal()
        fleet = fib.serve_cluster(3, 2)
        fleet.set_journal(fleet_journal)
        assert [e["type"] for e in fleet_journal.entries] == ["config"]
        assert all(e.journal is fleet_journal for e in fleet.engines)

    def test_journals_without_the_record_replay_as_before(self):
        journal = Journal()
        _, finish_ticks = self._record(journal)
        old = Journal()
        old.entries = [e for e in journal.entries if e["type"] != "config"]
        assert old.config() is None
        run = recover(old, fib, 8, executor="fused", preempt=True)
        assert {r: h.finish_tick for r, h in run.handles.items()} == finish_ticks
        with pytest.raises(ValueError, match="needs either server="):
            recover(old, fib)

    def test_recovered_run_journals_onward_into_a_fresh_journal(self):
        journal = Journal()
        self._record(journal)
        onward = Journal()
        recover(journal, fib, journal=onward)
        assert onward.config() == journal.config()
        assert len(onward.submissions()) == len(journal.submissions())
        with pytest.raises(ValueError, match="cannot journal into the journal"):
            recover(journal, fib, journal=journal)

    #: A config record exactly as journals were written while resume
    #: re-batching existed (for ``fib.serve(8, executor="fused",
    #: preempt=True)``): it names three deleted options.
    PARENT_RECORD = {
        "type": "config", "num_lanes": 8, "num_engines": None,
        "executor": "fused", "scheduler": "earliest", "optimize": True,
        "mode": "mask", "max_stack_depth": None, "top_cache": True,
        "max_queue_depth": None, "default_step_budget": None,
        "refill": "continuous", "resume_batching": False,
        "resume_defer_limit": 4, "max_steps": 10 ** 12,
        "max_resident_snapshots": None,
        "preempt": "PreemptPolicy(priority_delta=1, min_age=0, max_per_tick=None)",
    }

    @pytest.mark.parametrize("top_cache", [True, False])
    @pytest.mark.parametrize("defer_limit", [1, 4, 64])
    def test_parent_record_with_rebatching_off_recovers(
        self, tmp_path, defer_limit, top_cache
    ):
        """Resume re-batching off is exactly the schedule that survives
        its deletion, whatever defer limit the record carries, and the
        stack layout ``top_cache`` chose never moved a tick: the submits
        under that record, as a crash before any completion leaves them,
        replay the uninterrupted run bit for bit."""
        journal = Journal()
        engine, handles = self._serve(journal)
        path = tmp_path / "old.jsonl"
        record = dict(
            self.PARENT_RECORD, resume_defer_limit=defer_limit, top_cache=top_cache
        )
        path.write_text("".join(
            json.dumps(entry) + "\n"
            for entry in [record] + journal.submissions()
        ))
        run = recover(Journal.load(str(path)), fib)
        assert run.server.now == engine.now
        assert run.server.telemetry.preemptions == engine.telemetry.preemptions
        for h in handles:
            got = run.handles[h.request_id]
            assert (got.finish_tick, got.steps_used) == (h.finish_tick, h.steps_used)
            assert got.result().dtype == h.result().dtype
            assert np.array_equal(got.result(), h.result())

    @pytest.mark.parametrize("num_engines", [None, 2])
    def test_parent_record_with_rebatching_on_is_refused(self, num_engines):
        """A run that re-batched resumes seated them out of service order;
        no surviving schedule reproduces it."""
        old = Journal()
        old.entries = [dict(
            self.PARENT_RECORD, resume_batching=True, num_engines=num_engines
        )]
        with pytest.raises(ValueError, match="records resume_batching"):
            recover(old, fib)

    @pytest.mark.parametrize("num_engines", [None, 2])
    def test_record_naming_the_region_scheduler_is_refused(self, num_engines):
        old = Journal()
        old.entries = [dict(
            self.PARENT_RECORD, scheduler="region", num_engines=num_engines
        )]
        with pytest.raises(ValueError, match="unknown scheduler 'region'"):
            recover(old, fib)


class TestSchedulerReplay:
    """Regression: a scheduler *instance* used to reach the machines as
    is — one round-robin cursor shared by every shard of a fleet, a used
    one's cursor carried into the run — while ``recover()`` built a fresh
    scheduler per machine from the recorded name, so the replay silently
    took another schedule.  Every machine now builds its own from the
    name."""

    NS = tuple(int(n) for n in np.random.RandomState(0).randint(3, 14, size=40))

    @staticmethod
    def _used():
        scheduler = RoundRobinScheduler()
        scheduler.select(np.array([3], dtype=np.int64), 5)
        return scheduler

    @pytest.mark.parametrize("num_engines", [None, 2])
    @pytest.mark.parametrize("form", ["class", "instance", "used instance"])
    def test_scheduler_replays_bit_identically(
        self, tmp_path, num_engines, form
    ):
        spec = {
            "class": RoundRobinScheduler,
            "instance": RoundRobinScheduler(),
            "used instance": self._used(),
        }[form]
        journal = Journal(str(tmp_path / "j.jsonl"))
        options = dict(executor="fused", scheduler=spec, journal=journal)
        if num_engines is None:
            server = Engine(fib, 4, **options)
            machines = [server.vm]
        else:
            server = Cluster(fib, num_engines, 4, **options)
            machines = [engine.vm for engine in server.engines]
        handles = [server.submit(np.int64(n)) for n in self.NS]
        server.run_until_idle()
        assert journal.config()["scheduler"] == "round_robin"
        assert all(vm.scheduler is not spec for vm in machines)
        assert len({id(vm.scheduler) for vm in machines}) == len(machines)
        run = recover(Journal.load(journal.path), fib)
        assert {
            r: (int(h.result()), h.finish_tick) for r, h in run.handles.items()
        } == {
            h.request_id: (int(h.result()), h.finish_tick) for h in handles
        }
