"""Durable serving: snapshot spilling, admission journaling, crash recovery.

The serving stack (engine, cluster, async front door) runs entirely on a
logical clock and is deterministic in its admission sequence: given the
same submits at the same ticks, every tick's scheduling decision — and
therefore every output bit — is reproducible.  This module exploits that
twice:

* **Spilling** bounds the memory of a preempted backlog.  A
  :class:`~repro.vm.program_counter.LaneSnapshot` serializes to a
  versioned byte string (:mod:`repro.vm.snapshot_codec`), so an engine
  with ``max_resident_snapshots=N`` keeps at most N queued snapshots as
  live arrays and parks the overflow in a :class:`SpillStore` (in-memory
  or on-disk).  A spilled entry is represented in the queue by a
  :class:`SpilledSnapshot` stub that keeps the ``pc`` visible — resume
  re-batching, pc-cohort scheduling, and cross-shard stealing all keep
  working on spilled entries — and is transparently rehydrated (decoded
  through the full static admission checks) when its handle is popped to
  resume.

* **Journaling + recovery** make the fleet restartable.  A
  :class:`Journal` records the server's configuration, every accepted
  submit (inputs, priority, budget, deadline, arrival tick) and every
  completion; :func:`recover` rebuilds a fresh engine or cluster and
  replays the admission schedule from tick 0 on the logical clock, which
  by the determinism argument completes all unfinished work
  *bit-identically* to the uninterrupted run.  No lane state is
  journaled: replay regenerates it.  The journal is an append-only JSONL
  file (or in-memory record list), so a crashed process recovers from
  whatever prefix reached disk — a torn final line is discarded, not
  fatal.

Wiring: ``Engine(..., max_resident_snapshots=, spill_store=, journal=)``,
the same keywords on ``Cluster`` (one store and journal shared by every
shard), and ``AsyncServer(..., journal=)``.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.vm.program_counter import LaneSnapshot
from repro.vm.snapshot_codec import SnapshotDecodeError


# -- spill stores --------------------------------------------------------------


class SpillStore:
    """Keyed byte storage for serialized lane snapshots.

    The contract is deliberately tiny — :meth:`put`, :meth:`get`,
    :meth:`pop`, ``len()`` — so backends range from a dict to a directory
    to an object store.  Keys are caller-chosen strings (the engine uses
    ``"<request_id>-<preemptions>"``, fleet-unique and deterministic).
    """

    def put(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def get(self, key: str) -> bytes:
        """The stored bytes (``KeyError`` if absent); entry stays stored."""
        raise NotImplementedError

    def pop(self, key: str) -> bytes:
        """Remove and return the stored bytes (``KeyError`` if absent)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        try:
            self.get(key)
        except KeyError:
            return False
        return True


class MemorySpillStore(SpillStore):
    """In-process spill backend: bounded *array* memory, not total memory.

    Spilling to a dict still wins — serialized bytes are compact, and the
    resident cap bounds the number of live array sets — and it is the
    default store a ``max_resident_snapshots`` cap creates when none is
    given.
    """

    def __init__(self) -> None:
        self._data: Dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        self._data[key] = bytes(data)

    def get(self, key: str) -> bytes:
        return self._data[key]

    def pop(self, key: str) -> bytes:
        return self._data.pop(key)

    def __len__(self) -> int:
        return len(self._data)


class DiskSpillStore(SpillStore):
    """On-disk spill backend: one file per snapshot under ``directory``.

    Writes are atomic (temp file + ``os.replace``) so a crash mid-spill
    never leaves a torn entry; the codec's CRC catches anything else.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in key)
        return os.path.join(self.directory, f"snap-{safe}.bin")

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)

    def get(self, key: str) -> bytes:
        try:
            with open(self._path(key), "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise KeyError(key) from None

    def pop(self, key: str) -> bytes:
        data = self.get(key)
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass
        return data

    def __len__(self) -> int:
        # The directory is the one source of truth: a store reopened after
        # a restart counts what ``get``/``pop``/``in`` can reach.
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.startswith("snap-") and name.endswith(".bin")
        )


def resolve_spill_store(spec: Any) -> SpillStore:
    """Normalize a spill-store spec: an instance, ``"memory"``/``None``
    for :class:`MemorySpillStore`, or a directory path for
    :class:`DiskSpillStore`."""
    if spec is None or spec == "memory":
        return MemorySpillStore()
    if isinstance(spec, SpillStore):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        return DiskSpillStore(os.fspath(spec))
    raise TypeError(
        f"spill_store must be a SpillStore, 'memory', or a directory "
        f"path, got {type(spec).__name__}"
    )


class SpilledSnapshot:
    """Queue-resident stub for a snapshot whose arrays left process memory.

    Keeps the scheduling-visible surface of a live
    :class:`~repro.vm.program_counter.LaneSnapshot` — the ``pc`` (what
    resume re-batching and pc-cohort scheduling read) — plus the store
    key needed to get the arrays back.  ``spilled = True`` is the duck
    type the queue's residency accounting checks.

    The stub carries its own store reference, so a handle stolen onto
    another shard rehydrates from wherever it was spilled.
    """

    spilled = True

    __slots__ = ("pc", "key", "store")

    def __init__(self, pc: int, key: str, store: SpillStore):
        self.pc = int(pc)
        self.key = key
        self.store = store

    def load(
        self,
        program: Any,
        *,
        facts: Any = None,
        max_stack_depth: Optional[int] = None,
    ) -> LaneSnapshot:
        """Rehydrate: fetch, remove, and decode the spilled bytes.

        Decoding runs the full static admission
        (:func:`~repro.vm.snapshot_codec.decode_snapshot`); unreadable or
        corrupt entries raise
        :class:`~repro.vm.snapshot_codec.SnapshotDecodeError` — a
        ``ValueError`` the engine's resume path turns into a single failed
        handle, never a crashed tick loop.
        """
        try:
            data = self.store.pop(self.key)
        except KeyError as error:
            raise SnapshotDecodeError(
                f"spilled snapshot {self.key!r} is missing from its spill "
                "store; the entry was lost or already consumed"
            ) from error
        except OSError as error:
            raise SnapshotDecodeError(
                f"spilled snapshot {self.key!r} could not be read back: "
                f"{error}"
            ) from error
        return LaneSnapshot.from_bytes(
            data, program, facts=facts, max_stack_depth=max_stack_depth
        )

    def __repr__(self) -> str:
        return f"SpilledSnapshot(pc={self.pc}, key={self.key!r})"


# -- journal -------------------------------------------------------------------


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    array = np.asarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(record: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(record["data"])
    flat = np.frombuffer(raw, dtype=np.dtype(record["dtype"]))
    return flat.reshape(tuple(record["shape"])).copy()


class Journal:
    """Append-only admission journal: the durable record a fleet replays.

    Three record types, one JSON object per line when backed by a file:

    * ``config`` — written once, when a server (a whole fleet, not each
      shard) attaches: the schedule-determining part of its
      :class:`~repro.serve.config.ServeConfig`, which :func:`recover`
      checks the caller's options against and rebuilds from when they are
      omitted.
    * ``submit`` — every accepted request: id, arrival tick, priority,
      step budget, deadline, and the input arrays (base64, bit-exact).
      Ticks are logical, so the schedule replays exactly (this also
      persists the arrival schedule the async front door records).
    * ``complete`` — a request finished (or failed), so recovery knows
      what is unfinished without re-deriving it.

    Readers skip any other record type, so journals that older versions
    wrote with ``checkpoint`` lines still load and recover.

    ``Journal(path)`` starts a new run and refuses a non-empty existing
    file (``FileExistsError``): appending a second run would collide its
    request ids with the first's.  To continue a journal, open it with
    :meth:`load`.

    In-memory records and the optional file never diverge: every record
    is appended to both, and records are stored JSON-ready so a journal
    loaded from disk behaves exactly like one that never left memory.
    """

    def __init__(self, path: Optional[Any] = None):
        self.path = None if path is None else os.fspath(path)
        self.entries: List[Dict[str, Any]] = []
        if path is not None and os.path.isfile(path) and os.path.getsize(path):
            raise FileExistsError(
                f"journal {self.path!r} already holds a run; continue it "
                f"with Journal.load({self.path!r}), or pass a fresh path"
            )

    # -- recording (engine-side) --------------------------------------------

    def _append(self, entry: Dict[str, Any]) -> None:
        self.entries.append(entry)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(json.dumps(entry, sort_keys=True))
                f.write("\n")

    def record_config(self, record: Dict[str, Any]) -> None:
        """Open the journal with a server's schedule record (once: a
        journal that already has one keeps it)."""
        if self.config() is None:
            self._append({"type": "config", **record})

    def record_submit(self, handle: Any) -> None:
        request = handle.request
        self._append({
            "type": "submit",
            "tick": int(request.submit_tick),
            "request_id": int(request.request_id),
            "priority": int(request.priority),
            "step_budget": (
                None if request.step_budget is None else int(request.step_budget)
            ),
            "deadline_ticks": (
                None
                if request.deadline_ticks is None
                else int(request.deadline_ticks)
            ),
            "inputs": [_encode_array(x) for x in request.inputs],
        })

    def record_complete(
        self, request_id: int, tick: int, failed: bool = False
    ) -> None:
        self._append({
            "type": "complete",
            "tick": int(tick),
            "request_id": int(request_id),
            "failed": bool(failed),
        })

    # -- reading (recovery-side) --------------------------------------------

    def config(self) -> Optional[Dict[str, Any]]:
        """The ``config`` record (None for a journal written without one)."""
        return next((e for e in self.entries if e["type"] == "config"), None)

    def submissions(self) -> List[Dict[str, Any]]:
        """All ``submit`` records, in admission order."""
        return [e for e in self.entries if e["type"] == "submit"]

    def completed_ids(self) -> set:
        return {
            e["request_id"] for e in self.entries if e["type"] == "complete"
        }

    def unfinished(self) -> List[Dict[str, Any]]:
        """Submits with no matching ``complete`` — the crash's lost work."""
        done = self.completed_ids()
        return [e for e in self.submissions() if e["request_id"] not in done]

    # -- persistence ---------------------------------------------------------

    def save(self, path: Any) -> None:
        """Write every record to ``path`` (and journal there from now on)."""
        self.path = os.fspath(path)
        with open(self.path, "w", encoding="utf-8") as f:
            for entry in self.entries:
                f.write(json.dumps(entry, sort_keys=True))
                f.write("\n")

    @classmethod
    def load(cls, path: Any) -> "Journal":
        """Read a journal file back, repairing a torn final line.

        A crash can interrupt the append of the last record; that partial
        line is discarded (the record never durably happened) and cut from
        the file, so records appended from here on start on a line of
        their own.  A malformed line anywhere *else* means real corruption
        and raises.
        """
        journal = cls()
        journal.path = os.fspath(path)
        with open(journal.path, "rb") as f:
            data = f.read()
        lines = data.split(b"\n")
        last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
        offset = 0  # where line i starts in the file
        for i, line in enumerate(lines):
            if line.strip():
                try:
                    journal.entries.append(json.loads(line))
                except ValueError as error:
                    if i < last:
                        raise ValueError(
                            f"journal {journal.path!r} line {i + 1} is "
                            f"corrupt: {error}"
                        ) from error
                    with open(journal.path, "r+b") as f:
                        f.truncate(offset)  # the torn tail of the crash
                    break
            offset += len(line) + 1
        else:
            if data and not data.endswith(b"\n"):
                # A whole record whose newline the crash cut off: keep it,
                # and end its line before anything is appended after it.
                with open(journal.path, "ab") as f:
                    f.write(b"\n")
        return journal

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"Journal(path={self.path!r}, submits={len(self.submissions())}, "
            f"completes={len(self.completed_ids())})"
        )


# -- recovery ------------------------------------------------------------------


class RecoveredRun:
    """Outcome of :func:`recover`: the rebuilt server plus every replayed
    handle, keyed by *original* request id.

    Replay resubmits in recorded order through the fresh server's own id
    counter, so the new ids coincide with the originals — the mapping is
    the identity, but callers should still index through ``handles``
    rather than assume it.
    """

    def __init__(self, server: Any, handles: Dict[int, Any], journal: Journal):
        self.server = server
        self.handles = handles
        self.journal = journal

    def results(self) -> Dict[int, Any]:
        """Outputs of every replayed request that completed, by id."""
        return {
            rid: h.result() for rid, h in self.handles.items() if h.state == "done"
        }

    def failures(self) -> Dict[int, BaseException]:
        """Errors of every replayed request that failed, by id."""
        return {
            rid: h.exception()
            for rid, h in self.handles.items()
            if h.state == "failed"
        }

    def unfinished_ids(self) -> List[int]:
        """Ids the journal marked incomplete at the crash — the work
        recovery existed to finish."""
        return [e["request_id"] for e in self.journal.unfinished()]

    def __repr__(self) -> str:
        return (
            f"RecoveredRun(requests={len(self.handles)}, "
            f"recovered_unfinished={len(self.unfinished_ids())})"
        )


def _reconcile(
    header: Dict[str, Any],
    program: Any,
    num_lanes: Optional[int],
    num_engines: Optional[int],
    options: Dict[str, Any],
) -> Tuple[int, Optional[int], Dict[str, Any]]:
    """Fill what the caller omitted from the journal's ``config`` record
    and reject what contradicts it; returns the shape and options to build.

    The configuration is part of what determines the schedule, so a
    retyped option that differs would replay a *different* run and still
    return plausible outputs.  Policies are recorded by ``repr``; an
    omitted one is rebuilt only when a registered name constructs it.
    """
    from repro.serve.cluster import ROUTING_POLICIES, STEAL_POLICIES
    from repro.serve.config import ServeConfig
    from repro.serve.engine import PREEMPT_POLICIES
    from repro.serve.server import configure

    named = {
        "preempt": PREEMPT_POLICIES.values(),
        "policy": ROUTING_POLICIES.values(),
        "steal": STEAL_POLICIES.values(),
        "optimize": (),
    }
    known = {"type", "num_lanes", "num_engines"} | {
        f.name for f in fields(ServeConfig)
    }
    gone = [name for name in header if name not in known]
    if gone:
        raise ValueError(
            f"the journal records {', '.join(gone)}, which this version of "
            "the server no longer has, so it cannot replay that schedule"
        )
    if num_lanes is None:
        num_lanes, num_engines = header["num_lanes"], header["num_engines"]
    options = dict(options)
    for name, recorded in header.items():
        if name in ("type", "num_lanes", "num_engines") or name in options:
            continue
        if name in named and isinstance(recorded, str):
            match = [cls for cls in named[name] if repr(cls()) == recorded]
            if not match:
                raise ValueError(
                    f"the journal records {name}={recorded}, which no "
                    f"registered name rebuilds; pass {name}= to recover()"
                )
            recorded = match[0]
        options[name] = recorded
    plan, config = configure(program, options, num_engines)
    actual = config.schedule_record(num_lanes, num_engines, plan.name)
    for name, recorded in header.items():
        if name != "type" and actual[name] != recorded:
            raise ValueError(
                f"recover() was given {name}={actual[name]!r} but the journal "
                f"was recorded under {name}={recorded!r}; the configuration "
                "is part of the schedule, so the replay would not be the "
                "run that crashed"
            )
    return num_lanes, num_engines, options


def recover(
    journal: Journal,
    /,
    program: Any = None,
    num_lanes: Optional[int] = None,
    *,
    num_engines: Optional[int] = None,
    server: Any = None,
    **options: Any,
) -> RecoveredRun:
    """Rebuild a server and replay ``journal``'s admission schedule.

    Builds a fresh :class:`~repro.serve.engine.Engine` or (with
    ``num_engines=``) :class:`~repro.serve.cluster.Cluster` over
    ``program``, or replays into a caller-built ``server=``.  The serving
    configuration is part of what determines the schedule, and the journal
    opens with it: options passed here are *verified* against that record
    (``ValueError`` naming the first that differs), and whatever is
    omitted — ``num_lanes`` and ``num_engines`` included — is rebuilt
    from it.  A journal without the record (written before it existed) is
    trusted to the caller, who must pass the crashed fleet's options.
    Every journaled submit is re-issued at its recorded logical tick, in
    recorded order, then the server runs to idle.

    The serving stack schedules purely from the logical clock and the
    admission sequence, so the replayed run — including all work the crash
    interrupted — is *bit-identical* to an uninterrupted run of the same
    schedule: same outputs, same per-request step counts, same scheduling
    telemetry.  This is replay-based recovery from tick 0: replaying
    from admission is what makes the bit-identical guarantee
    unconditional, and it is why the journal holds no lane state.

    To journal the recovered run onward, pass a *fresh* ``journal=`` in
    ``options`` — never the one being replayed.
    """
    from repro.serve.cluster import Cluster
    from repro.serve.engine import Engine
    from repro.serve.server import Arrival, replay

    if server is None:
        header = journal.config()
        if program is None or (num_lanes is None and header is None):
            raise ValueError(
                "recover() needs either server= or (program, num_lanes)"
            )
        if options.get("journal") is journal:
            raise ValueError(
                "recover() cannot journal into the journal it is replaying; "
                "pass a fresh Journal to record the recovered run"
            )
        if header is not None:
            num_lanes, num_engines, options = _reconcile(
                header, program, num_lanes, num_engines, options
            )
        if num_engines is None:
            server = Engine(program, num_lanes, **options)
        else:
            server = Cluster(program, num_engines, num_lanes, **options)
    submissions = journal.submissions()
    handles = replay(
        server,
        [
            Arrival(
                entry["tick"],
                tuple(_decode_array(x) for x in entry["inputs"]),
                entry["priority"],
                entry["step_budget"],
                entry["deadline_ticks"],
            )
            for entry in submissions
        ],
        front_door=False,
    )
    return RecoveredRun(
        server=server,
        handles={e["request_id"]: h for e, h in zip(submissions, handles)},
        journal=journal,
    )
