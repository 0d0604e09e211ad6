"""Per-request event tracing on the logical clock.

Every scheduling decision the serving stack makes about a request —
admission, injection into a lane, preemption, cross-shard migration,
completion — is recorded as a :class:`TraceEvent` stamped with the
*logical* tick at which it happened.  Because the clock is logical and
the engine/cluster loops are deterministic, two identical runs produce
identical event streams, byte for byte, which makes traces diffable and
replayable in a way wall-clock traces never are.

Three consumers are supported:

* ``ResultHandle.trace()`` — one request's causal timeline (the answer
  to "what happened to request 4217?").
* :meth:`Tracer.export_chrome_trace` — the whole run in Chrome trace
  event format, openable in ``chrome://tracing`` or Perfetto.
* :func:`validate_timeline` — a state machine asserting each timeline is
  well-formed (submit first, exactly one terminal event, evictions and
  resumes balanced); the property tests drive every generated schedule
  through it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

#: Every event kind the serving stack can emit, in no particular order.
#: ``reject`` never carries a request id (the handle is refused before one
#: is associated with the trace); every other kind does.
EVENT_KINDS = (
    "submit",    # request entered a queue (engine or cluster admission)
    "arrive",    # request crossed the async front door (wall-clock arrival)
    "reject",    # request refused at admission (bounded queue full)
    "inject",    # request seated into a machine lane
    "preempt",   # running request evicted to a snapshot
    "resume",    # evicted request restored into a lane
    "spill",     # evicted request's queued snapshot moved to the spill store
    "steal",     # queued/evicted request moved to another shard's queue
    "migrate",   # evicted request's snapshot carried across shards
    "deadline",  # request finished past its deadline (precedes terminal)
    "complete",  # terminal: result resolved
    "fail",      # terminal: budget exceeded / trap / failed restore
)

_TERMINAL = ("complete", "fail")


@dataclass(frozen=True)
class TraceEvent:
    """One scheduling decision, stamped with the logical tick.

    ``src`` is the *source* shard for cross-shard events (``steal``,
    ``migrate``); ``shard`` is always where the request ended
    up.  Lane ids are only meaningful for events that touch a lane
    (``inject``, ``preempt``, ``resume``, ``complete``, ``fail``).
    """

    tick: int
    kind: str
    request_id: Optional[int] = None
    shard: Optional[int] = None
    lane: Optional[int] = None
    priority: Optional[int] = None
    src: Optional[int] = None

    def as_dict(self) -> Dict[str, Union[int, str]]:
        """Compact dict form: ``None`` fields are omitted."""
        out: Dict[str, Union[int, str]] = {"tick": self.tick, "kind": self.kind}
        for key in ("request_id", "shard", "lane", "priority", "src"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


class Tracer:
    """Ordered, indexed recorder of serving events.

    Events are appended in the order the engine/cluster loops emit them,
    which — on the logical clock — is itself deterministic.  An index by
    request id supports per-handle timelines without scanning.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._by_request: Dict[int, List[TraceEvent]] = {}
        self._counts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        kind: str,
        tick: int,
        request_id: Optional[int] = None,
        shard: Optional[int] = None,
        lane: Optional[int] = None,
        priority: Optional[int] = None,
        src: Optional[int] = None,
    ) -> TraceEvent:
        """Append one event; returns it (mostly for tests)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        event = TraceEvent(
            tick=int(tick),
            kind=kind,
            request_id=request_id,
            shard=shard,
            lane=lane,
            priority=priority,
            src=src,
        )
        self.events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if request_id is not None:
            self._by_request.setdefault(request_id, []).append(event)
        return event

    def events_for(self, request_id: int) -> List[TraceEvent]:
        """One request's causal timeline, in emission order."""
        return list(self._by_request.get(request_id, ()))

    def request_ids(self) -> List[int]:
        """Every request id that produced at least one event, sorted."""
        return sorted(self._by_request)

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        return self._counts.get(kind, 0)

    def counts(self) -> Dict[str, int]:
        """Event counts by kind (only kinds that occurred), sorted keys."""
        return {k: self._counts[k] for k in sorted(self._counts)}

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dict of the raw event stream."""
        return {
            "counts": self.counts(),
            "events": [e.as_dict() for e in self.events],
        }

    # -- Chrome trace export ----------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The run in Chrome trace event format (logical ticks as ``ts``).

        Three layers are derived from the raw stream:

        * an instant event (``ph="i"``) per raw event, so every decision
          is visible on the timeline;
        * a complete span (``ph="X"``) per lane-residency interval —
          opened at ``inject``/``resume``, closed at the next
          ``preempt``/``complete``/``fail`` — showing how long each
          request actually held a lane;
        * an async begin/end pair (``ph="b"``/``"e"``, ``id`` = request
          id) spanning submit → terminal, showing end-to-end latency.

        ``pid`` is the shard (0 for a single engine), ``tid`` the lane.
        """
        trace_events: List[Dict[str, object]] = []
        open_runs: Dict[int, TraceEvent] = {}
        for event in self.events:
            pid = 0 if event.shard is None else event.shard
            tid = 0 if event.lane is None else event.lane
            args: Dict[str, int] = {}
            if event.request_id is not None:
                args["request_id"] = event.request_id
            if event.priority is not None:
                args["priority"] = event.priority
            if event.src is not None:
                args["src_shard"] = event.src
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": "serve",
                    "ph": "i",
                    "s": "p",
                    "ts": event.tick,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            rid = event.request_id
            if rid is None:
                continue
            if event.kind == "submit":
                trace_events.append(
                    {
                        "name": f"request {rid}",
                        "cat": "request",
                        "ph": "b",
                        "id": rid,
                        "ts": event.tick,
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
            elif event.kind in ("inject", "resume"):
                open_runs[rid] = event
            elif event.kind in ("preempt",) + _TERMINAL:
                start = open_runs.pop(rid, None)
                if start is not None:
                    trace_events.append(
                        {
                            "name": f"run {rid}",
                            "cat": "lane",
                            "ph": "X",
                            "ts": start.tick,
                            "dur": max(event.tick - start.tick, 0),
                            "pid": 0 if start.shard is None else start.shard,
                            "tid": 0 if start.lane is None else start.lane,
                            "args": {"request_id": rid, "ended_by": event.kind},
                        }
                    )
                if event.kind in _TERMINAL:
                    trace_events.append(
                        {
                            "name": f"request {rid}",
                            "cat": "request",
                            "ph": "e",
                            "id": rid,
                            "ts": event.tick,
                            "pid": pid,
                            "tid": tid,
                            "args": {"outcome": event.kind},
                        }
                    )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "logical ticks"},
        }

    def export_chrome_trace(self, path: Union[str, "os.PathLike[str]"]) -> Dict[str, object]:
        """Write :meth:`chrome_trace` to ``path``; returns the document.

        Serialization is canonical (sorted keys, fixed separators) so two
        identical runs produce byte-identical files.
        """
        doc = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        return doc


def validate_chrome_trace(doc: Union[Dict[str, object], str, "os.PathLike[str]"]) -> int:
    """Check a document against the Chrome trace event schema.

    Accepts the dict itself or a path to a JSON file.  Verifies the
    ``traceEvents`` envelope and, per event, ``name``/``ph``/``ts``
    (plus ``dur`` on complete spans and ``id`` on async events).
    Returns the number of events; raises ``ValueError`` on violation.
    """
    if not isinstance(doc, dict):
        with open(doc) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("chrome trace must be an object with a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"traceEvents[{i}] missing {key!r}")
        if not isinstance(event["name"], str) or not isinstance(event["ph"], str):
            raise ValueError(f"traceEvents[{i}] name/ph must be strings")
        if event["ph"] not in ("B", "E", "X", "i", "I", "b", "e", "n", "C", "M"):
            raise ValueError(f"traceEvents[{i}] has unknown phase {event['ph']!r}")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"traceEvents[{i}] ts must be numeric")
        if event["ph"] == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                raise ValueError(f"traceEvents[{i}] complete span needs dur >= 0")
        if event["ph"] in ("b", "e", "n") and "id" not in event:
            raise ValueError(f"traceEvents[{i}] async event needs an id")
    return len(events)


def validate_timeline(events: Sequence[TraceEvent]) -> str:
    """Assert one request's timeline is well-formed; return its terminal.

    The contract checked (and relied on by the property tests):

    * the first event is ``submit`` and ticks never decrease;
    * exactly one terminal event (``complete`` or ``fail``), last;
    * lane residency alternates correctly: ``inject`` only from the
      queue, ``preempt`` only while running, ``resume`` only while
      evicted, so evictions and resumes are balanced on the ``complete``
      path (a ``fail`` may strand one eviction — a failed restore);
    * cross-shard moves only happen off-lane: ``steal``/``drain`` while
      queued or evicted, ``migrate`` only while evicted (it is the
      snapshot that migrates); ``spill`` only while evicted too (it is
      the snapshot that leaves memory);
    * ``arrive`` (the async front door logging a wall-clock arrival)
      only while queued — it trails the ``submit`` at the same tick;
      ``deadline`` (an SLO miss marker) only while running, immediately
      before the terminal event.

    Raises ``ValueError`` with a pinpointed message on any violation.
    """
    if not events:
        raise ValueError("empty timeline")
    first = events[0]
    if first.kind != "submit":
        raise ValueError(f"timeline starts with {first.kind!r}, not submit")
    rid = first.request_id
    state = "queued"
    last_tick = first.tick
    preempts = resumes = 0
    terminal: Optional[str] = None
    for event in events[1:]:
        if event.request_id != rid:
            raise ValueError(f"foreign event for request {event.request_id} in {rid}'s timeline")
        if event.tick < last_tick:
            raise ValueError(f"time went backwards at {event.kind} (tick {event.tick} < {last_tick})")
        last_tick = event.tick
        if terminal is not None:
            raise ValueError(f"{event.kind} after terminal {terminal}")
        kind = event.kind
        if kind == "inject":
            if state != "queued":
                raise ValueError(f"inject while {state}")
            state = "running"
        elif kind == "preempt":
            if state != "running":
                raise ValueError(f"preempt while {state}")
            state = "evicted"
            preempts += 1
        elif kind == "resume":
            if state != "evicted":
                raise ValueError(f"resume while {state}")
            state = "running"
            resumes += 1
        elif kind == "steal":
            if state not in ("queued", "evicted"):
                raise ValueError(f"steal while {state}")
        elif kind in ("migrate", "spill"):
            if state != "evicted":
                raise ValueError(f"{kind} while {state}")
        elif kind == "arrive":
            if state != "queued":
                raise ValueError(f"arrive while {state}")
        elif kind == "deadline":
            if state != "running":
                raise ValueError(f"deadline while {state}")
        elif kind == "complete":
            if state != "running":
                raise ValueError(f"complete while {state}")
            terminal = kind
        elif kind == "fail":
            if state not in ("running", "evicted"):
                raise ValueError(f"fail while {state}")
            terminal = kind
        elif kind == "submit":
            raise ValueError("duplicate submit")
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    if terminal is None:
        raise ValueError("timeline has no terminal event")
    if terminal == "complete" and preempts != resumes:
        raise ValueError(f"unbalanced evictions: {preempts} preempts vs {resumes} resumes")
    if resumes > preempts:
        raise ValueError(f"{resumes} resumes exceed {preempts} preempts")
    return terminal
