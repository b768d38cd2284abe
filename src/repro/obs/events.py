"""Structured event stream: typed events with a JSONL sink.

Every scheduler decision worth auditing becomes one :class:`Event`: a type
from :data:`EVENT_SCHEMA`, a wall-clock timestamp, a monotonically
increasing sequence number, and type-specific fields. Events are buffered
in memory by :class:`EventLog` and serialized one-JSON-object-per-line by
:meth:`EventLog.write_jsonl` (or any file-like sink).

The schema is enforced two ways:

* at emission time, the event *type* must be known and the *required*
  fields present (cheap set checks -- unknown extra fields are allowed so
  call sites can attach context);
* :func:`validate_event` re-validates a decoded JSON object, which is what
  the round-trip tests and downstream consumers use.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, TextIO

from repro.obs.registry import TelemetryError

#: event type -> required field names. Extra fields are always permitted.
EVENT_SCHEMA: Dict[str, frozenset] = {
    # placement lifecycle (emitted by PlacementAlgorithm.place)
    "placement_started": frozenset({"app", "algorithm", "nodes", "links"}),
    "placement_finished": frozenset(
        {
            "app",
            "algorithm",
            "objective_value",
            "reserved_bw_mbps",
            "new_active_hosts",
            "runtime_s",
            "candidates_scored",
            "paths_expanded",
            "paths_pruned",
            "eg_bound_runs",
            "backtracks",
            "restarts",
            "deadline_hit",
        }
    ),
    "placement_failed": frozenset({"app", "algorithm", "error"}),
    # greedy search (EG / EGC / EGBW and the EG bound runs inside BA*/DBA*)
    "node_placed": frozenset({"node", "host", "level"}),
    "backtrack": frozenset({"node", "from_level", "to_level"}),
    "restart": frozenset({"strategy"}),
    "estimate_computed": frozenset(
        {"node", "remaining", "est_bw_mbps", "est_hosts", "seconds"}
    ),
    # A* search (BA* / DBA*)
    "path_expanded": frozenset({"depth", "evaluation", "open_size"}),
    "path_pruned": frozenset({"depth", "reason"}),
    "bound_updated": frozenset({"bound", "source"}),
    "deadline_tick": frozenset(
        {"elapsed_s", "remaining_s", "pruning_range", "pops"}
    ),
    # scheduler lifecycle
    "commit": frozenset({"app", "nodes"}),
    "remove": frozenset({"app"}),
    "rollback": frozenset({"app", "reason"}),
    "reoptimize": frozenset({"app", "improved", "moves", "bounces"}),
    "update_applied": frozenset(
        {"app", "added", "removed", "changed", "moved", "unpin_rounds"}
    ),
    "update_failed": frozenset(
        {"app", "added", "removed", "changed", "unpin_rounds"}
    ),
    # admission service (repro.service)
    "request_enqueued": frozenset({"request", "app", "priority"}),
    "request_admitted": frozenset({"request", "app", "route", "latency_s"}),
    "request_rejected": frozenset({"request", "app", "reason"}),
    "request_expired": frozenset({"request", "app", "waited_s"}),
    "request_cancelled": frozenset({"request", "app"}),
    "batch_drained": frozenset({"batch", "size", "mode"}),
    "batch_fallback": frozenset({"batch", "failed_app", "reason"}),
    "shard_routed": frozenset({"app", "shard", "load"}),
    "escalated": frozenset({"app", "reason"}),
    # runtime adaptation / migration
    "migration_step": frozenset(
        {"app", "node", "to_host", "bounce", "moved_gb"}
    ),
    # autoscaling lifecycle (repro.scaling)
    "scale_out": frozenset({"app", "added"}),
    "scale_in": frozenset({"app", "tier", "removed", "remaining"}),
    "scale_failed": frozenset({"app", "direction"}),
    # continuous defragmentation (repro.defrag)
    "defrag_pass": frozenset({"apps", "moves", "gain"}),
    "defrag_pass_aborted": frozenset({"app", "reason"}),
    "defrag_step_rolled_back": frozenset({"app", "node", "reason"}),
    "defrag_replan": frozenset({"attempt"}),
    # integration surrogates (Heat wrapper, Nova, Cinder)
    "api_call": frozenset({"service", "method"}),
    # fault injection and recovery (repro.faults)
    "fault_injected": frozenset({"kind", "target"}),
    "fault_cleared": frozenset({"kind", "target"}),
    "retry": frozenset({"service", "method", "attempt", "delay_s"}),
    "retries_exhausted": frozenset({"service", "method", "attempts"}),
    "host_evacuated": frozenset({"host", "apps", "moved", "failed"}),
    "degraded": frozenset(
        {"app", "from_algorithm", "to_algorithm", "reason"}
    ),
    # tracing (emitted when a span closes)
    "span": frozenset({"name", "duration_s", "depth"}),
}

#: the JSON envelope every event line carries besides its fields
ENVELOPE_FIELDS = ("type", "ts", "seq")


@dataclass(frozen=True)
class Event:
    """One structured telemetry event."""

    type: str
    ts: float
    seq: int
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to the JSONL wire form (envelope + fields)."""
        out: Dict[str, Any] = {"type": self.type, "ts": self.ts, "seq": self.seq}
        out.update(self.fields)
        return out


def validate_event(obj: Mapping[str, Any]) -> None:
    """Validate one decoded JSONL object against the schema.

    Raises:
        TelemetryError: on a missing envelope field, unknown event type,
            or missing required field.
    """
    for name in ENVELOPE_FIELDS:
        if name not in obj:
            raise TelemetryError(f"event missing envelope field {name!r}")
    etype = obj["type"]
    required = EVENT_SCHEMA.get(etype)
    if required is None:
        raise TelemetryError(f"unknown event type {etype!r}")
    missing = required - obj.keys()
    if missing:
        raise TelemetryError(
            f"event {etype!r} missing required fields {sorted(missing)}"
        )


class EventLog:
    """In-memory buffer of events with a bounded size.

    Args:
        max_events: drop (and count) events beyond this many, protecting
            long sweeps from unbounded memory; None keeps everything.
        clock: timestamp source (defaults to :func:`time.time`).
    """

    def __init__(self, max_events: int | None = 1_000_000, clock=time.time):
        self.events: List[Event] = []
        self.max_events = max_events
        self.dropped = 0
        self._clock = clock
        self._seq = 0

    def emit(self, type: str, **fields) -> None:
        """Record one event; validates type and required fields."""
        required = EVENT_SCHEMA.get(type)
        if required is None:
            raise TelemetryError(f"unknown event type {type!r}")
        missing = required - fields.keys()
        if missing:
            raise TelemetryError(
                f"event {type!r} missing required fields {sorted(missing)}"
            )
        self._seq += 1
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            Event(type=type, ts=self._clock(), seq=self._seq, fields=fields)
        )

    def merge(self, other: "EventLog") -> None:
        """Append another log's events, renumbering ``seq`` to continue
        this log's sequence.

        Timestamps are preserved; the buffer cap still applies, so merged
        events beyond ``max_events`` are counted as dropped. The other
        log's own drop count carries over too, keeping the total honest.
        """
        for event in other.events:
            self._seq += 1
            if (
                self.max_events is not None
                and len(self.events) >= self.max_events
            ):
                self.dropped += 1
                continue
            self.events.append(
                Event(
                    type=event.type,
                    ts=event.ts,
                    seq=self._seq,
                    fields=event.fields,
                )
            )
        self.dropped += other.dropped

    def count(self, type: str | None = None) -> int:
        if type is None:
            return len(self.events)
        return sum(1 for e in self.events if e.type == type)

    def of_type(self, type: str) -> List[Event]:
        return [e for e in self.events if e.type == type]

    def write_jsonl(self, sink: TextIO) -> int:
        """Serialize all buffered events, one JSON object per line.

        Returns the number of lines written.
        """
        n = 0
        for event in self.events:
            sink.write(json.dumps(event.to_dict(), sort_keys=True))
            sink.write("\n")
            n += 1
        return n

    @staticmethod
    def read_jsonl(lines: Iterable[str]) -> List[Dict[str, Any]]:
        """Decode and validate JSONL lines back into event dicts."""
        out = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            validate_event(obj)
            out.append(obj)
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
