"""Recorder facade: what instrumented code calls.

Two implementations share one interface:

* :class:`NullRecorder` -- the default. Every method is a no-op and
  ``enabled`` is False, so hot paths can skip even argument construction
  with ``if rec.enabled:`` guards. A single shared instance exists for the
  whole process; instrumentation adds near-zero overhead when telemetry is
  off.
* :class:`TelemetryRecorder` -- owns a :class:`~repro.obs.registry.Registry`,
  a :class:`~repro.obs.trace.Tracer`, and an
  :class:`~repro.obs.events.EventLog`, and routes every call into all
  three as appropriate.

Call sites never pre-register metrics: :data:`METRIC_CATALOG` carries the
kind, help text, and label names for every ``ostro_*`` metric, and the
recorder materializes them on first use.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.events import EventLog
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Registry,
    TelemetryError,
)
from repro.obs.trace import NULL_SPAN, Tracer

#: name -> (kind, help, labelnames). Kind is "counter" / "gauge" /
#: "histogram". The catalog is the single source of truth for metric
#: metadata; docs/OBSERVABILITY.md renders from the same data.
METRIC_CATALOG: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "ostro_placements_total": (
        "counter",
        "Completed placement runs, by algorithm.",
        ("algorithm",),
    ),
    "ostro_placement_failures_total": (
        "counter",
        "Placement runs that raised, by algorithm.",
        ("algorithm",),
    ),
    "ostro_placement_seconds": (
        "histogram",
        "Wall-clock duration of whole placement runs.",
        ("algorithm",),
    ),
    "ostro_candidates_scored_total": (
        "counter",
        "Candidate (node, host) pairs given the full lower-bound score.",
        (),
    ),
    "ostro_estimates_total": (
        "counter",
        "Lower-bound estimator invocations.",
        (),
    ),
    "ostro_estimate_seconds": (
        "histogram",
        "Duration of one lower-bound estimator invocation.",
        (),
    ),
    "ostro_nodes_expanded_total": (
        "counter",
        "A* search paths popped and expanded.",
        (),
    ),
    "ostro_paths_pruned_total": (
        "counter",
        "A* paths discarded, by reason (bound / probabilistic).",
        ("reason",),
    ),
    "ostro_open_list_size": (
        "gauge",
        "Current size of the A* open queue.",
        (),
    ),
    "ostro_eg_bound_runs_total": (
        "counter",
        "EG upper-bound (re)computations inside BA*/DBA*.",
        (),
    ),
    "ostro_eg_bound_seconds": (
        "histogram",
        "Duration of one EG upper-bound completion run.",
        (),
    ),
    "ostro_backtracks_total": (
        "counter",
        "Greedy dead-end backjumps.",
        (),
    ),
    "ostro_restarts_total": (
        "counter",
        "Greedy restart-cascade strategy switches.",
        (),
    ),
    "ostro_deadline_remaining_seconds": (
        "gauge",
        "Time left in the current deadline-bounded search.",
        (),
    ),
    "ostro_pruning_range": (
        "gauge",
        "DBA*'s probabilistic pruning range r (0 = no pruning).",
        (),
    ),
    "ostro_deadline_hits_total": (
        "counter",
        "Deadline-bounded searches that ran out of time.",
        (),
    ),
    "ostro_commits_total": (
        "counter",
        "Placements committed into the live state.",
        (),
    ),
    "ostro_removes_total": (
        "counter",
        "Applications removed from the live state.",
        (),
    ),
    "ostro_rollbacks_total": (
        "counter",
        "Partially applied commits rolled back.",
        (),
    ),
    "ostro_reoptimizations_total": (
        "counter",
        "Runtime re-optimizations, by outcome (improved / kept).",
        ("outcome",),
    ),
    "ostro_updates_total": (
        "counter",
        "Online topology updates applied.",
        (),
    ),
    "ostro_update_failures_total": (
        "counter",
        "Online topology updates that failed and were rolled back.",
        (),
    ),
    "ostro_migration_steps_total": (
        "counter",
        "Executed migration steps (reoptimize, defrag and consolidation), "
        "by kind (move / bounce).",
        ("kind",),
    ),
    "ostro_migration_moved_gb_total": (
        "counter",
        "Gigabytes (VM memory + volume size) relocated by migrations.",
        (),
    ),
    "ostro_defrag_passes_total": (
        "counter",
        "Background defragmentation passes, by outcome "
        "(completed / aborted).",
        ("outcome",),
    ),
    "ostro_defrag_rollbacks_total": (
        "counter",
        "Migration steps rolled back after a fault mid-step.",
        (),
    ),
    "ostro_defrag_replans_total": (
        "counter",
        "Fresh defrag planning rounds triggered by aborted passes.",
        (),
    ),
    "ostro_defrag_fragmentation_index": (
        "gauge",
        "Fragmentation index (stranded capacity + dispersion) after the "
        "last executed defrag pass.",
        (),
    ),
    "ostro_api_calls_total": (
        "counter",
        "Calls into the integration surrogates (heat / nova / cinder).",
        ("service", "method"),
    ),
    "ostro_faults_injected_total": (
        "counter",
        "Faults injected by a FaultPlan, by kind.",
        ("kind",),
    ),
    "ostro_api_retries_total": (
        "counter",
        "Retried surrogate API calls, by service and method.",
        ("service", "method"),
    ),
    "ostro_retry_backoff_seconds_total": (
        "counter",
        "Total (virtual) backoff delay accumulated across retries.",
        (),
    ),
    "ostro_retries_exhausted_total": (
        "counter",
        "Retried calls that exhausted their attempt or time budget.",
        ("service", "method"),
    ),
    "ostro_hosts_down": (
        "gauge",
        "Hosts currently failed by fault injection.",
        (),
    ),
    "ostro_evacuations_total": (
        "counter",
        "Host evacuations performed after host-down events.",
        (),
    ),
    "ostro_evacuated_nodes_total": (
        "counter",
        "VM/volume nodes re-placed by evacuations, by outcome.",
        ("outcome",),
    ),
    "ostro_degradations_total": (
        "counter",
        "Algorithm degradations (e.g. dba* -> ba*) under failure pressure.",
        ("from_algorithm", "to_algorithm"),
    ),
    "ostro_service_requests_total": (
        "counter",
        "Admission requests decided by the service pipeline, by outcome.",
        ("outcome",),
    ),
    "ostro_service_batches_total": (
        "counter",
        "Batches drained by the admission engine, by mode "
        "(single / joint / fallback).",
        ("mode",),
    ),
    "ostro_service_admission_latency_seconds": (
        "histogram",
        "Virtual-time latency from submission to admission decision.",
        (),
    ),
    "ostro_service_queue_depth": (
        "gauge",
        "Requests waiting in the admission queue after the last drain.",
        (),
    ),
    "ostro_service_escalations_total": (
        "counter",
        "Placements escalated from the pod shards to the global pass, "
        "by reason.",
        ("reason",),
    ),
    "ostro_scaling_evaluations_total": (
        "counter",
        "Autoscaling policy evaluations performed.",
        (),
    ),
    "ostro_scaling_actions_total": (
        "counter",
        "Autoscaling actions applied, by direction (out / in).",
        ("direction",),
    ),
    "ostro_scaling_failures_total": (
        "counter",
        "Autoscaling actions that could not be applied, by direction.",
        ("direction",),
    ),
    "ostro_scaling_vms_total": (
        "counter",
        "Tier members added/removed by autoscaling, by direction "
        "(added / removed).",
        ("direction",),
    ),
    "ostro_scaling_utilization": (
        "gauge",
        "Last measured tier utilization per application.",
        ("app",),
    ),
    "ostro_span_seconds": (
        "histogram",
        "Duration of named trace spans.",
        ("span",),
    ),
    "ostro_events_dropped_total": (
        "counter",
        "Events dropped after the event-log cap was reached.",
        (),
    ),
}


class Recorder:
    """No-op base recorder; also the interface documentation.

    ``enabled`` is the hot-path guard: instrumented code may do real work
    (timing, field construction) only inside ``if rec.enabled:`` blocks.
    """

    enabled: bool = False

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment a counter."""

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge."""

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram observation."""

    def event(self, type: str, **fields) -> None:
        """Emit one structured event."""

    def span(self, name: str, **attrs):
        """Open a trace span (context manager)."""
        return NULL_SPAN


class NullRecorder(Recorder):
    """The disabled recorder: every operation is a no-op."""

    __slots__ = ()


class TelemetryRecorder(Recorder):
    """The live recorder: registry + tracer + event log in one.

    Args:
        max_events: event-log buffer cap (see :class:`EventLog`).
        record_span_events: mirror closing spans into the event stream
            (type ``span``) and the ``ostro_span_seconds`` histogram.
    """

    enabled = True

    def __init__(
        self,
        max_events: Optional[int] = 1_000_000,
        record_span_events: bool = True,
    ):
        self.registry = Registry()
        self.events = EventLog(max_events=max_events)
        self._record_span_events = record_span_events
        self.tracer = Tracer(on_close=self._span_closed)

    # -- metric routing -------------------------------------------------

    def _metric(self, name: str, kind: str):
        entry = METRIC_CATALOG.get(name)
        if entry is not None:
            cat_kind, help, labelnames = entry
            if cat_kind != kind:
                raise TelemetryError(
                    f"metric {name!r} is a {cat_kind}, used as a {kind}"
                )
        else:
            help, labelnames = "", None  # created from first use below
        if kind == "counter":
            return self.registry.counter(
                name, help, labelnames if labelnames is not None else ()
            )
        if kind == "gauge":
            return self.registry.gauge(
                name, help, labelnames if labelnames is not None else ()
            )
        return self.registry.histogram(
            name,
            help,
            labelnames if labelnames is not None else (),
            buckets=DEFAULT_BUCKETS,
        )

    def inc(self, name, value=1.0, **labels):
        entry = METRIC_CATALOG.get(name)
        if entry is None:
            metric = self.registry.counter(name, "", tuple(sorted(labels)))
        else:
            metric = self._metric(name, "counter")
        metric.inc(value, **labels)

    def set_gauge(self, name, value, **labels):
        entry = METRIC_CATALOG.get(name)
        if entry is None:
            metric = self.registry.gauge(name, "", tuple(sorted(labels)))
        else:
            metric = self._metric(name, "gauge")
        metric.set(value, **labels)

    def observe(self, name, value, **labels):
        entry = METRIC_CATALOG.get(name)
        if entry is None:
            metric = self.registry.histogram(name, "", tuple(sorted(labels)))
        else:
            metric = self._metric(name, "histogram")
        metric.observe(value, **labels)

    # -- events and spans -----------------------------------------------

    def event(self, type, **fields):
        self.events.emit(type, **fields)
        if self.events.dropped:
            # keep the registry's view of drops current (cheap: one set)
            self._metric("ostro_events_dropped_total", "counter")._values[
                ()
            ] = float(self.events.dropped)

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)

    def _span_closed(self, span, depth) -> None:
        if not self._record_span_events:
            return
        self.observe(
            "ostro_span_seconds", span.duration_s or 0.0, span=span.name
        )
        reserved = {"name", "duration_s", "depth", "type", "ts", "seq"}
        self.events.emit(
            "span",
            name=span.name,
            duration_s=span.duration_s,
            depth=depth,
            **{k: v for k, v in span.attrs.items() if k not in reserved},
        )

    # -- merging (parallel execution) -----------------------------------

    def merge(self, other: "TelemetryRecorder") -> None:
        """Fold another recorder's registry and events into this one.

        This is how per-worker recorders from :mod:`repro.sim.parallel`
        collapse back into the parent after a process-pool run: counters
        add, gauges take the merged recorder's values (so merging worker
        recorders in cell order reproduces the serial final gauge),
        histograms merge bucket-by-bucket, and events are appended with
        ``seq`` renumbered to continue the parent's sequence. Span trees
        are not merged -- closing spans were already mirrored into the
        event stream and the ``ostro_span_seconds`` histogram, both of
        which do merge. A ``TelemetryRecorder`` is picklable (spans and
        all), so workers can return theirs across the process boundary.
        """
        self.registry.merge(other.registry)
        self.events.merge(other.events)
        if self.events.dropped:
            self._metric("ostro_events_dropped_total", "counter")._values[
                ()
            ] = float(self.events.dropped)

    # -- convenience ----------------------------------------------------

    def summary(self) -> str:
        """Human-readable per-placement search-effort summary."""
        from repro.obs.export import render_summary

        return render_summary(self)

    def clear(self) -> None:
        self.registry = Registry()
        self.events.clear()
        self.tracer.clear()
