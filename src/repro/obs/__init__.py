"""Deterministic run telemetry.

Observability for the repro stack, in four pieces — all disabled by
default, all proven (by the byte-identity suite) to never perturb a
run's artifacts:

* :class:`~repro.obs.hub.MetricsHub` — sim-time counters and
  engine-scheduled periodic samplers producing deterministic time
  series of per-port queue depth and per-link utilisation, and counts
  of bytes sent and drops.  It only reads: ports count what they send
  and drop (:mod:`repro.sim.port`), and the hot path never calls it.
* :class:`~repro.obs.spans.SpanRecorder` — wall-clock phase/span
  tracing around the experiment pipeline, exported as Chrome trace
  event JSON (loadable in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.events` — the cluster's append-only JSONL event log
  (claim/ack/fail/heartbeat/lease-expiry/reclaim), written by
  :class:`~repro.cluster.queue.JobQueue` inside its transactions and
  surfaced by ``repro tail``.
* :class:`~repro.obs.flight.FlightRecorder` — a bounded ring buffer of
  recent engine events for post-mortem of hung or crashed legs,
  attached to worker failure records and dumpable via ``SIGUSR1``.

The determinism contract is spelled out in ``docs/observability.md``:
sampler ticks ride the engine heap but are excluded from every
accounting surface, telemetry lives in the artifact's non-canonical
``obs`` section, sampler callbacks must be pure readers (every
experiment's bytes are compared with telemetry on and off by
``test_run_bytes_identical_with_obs_on_and_off``), and the hub — which
reaches a run's networks through its
:class:`~repro.core.store.RunContext`, and which no network or port
holds — never observes a prerequisite build and never rides in a
snapshot.
"""

from repro.obs.events import (
    EVENTS_FILENAME,
    append_events,
    events_path,
    follow_events,
    format_event,
    read_events,
)
from repro.obs.flight import FlightRecorder
from repro.obs.hub import MetricsHub
from repro.obs.spans import (
    SPANS,
    SpanRecorder,
    append_span_record,
    chrome_trace_document,
    read_span_records,
    spans_path,
    write_chrome_trace,
)

__all__ = [
    "EVENTS_FILENAME",
    "FlightRecorder",
    "MetricsHub",
    "SPANS",
    "SpanRecorder",
    "append_events",
    "append_span_record",
    "chrome_trace_document",
    "events_path",
    "follow_events",
    "format_event",
    "read_events",
    "read_span_records",
    "spans_path",
    "write_chrome_trace",
]
