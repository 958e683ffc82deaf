"""repro.obs — the telemetry stream, metrics, manifests, and its folds.

A *leaf* package: stdlib-only, imported freely from ``repro.core``,
``repro.exec``, and ``repro.experiments`` without creating layering
violations (lint rule R004) or import cycles.  The simulator reaches
observability only through the metrics registry: the stream and its
folds sit *above* it (they consume its outputs), so R004 forbids
``repro.sim`` from importing them.

* :mod:`repro.obs.live` — the one NDJSON record stream of a traced run:
  its schema and validator, the ambient publishers (host spans, job
  lifecycle, windows, decisions, profiling frames), and the parent-side
  collector that is its only writer.
* :mod:`repro.obs.metrics` — ambient counters/gauges, with
  cross-process ``merge()`` for worker snapshots.
* :mod:`repro.obs.chrome` — fold: Chrome trace-event export for Perfetto.
* :mod:`repro.obs.summarize` — fold: offline ``repro trace summarize``.
* :mod:`repro.obs.dashboard` — fold: live TTY dashboard / ``repro watch``.
* :mod:`repro.obs.manifest` — per-run provenance manifests.
* :mod:`repro.obs.io` — atomic file publication and JSONL reading.
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.dashboard import Dashboard, LiveState, render_lines, watch
from repro.obs.io import JsonlAppender, atomic_write_text, read_jsonl
from repro.obs.live import (
    LIVE_SCHEMA,
    LIVE_SCHEMA_VERSION,
    LiveHub,
    NullPublisher,
    QueuePublisher,
    STREAM_FILENAME,
    get_publisher,
    live_header,
    load_live,
    parse_live,
    profile_frames,
    result_records,
    set_publisher,
    validate_live_record,
)
from repro.obs.manifest import (
    MANIFEST_FILENAME,
    REQUIRED_FIELDS,
    RunManifest,
    config_fingerprint,
    git_revision,
    validate_manifest,
)
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.summarize import (
    decision_log,
    job_stats,
    resolve_trace_path,
    span_totals,
    stream_stats,
    summarize,
    summary_data,
    window_timelines,
)

__all__ = [
    "Dashboard",
    "JsonlAppender",
    "LIVE_SCHEMA",
    "LIVE_SCHEMA_VERSION",
    "LiveHub",
    "LiveState",
    "MANIFEST_FILENAME",
    "MetricsRegistry",
    "NullPublisher",
    "QueuePublisher",
    "REQUIRED_FIELDS",
    "RunManifest",
    "STREAM_FILENAME",
    "atomic_write_text",
    "chrome_trace",
    "config_fingerprint",
    "decision_log",
    "get_metrics",
    "get_publisher",
    "git_revision",
    "job_stats",
    "live_header",
    "load_live",
    "parse_live",
    "profile_frames",
    "read_jsonl",
    "render_lines",
    "resolve_trace_path",
    "result_records",
    "set_metrics",
    "set_publisher",
    "span_totals",
    "stream_stats",
    "summarize",
    "summary_data",
    "validate_live_record",
    "validate_manifest",
    "watch",
    "window_timelines",
    "write_chrome_trace",
]
