"""`repro.obs`: tracing, metrics, logs, and SLOs for the solver stack.

Five pieces:

- :mod:`repro.obs.tracer` — span tracer emitting Chrome trace-event
  JSONL (Perfetto / ``chrome://tracing`` loadable), activated by
  ``REPRO_TRACE=<path>``, ``tracer=`` kwargs, or :func:`trace_to`;
  a shared no-op singleton when off. Request-scoped trace ids ride a
  contextvar (:func:`trace_context`) and are stamped into every span,
  so one served request is traceable across the HTTP edge, the job
  queue, shard stages, and forked backend workers.
- :mod:`repro.obs.metrics` — counters / gauges / histograms (labels
  and fixed buckets optional), one registry per tracer, renderable in
  the Prometheus text exposition format.
- :mod:`repro.obs.log` — structured JSONL event log with trace-id
  correlation, activated by ``REPRO_LOG=<path>`` / :func:`log_to`.
- :mod:`repro.obs.slo` — sliding-window p99-latency / error-rate
  targets; the serving tier's ``/health`` turns degraded verdicts into
  HTTP 503.
- :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``
  turns a trace into per-stage, per-primitive, per-lane, and
  per-fault summaries (``--trace-id`` stitches one request's
  cross-process tree); ``--json`` prints the same summary as JSON.

Plus :mod:`repro.obs.rss`, the peak-RSS sampler
(:func:`run_with_peak_rss`).

The load-bearing invariant (tested): observability never perturbs
results. Seeded solver and shard outputs are byte-identical with
tracing on, off, and under fault injection — instrumentation observes
timing, never touches data or randomness.
"""

from repro.obs.log import (
    LOG_ENV,
    NULL_LOG,
    EventLog,
    NullLog,
    current_log,
    log_to,
    read_log,
    set_log,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.rss import rss_mib, run_with_peak_rss
from repro.obs.slo import SloEvaluator, SloStatus, SloTarget, grade_report
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_ENV,
    NullTracer,
    Tracer,
    current_trace_id,
    current_tracer,
    new_trace_id,
    set_trace_id,
    set_tracer,
    trace_context,
    trace_to,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "EventLog",
    "Gauge",
    "Histogram",
    "LOG_ENV",
    "MetricsRegistry",
    "NULL_LOG",
    "NULL_TRACER",
    "NullLog",
    "NullTracer",
    "SloEvaluator",
    "SloStatus",
    "SloTarget",
    "TRACE_ENV",
    "Tracer",
    "current_log",
    "current_trace_id",
    "current_tracer",
    "grade_report",
    "log_to",
    "new_trace_id",
    "parse_prometheus_text",
    "read_log",
    "render_prometheus",
    "rss_mib",
    "run_with_peak_rss",
    "set_log",
    "set_trace_id",
    "set_tracer",
    "trace_context",
    "trace_to",
]
