"""Unified observability layer: spans, metrics and run exports.

One simulated timeline, recorded as two views on the same device clock
so every export is engine-comparable and byte-deterministic:

* :mod:`repro.obs.span` — the nested span tree the driver records for
  every run (``acspgemm`` → ``setup`` / ``estimate`` / ``esc`` /
  ``merge`` / ``output``);
* :mod:`repro.obs.device` — the opt-in device trace: one record per
  kernel launch, device-wide pass and restart round trip, with per-SM
  block placements and counter attribution.

Both are written by :mod:`repro.obs.ledger` — the launch ledger each
driver reports every launch, device-wide pass and restart to, once.

Built on those two:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, aggregating
  traffic counters, per-stage cycles, restart/degradation counts and
  pool high-water marks into JSON and Prometheus text exports;
* :mod:`repro.obs.export` — the one Perfetto builder (spans + device
  trace) with its validator;
* :mod:`repro.obs.analyze` — the ``repro analyze`` instrumented run: the
  Fig. 7 stage report, the paper-figure reports and the gate metrics;
* :mod:`repro.obs.trace` / :mod:`repro.obs.flight` — the cross-process
  request-tracing layer (deterministic ids, ``traceparent``
  propagation) and the adaptive-selector flight recorder.
"""

from .device import BlockEvent, BlockMeta, DeviceRecord, DeviceTrace
from .export import (
    parse_prometheus_text,
    perfetto_payload,
    routing_events,
    sanitize_label_name,
    sanitize_metric_name,
    validate_perfetto,
    validate_perfetto_file,
    write_perfetto,
)
from .flight import (
    FlightRecorder,
    get_flight_recorder,
    install_flight_recorder,
    read_flight_events,
)
from .metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from .span import Span, SpanEvent, SpanRecorder
from .trace import (
    RequestTrace,
    TraceContext,
    TraceSpan,
    TraceStore,
    current_span,
    current_trace,
    current_trace_attrs,
    derive_span_id,
    derive_trace_id,
    payload_fingerprint,
    trace_note,
    use_trace,
)


def __getattr__(name):
    if name in ("AnalysisReport", "analyze_result", "render_html"):
        from . import analyze

        return getattr(analyze, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "MetricsRegistry",
    "BlockEvent",
    "BlockMeta",
    "DeviceRecord",
    "DeviceTrace",
    "AnalysisReport",
    "analyze_result",
    "render_html",
    "parse_prometheus_text",
    "sanitize_label_name",
    "sanitize_metric_name",
    "perfetto_payload",
    "routing_events",
    "write_perfetto",
    "validate_perfetto",
    "validate_perfetto_file",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "RequestTrace",
    "TraceContext",
    "TraceSpan",
    "TraceStore",
    "current_span",
    "current_trace",
    "current_trace_attrs",
    "derive_span_id",
    "derive_trace_id",
    "payload_fingerprint",
    "trace_note",
    "use_trace",
    "FlightRecorder",
    "get_flight_recorder",
    "install_flight_recorder",
    "read_flight_events",
]
