"""Metrics aggregation over one or many AC-SpGEMM runs.

The :class:`MetricsRegistry` unifies every quantity the evaluation
section measures — :class:`~repro.gpu.counters.TrafficCounters`
snapshots, per-stage simulated cycles (Fig. 7), restart and degradation
counts (Table 3), chunk-pool high-water marks (Fig. 8) and span cycle
sums — behind one deterministic store that exports both JSON and
Prometheus text format.

Counters accumulate across :meth:`record_result` calls; high-water
gauges take the maximum (``*_high_water``) or minimum (``*_min``) seen,
so a registry can aggregate a whole benchmark campaign.  All exports
are byte-deterministic for a fixed sequence of recorded runs: families
and samples are emitted in sorted order and floats rendered with
``repr``.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

from .export import sanitize_label_name, sanitize_metric_name

__all__ = ["DEFAULT_LATENCY_BUCKETS_MS", "MetricsRegistry"]

_KIND_COUNTER = "counter"
_KIND_GAUGE = "gauge"
_KIND_HISTOGRAM = "histogram"

#: default latency bucket upper bounds in milliseconds (the +Inf bucket
#: is implicit) — fixed so every export is deterministic and two
#: daemons' histograms are mergeable bucket by bucket
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def _render_value(value) -> str:
    """Deterministic number rendering (ints stay integral)."""
    if isinstance(value, bool):  # bools are ints; refuse silently odd output
        raise TypeError("metric values must be numbers, not bool")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def sample_key(name: str, labels: dict) -> str:
    """Canonical sample identity, identical to the Prometheus line head.

    ``repro_stage_cycles_total{stage="ESC"}`` — labels sorted by key.
    Label *names* are sanitized to the exposition grammar (names derived
    from matrix identifiers carry ``-``/``.``); label values only need
    escaping.
    """
    name = sanitize_metric_name(name)
    if not labels:
        return name
    san = {sanitize_label_name(k): v for k, v in labels.items()}
    inner = ",".join(
        f'{k}="{_escape_label(san[k])}"' for k in sorted(san)
    )
    return f"{name}{{{inner}}}"


@dataclass
class _Histogram:
    """One labelled histogram sample: cumulative-exportable buckets.

    ``counts[i]`` is the *per-bucket* (non-cumulative) observation count
    for ``bounds[i]``; ``counts[-1]`` is the +Inf bucket.  Exports emit
    the cumulative form.  ``exemplars`` maps a bucket index to the most
    recent exemplar observed in it (OpenMetrics-style: a label set —
    typically a trace id — plus the observed value).
    """

    bounds: tuple
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0
    exemplars: dict[int, dict] = field(default_factory=dict)

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        idx = bisect.bisect_left(self.bounds, value)
        self.counts[idx] += 1
        self.sum += value
        self.count += 1
        if exemplar:
            self.exemplars[idx] = {
                "labels": {str(k): str(v) for k, v in sorted(exemplar.items())},
                "value": float(value),
            }

    def cumulative(self) -> list[int]:
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out


@dataclass
class _Family:
    """One metric family: a kind, a help string and labelled samples."""

    name: str
    kind: str
    help: str = ""
    samples: dict[str, float] = field(default_factory=dict)
    labels_of: dict[str, dict] = field(default_factory=dict)
    #: (name, str(value)) of the const labels then the call's labels ->
    #: sample key
    key_of: dict[tuple, str] = field(default_factory=dict)
    #: histogram-kind families only: fixed bucket bounds + per-label-set
    #: histogram state
    bounds: tuple | None = None
    hists: dict[str, _Histogram] = field(default_factory=dict)


class MetricsRegistry:
    """Deterministic counter/gauge store with JSON and Prometheus export.

    ``const_labels`` are merged into every sample — ``repro analyze``
    uses this to label everything with the engine that produced it.

    The registry is thread-safe: every update and export serialises on
    one reentrant lock, so the serve daemon's executor threads can fold
    results into a shared registry while ``/metrics`` scrapes it.  The
    single-threaded callers (``repro analyze``, campaign merge) pay one
    uncontended lock acquisition per update — noise next to a run.
    """

    def __init__(self, const_labels: dict | None = None) -> None:
        self._families: dict[str, _Family] = {}
        self.const_labels = dict(const_labels or {})
        self._lock = threading.RLock()

    # -- primitive updates -------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> _Family:
        name = sanitize_metric_name(name)
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name=name, kind=kind, help=help)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    def _sample(self, fam: _Family, labels: dict) -> str:
        # the key reads only the label names and their values' str()
        memo = tuple(
            (k, str(v)) for d in (self.const_labels, labels) for k, v in d.items()
        )
        key = fam.key_of.get(memo)
        if key is None:
            merged = {**self.const_labels, **labels}
            key = fam.key_of[memo] = sample_key(fam.name, merged)
            fam.labels_of.setdefault(key, merged)
        return key

    def inc(self, name: str, value=1, help: str = "", **labels) -> None:
        """Add ``value`` to a monotonic counter sample."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        with self._lock:
            fam = self._family(name, _KIND_COUNTER, help)
            key = self._sample(fam, labels)
            fam.samples[key] = fam.samples.get(key, 0) + value

    def set_max(self, name: str, value, help: str = "", **labels) -> None:
        """High-water gauge: keep the maximum value observed."""
        with self._lock:
            fam = self._family(name, _KIND_GAUGE, help)
            key = self._sample(fam, labels)
            if key not in fam.samples or value > fam.samples[key]:
                fam.samples[key] = value

    def set_min(self, name: str, value, help: str = "", **labels) -> None:
        """Low-water gauge: keep the minimum value observed."""
        with self._lock:
            fam = self._family(name, _KIND_GAUGE, help)
            key = self._sample(fam, labels)
            if key not in fam.samples or value < fam.samples[key]:
                fam.samples[key] = value

    def set(self, name: str, value, help: str = "", **labels) -> None:
        """Plain gauge: last write wins."""
        with self._lock:
            fam = self._family(name, _KIND_GAUGE, help)
            fam.samples[self._sample(fam, labels)] = value

    def observe(
        self,
        name: str,
        value,
        help: str = "",
        buckets: tuple | None = None,
        exemplar: dict | None = None,
        **labels,
    ) -> None:
        """Record one observation into a bounded histogram sample.

        ``buckets`` fixes the family's upper bounds on first use
        (:data:`DEFAULT_LATENCY_BUCKETS_MS` otherwise) and must agree on
        every later call — deterministic bucket layout is what makes the
        export byte-stable.  ``exemplar`` is an optional small label set
        (e.g. ``{"trace_id": ...}``) attached OpenMetrics-style to the
        bucket the observation lands in; the latest exemplar per bucket
        wins.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("histogram observations must be numbers")
        with self._lock:
            fam = self._family(name, _KIND_HISTOGRAM, help)
            if fam.bounds is None:
                fam.bounds = tuple(
                    float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS_MS)
                )
                if list(fam.bounds) != sorted(set(fam.bounds)):
                    raise ValueError("histogram buckets must be increasing")
            elif buckets is not None and tuple(
                float(b) for b in buckets
            ) != fam.bounds:
                raise ValueError(
                    f"metric {name!r} already registered with different "
                    "buckets"
                )
            key = self._sample(fam, labels)
            hist = fam.hists.get(key)
            if hist is None:
                hist = fam.hists[key] = _Histogram(bounds=fam.bounds)
            hist.observe(float(value), exemplar)

    def histogram(self, name: str, **labels) -> dict:
        """Snapshot one histogram sample (raises ``KeyError`` if absent).

        Returns ``{"buckets": {le: cumulative}, "sum": s, "count": n,
        "exemplars": {le: {...}}}`` with ``le`` rendered like the
        Prometheus export (``repr`` floats plus ``"+Inf"``).
        """
        with self._lock:
            fam = self._families[sanitize_metric_name(name)]
            key = sample_key(name, {**self.const_labels, **labels})
            hist = fam.hists[key]
            les = [repr(b) for b in hist.bounds] + ["+Inf"]
            cum = hist.cumulative() or [0] * len(les)
            return {
                "buckets": dict(zip(les, cum)),
                "sum": hist.sum,
                "count": hist.count,
                "exemplars": {
                    les[i]: dict(ex) for i, ex in sorted(hist.exemplars.items())
                },
            }

    def value(self, name: str, **labels):
        """Read one sample (raises ``KeyError`` when absent)."""
        with self._lock:
            fam = self._families[sanitize_metric_name(name)]
            key = sample_key(name, {**self.const_labels, **labels})
            return fam.samples[key]

    # -- aggregation of pipeline results ------------------------------

    def record_result(self, result) -> None:
        """Fold one :class:`~repro.core.acspgemm.AcSpgemmResult` in.

        Holds the registry lock for the whole fold so a concurrent
        export never sees a half-recorded run (the lock is reentrant,
        so the nested ``inc``/``set`` calls re-enter it cheaply).
        """
        with self._lock:
            self._record_result_locked(result)

    def _record_result_locked(self, result) -> None:
        for cname, cval in sorted(result.counters.snapshot().items()):
            self.inc(
                "repro_traffic_total",
                cval,
                help="Raw simulated-device operation counts.",
                counter=cname,
            )
        for stage, cycles in result.stage_cycles.items():
            self.inc(
                "repro_stage_cycles_total",
                cycles,
                help="Simulated cycles per pipeline stage (Fig. 7).",
                stage=stage,
            )
        self.inc("repro_runs_total", 1, help="Multiplications recorded.")
        self.inc(
            "repro_restarts_total",
            result.restarts,
            help="Chunk-pool restart round trips (Table 3).",
        )
        self.inc(
            "repro_degraded_runs_total",
            1 if result.degraded else 0,
            help="Runs recomputed by the global-ESC fallback.",
        )
        if result.failure:
            self.inc(
                "repro_failures_total",
                1,
                help="Unrecoverable pipeline failures by error kind.",
                kind=str(result.failure.get("kind", "unknown")),
            )
        mem = result.memory
        self.set_max(
            "repro_chunk_pool_capacity_bytes_high_water",
            mem.chunk_pool_bytes,
            help="Largest chunk-pool allocation seen (Fig. 8).",
        )
        self.set_max(
            "repro_chunk_pool_used_bytes_high_water",
            mem.chunk_used_bytes,
            help="Largest chunk-pool usage seen (Table 3).",
        )
        self.set_max(
            "repro_helper_bytes_high_water",
            mem.helper_bytes,
            help="Largest helper-structure allocation seen.",
        )
        self.set(
            "repro_output_bytes", mem.output_bytes,
            help="Output matrix bytes of the last run.",
        )
        self.set(
            "repro_output_nnz", result.matrix.nnz,
            help="Output non-zeros of the last run.",
        )
        self.set_max(
            "repro_chunks_high_water", result.n_chunks,
            help="Most chunks allocated by one run.",
        )
        self.set_max(
            "repro_blocks_high_water", result.n_blocks,
            help="Most ESC blocks launched by one run.",
        )
        self.set_min(
            "repro_multiprocessor_load_min",
            result.multiprocessor_load,
            help="Worst per-kernel multiprocessor load (Table 3 mpL).",
        )
        self.set_min(
            "repro_sm_utilization_min",
            result.sm_utilization,
            help="Worst-case fraction of SM-cycles busy over the "
            "block-level kernel launches.",
        )
        if result.spans is not None:
            # one walk; each name's durations in walk order, so the sums
            # are those of ``Span.cycle_sum``
            durations: dict[str, list] = {}
            for s in result.spans.walk():
                durations.setdefault(s.name, []).append(s.duration)
            for name in sorted(durations):
                self.inc(
                    "repro_span_cycles_total",
                    sum(durations[name]),
                    help="Total simulated cycles per span name.",
                    span=name,
                )
                self.inc(
                    "repro_spans_total",
                    len(durations[name]),
                    help="Spans recorded per span name.",
                    span=name,
                )
        for op, count in sorted(result.engine_stats.items()):
            self.inc(
                "repro_host_ops_total",
                count,
                help="Host-side engine telemetry (engine-specific; "
                "excluded from cross-engine parity).",
                op=op,
            )

    @classmethod
    def from_result(cls, result, **const_labels) -> "MetricsRegistry":
        """Registry holding exactly one run's metrics."""
        reg = cls(const_labels=const_labels or None)
        reg.record_result(result)
        return reg

    # -- export --------------------------------------------------------

    @staticmethod
    def _hist_rows(fam: _Family, key: str) -> list[tuple[str, object, dict | None]]:
        """``(sample_key, value, exemplar)`` rows for one histogram sample.

        Bucket rows come in ascending ``le`` order (cumulative counts),
        followed by ``_sum`` and ``_count`` — the exact layout both
        exports share so JSON and Prometheus always agree.
        """
        hist = fam.hists[key]
        labels = fam.labels_of[key]
        les = [repr(b) for b in hist.bounds] + ["+Inf"]
        cum = hist.cumulative() or [0] * len(les)
        rows: list[tuple[str, object, dict | None]] = []
        for i, (le, c) in enumerate(zip(les, cum)):
            rows.append(
                (
                    sample_key(f"{fam.name}_bucket", {**labels, "le": le}),
                    c,
                    hist.exemplars.get(i),
                )
            )
        rows.append((sample_key(f"{fam.name}_sum", labels), hist.sum, None))
        rows.append((sample_key(f"{fam.name}_count", labels), hist.count, None))
        return rows

    def to_json(self) -> dict:
        """Flat deterministic document: sample key -> value, plus meta."""
        metrics: dict = {}
        meta: dict = {}
        with self._lock:
            for name in sorted(self._families):
                fam = self._families[name]
                meta[name] = {"type": fam.kind, "help": fam.help}
                for key in sorted(fam.samples):
                    metrics[key] = fam.samples[key]
                if fam.kind == _KIND_HISTOGRAM:
                    meta[name]["buckets"] = list(fam.bounds or ())
                    exemplars: dict = {}
                    for key in sorted(fam.hists):
                        for skey, value, ex in self._hist_rows(fam, key):
                            metrics[skey] = value
                            if ex is not None:
                                exemplars[skey] = dict(ex)
                    if exemplars:
                        meta[name]["exemplars"] = exemplars
        return {"metrics": metrics, "meta": meta}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4), sorted and stable.

        Histogram bucket lines carry OpenMetrics-style exemplars
        (``... 5 # {trace_id="..."} 4.2``) where one was recorded;
        :func:`repro.obs.export.parse_prometheus_text` round-trips them.
        """
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                fam = self._families[name]
                if fam.help:
                    lines.append(f"# HELP {name} {fam.help}")
                lines.append(f"# TYPE {name} {fam.kind}")
                for key in sorted(fam.samples):
                    lines.append(f"{key} {_render_value(fam.samples[key])}")
                if fam.kind == _KIND_HISTOGRAM:
                    for key in sorted(fam.hists):
                        for skey, value, ex in self._hist_rows(fam, key):
                            line = f"{skey} {_render_value(value)}"
                            if ex is not None:
                                inner = ",".join(
                                    f'{sanitize_label_name(k)}='
                                    f'"{_escape_label(v)}"'
                                    for k, v in sorted(ex["labels"].items())
                                )
                                line += (
                                    f" # {{{inner}}} "
                                    f"{_render_value(ex['value'])}"
                                )
                            lines.append(line)
        return "\n".join(lines) + "\n"
