"""Distributed request tracing with deterministic ids.

One multiply entering ``repro serve`` (or one campaign cell) becomes a
:class:`RequestTrace`: a rooted tree of :class:`TraceSpan` records that
follows the request through admission-queue wait, cache lookup, the
adaptive selection probe, breaker/fallback transitions, the pipeline
and back.  The design constraints, in order:

**Deterministic ids.**  Trace and span ids never contain wall-clock
time or randomness.  A trace id derives from the request's *content
fingerprint* (the operand matrix fingerprint, or a canonical hash of
the payload when the request never resolves) plus its admission
ordinal; every span id derives from ``(trace_id, parent span id, span
name, per-parent child ordinal)`` via BLAKE2b.  Replaying the same
request sequence therefore reproduces byte-identical ids — the
property ``bench_trace.py`` and CI gate with ``cmp``.  Wall-clock
*durations* are recorded on spans as data (they are what the trace is
for) but never feed id derivation.

**W3C-style propagation.**  The HTTP boundary speaks a
``traceparent``-style header (``00-<trace32>-<span16>-01``): a client
supplied trace id wins (the server joins the caller's trace), while
the server's root span id still derives deterministically.  Campaign
workers receive the explicit ``{"trace_id", "parent_id"}`` pair riding
the existing task pickle and derive their span ids from it with the
same rules.

**Two writer threads, one root.**  The serve handler thread and the
executor thread both write into one trace (a deadline-expired request
is answered by the handler while the executor still finishes the job).
Spans therefore take *explicit* parents rather than an ambient stack,
and the root closes by reference counting: the trace starts with one
reference (the handler) and gains one per hand-off (:meth:`retain`);
the last :meth:`release` closes the root, so every admitted request
yields exactly one rooted, finalized trace — even abandoned ones.

The *simulated-cycle* span trees of :mod:`repro.obs.span` are
untouched (they must stay bit-identical across engines); a finished
pipeline's tree is grafted onto the request trace as a deterministic-id
copy via :meth:`RequestTrace.graft_result`, which also reconciles the
grafted cycle sums against the result's stage counters.
"""

from __future__ import annotations

import hashlib
import math
import re
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "TraceContext",
    "TraceSpan",
    "RequestTrace",
    "TraceStore",
    "current_trace",
    "current_span",
    "current_trace_attrs",
    "use_trace",
    "trace_note",
    "derive_trace_id",
    "derive_span_id",
    "payload_fingerprint",
]

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace>[0-9a-f]{32})"
    r"-(?P<span>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)

#: span names whose grafted copies group per-round leaves (mirrors
#: :data:`repro.obs.analyze.GROUP_SPAN_NAMES`)
_GROUP_SPAN_NAMES = frozenset({"esc", "mm", "pm", "sm"})


def derive_trace_id(content: str, ordinal: int) -> str:
    """32-hex trace id from a content fingerprint and request ordinal."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"repro-trace|{content}|{ordinal}".encode())
    return h.hexdigest()


def derive_span_id(
    trace_id: str, parent_id: str, name: str, ordinal: int
) -> str:
    """16-hex span id: pure function of position in the trace tree."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"repro-span|{trace_id}|{parent_id}|{name}|{ordinal}".encode())
    return h.hexdigest()


def payload_fingerprint(payload: dict) -> str:
    """Canonical content hash of an arbitrary JSON-ish request payload.

    The deterministic fallback identity for requests that never resolve
    to an operand matrix (unknown name, malformed body): same payload,
    same fingerprint.
    """
    import json

    text = json.dumps(payload, sort_keys=True, default=str,
                      separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity pair: which trace, which parent span."""

    trace_id: str  # 32 lowercase hex chars
    span_id: str  # 16 lowercase hex chars

    def to_traceparent(self) -> str:
        """W3C-style header value (version 00, sampled flag)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` on anything malformed."""
        if not header:
            return None
        m = _TRACEPARENT_RE.match(header.strip().lower())
        if m is None:
            return None
        return cls(trace_id=m.group("trace"), span_id=m.group("span"))

    @classmethod
    def for_request(
        cls,
        content: str,
        ordinal: int,
        client: "TraceContext | None" = None,
    ) -> "TraceContext":
        """The root context of one served request.

        A valid client ``traceparent`` wins the trace id (the server
        joins the caller's trace); the root span id always derives
        deterministically from the content hash and ordinal.
        """
        trace_id = client.trace_id if client else derive_trace_id(
            content, ordinal
        )
        parent = client.span_id if client else ""
        return cls(
            trace_id=trace_id,
            span_id=derive_span_id(trace_id, parent, "request", ordinal),
        )


@dataclass
class TraceSpan:
    """One node of a request trace.

    ``t_start``/``t_end`` are host wall-clock marks (``time.monotonic``)
    and may be ``None`` for grafted simulated-cycle spans, which carry
    ``start_cycle``/``end_cycle`` instead.  Neither feeds id derivation.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None  # None only for the root span
    attrs: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # (label, detail) pairs
    t_start: float | None = None
    t_end: float | None = None
    start_cycle: float | None = None
    end_cycle: float | None = None
    status: str = "ok"

    @property
    def open(self) -> bool:
        return self.t_end is None and self.end_cycle is None

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "status": self.status,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "events": [
                {"label": label, "detail": detail}
                for label, detail in self.events
            ],
        }
        if self.t_start is not None:
            doc["t_start"] = self.t_start
            doc["t_end"] = self.t_end
        if self.start_cycle is not None:
            doc["start_cycle"] = self.start_cycle
            doc["end_cycle"] = self.end_cycle
        return doc


class RequestTrace:
    """One request's rooted span tree; thread-safe, explicit parents."""

    def __init__(self, ctx: TraceContext, *, name: str = "request", **attrs):
        self._lock = threading.Lock()
        self.trace_id = ctx.trace_id
        self.root = TraceSpan(
            name=name,
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=None,
            attrs=dict(attrs),
            t_start=time.monotonic(),
        )
        self.spans: list[TraceSpan] = [self.root]
        self._by_id: dict[str, TraceSpan] = {ctx.span_id: self.root}
        self._child_seq: dict[str, int] = {}
        self._pending = 1  # creator's reference; see retain/release
        self.finalized = False
        self.on_finalize = None  # callable(trace), set by the owner

    # -- span lifecycle ----------------------------------------------

    def _next_ordinal(self, parent_id: str) -> int:
        n = self._child_seq.get(parent_id, 0)
        self._child_seq[parent_id] = n + 1
        return n

    def start_span(
        self, name: str, parent: TraceSpan | None = None, **attrs
    ) -> TraceSpan:
        """Open a child span (of the root unless ``parent`` is given)."""
        with self._lock:
            parent = parent or self.root
            ordinal = self._next_ordinal(parent.span_id)
            span = TraceSpan(
                name=name,
                trace_id=self.trace_id,
                span_id=derive_span_id(
                    self.trace_id, parent.span_id, name, ordinal
                ),
                parent_id=parent.span_id,
                attrs=dict(attrs),
                t_start=time.monotonic(),
            )
            self.spans.append(span)
            self._by_id[span.span_id] = span
            return span

    def end_span(self, span: TraceSpan, status: str = "ok", **attrs) -> None:
        with self._lock:
            if span.t_end is None:
                span.t_end = time.monotonic()
            span.status = status
            span.attrs.update(attrs)

    @contextmanager
    def span(self, name: str, parent: TraceSpan | None = None, **attrs):
        """Scoped child span; tags ``status="error"`` on exceptions."""
        s = self.start_span(name, parent=parent, **attrs)
        try:
            yield s
        except BaseException as exc:
            self.end_span(s, status="error", error=repr(exc))
            raise
        else:
            if s.t_end is None:
                self.end_span(s)

    def add_span(
        self,
        name: str,
        parent: TraceSpan | None = None,
        *,
        t_start: float | None = None,
        t_end: float | None = None,
        status: str = "ok",
        **attrs,
    ) -> TraceSpan:
        """A retroactive, already-closed span (measured before opening)."""
        span = self.start_span(name, parent=parent, **attrs)
        with self._lock:
            span.t_start = t_start if t_start is not None else span.t_start
            span.t_end = t_end if t_end is not None else time.monotonic()
            span.status = status
        return span

    def event(self, span: TraceSpan, label: str, detail: str = "") -> None:
        with self._lock:
            span.events.append((label, str(detail)))

    def note_root(self, **attrs) -> None:
        """Merge attrs onto the root span (outcome, status code...)."""
        with self._lock:
            self.root.attrs.update(attrs)

    # -- grafts ------------------------------------------------------

    def graft_result(self, parent: TraceSpan, result) -> dict:
        """Copy a finished pipeline's simulated-cycle span tree under
        ``parent`` with deterministic ids, and reconcile its cycle sums
        against the result's stage counters.

        Returns the reconciliation summary ``{"reconciled": bool,
        "spans": n, "mismatches": [...]}`` and stamps it onto
        ``parent.attrs``.  Degraded results reconcile the fallback
        stage only — the adaptive stage totals cover only the fallback
        by declaration (same rule as ``repro analyze``).
        """
        root = getattr(result, "spans", None)
        summary: dict = {"reconciled": False, "spans": 0, "mismatches": []}
        if root is None:
            summary["mismatches"].append("result has no span tree")
        else:
            grafted = self._graft_tree(parent, root)
            summary["spans"] = grafted
            stage_sums: dict[str, float] = {}
            for s in root.walk():
                if (
                    not s.children
                    and "stage" in s.attrs
                    and s.name not in _GROUP_SPAN_NAMES
                ):
                    stage = str(s.attrs["stage"])
                    stage_sums[stage] = stage_sums.get(stage, 0.0) + s.duration
            stages = (
                ["FB"] if getattr(result, "degraded", False)
                else list(result.stage_cycles)
            )
            for stage in stages:
                want = result.stage_cycles.get(stage, 0.0)
                got = stage_sums.get(stage, 0.0)
                # per-leaf vs per-stage accumulation order differs, so
                # the sums agree only up to float summation error
                if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                    summary["mismatches"].append(
                        f"stage {stage}: grafted {got!r} != result {want!r}"
                    )
            summary["reconciled"] = not summary["mismatches"]
        self.end_span(
            parent,
            reconciled=summary["reconciled"],
            grafted_spans=summary["spans"],
        )
        return summary

    def _graft_tree(self, parent: TraceSpan, span) -> int:
        """Deterministic-id copy of one :class:`repro.obs.span.Span`."""
        with self._lock:
            ordinal = self._next_ordinal(parent.span_id)
            end = (
                span.end_cycle
                if span.end_cycle is not None
                else span.start_cycle
            )
            copy = TraceSpan(
                name=span.name,
                trace_id=self.trace_id,
                span_id=derive_span_id(
                    self.trace_id, parent.span_id, span.name, ordinal
                ),
                parent_id=parent.span_id,
                attrs=dict(span.attrs),
                events=[(e.label, e.detail) for e in span.events],
                start_cycle=span.start_cycle,
                end_cycle=end,
            )
            self.spans.append(copy)
            self._by_id[copy.span_id] = copy
        count = 1
        for child in span.children:
            count += self._graft_tree(copy, child)
        return count

    # -- root lifecycle ----------------------------------------------

    def retain(self) -> None:
        """One more party will write into this trace before it closes."""
        with self._lock:
            self._pending += 1

    def release(self, **root_attrs) -> None:
        """Drop one reference; the last release finalizes the trace."""
        with self._lock:
            if root_attrs:
                self.root.attrs.update(root_attrs)
            self._pending -= 1
            done = self._pending <= 0 and not self.finalized
            if done:
                self.finalized = True
                for span in self.spans:
                    if span is self.root:
                        continue  # the root closes cleanly, below
                    if span.t_end is None and span.end_cycle is None:
                        span.t_end = time.monotonic()
                        span.status = "unclosed"
                self.root.t_end = time.monotonic()
            hook = self.on_finalize if done else None
        if hook is not None:
            hook(self)

    # -- introspection ------------------------------------------------

    def validate(self) -> dict:
        """Rooted-tree check: exactly one root, zero orphan spans."""
        with self._lock:
            roots = [s for s in self.spans if s.parent_id is None]
            orphans = [
                s.span_id
                for s in self.spans
                if s.parent_id is not None and s.parent_id not in self._by_id
            ]
            open_spans = [s.span_id for s in self.spans if s.open]
            return {
                "trace_id": self.trace_id,
                "spans": len(self.spans),
                "roots": len(roots),
                "orphans": len(orphans),
                "orphan_ids": orphans,
                "open_spans": 0 if self.finalized else len(open_spans),
                "rooted": len(roots) == 1 and not orphans,
            }

    def id_manifest(self) -> str:
        """Byte-comparable id listing (creation order): the determinism
        surface — wall-clock data excluded by construction."""
        with self._lock:
            lines = [
                f"{self.trace_id} {s.span_id} "
                f"{s.parent_id or '-'} {s.name}"
                for s in self.spans
            ]
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "root_span_id": self.root.span_id,
                "finalized": self.finalized,
                "spans": [s.to_dict() for s in self.spans],
            }

    def perfetto_events(self, *, pid: int = 4) -> list[dict]:
        """Wall-clock request-trace track for the Perfetto payload."""
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": "request trace"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": f"trace {self.trace_id[:8]}"},
            },
        ]
        with self._lock:
            base = self.root.t_start or 0.0
            for s in self.spans:
                if s.t_start is None:
                    continue
                start = max(0.0, (s.t_start - base)) * 1e6
                end = max(0.0, ((s.t_end or s.t_start) - base)) * 1e6
                events.append(
                    {
                        "name": s.name,
                        "cat": "request",
                        "ph": "X",
                        "ts": start,
                        "dur": max(0.0, end - start),
                        "pid": pid,
                        "tid": 1,
                        "args": {
                            "span_id": s.span_id,
                            **{k: s.attrs[k] for k in sorted(s.attrs)},
                        },
                    }
                )
        return events


class TraceStore:
    """Bounded LRU store of finalized request traces (serve-side)."""

    def __init__(self, capacity: int = 256):
        from collections import OrderedDict

        self.capacity = max(1, int(capacity))
        self._traces: "OrderedDict[str, RequestTrace]" = OrderedDict()
        self._lock = threading.Lock()

    def add(self, trace: RequestTrace) -> None:
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> RequestTrace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# -- ambient context ----------------------------------------------------
#
# The pipeline internals (the adaptive selector, the degraded-fallback
# abort, shared-memory operand placement) see the request's trace through one
# contextvar instead of threading arguments through every engine layer.
# The serve executor activates it around the primary multiply; campaign
# workers activate it around each cell.

_ACTIVE: ContextVar[tuple[RequestTrace, TraceSpan, dict] | None] = ContextVar(
    "repro_active_trace", default=None
)


def current_trace() -> RequestTrace | None:
    """The request trace active in this execution context, if any."""
    active = _ACTIVE.get()
    return active[0] if active else None


def current_span() -> TraceSpan | None:
    """The active parent span for pipeline-internal children."""
    active = _ACTIVE.get()
    return active[1] if active else None


def current_trace_attrs() -> dict:
    """Attributable identity of the active context (empty when none).

    Returns ``{"trace_id", "span_id"}`` plus any extra attrs the
    activator supplied (the serve executor adds the breaker state) —
    the payload :meth:`SpanRecorder.abort` attaches to aborted spans.
    """
    active = _ACTIVE.get()
    if active is None:
        return {}
    trace, span, extra = active
    return {"trace_id": trace.trace_id, "span_id": span.span_id, **extra}


@contextmanager
def use_trace(trace: RequestTrace, span: TraceSpan, **extra):
    """Activate ``(trace, span)`` as the ambient context for a scope."""
    token = _ACTIVE.set((trace, span, extra))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def trace_note(label: str, detail: str = "") -> None:
    """Attach an event to the active span; no-op outside a trace."""
    active = _ACTIVE.get()
    if active is not None:
        trace, span, _ = active
        trace.event(span, label, detail)
