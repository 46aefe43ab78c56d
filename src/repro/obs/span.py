"""Structured spans on the simulated device clock.

A :class:`Span` is one named interval of the pipeline (``glb``,
``esc.round``, ``output.copy``, ...) with attributes, point events and
child spans.  The :class:`SpanRecorder` owns a monotonic clock measured
in simulated cycles and a stack of open spans, so the driver can nest
stages naturally::

    spans = SpanRecorder(clock_ghz=1.582)
    spans.start("acspgemm", engine="batched")
    spans.leaf("glb", 1234.0, stage="GLB")
    with spans.span("esc", stage="ESC"):
        spans.leaf("esc.round", 5678.0, round=0)
    root = spans.finish()

Because the driver — not the engines — emits every span, the span tree
is *engine-comparable by construction*: for a fixed input and seed all
execution engines produce the identical ordered tree (asserted in
``tests/test_obs.py``).  Resilience events (restarts, block aborts,
degradation) are recorded as point events on the span they occur in,
unifying the old ad-hoc trace points into the same structure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "GROUP_SPAN_NAMES",
    "HostSpanProfile",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "host_span_profile",
    "stage_leaf_spans",
]


@dataclass(frozen=True)
class SpanEvent:
    """An instantaneous event attributed to a span (restart, abort...)."""

    label: str
    cycle: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"label": self.label, "cycle": self.cycle, "detail": self.detail}


@dataclass
class Span:
    """One named interval on the simulated device timeline."""

    name: str
    start_cycle: float
    end_cycle: float | None = None
    attrs: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Span length in cycles (0.0 while still open)."""
        if self.end_cycle is None:
            return 0.0
        return self.end_cycle - self.start_cycle

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in pre-order, or None."""
        for s in self.walk():
            if s.name == name:
                return s
        return None

    def cycle_sum(self, name: str) -> float:
        """Total duration of every span named ``name`` in the subtree."""
        return sum(s.duration for s in self.walk() if s.name == name)

    def to_dict(self) -> dict:
        """Deterministic JSON-ready form (attrs sorted by key)."""
        return {
            "name": self.name,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "events": [e.to_dict() for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }


#: driver span names that group per-round leaves; normally excluded by
#: the no-children filter, but an empty stage (zero ESC blocks) leaves
#: its group span childless, so they are excluded by name as well
GROUP_SPAN_NAMES = frozenset({"esc", "mm", "pm", "sm"})


def stage_leaf_spans(root: Span) -> list[Span]:
    """The childless stage-attributed spans, in chronological order —
    exactly one per device-trace record."""
    return [
        s
        for s in root.walk()
        if not s.children
        and "stage" in s.attrs
        and s.name not in GROUP_SPAN_NAMES
    ]


class HostSpanProfile:
    """Aggregated host-side *self* time per span name.

    Collected out of band — the span tree itself carries only simulated
    cycles and stays bit-identical across engines — by crediting the
    wall time between consecutive recorder transitions to a span name.
    The driver emits ``leaf`` spans immediately *after* the host work
    they describe and opens ``span(...)`` contexts immediately before
    theirs, so the elapsed time preceding each ``start`` is credited to
    the span being started, and the time preceding each ``finish`` to
    the span being closed.  Calls are counted once per ``start``.
    """

    __slots__ = ("totals", "_mark")

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, host_seconds]
        self._mark = time.perf_counter()

    def _credit(self, name: str, *, call: bool) -> None:
        t = time.perf_counter()
        ent = self.totals.get(name)
        if ent is None:
            ent = self.totals[name] = [0, 0.0]
        ent[0] += 1 if call else 0
        ent[1] += t - self._mark
        self._mark = t

    def table(self) -> dict[str, dict]:
        """``{span_name: {"calls": n, "host_seconds": s}}`` snapshot."""
        return {
            name: {"calls": c, "host_seconds": s}
            for name, (c, s) in self.totals.items()
        }


_HOST_PROFILE: HostSpanProfile | None = None


@contextmanager
def host_span_profile():
    """Attribute host wall time to span names for the enclosed scope.

    Yields the :class:`HostSpanProfile` accumulating across every
    :class:`SpanRecorder` used inside the scope (a bench can aggregate
    over repeated runs).  Purely additive: the span trees produced
    inside the scope are identical to those produced outside it.
    """
    global _HOST_PROFILE
    if _HOST_PROFILE is not None:
        raise RuntimeError("host span profiling is already active")
    prof = HostSpanProfile()
    _HOST_PROFILE = prof
    try:
        yield prof
    finally:
        _HOST_PROFILE = None


class SpanRecorder:
    """Builds one span tree while advancing a simulated-cycle clock."""

    def __init__(self, clock_ghz: float = 1.582) -> None:
        self.clock_ghz = clock_ghz
        self.root: Span | None = None
        self._stack: list[Span] = []
        self._clock = 0.0

    @property
    def now(self) -> float:
        """Current device clock in cycles."""
        return self._clock

    @property
    def current(self) -> Span | None:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    # -- recording ---------------------------------------------------

    def start(self, name: str, **attrs) -> Span:
        """Open a span at the current clock and push it on the stack."""
        if _HOST_PROFILE is not None:
            _HOST_PROFILE._credit(name, call=True)
        span = Span(name=name, start_cycle=self._clock, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            raise RuntimeError("span tree already closed; one root per run")
        self._stack.append(span)
        return span

    def finish(self, **attrs) -> Span:
        """Close the innermost open span at the current clock."""
        if not self._stack:
            raise RuntimeError("no open span to finish")
        if _HOST_PROFILE is not None:
            _HOST_PROFILE._credit(self._stack[-1].name, call=False)
        span = self._stack.pop()
        span.end_cycle = self._clock
        span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """Scoped ``start``/``finish`` pair; yields the open span.

        A span unwound by an exception is tagged ``aborted=True`` so a
        degraded run's partial pipeline stays visible in the tree.
        """
        span = self.start(name, **attrs)
        try:
            yield span
        except BaseException:
            if self._stack and self._stack[-1] is span:
                self.finish(aborted=True)
            raise
        finally:
            if self._stack and self._stack[-1] is span:
                self.finish()

    def advance(self, cycles: float) -> None:
        """Move the clock forward inside the current span."""
        if cycles < 0:
            raise ValueError("cannot advance the clock backwards")
        self._clock += cycles

    def leaf(self, name: str, cycles: float, **attrs) -> Span:
        """A closed child span of ``cycles`` length, advancing the clock."""
        span = self.start(name, **attrs)
        self.advance(cycles)
        return self.finish()

    def event(self, label: str, detail: str = "") -> SpanEvent:
        """Record an instantaneous event on the innermost open span."""
        if not self._stack:
            raise RuntimeError("no open span to attach the event to")
        ev = SpanEvent(label=label, cycle=self._clock, detail=detail)
        self._stack[-1].events.append(ev)
        return ev

    def abort(self, reason: str = "", **attrs) -> None:
        """Close every open span except the root (failure unwinding).

        Each closed span is tagged ``aborted=True`` so a degraded run's
        partial pipeline remains visible — and engine-comparable, since
        injected faults fire at driver chokepoints before engine work.
        Extra ``attrs`` (trace ids, breaker state) land on every span
        closed by the unwind, keeping aborted traces attributable.
        """
        while len(self._stack) > 1:
            self.finish(aborted=True, **attrs)
        if self._stack:
            if attrs:
                self._stack[-1].attrs.update(attrs)
                # spans the exception already unwound on its way here
                # (the ``span()`` context manager tags those itself)
                # get the same attribution
                for span in self.root.walk():
                    if span.attrs.get("aborted"):
                        for key, value in attrs.items():
                            span.attrs.setdefault(key, value)
            if reason:
                self._stack[-1].events.append(
                    SpanEvent(label="abort", cycle=self._clock, detail=reason)
                )

    def close(self, **attrs) -> Span:
        """Close every open span (root last) and return the root."""
        if self.root is None:
            raise RuntimeError("no spans were recorded")
        while self._stack:
            self.finish()
        self.root.attrs.update(attrs)
        return self.root
